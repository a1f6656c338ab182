// Layer execution plans: the precomputed, weight-derived state the NNE's
// kernel tiers (core/nne.cpp) dispatch on. Built once per QuantNetwork (by
// the accelerator's constructor, or per segment by the model registry) and
// shared read-only by every lane. The plain-loop specification
// (quant/qops.h) deliberately uses none of it, so the equivalence tests
// check these tables too.
//
// The bitpack tier's arithmetic identity (see docs/ARCHITECTURE.md for the
// full argument): a layer is WEIGHTS-BINARIZABLE when every weight row is
// drawn from {-W_f, 0, +W_f} for one per-row magnitude W_f and the term
// count is small enough that the closed form below cannot overflow int32.
// When, additionally, a pass's activations take at most two distinct values
// {lo, hi} (runtime check — true for sign-like feature maps), the NNE
// channel dot collapses to popcounts. With
//   base  = lo - zero_point,   delta = hi - lo,
//   xb[t] = (x[t] == hi),      pb/mb = popcount(xb & plus/minus mask),
//   Pp/Pm = popcount(plus/minus mask),
// every (x[t] - zp) equals base + delta*xb[t], so the int32 dot is EXACTLY
//   W_f * (base*(Pp - Pm) + delta*(pb - mb)).
// Zero-free rows ("pure binary") need only one XOR+popcount per word:
// mb = x_pop - pb and popcount(xb ^ plus) = x_pop + Pp - 2*pb give
// pb - mb = Pp - popcount(xb ^ plus). Tail bits past `terms` are zero in
// both operands, so no masking is needed.
//
// Everything here is integer arithmetic — the packed path produces the SAME
// int32 accumulator value as the int8 GEMM, hence the same bits through
// requantization. Tiers are caps, not demands: callers fall back to the int8
// tier whenever either condition fails.
#ifndef BNN_QUANT_QPLAN_H
#define BNN_QUANT_QPLAN_H

#include <cstdint>
#include <memory>
#include <vector>

#include "quant/qnetwork.h"
#include "quant/qtensor.h"

namespace bnn::quant {

// |base| <= 255 and delta <= 255, so W*(base*(Pp-Pm) + delta*(pb-mb)) is
// bounded by 128 * 255 * 2 * terms; terms <= 32768 keeps that under 2^31.
inline constexpr int kMaxBinarizableTerms = 32768;

struct LayerExecPlan {
  int terms = 0;  // in_c * kernel * kernel
  int words = 0;  // bit_words(terms); 0 for non-binarizable layers

  // Resident weight bytes: the QLayer's own weight storage plus the
  // zero-point correction and any grouped K-major copy below — the
  // residency currency a segment-granular registry budget is charged in.
  std::uint64_t weight_bytes = 0;

  // The int8 GEMM's per-filter zero-point correction,
  // (in.zero_point + 128) * sum_t w[f][t] (kernels::gemm_i8_corrections):
  // the GEMM sums unsigned activations u = x + 128 and subtracts it, which
  // leaves exactly sum_t (x_t - zp) * w[f][t]. out_c entries (4 bytes each
  // in weight_bytes).
  std::vector<std::int32_t> correction;

  // Grouped K-major int8 weight copy [gemm_i8_groups(terms)][ldw][4]
  // (kernels::pack_i8_kmajor) that the filter-vectorized GEMM reads. Built
  // for linear layers (the NNE runs them as one-position maps) and for conv
  // layers whose map has fewer than 16 positions
  // (kernels::gemm_i8_filter_vectorized, the same predicate the NNE
  // dispatches on); empty, with ldw 0, otherwise.
  int ldw = 0;
  std::vector<std::int8_t> weights_kmajor;

  // Hoisted conv index math (empty for linear layers): term t addresses
  // input channel t/(k*k) at kernel offset (term_dh[t], term_dw[t]);
  // term_off[t] is the flat input offset relative to the window's top-left
  // element, valid wherever the window is in bounds.
  std::vector<std::int32_t> term_dh, term_dw, term_off;

  // Binarizable-weight annotation (populated only when true).
  bool weights_binarizable = false;
  bool pure_binary = false;               // no zero weights anywhere -> XOR path
  std::vector<std::int32_t> magnitude;    // per-row W_f (0 for all-zero rows)
  std::vector<std::int32_t> plus_count;   // per-row popcount of the +W mask
  std::vector<std::int32_t> minus_count;  // per-row popcount of the -W mask
  std::vector<std::uint64_t> plus_bits;   // [out_c][words] packed +W masks
  std::vector<std::uint64_t> minus_bits;  // [out_c][words] packed -W masks

  const std::uint64_t* plus_row(int f) const {
    return plus_bits.data() + static_cast<std::size_t>(f) * words;
  }
  const std::uint64_t* minus_row(int f) const {
    return minus_bits.data() + static_cast<std::size_t>(f) * words;
  }
};

// One independently buildable, independently evictable unit of exec-plan
// state. Segments are immutable once built (build_layer_exec_plan is a pure
// function of the QLayer constants), so any number of plans, segment tables,
// and in-flight requests may share one.
using PlanSegment = std::shared_ptr<const LayerExecPlan>;

struct NetworkExecPlan {
  std::vector<PlanSegment> layers;

  int num_layers() const { return static_cast<int>(layers.size()); }
  const LayerExecPlan& layer(int i) const {
    return *layers[static_cast<std::size_t>(i)];
  }
  // Sum of per-segment weight bytes (null segments count zero).
  std::uint64_t weight_bytes() const {
    std::uint64_t total = 0;
    for (const PlanSegment& segment : layers)
      if (segment != nullptr) total += segment->weight_bytes;
    return total;
  }
};

LayerExecPlan build_layer_exec_plan(const QLayer& layer);
// The shared-ownership form: builds layer's plan on the heap, ready to be
// installed into any number of NetworkExecPlans or segment tables.
PlanSegment build_plan_segment(const QLayer& layer);
NetworkExecPlan build_network_exec_plan(const QuantNetwork& net);

// The static weight-side test described above (shared per-row magnitude,
// term bound). Pure weight property — independent of any input. Layers
// already carrying packed storage pass by construction.
bool layer_weights_binarizable(const QLayer& layer);

// Converts every binarizable layer to packed storage: builds the plus/minus
// masks, moves them into the QLayer, and drops the int8 byte rows (~8x
// resident shrink). Bit-preserving — materialize_weight_row reconstructs the
// exact rows, and plans built from packed layers are identical to plans
// built from the byte rows they replaced. Idempotent; returns the number of
// layers (newly) packed. Call after annotate_weight_tiers.
int pack_binarizable_weights(QuantNetwork& net);

// Stamps layer.geom.weights_binarizable on every layer so the flag flows
// through describe() into the performance/cost models. quantize_model calls
// this; hand-assembled networks (tests) may call it directly.
void annotate_weight_tiers(QuantNetwork& net);

// Runtime activation-side test: true when the payload takes at most two
// distinct values, returned as lo <= hi (lo == hi for constant tensors).
bool two_valued_activations(const QTensor& x, std::int8_t* lo, std::int8_t* hi);

// The packed inner product over the FULL term range of row f. `xbits` packs
// (x[t] == hi) with zero tail bits; `x_pop` is its popcount; base/delta as
// above. Exactly equal to sum_t (x[t] - zp) * weight_row(f)[t].
std::int32_t packed_row_dot(const LayerExecPlan& plan, int f, const std::uint64_t* xbits,
                            std::int32_t x_pop, std::int32_t base, std::int32_t delta);

}  // namespace bnn::quant

#endif  // BNN_QUANT_QPLAN_H
