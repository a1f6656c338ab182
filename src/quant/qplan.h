// Layer execution plans: the precomputed, weight-derived state the NNE
// (core/nne.cpp) reads. Built once per QuantNetwork (by the accelerator's
// constructor, or per segment by the model registry) and shared read-only
// by every lane. The plain-loop specification (quant/qops.h) deliberately
// uses none of it, so the equivalence tests check these tables too.
#ifndef BNN_QUANT_QPLAN_H
#define BNN_QUANT_QPLAN_H

#include <cstdint>
#include <memory>
#include <vector>

#include "quant/qnetwork.h"
#include "quant/qtensor.h"

namespace bnn::quant {

struct LayerExecPlan {
  int terms = 0;  // in_c * kernel * kernel

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

  // Kept only for perfbench/layers.cpp, which compiles against it.
  static constexpr bool weights_binarizable = false;
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

// True when the payload takes at most two distinct values, returned as
// lo <= hi (lo == hi for constant tensors). Kept only for
// perfbench/layers.cpp, which compiles against it.
bool two_valued_activations(const QTensor& x, std::int8_t* lo, std::int8_t* hi);

}  // namespace bnn::quant

#endif  // BNN_QUANT_QPLAN_H
