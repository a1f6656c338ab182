#include "quant/qplan.h"

#include <cstdlib>

#include "nn/bitpack_kernels.h"
#include "nn/gemm_kernels.h"
#include "util/check.h"

namespace bnn::quant {

namespace {

// Per-row magnitude: every nonzero weight must be +W or -W for one W > 0.
// Returns W (0 for an all-zero row), or -1 when the row is not binarizable.
// W == 128 is reachable only through -128 entries (minus-only rows), since
// +128 is not representable in int8.
std::int32_t row_magnitude(const std::int8_t* w, int terms) {
  std::int32_t mag = 0;
  for (int t = 0; t < terms; ++t) {
    if (w[t] == 0) continue;
    const std::int32_t a = std::abs(static_cast<std::int32_t>(w[t]));
    if (mag == 0)
      mag = a;
    else if (a != mag)
      return -1;
  }
  return mag;
}

}  // namespace

bool layer_weights_binarizable(const QLayer& layer) {
  const nn::HwLayer& g = layer.geom;
  const int terms = g.in_c * g.kernel * g.kernel;
  if (terms <= 0 || terms > kMaxBinarizableTerms) return false;
  if (layer.weights_packed) return true;  // packing proved it already
  for (int f = 0; f < g.out_c; ++f)
    if (row_magnitude(layer.weight_row(f), terms) < 0) return false;
  return true;
}

int pack_binarizable_weights(QuantNetwork& net) {
  int packed = 0;
  for (QLayer& layer : net.layers) {
    if (layer.weights_packed || !layer_weights_binarizable(layer)) continue;
    // Build the masks once from the byte rows, then drop the rows.
    LayerExecPlan plan = build_layer_exec_plan(layer);
    layer.packed_words = plan.words;
    layer.packed_magnitude = std::move(plan.magnitude);
    layer.packed_plus = std::move(plan.plus_bits);
    layer.packed_minus = std::move(plan.minus_bits);
    layer.weights_packed = true;
    layer.weights.clear();
    layer.weights.shrink_to_fit();
    layer.geom.weights_binarizable = true;
    ++packed;
  }
  return packed;
}

void annotate_weight_tiers(QuantNetwork& net) {
  for (QLayer& layer : net.layers)
    layer.geom.weights_binarizable = layer_weights_binarizable(layer);
}

LayerExecPlan build_layer_exec_plan(const QLayer& layer) {
  const nn::HwLayer& g = layer.geom;
  LayerExecPlan plan;
  plan.terms = g.in_c * g.kernel * g.kernel;
  plan.weight_bytes = layer.resident_weight_bytes();

  if (g.op == nn::HwLayer::Op::conv) {
    plan.term_dh.resize(static_cast<std::size_t>(plan.terms));
    plan.term_dw.resize(static_cast<std::size_t>(plan.terms));
    plan.term_off.resize(static_cast<std::size_t>(plan.terms));
    const int kk2 = g.kernel * g.kernel;
    for (int t = 0; t < plan.terms; ++t) {
      const int ch = t / kk2;
      const int rem = t % kk2;
      const int dh = rem / g.kernel;
      const int dw = rem % g.kernel;
      plan.term_dh[static_cast<std::size_t>(t)] = dh;
      plan.term_dw[static_cast<std::size_t>(t)] = dw;
      plan.term_off[static_cast<std::size_t>(t)] = (ch * g.in_h + dh) * g.in_w + dw;
    }
  }

  // Both int8 GEMM forms subtract the zero-point correction; the filter
  // tile (maps under 16 positions, and linear layers as one-position maps)
  // also reads the grouped K-major copy. Partial sums are bounded by
  // 255 * 128 * terms.
  util::require(std::int64_t{32640} * plan.terms < (std::int64_t{1} << 31),
                "qplan: int8 term sums could overflow int32");
  std::vector<std::int8_t> materialized;
  const std::int8_t* rows = layer.weights.data();
  if (layer.weights_packed) {
    materialized.resize(static_cast<std::size_t>(g.out_c) * plan.terms);
    for (int f = 0; f < g.out_c; ++f)
      layer.materialize_weight_row(
          f, materialized.data() + static_cast<std::size_t>(f) * plan.terms);
    rows = materialized.data();
  }
  plan.correction.resize(static_cast<std::size_t>(g.out_c));
  nn::kernels::gemm_i8_corrections(g.out_c, plan.terms, rows, layer.in.zero_point,
                                   plan.correction.data());
  plan.weight_bytes += plan.correction.size() * sizeof(std::int32_t);
  if (g.op == nn::HwLayer::Op::linear ||
      nn::kernels::gemm_i8_filter_vectorized(g.conv_out_h * g.conv_out_w)) {
    plan.ldw = nn::kernels::gemm_i8_ldw(g.out_c);
    plan.weights_kmajor.resize(static_cast<std::size_t>(nn::kernels::gemm_i8_groups(plan.terms)) *
                               plan.ldw * 4);
    nn::kernels::pack_i8_kmajor(g.out_c, plan.terms, rows, plan.weights_kmajor.data());
    plan.weight_bytes += plan.weights_kmajor.size();
  }

  plan.weights_binarizable = layer_weights_binarizable(layer);
  if (!plan.weights_binarizable) return plan;

  if (layer.weights_packed) {
    // Packed layers already store exactly the plan's mask representation;
    // copy it and rederive the per-row popcounts.
    plan.words = layer.packed_words;
    plan.magnitude = layer.packed_magnitude;
    plan.plus_bits = layer.packed_plus;
    plan.minus_bits = layer.packed_minus;
    plan.plus_count.resize(static_cast<std::size_t>(g.out_c));
    plan.minus_count.resize(static_cast<std::size_t>(g.out_c));
    plan.pure_binary = true;
    for (int f = 0; f < g.out_c; ++f) {
      const std::int32_t pp = nn::kernels::popcount_words(plan.plus_row(f), plan.words);
      const std::int32_t pm = nn::kernels::popcount_words(plan.minus_row(f), plan.words);
      plan.plus_count[static_cast<std::size_t>(f)] = pp;
      plan.minus_count[static_cast<std::size_t>(f)] = pm;
      if (plan.magnitude[static_cast<std::size_t>(f)] == 0 || pp + pm != plan.terms)
        plan.pure_binary = false;
    }
    return plan;
  }

  plan.words = nn::kernels::bit_words(plan.terms);
  plan.magnitude.resize(static_cast<std::size_t>(g.out_c));
  plan.plus_count.resize(static_cast<std::size_t>(g.out_c));
  plan.minus_count.resize(static_cast<std::size_t>(g.out_c));
  plan.plus_bits.assign(static_cast<std::size_t>(g.out_c) * plan.words, 0);
  plan.minus_bits.assign(static_cast<std::size_t>(g.out_c) * plan.words, 0);
  plan.pure_binary = true;
  for (int f = 0; f < g.out_c; ++f) {
    const std::int8_t* w = layer.weight_row(f);
    const std::int32_t mag = row_magnitude(w, plan.terms);
    util::ensure(mag >= 0, "qplan: row stopped being binarizable");
    plan.magnitude[static_cast<std::size_t>(f)] = mag;
    std::uint64_t* plus = plan.plus_bits.data() + static_cast<std::size_t>(f) * plan.words;
    std::uint64_t* minus = plan.minus_bits.data() + static_cast<std::size_t>(f) * plan.words;
    std::int32_t pp = 0, pm = 0;
    for (int t = 0; t < plan.terms; ++t) {
      const std::int32_t v = w[t];
      if (v == 0) {
        plan.pure_binary = false;
        continue;
      }
      const int word = t / nn::kernels::kBitWordBits;
      const std::uint64_t bit = std::uint64_t{1} << (t % nn::kernels::kBitWordBits);
      if (v > 0) {
        plus[word] |= bit;
        ++pp;
      } else {
        minus[word] |= bit;
        ++pm;
      }
    }
    if (mag == 0) plan.pure_binary = false;  // all-zero row
    plan.plus_count[static_cast<std::size_t>(f)] = pp;
    plan.minus_count[static_cast<std::size_t>(f)] = pm;
  }
  return plan;
}

PlanSegment build_plan_segment(const QLayer& layer) {
  return std::make_shared<const LayerExecPlan>(build_layer_exec_plan(layer));
}

NetworkExecPlan build_network_exec_plan(const QuantNetwork& net) {
  NetworkExecPlan plan;
  plan.layers.reserve(net.layers.size());
  for (const QLayer& layer : net.layers) plan.layers.push_back(build_plan_segment(layer));
  return plan;
}

bool two_valued_activations(const QTensor& x, std::int8_t* lo, std::int8_t* hi) {
  util::require(!x.data.empty(), "two_valued_activations: empty tensor");
  std::int8_t a = x.data[0];
  std::int8_t b = a;
  for (const std::int8_t v : x.data) {
    if (v == a || v == b) continue;
    if (a == b) {
      b = v;
      continue;
    }
    return false;  // third distinct value
  }
  *lo = a < b ? a : b;
  *hi = a < b ? b : a;
  return true;
}

std::int32_t packed_row_dot(const LayerExecPlan& plan, int f, const std::uint64_t* xbits,
                            std::int32_t x_pop, std::int32_t base, std::int32_t delta) {
  const std::int32_t mag = plan.magnitude[static_cast<std::size_t>(f)];
  if (mag == 0) return 0;  // all-zero row contributes nothing
  const std::int32_t pp = plan.plus_count[static_cast<std::size_t>(f)];
  const std::int32_t pm = plan.minus_count[static_cast<std::size_t>(f)];
  std::int32_t pb_minus_mb;
  if (plan.pure_binary) {
    // One fused pass: disagreements D = popcount(xb ^ plus) satisfy
    // pb - mb = Pp - D (derivation in the header). x_pop is not needed on
    // this path but keeps the two branches call-compatible.
    (void)x_pop;
    const std::int32_t d = nn::kernels::popcount_xor(xbits, plan.plus_row(f), plan.words);
    pb_minus_mb = pp - d;
  } else {
    std::int32_t pb = 0, mb = 0;
    nn::kernels::popcount_and2(xbits, plan.plus_row(f), plan.minus_row(f), plan.words, &pb,
                               &mb);
    pb_minus_mb = pb - mb;
  }
  return mag * (base * (pp - pm) + delta * pb_minus_mb);
}

}  // namespace bnn::quant
