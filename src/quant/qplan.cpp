#include "quant/qplan.h"

#include "nn/gemm_kernels.h"
#include "util/check.h"

namespace bnn::quant {

LayerExecPlan build_layer_exec_plan(const QLayer& layer) {
  const nn::HwLayer& g = layer.geom;
  LayerExecPlan plan;
  plan.terms = g.in_c * g.kernel * g.kernel;
  plan.weight_bytes = layer.resident_weight_bytes();

  // Both int8 GEMM forms subtract the zero-point correction; the filter
  // tile (maps under 16 positions, and linear layers as one-position maps)
  // also reads the grouped K-major copy. Partial sums are bounded by
  // 255 * 128 * terms.
  util::require(std::int64_t{32640} * plan.terms < (std::int64_t{1} << 31),
                "qplan: int8 term sums could overflow int32");
  plan.correction.resize(static_cast<std::size_t>(g.out_c));
  nn::kernels::gemm_i8_corrections(g.out_c, plan.terms, layer.weights.data(),
                                   layer.in.zero_point, plan.correction.data());
  plan.weight_bytes += plan.correction.size() * sizeof(std::int32_t);
  if (g.op == nn::HwLayer::Op::linear ||
      nn::kernels::gemm_i8_filter_vectorized(g.conv_out_h * g.conv_out_w)) {
    plan.ldw = nn::kernels::gemm_i8_ldw(g.out_c);
    plan.weights_kmajor.resize(static_cast<std::size_t>(nn::kernels::gemm_i8_groups(plan.terms)) *
                               plan.ldw * 4);
    nn::kernels::pack_i8_kmajor(g.out_c, plan.terms, layer.weights.data(),
                                plan.weights_kmajor.data());
    plan.weight_bytes += plan.weights_kmajor.size();
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

}  // namespace bnn::quant
