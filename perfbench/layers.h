// Direct calls into each layer's public functions — the traced run's
// per-layer numbers. Every call is one span on the log:
//   quant.quantize / quant.plan            quantize_model, build_network_exec_plan
//   serve.registry.publish / .resolve      ModelRegistry (hot, and cold after
//                                          evict_segments) on a private registry
//   core.pass                              Accelerator::predict_batch at 1 lane
//                                          and at nproc - 1 lanes
//   core.nne.layer                         nne_run_layer_into, one span per layer
//                                          of a deterministic pass, beside the
//                                          layer's modelled cycles
#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "loadgen.h"
#include "measure.h"
#include "workloads.h"

namespace perfbench {

/// Direct Accelerator::predict_batch medians of one {network, L, S} pass.
struct PassTimes {
  double one_lane_ms = 0.0;
  double wide_ms = 0.0;  ///< nproc - 1 lanes
};

struct DirectResults {
  std::vector<Metric> metrics;
  /// Keyed by (workload network index, L, S).
  std::map<std::tuple<int, int, int>, PassTimes> passes;
  /// False when the layer-by-layer pass did not reproduce the accelerator's
  /// deterministic pass bit for bit.
  bool reproduced = true;
};

/// Runs every direct call for the workload's networks and classes, plus the
/// per-layer table of all six networks (printed to stdout).
DirectResults run_direct_calls(Workload& workload, const Deployment& deployment, SpanLog& log);

/// Direct pass time of the request a record stands for, at the workload's
/// lane count: the first pass, plus the escalation pass when escalated.
double direct_pass_ms(const DirectResults& direct, const Workload& workload,
                      const Arrival& arrival, bool escalated);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H
