// Correctness gate over served responses.
//
//  - Every response: its modelled RunStats equal Accelerator::estimate(L, S)
//    of the pass that produced it, and its L / S / stream id / tenant match
//    the request.
//  - The sample — the first kSamplePerClass responses of every (tenant,
//    class, view) in each phase (the blocks of a phase share one quota,
//    since they share its name) — is bit-identical to a single-lane direct
//    reference: a routed response escalates exactly when the reference
//    screening pass crosses the threshold, and then equals a direct full-S
//    request; otherwise it equals the screening pass.
//  - Server counters add up: submitted == requests + rejected, and
//    requests == responses received.
// The self-check proves the bit comparison fires on a perturbed reference.
#ifndef PERFBENCH_GATE_H
#define PERFBENCH_GATE_H

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/accelerator.h"
#include "loadgen.h"
#include "runtime/thread_pool.h"
#include "workloads.h"

namespace perfbench {

class Gate {
 public:
  static constexpr int kSamplePerClass = 2;

  explicit Gate(const Workload& workload);

  void check(const Phase& phase, const Deployment& deployment);
  /// Re-verifies one sampled response against a reference with one float
  /// nudged by an ulp; records a failure unless the gate rejects it.
  /// Returns whether the gate fired.
  bool self_check(const Deployment& deployment);

  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }
  std::uint64_t stats_checked() const { return stats_checked_; }
  std::uint64_t bits_checked() const { return bits_checked_; }

 private:
  // Empty string = the record verifies.
  std::string verify(const Record& record, const Deployment& deployment, bool sampled,
                     bool perturb);
  bnn::core::Accelerator& reference(const std::shared_ptr<const bnn::quant::QuantNetwork>& net);
  void fail(const std::string& message);

  const Workload& workload_;
  bnn::runtime::ThreadPool pool_{1};
  std::map<const bnn::quant::QuantNetwork*, std::unique_ptr<bnn::core::Accelerator>> refs_;
  std::map<std::tuple<const bnn::quant::QuantNetwork*, int, int>, bnn::core::RunStats>
      estimates_;
  // Responses sampled so far, by (phase name, tenant, class, view).
  std::map<std::tuple<std::string, int, int, bool>, int> sampled_;
  const Record* witness_ = nullptr;  // a sampled record that verified
  std::vector<std::string> failures_;
  std::uint64_t stats_checked_ = 0;
  std::uint64_t bits_checked_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_GATE_H
