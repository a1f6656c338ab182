// Deployment and load generation: stands a workload up behind a
// serve::Server (the set-up that setup_s times) and drives it from ONE
// generator thread, open loop or as an offline drain.
//
// Open-loop latency runs from each request's DUE time to the moment the
// generator observes its future ready. The generator polls every
// outstanding future between submissions instead of waiting on them in
// submission order, so a request the LPT dispatcher finished early is not
// stamped when an older one completes.
#ifndef PERFBENCH_LOADGEN_H
#define PERFBENCH_LOADGEN_H

#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "runtime/thread_pool.h"
#include "serve/server.h"
#include "measure.h"
#include "workloads.h"

namespace perfbench {

/// A workload stood up behind a server. Members are destroyed in reverse
/// order, so the server stops before the pool and registry it uses.
struct Deployment {
  std::shared_ptr<bnn::serve::ModelRegistry> registry;
  std::unique_ptr<bnn::runtime::ThreadPool> pool;
  std::unique_ptr<bnn::serve::Server> server;
  /// Quantized form of each workload network (index = Workload::networks).
  std::vector<std::shared_ptr<const bnn::quant::QuantNetwork>> qnets;
  /// Every published version, by (tenant key, version): what the gate
  /// checks each response against.
  std::map<std::pair<bnn::serve::ModelKey, std::uint64_t>,
           std::shared_ptr<const bnn::serve::ModelVersion>>
      versions;
};

/// Quantizes every network, publishes every tenant into a fresh registry,
/// constructs the server, and serves one warm-up request per tenant x
/// request class (x view). Returns when the server is ready for its first
/// timed request.
Deployment deploy(Workload& workload);

/// One request as the generator saw it.
struct Record {
  Arrival arrival;
  Clock::time_point due{};
  Clock::time_point submit_begin{};
  Clock::time_point submit_end{};
  Clock::time_point ready{};
  std::optional<bnn::serve::Response> response;  ///< nullopt = failed

  double latency_ms() const {
    return std::chrono::duration<double, std::milli>(ready - due).count();
  }
};

/// One measured phase, or the blocks of one phase taken together.
struct Phase {
  const char* name = "";
  std::vector<Record> records;
  /// From the phase start to the last future observed ready (summed over
  /// blocks).
  double wall_s = 0.0;
  double process_cpu_s = 0.0;
  /// CPU of the generator thread outside submit(): its spin and poll loop,
  /// the only CPU that is not the program's.
  double generator_cpu_s = 0.0;
  bnn::serve::ServerStats server_before, server_after;
  bnn::serve::RegistryStats registry_before, registry_after;

  std::size_t failed() const;
};

/// Submits each arrival at its due time and stamps completions as observed.
/// With `spans`, records the request / serve.submit / serve.wait spans of
/// every request.
Phase run_open_loop(const char* name, Deployment& deployment, const Workload& workload,
                    const std::vector<Arrival>& arrivals, SpanLog* spans);

/// Submits the whole list at once and waits for every future.
Phase run_drain(const char* name, Deployment& deployment, const Workload& workload,
                const std::vector<Arrival>& arrivals, SpanLog* spans);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H
