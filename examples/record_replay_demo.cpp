// Record/replay walkthrough: journal a burst of requests to a trace file,
// replay it under a DIFFERENT serving configuration (more replicas, more
// threads), and show the checksum gate catching a corrupted golden value.
//
//   ./build/examples/record_replay_demo
//
// Steps:
//   1. train + quantize the tiny CNN fixture (deterministic seeds),
//   2. serve a burst scenario with ServerConfig::trace_path set — every
//      request lands in the journal with a golden FNV-1a response checksum,
//   3. read the trace back and replay it at R=2/threads=2 under cost-aware
//      dispatch — bit-identity makes every checksum match,
//   4. corrupt one recorded checksum in memory and replay again — the gate
//      reports exactly that request as divergent.
#include <cstdio>

#include "bench/serve_fixture.h"
#include "serve/replay.h"
#include "serve/scenario.h"
#include "serve/server.h"
#include "serve/trace.h"

using namespace bnn;

int main() {
  const char* trace_path = "record_replay_demo.trace";

  std::printf("== 1. fixture: tiny quantized CNN on 12x12 synthetic digits ==\n");
  const bench::ServeFixture fixture = bench::make_cnn12_fixture();

  std::printf("== 2. record: burst scenario through a traced server ==\n");
  serve::ScenarioSpec spec;
  spec.kind = serve::ScenarioKind::burst;
  spec.num_requests = 12;
  spec.num_samples = 4;
  spec.burst_size = 4;
  const auto events = serve::generate_scenario(spec);
  {
    serve::ServerConfig config;
    config.max_batch = 4;
    config.num_replicas = 1;
    config.num_threads = 1;
    config.trace_path = trace_path;
    serve::Server server(bench::single_model_registry(fixture.qnet, {fixture.workload_id}),
                         bench::serve_accel_config(), config);
    const auto responses = serve::play_scenario(
        server, events,
        [&](const serve::ScenarioEvent& event) {
          return bench::fixture_image(fixture, event);
        },
        /*as_fast_as_possible=*/true);
    std::printf("   served %zu requests at R=1/threads=1\n", responses.size());
  }  // shutdown finalizes the journal

  serve::Trace trace = serve::read_trace(trace_path);
  std::printf("   trace: %zu records, fingerprint %016llx, sampler seed %llu\n",
              trace.records.size(),
              static_cast<unsigned long long>(trace.meta.network_fingerprint),
              static_cast<unsigned long long>(trace.meta.sampler_seed));

  std::printf("== 3. replay under a DIFFERENT configuration (R=2, threads=2) ==\n");
  // The replayer's registry publishes the same fixture under the recorded
  // (empty) tenant name.
  const auto registry = bench::single_model_registry(fixture.qnet);
  serve::ReplayConfig replay_config;
  replay_config.num_replicas = 2;
  replay_config.num_threads = 2;
  replay_config.dispatch_mode = serve::DispatchMode::cost_aware;
  const serve::ReplayReport clean =
      serve::replay_trace(trace, registry, bench::serve_accel_config(), replay_config);
  std::printf("   %s\n", serve::replay_summary(clean).c_str());
  if (!clean.ok() || clean.matched != trace.records.size()) {
    std::fprintf(stderr, "FATAL: clean replay diverged — bit-identity broken\n");
    return 1;
  }

  std::printf("== 4. corrupt one golden checksum: the gate must catch it ==\n");
  const std::size_t victim = trace.records.size() / 2;
  trace.records[victim].checksum ^= 0xdeadbeefull;
  const serve::ReplayReport corrupted =
      serve::replay_trace(trace, registry, bench::serve_accel_config(), replay_config);
  std::printf("   %s\n", serve::replay_summary(corrupted).c_str());
  if (corrupted.divergences.size() != 1 ||
      corrupted.divergences.front().seq != trace.records[victim].seq) {
    std::fprintf(stderr, "FATAL: corrupted checksum not pinpointed\n");
    return 1;
  }
  std::printf("   divergence correctly pinned to request seq=%llu\n",
              static_cast<unsigned long long>(corrupted.divergences.front().seq));

  std::printf("\nrecord/replay round trip OK: checksums gate bit-identity across "
              "serving configurations\n");
  return 0;
}
