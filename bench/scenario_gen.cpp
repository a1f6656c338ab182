// Scenario-to-trace generator: builds a deterministic serving scenario
// (serve/scenario.h), records it through a serve::Server with the trace
// journal enabled, and leaves a .trace file any replayer can re-serve.
//
//   ./build/bench/scenario_gen [--scenario NAME|all] [--requests N] [--S N]
//                              [--screening N] [--gap-ms MS] [--timed]
//                              [--replicas R] [--threads T] [--max-batch B]
//                              [--policy block|adaptive] [--latency-target MS]
//                              [--queue-depth N] [--models N]
//                              [--out PATH | --out-dir DIR]
//
// Recording defaults to R=1/threads=1 — the canonical recording
// configuration whose traces the acceptance gate replays at every other
// R × threads × dispatch combination. --policy adaptive (with
// --latency-target and usually --queue-depth) records downgrade/reject
// outcomes and an admission trailer for shedding-replay tests.
// --models N (up to 3) records a MULTI-TENANT trace: the shared fixtures
// (cnn12, mlp49, cnn12b) published into one ModelRegistry, event r routed
// to tenant r % N, model ids journalled per record (v2 model table).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "bench/serve_fixture.h"
#include "serve/scenario.h"
#include "serve/server.h"
#include "serve/trace.h"

namespace {

using namespace bnn;

int run_one(serve::ScenarioKind kind, serve::ScenarioSpec spec,
            serve::ServerConfig server_config, const std::string& out_path,
            bool as_fast) {
  spec.kind = kind;
  if (spec.num_models > 1 && kind == serve::ScenarioKind::mixed_shapes) {
    std::fprintf(stderr,
                 "scenario_gen: mixed_shapes reshapes stimuli for the MLP-49 "
                 "geometry and cannot be multi-tenant\n");
    return 2;
  }
  server_config.trace_path = out_path;

  const std::vector<serve::ScenarioEvent> events = serve::generate_scenario(spec);
  std::vector<std::optional<serve::Response>> responses;
  if (spec.num_models > 1) {
    // Multi-tenant recording: shared fixtures in one registry, each event
    // routed to its model_index tenant; the per-record model table names
    // every tenant's fixture.
    const bench::MultiTenantFixture multi =
        bench::make_multi_tenant_fixture(spec.num_models);
    server_config.default_model = multi.names.front();
    serve::Server server(multi.registry, bench::serve_accel_config(), server_config);
    responses = serve::play_scenario(
        server, events, multi.names,
        [&multi](const serve::ScenarioEvent& event) {
          return bench::multi_fixture_image(multi, event);
        },
        as_fast);
  } else {
    const bench::ServeFixture fixture = kind == serve::ScenarioKind::mixed_shapes
                                            ? bench::make_mlp49_fixture()
                                            : bench::make_cnn12_fixture();
    serve::Server server(bench::single_model_registry(fixture.qnet, {fixture.workload_id}),
                         bench::serve_accel_config(), server_config);
    responses = serve::play_scenario(
        server, events,
        [&fixture](const serve::ScenarioEvent& event) {
          return bench::fixture_image(fixture, event);
        },
        as_fast);
  }  // ~Server finalizes the trace
  std::uint64_t served = 0, rejected = 0, downgraded = 0;
  for (const auto& response : responses) {
    if (!response.has_value()) {
      ++rejected;
    } else if (response->shed_downgraded) {
      ++downgraded;
    } else {
      ++served;
    }
  }

  const serve::Trace trace = serve::read_trace(out_path);
  std::printf(
      "%-22s -> %s: %zu records (%llu full, %llu downgraded, %llu rejected), "
      "%zu admission decisions\n",
      serve::scenario_kind_name(kind), out_path.c_str(), trace.records.size(),
      static_cast<unsigned long long>(served),
      static_cast<unsigned long long>(downgraded),
      static_cast<unsigned long long>(rejected), trace.admission.size());
  if (trace.records.size() != events.size()) {
    std::fprintf(stderr, "scenario_gen: trace holds %zu records for %zu events\n",
                 trace.records.size(), events.size());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario = "burst";
  std::string out_path;
  std::string out_dir = ".";
  serve::ScenarioSpec spec;
  spec.num_requests = 24;
  spec.num_samples = 4;
  spec.screening_samples = 2;
  serve::ServerConfig server_config;
  server_config.max_batch = 4;
  server_config.num_replicas = 1;
  server_config.num_threads = 1;
  bool as_fast = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scenario") == 0 && i + 1 < argc)
      scenario = argv[++i];
    else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc)
      spec.num_requests = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--S") == 0 && i + 1 < argc)
      spec.num_samples = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--screening") == 0 && i + 1 < argc)
      spec.screening_samples = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--gap-ms") == 0 && i + 1 < argc)
      spec.arrival_gap_ms = std::atof(argv[++i]);
    else if (std::strcmp(argv[i], "--timed") == 0)
      as_fast = false;
    else if (std::strcmp(argv[i], "--replicas") == 0 && i + 1 < argc)
      server_config.num_replicas = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc)
      server_config.num_threads = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--max-batch") == 0 && i + 1 < argc)
      server_config.max_batch = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--policy") == 0 && i + 1 < argc) {
      const char* name = argv[++i];
      if (std::strcmp(name, "adaptive") == 0)
        server_config.overload_policy = serve::OverloadPolicy::adaptive;
      else if (std::strcmp(name, "block") == 0)
        server_config.overload_policy = serve::OverloadPolicy::block;
      else {
        std::fprintf(stderr, "scenario_gen: unknown --policy '%s'\n", name);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--latency-target") == 0 && i + 1 < argc)
      server_config.latency_target_ms = std::atof(argv[++i]);
    else if (std::strcmp(argv[i], "--queue-depth") == 0 && i + 1 < argc)
      server_config.max_queue_depth = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--models") == 0 && i + 1 < argc)
      spec.num_models = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out_path = argv[++i];
    else if (std::strcmp(argv[i], "--out-dir") == 0 && i + 1 < argc)
      out_dir = argv[++i];
    else {
      std::fprintf(stderr, "scenario_gen: unknown argument '%s'\n", argv[i]);
      return 2;
    }
  }

  try {
    if (scenario == "all") {
      int status = 0;
      for (const serve::ScenarioKind kind : serve::all_scenario_kinds()) {
        const std::string path = out_dir + "/scenario_" +
                                 serve::scenario_kind_name(kind) + ".trace";
        status |= run_one(kind, spec, server_config, path, as_fast);
      }
      return status;
    }
    const serve::ScenarioKind kind = serve::scenario_kind_from_name(scenario);
    if (out_path.empty())
      out_path = out_dir + "/scenario_" + serve::scenario_kind_name(kind) + ".trace";
    return run_one(kind, spec, server_config, out_path, as_fast);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "scenario_gen: %s\n", error.what());
    return 1;
  }
}
