// Request-level serving throughput: requests/sec through serve::Server as a
// function of the coalescing batch size, the replica count, the backpressure
// queue depth, the DISPATCH MODE (greedy FIFO vs cost-aware LPT), and the
// OVERLOAD POLICY (fail-fast vs adaptive latency-target shedding), with and
// without the Opt-Uncertainty router — plus a SCENARIO SUITE (diurnal load,
// bursts, adversarial all-escalate, mixed shapes) generated by
// serve/scenario.h, the same generator the record/replay tooling consumes.
//
// This is the end-to-end software analogue of the paper's serving story:
// a stream of single-image requests with small per-request S, coalesced
// into accelerator batches whose flattened (image, sample) pair loop keeps
// the shared thread pool busy. Replica rows run R accelerator replicas
// behind one queue; the dispatch table serves a mixed cheap/expensive
// two-shape wave under both dispatch modes (cost-aware ranks per-shape
// batch groups by the paper's own performance model and serves the
// costliest first — LPT); the overload table drives a bounded queue past
// saturation under fail_fast and adaptive shedding via the generator's
// two_phase_overload kind (closed-loop warm phase, then an open-loop flood).
//
// Determinism is verified across EVERY configuration: request r is
// submitted with the fixed stream id r, so every batch size, replica
// count, queue depth, dispatch mode, and scenario shape must produce
// bit-identical responses to the single-replica max_batch=1 run. Admission
// decisions may differ across overload policies (that is their job) —
// there the gate covers every full-quality served response plus counter
// consistency (submitted == served + rejected). Any divergence is a hard
// failure.
//
//   ./build/bench/serve_throughput [--requests N] [--S N] [--repeats N]
//                                  [--replicas-max R] [--latency-target MS]
//                                  [--json PATH] [--scenarios-json PATH]
//
// --json writes the BENCH_serve.json artifact and --scenarios-json the
// per-scenario BENCH_scenarios.json artifact (both uploaded by CI) so
// successive PRs have a recorded serving-throughput trajectory.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/serve_fixture.h"
#include "serve/cost_model.h"
#include "serve/scenario.h"
#include "serve/server.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace {

using namespace bnn;

struct WaveConfig {
  serve::ScenarioKind kind = serve::ScenarioKind::uniform;
  int max_batch = 4;
  bool router = false;
  int replicas = 1;
  int queue_depth = 0;  // 0 = unbounded
  serve::DispatchMode dispatch = serve::DispatchMode::cost_aware;
  serve::OverloadPolicy policy = serve::OverloadPolicy::block;
  double latency_target_ms = 0.0;
  double arrival_gap_ms = 0.0;  // open-loop inter-arrival time (0 = at once)
  bool timed = false;           // pace submissions to the scenario arrivals
};

struct Row {
  WaveConfig config;
  double req_per_sec = 0.0;
  serve::ServerStats stats;
  bool bit_identical = true;
  bool counters_consistent = true;
};

/// One tenant of the multi-tenant wave (per-model row of BENCH_serve.json).
struct TenantRow {
  serve::ModelServeStats stats;
  double cold_reload_ms = 0.0;  ///< modelled DDR reload price when evicted
  bool bit_identical = true;    ///< vs this tenant's single-model baseline
};

struct TenantReport {
  std::vector<TenantRow> rows;
  serve::RegistryStats registry;
  double req_per_sec = 0.0;
};

/// One tenant's cold start: the modelled flat whole-plan reload vs the
/// double-buffered streamed stall, plus the measured wall time to first
/// response ("cold_start" rows of BENCH_serve.json).
struct ColdStartRow {
  std::string name;
  double pass_ms = 0.0;           ///< modelled single-request inference pass
  double whole_reload_ms = 0.0;   ///< flat whole-plan DDR reload price
  double streamed_stall_ms = 0.0; ///< non-overlapped remainder under prefetch
  double wall_ttfr_ms = 0.0;      ///< measured TTFR of the cold request
  bool bit_identical = true;      ///< cold response matches the hot rerun
  bool gate_ok = true;            ///< modelled streamed strictly < whole-plan
};

const char* dispatch_name(serve::DispatchMode mode) {
  return mode == serve::DispatchMode::fifo ? "fifo" : "cost";
}

const char* policy_name(serve::OverloadPolicy policy) {
  switch (policy) {
    case serve::OverloadPolicy::block: return "block";
    case serve::OverloadPolicy::fail_fast: return "fail_fast";
    case serve::OverloadPolicy::adaptive: return "adaptive";
  }
  return "?";
}

void write_json(const char* path, const std::vector<Row>& rows,
                const TenantReport& tenants,
                const std::vector<ColdStartRow>& cold_rows) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "serve_throughput: cannot open %s for writing\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"serve_throughput\",\n  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"workload\": \"%s\", \"max_batch\": %d, \"router\": %s, "
                 "\"replicas\": %d, \"queue_depth\": %d, \"dispatch\": \"%s\", "
                 "\"policy\": \"%s\", \"latency_target_ms\": %.3f, "
                 "\"req_per_sec\": %.1f, \"p50_ms\": %.3f, \"p95_ms\": %.3f, "
                 "\"p99_ms\": %.3f, \"batches\": %llu, \"escalated\": %llu, "
                 "\"rejected\": %llu, \"shed_downgraded\": %llu, "
                 "\"shed_rejected\": %llu, \"peak_queue_depth\": %llu, "
                 "\"bit_identical\": %s}%s\n",
                 serve::scenario_kind_name(r.config.kind), r.config.max_batch,
                 r.config.router ? "true" : "false", r.config.replicas,
                 r.config.queue_depth, dispatch_name(r.config.dispatch),
                 policy_name(r.config.policy), r.config.latency_target_ms, r.req_per_sec,
                 r.stats.latency_p50_ms, r.stats.latency_p95_ms, r.stats.latency_p99_ms,
                 static_cast<unsigned long long>(r.stats.batches),
                 static_cast<unsigned long long>(r.stats.escalations),
                 static_cast<unsigned long long>(r.stats.rejected),
                 static_cast<unsigned long long>(r.stats.shed_downgraded),
                 static_cast<unsigned long long>(r.stats.shed_rejected),
                 static_cast<unsigned long long>(r.stats.peak_queue_depth),
                 r.bit_identical ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"tenants\": [\n");
  for (std::size_t i = 0; i < tenants.rows.size(); ++i) {
    const TenantRow& t = tenants.rows[i];
    std::fprintf(f,
                 "    {\"model\": \"%s\", \"version\": %llu, \"submitted\": %llu, "
                 "\"served\": %llu, \"rejected\": %llu, \"quota_rejected\": %llu, "
                 "\"cold_starts\": %llu, \"cold_reload_ms\": %.6f, "
                 "\"bit_identical\": %s}%s\n",
                 t.stats.name.c_str(), static_cast<unsigned long long>(t.stats.version),
                 static_cast<unsigned long long>(t.stats.submitted),
                 static_cast<unsigned long long>(t.stats.served),
                 static_cast<unsigned long long>(t.stats.rejected),
                 static_cast<unsigned long long>(t.stats.quota_rejected),
                 static_cast<unsigned long long>(t.stats.cold_starts), t.cold_reload_ms,
                 t.bit_identical ? "true" : "false",
                 i + 1 < tenants.rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"cold_start\": [\n");
  for (std::size_t i = 0; i < cold_rows.size(); ++i) {
    const ColdStartRow& c = cold_rows[i];
    std::fprintf(f,
                 "    {\"model\": \"%s\", \"pass_ms\": %.6f, "
                 "\"whole_reload_ms\": %.6f, \"streamed_stall_ms\": %.6f, "
                 "\"ttfr_whole_ms\": %.6f, \"ttfr_streamed_ms\": %.6f, "
                 "\"wall_ttfr_ms\": %.3f, "
                 "\"bit_identical\": %s, \"streamed_cheaper\": %s}%s\n",
                 c.name.c_str(), c.pass_ms, c.whole_reload_ms, c.streamed_stall_ms,
                 c.pass_ms + c.whole_reload_ms, c.pass_ms + c.streamed_stall_ms,
                 c.wall_ttfr_ms,
                 c.bit_identical ? "true" : "false", c.gate_ok ? "true" : "false",
                 i + 1 < cold_rows.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"registry\": {\"req_per_sec\": %.1f, \"models\": %llu, "
               "\"hot_models\": %llu, \"resident_bytes\": %llu, "
               "\"resident_segments\": %llu, \"evictions\": %llu, "
               "\"segment_evictions\": %llu, \"segment_builds\": %llu, "
               "\"reloads\": %llu, \"swaps\": %llu}\n}\n",
               tenants.req_per_sec, static_cast<unsigned long long>(tenants.registry.models),
               static_cast<unsigned long long>(tenants.registry.hot_models),
               static_cast<unsigned long long>(tenants.registry.resident_bytes),
               static_cast<unsigned long long>(tenants.registry.resident_segments),
               static_cast<unsigned long long>(tenants.registry.evictions),
               static_cast<unsigned long long>(tenants.registry.segment_evictions),
               static_cast<unsigned long long>(tenants.registry.segment_builds),
               static_cast<unsigned long long>(tenants.registry.reloads),
               static_cast<unsigned long long>(tenants.registry.swaps));
  std::fclose(f);
}

void write_scenarios_json(const char* path, const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "serve_throughput: cannot open %s for writing\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"serve_scenarios\",\n  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"scenario\": \"%s\", \"max_batch\": %d, \"replicas\": %d, "
                 "\"dispatch\": \"%s\", \"req_per_sec\": %.1f, \"p50_ms\": %.3f, "
                 "\"p95_ms\": %.3f, \"p99_ms\": %.3f, \"batches\": %llu, "
                 "\"escalated\": %llu, \"bit_identical\": %s}%s\n",
                 serve::scenario_kind_name(r.config.kind), r.config.max_batch,
                 r.config.replicas, dispatch_name(r.config.dispatch), r.req_per_sec,
                 r.stats.latency_p50_ms, r.stats.latency_p95_ms, r.stats.latency_p99_ms,
                 static_cast<unsigned long long>(r.stats.batches),
                 static_cast<unsigned long long>(r.stats.escalations),
                 r.bit_identical ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  int num_requests = 48;
  int num_samples = 8;
  int repeats = 3;
  int replicas_max = 4;
  double latency_target_ms = 0.0;  // 0 = auto (2x a measured healthy p99)
  const char* json_path = nullptr;
  const char* scenarios_json_path = nullptr;
  bool stream_smoke = false;  // run ONLY the cold-start section (ctest gate)
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc)
      num_requests = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--S") == 0 && i + 1 < argc)
      num_samples = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--repeats") == 0 && i + 1 < argc)
      repeats = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--replicas-max") == 0 && i + 1 < argc)
      replicas_max = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--latency-target") == 0 && i + 1 < argc)
      latency_target_ms = std::atof(argv[++i]);
    else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
    else if (std::strcmp(argv[i], "--scenarios-json") == 0 && i + 1 < argc)
      scenarios_json_path = argv[++i];
    else if (std::strcmp(argv[i], "--stream-smoke") == 0)
      stream_smoke = true;
  }

  // Shared serving fixtures (bench/serve_fixture.h): the tiny quantized CNN
  // and the two-shape MLP-49, derived from pinned seeds — identical to the
  // networks the record/replay tooling rebuilds.
  const bench::ServeFixture cnn = bench::make_cnn12_fixture();
  const bench::ServeFixture mlp = bench::make_mlp49_fixture();

  std::printf(
      "serving throughput: %d requests, S=%d (screening S=2), tiny CNN int8, "
      "%u hardware threads\n\n",
      num_requests, num_samples, std::thread::hardware_concurrency());

  const core::AcceleratorConfig accel_config = bench::serve_accel_config();

  // --- cold-start: modelled whole-plan reload vs streamed stall ------------
  // Time-to-first-response for an evicted tenant. The registry rebuilds its
  // missing segments before the first pass; what the board would pay for
  // the reload is priced two ways: a flat DDR reload of every weight byte
  // ahead of the pass (modelled TTFR = pass + whole reload) vs the
  // double-buffered stream the server actually charges (modelled TTFR =
  // pass + only the non-overlapped stall remainder — layer k+1's burst
  // rides behind layer k's compute). The modelled comparison is a HARD
  // GATE: streamed must be strictly cheaper for every tenant. The wall
  // TTFR is reported for reference. Every cold response must be
  // bit-identical to the hot rerun on the same stream id (hard gate),
  // proving rebuilt segments are pure functions of the kept constants.
  // Each tenant uses a FRESH server so the first request genuinely
  // exercises the cold path instead of a cached replica bind.
  // --stream-smoke runs only this section (the bench.stream_smoke ctest
  // entry).
  std::vector<ColdStartRow> cold_rows;
  const auto run_cold_start = [&]() -> bool {
    const bench::ServeFixture cnn_b = bench::make_cnn12b_fixture();
    const bench::ServeFixture* fixtures[3] = {&cnn, &mlp, &cnn_b};
    const std::vector<std::string> names = {"cnn12", "mlp49", "cnn12b"};

    util::TextTable cold_table("cold start — modelled whole-plan reload vs streamed stall");
    cold_table.set_header({"model", "pass ms", "whole reload ms", "streamed stall ms",
                           "TTFR whole", "TTFR streamed", "wall TTFR ms", "bit-identical"});
    bool ok = true;
    for (int m = 0; m < 3; ++m) {
      auto registry = std::make_shared<serve::ModelRegistry>();
      for (int t = 0; t < 3; ++t) {
        serve::ModelConfig model_config;
        model_config.workload_id = fixtures[t]->workload_id;
        registry->publish(names[t], fixtures[t]->qnet, model_config);
      }
      // The modelled prices of reloading every segment of tenant m.
      const auto version = registry->current(names[m]);
      serve::CostModel cost(core::PerfConfig{accel_config.nne, accel_config.ddr},
                            accel_config.use_intermediate_caching);
      cost.bind_model(version->key, version->network->describe(), version->weight_bytes,
                      nullptr, version->segment_bytes);
      std::vector<int> all_missing(version->segment_bytes.size());
      std::iota(all_missing.begin(), all_missing.end(), 0);
      ColdStartRow row;
      row.name = names[m];
      row.pass_ms = cost.modelled_ms(version->key, -1, num_samples);
      row.whole_reload_ms = cost.cold_reload_ms(version->key);
      row.streamed_stall_ms = cost.streamed_reload_ms(version->key, all_missing);
      row.gate_ok = row.streamed_stall_ms < row.whole_reload_ms;

      serve::ServerConfig server_config;
      server_config.max_batch = 1;
      server_config.default_model = names[0];
      serve::Server server(registry, accel_config, server_config);
      registry->evict_segments(names[m]);  // force the tenant fully cold

      serve::Request request;
      request.image = bench::fixture_image(*fixtures[m], serve::ScenarioEvent{});
      request.options.num_samples = num_samples;
      request.model = names[m];
      request.stream_id = static_cast<std::uint64_t>(m);

      util::Stopwatch watch;
      serve::Request cold_request = request;
      const serve::Response cold = server.submit(std::move(cold_request)).get();
      row.wall_ttfr_ms = watch.elapsed_seconds() * 1e3;
      const serve::Response hot = server.submit(std::move(request)).get();
      row.bit_identical = cold.cold_start && cold.probs.max_abs_diff(hot.probs) == 0.0f &&
                          cold.escalated == hot.escalated;
      ok = ok && row.bit_identical && row.gate_ok;
      cold_table.add_row({row.name, util::fixed(row.pass_ms, 4),
                          util::fixed(row.whole_reload_ms, 4),
                          util::fixed(row.streamed_stall_ms, 4),
                          util::fixed(row.pass_ms + row.whole_reload_ms, 4),
                          util::fixed(row.pass_ms + row.streamed_stall_ms, 4),
                          util::fixed(row.wall_ttfr_ms, 2),
                          row.bit_identical ? "yes" : "NO"});
      cold_rows.push_back(row);
    }
    std::printf("%s\n", cold_table.to_string().c_str());
    if (!ok)
      std::fprintf(stderr,
                   "FATAL: cold start — a modelled streamed stall failed to undercut "
                   "the whole-plan reload, or a cold response diverged\n");
    return ok;
  };
  if (stream_smoke) return run_cold_start() ? 0 : 1;

  // Wave -> scenario: every wave's stimulus stream now comes from the
  // shared generator (request r at stream id r, batch-independent).
  const auto spec_for = [&](const WaveConfig& wave) {
    serve::ScenarioSpec spec;
    spec.kind = wave.kind;
    spec.num_requests = num_requests;
    spec.num_samples = num_samples;
    spec.screening_samples = 2;
    spec.routed = wave.router;
    spec.entropy_threshold_nats = 1.2;
    spec.arrival_gap_ms = wave.arrival_gap_ms;
    return spec;
  };
  const auto fixture_for = [&](serve::ScenarioKind kind) -> const bench::ServeFixture& {
    return kind == serve::ScenarioKind::mixed_shapes ? mlp : cnn;
  };

  auto run_wave = [&](const WaveConfig& wave) {
    serve::ServerConfig server_config;
    server_config.max_batch = wave.max_batch;
    server_config.num_replicas = wave.replicas;
    server_config.max_queue_depth = wave.queue_depth;
    server_config.overload_policy = wave.policy;
    server_config.dispatch_mode = wave.dispatch;
    server_config.latency_target_ms = wave.latency_target_ms;
    const bench::ServeFixture& fixture = fixture_for(wave.kind);
    serve::Server server(bench::single_model_registry(fixture.qnet), accel_config,
                         server_config);
    const std::vector<serve::ScenarioEvent> events = serve::generate_scenario(spec_for(wave));
    std::vector<std::optional<serve::Response>> responses = serve::play_scenario(
        server, events,
        [&fixture](const serve::ScenarioEvent& event) {
          return bench::fixture_image(fixture, event);
        },
        /*as_fast_as_possible=*/!wave.timed);
    return std::make_pair(std::move(responses), server.stats());
  };

  std::vector<Row> rows;
  auto measure = [&](const WaveConfig& wave,
                     const std::vector<std::optional<serve::Response>>* reference) {
    Row row;
    row.config = wave;
    std::vector<std::optional<serve::Response>> responses;
    // Keep responses AND stats from the best repeat, so each reported row
    // is internally consistent (req/s and the latency percentiles come
    // from the same run).
    double seconds = 1e300;
    for (int r = 0; r < repeats; ++r) {
      util::Stopwatch watch;
      auto [wave_responses, wave_stats] = run_wave(wave);
      const double elapsed = watch.elapsed_seconds();
      if (elapsed < seconds) {
        seconds = elapsed;
        responses = std::move(wave_responses);
        row.stats = wave_stats;
      }
    }
    row.req_per_sec = num_requests / seconds;
    // submitted == served(full) + shed_downgraded_then_served + rejected.
    row.counters_consistent =
        row.stats.submitted == (row.stats.requests - row.stats.shed_downgraded) +
                                   row.stats.shed_downgraded + row.stats.rejected &&
        row.stats.shed_rejected <= row.stats.rejected &&
        row.stats.shed_downgraded <= row.stats.requests;
    if (reference != nullptr) {
      for (int r = 0; r < num_requests; ++r) {
        const auto& slot = responses[static_cast<std::size_t>(r)];
        if (!slot.has_value()) continue;  // rejected: admission only
        if (slot->shed_downgraded) continue;  // screening-only by design
        const auto& ref = (*reference)[static_cast<std::size_t>(r)];
        row.bit_identical = row.bit_identical && ref.has_value() &&
                            slot->probs.max_abs_diff(ref->probs) == 0.0f &&
                            slot->escalated == ref->escalated;
      }
    }
    rows.push_back(row);
    return responses;
  };

  const auto add_row = [&](util::TextTable& table, const Row& row) {
    table.add_row({std::to_string(row.config.max_batch), row.config.router ? "on" : "off",
                   std::to_string(row.config.replicas),
                   row.config.queue_depth == 0 ? std::string("inf")
                                               : std::to_string(row.config.queue_depth),
                   dispatch_name(row.config.dispatch),
                   util::fixed(row.req_per_sec, 1), util::fixed(row.stats.latency_p50_ms, 2),
                   util::fixed(row.stats.latency_p95_ms, 2),
                   util::fixed(row.stats.latency_p99_ms, 2),
                   std::to_string(row.stats.batches), std::to_string(row.stats.escalations),
                   row.bit_identical ? "yes" : "NO"});
  };

  util::TextTable table(
      "serve::Server — requests/sec vs batch size, replica count, queue depth");
  table.set_header({"max_batch", "router", "R", "queue", "dispatch", "req/s", "p50 ms",
                    "p95 ms", "p99 ms", "batches", "escalated", "bit-identical"});

  // --- coalescing sweep (R=1), router off/on, as in earlier PRs ------------
  // The router-on max_batch=1 responses double as the replica sweep's
  // bit-identity reference (same wave, same stream ids).
  std::vector<std::optional<serve::Response>> router_reference;
  for (const bool router : {false, true}) {
    std::vector<std::optional<serve::Response>> reference;
    for (const int max_batch : {1, 4, 16}) {
      WaveConfig wave;
      wave.max_batch = max_batch;
      wave.router = router;
      auto responses = measure(wave, max_batch == 1 ? nullptr : &reference);
      if (max_batch == 1) reference = std::move(responses);
      add_row(table, rows.back());
    }
    if (router) router_reference = std::move(reference);
    table.add_separator();
  }

  // --- replica sweep: R accelerator replicas behind one queue --------------
  {
    const auto& reference = router_reference;
    for (int replicas = 2; replicas <= replicas_max; replicas *= 2) {
      WaveConfig wave;
      wave.max_batch = 4;
      wave.router = true;
      wave.replicas = replicas;
      measure(wave, &reference);
      add_row(table, rows.back());
    }
    // Bounded queue under blocking backpressure: same responses, the
    // submitters just pace themselves against max_queue_depth.
    WaveConfig bounded;
    bounded.max_batch = 4;
    bounded.router = true;
    bounded.replicas = std::min(2, replicas_max);
    bounded.queue_depth = 8;
    measure(bounded, &reference);
    add_row(table, rows.back());
  }
  std::printf("%s\n", table.to_string().c_str());

  // --- dispatch-mode sweep: greedy FIFO vs cost-aware LPT ------------------
  // Mixed S/L two-shape MLP wave (ScenarioKind::mixed_shapes): light
  // {S=2, L=1} requests under two (C,H,W) views plus 1-in-4 heavy
  // {4S, all-L} requests. The cost-aware dispatcher serves the costliest
  // queued shape group first, so at R>=2 the heavy groups stop queueing
  // behind cheap ones — the tail (p99) should be no worse than FIFO's, and
  // on multi-core hosts measurably better. Responses are bit-identical
  // across BOTH modes (hard gate).
  util::TextTable dispatch_table(
      "dispatch mode — mixed S/L two-shape wave (LPT vs greedy FIFO)");
  dispatch_table.set_header({"max_batch", "router", "R", "queue", "dispatch", "req/s",
                             "p50 ms", "p95 ms", "p99 ms", "batches", "escalated",
                             "bit-identical"});
  {
    // Single-threaded one-at-a-time reference for the mixed wave.
    WaveConfig reference_wave;
    reference_wave.kind = serve::ScenarioKind::mixed_shapes;
    reference_wave.max_batch = 1;
    reference_wave.replicas = 1;
    reference_wave.dispatch = serve::DispatchMode::fifo;
    auto reference = measure(reference_wave, nullptr);
    add_row(dispatch_table, rows.back());
    dispatch_table.add_separator();
    for (int replicas = 1; replicas <= std::min(2, replicas_max); replicas *= 2) {
      double p99[2] = {0.0, 0.0};
      for (const serve::DispatchMode mode :
           {serve::DispatchMode::fifo, serve::DispatchMode::cost_aware}) {
        WaveConfig wave;
        wave.kind = serve::ScenarioKind::mixed_shapes;
        wave.max_batch = 4;
        wave.replicas = replicas;
        wave.dispatch = mode;
        measure(wave, &reference);
        p99[mode == serve::DispatchMode::cost_aware ? 1 : 0] =
            rows.back().stats.latency_p99_ms;
        add_row(dispatch_table, rows.back());
      }
      std::printf("R=%d: cost-aware p99 %.2f ms vs fifo p99 %.2f ms (%s)\n", replicas,
                  p99[1], p99[0], p99[1] <= p99[0] ? "<= fifo, LPT holds" : "> fifo");
    }
  }
  std::printf("%s\n", dispatch_table.to_string().c_str());

  // --- overload sweep: fail-fast vs adaptive latency-target shedding -------
  // ScenarioKind::two_phase_overload: a closed-loop warm phase fills the
  // latency window with healthy service times, then an open-loop flood
  // arrives at a fixed rate faster than the server drains. fail_fast
  // rejects everything that arrives full; adaptive downgrades routed
  // requests to screening-only first and rejects by predicted cost only
  // while p99 exceeds the target, so it should serve more of the wave at a
  // bounded tail.
  util::TextTable overload_table(
      "overload policy — bounded queue past saturation");
  overload_table.set_header({"policy", "target ms", "req/s", "p50 ms", "p99 ms", "served",
                             "downgraded", "rejected", "shed_rej", "counters",
                             "bit-identical"});
  {
    // Unbounded reference run of the same wave (same stream ids).
    WaveConfig reference_wave;
    reference_wave.kind = serve::ScenarioKind::two_phase_overload;
    reference_wave.max_batch = 1;
    reference_wave.replicas = 1;
    reference_wave.dispatch = serve::DispatchMode::fifo;
    auto reference = measure(reference_wave, nullptr);
    if (latency_target_ms <= 0.0) {
      // Auto target: 2x the p99 of a sequential (unsaturated) probe — an
      // achievable bound that saturated queueing clearly violates, so the
      // adaptive row actually sheds on this host whatever its speed.
      serve::Server probe(bench::single_model_registry(cnn.qnet), accel_config);
      serve::ScenarioSpec probe_spec = spec_for(reference_wave);
      probe_spec.num_requests = std::min(6, num_requests);
      probe_spec.warm_requests = probe_spec.num_requests;  // fully closed-loop
      (void)serve::play_scenario(
          probe, serve::generate_scenario(probe_spec),
          [&](const serve::ScenarioEvent& event) { return bench::fixture_image(cnn, event); },
          /*as_fast_as_possible=*/true);
      latency_target_ms = 2.0 * std::max(0.05, probe.stats().latency_p99_ms);
      std::printf("auto latency target: %.2f ms (2x sequential-probe p99)\n\n",
                  latency_target_ms);
    }
    for (const serve::OverloadPolicy policy :
         {serve::OverloadPolicy::fail_fast, serve::OverloadPolicy::adaptive}) {
      WaveConfig wave;
      wave.kind = serve::ScenarioKind::two_phase_overload;
      wave.max_batch = 2;
      wave.replicas = 1;
      wave.queue_depth = 6;
      wave.policy = policy;
      wave.timed = true;  // the flood's fixed arrival rate is the stimulus
      // Arrivals 8x faster than the healthy per-request latency (the auto
      // target is 2x it): a genuine overload for both policies.
      wave.arrival_gap_ms = latency_target_ms / 16.0;
      if (policy == serve::OverloadPolicy::adaptive)
        wave.latency_target_ms = latency_target_ms;
      measure(wave, &reference);
      const Row& row = rows.back();
      overload_table.add_row(
          {policy_name(policy),
           policy == serve::OverloadPolicy::adaptive ? util::fixed(latency_target_ms, 1)
                                                     : std::string("-"),
           util::fixed(row.req_per_sec, 1), util::fixed(row.stats.latency_p50_ms, 2),
           util::fixed(row.stats.latency_p99_ms, 2), std::to_string(row.stats.requests),
           std::to_string(row.stats.shed_downgraded), std::to_string(row.stats.rejected),
           std::to_string(row.stats.shed_rejected),
           row.counters_consistent ? "ok" : "BAD", row.bit_identical ? "yes" : "NO"});
    }
  }
  std::printf("%s\n", overload_table.to_string().c_str());

  // --- scenario suite: the generator's remaining traffic shapes ------------
  // Each scenario runs once at the reference configuration (max_batch 1,
  // R=1, FIFO) and once scaled up (max_batch 4, R=2, cost-aware); the
  // scaled run must serve bit-identical responses. These rows feed the
  // BENCH_scenarios.json artifact.
  util::TextTable scenario_table("scenario suite — generator traffic shapes");
  scenario_table.set_header({"scenario", "req/s (ref)", "req/s (scaled)", "p99 ms",
                             "batches", "escalated", "bit-identical"});
  std::vector<Row> scenario_rows;
  for (const serve::ScenarioKind kind :
       {serve::ScenarioKind::diurnal, serve::ScenarioKind::burst,
        serve::ScenarioKind::adversarial_escalate, serve::ScenarioKind::mixed_shapes}) {
    WaveConfig reference_wave;
    reference_wave.kind = kind;
    reference_wave.max_batch = 1;
    reference_wave.replicas = 1;
    reference_wave.dispatch = serve::DispatchMode::fifo;
    if (kind == serve::ScenarioKind::diurnal) reference_wave.arrival_gap_ms = 0.2;
    auto reference = measure(reference_wave, nullptr);
    const double ref_req_per_sec = rows.back().req_per_sec;

    WaveConfig wave = reference_wave;
    wave.max_batch = 4;
    wave.replicas = std::min(2, replicas_max);
    wave.dispatch = serve::DispatchMode::cost_aware;
    measure(wave, &reference);
    const Row& row = rows.back();
    scenario_rows.push_back(row);
    scenario_table.add_row(
        {serve::scenario_kind_name(kind), util::fixed(ref_req_per_sec, 1),
         util::fixed(row.req_per_sec, 1), util::fixed(row.stats.latency_p99_ms, 2),
         std::to_string(row.stats.batches), std::to_string(row.stats.escalations),
         row.bit_identical ? "yes" : "NO"});
  }
  std::printf("%s\n", scenario_table.to_string().c_str());

  // --- multi-tenant wave: 3 models, one forced cold, hot-swap mid-wave -----
  // Three tenants (cnn12, mlp49, cnn12b) behind ONE server via the model
  // registry, round-robin traffic, a residency budget one byte short of
  // "everything hot" (the LRU tenant is forced cold and pays DDR reloads),
  // and a mid-wave hot-swap of an uninvolved spare tenant. Every response
  // must be bit-identical to that tenant's own single-model baseline.
  TenantReport tenant_report;
  bool all_tenants_identical = true;
  util::TextTable tenant_table(
      "multi-tenant — 3 models, residency-forced cold tenant, mid-wave swap");
  tenant_table.set_header({"model", "version", "submitted", "served", "cold_starts",
                           "reload ms", "bit-identical"});
  {
    const bench::ServeFixture cnn_b = bench::make_cnn12b_fixture();
    const bench::ServeFixture* tenant_fixtures[3] = {&cnn, &mlp, &cnn_b};
    const std::vector<std::string> tenant_names = {"cnn12", "mlp49", "cnn12b"};

    // Probe publish to size the weights, then rebuild the registry
    // with the under-by-one budget.
    std::uint64_t weight_bytes[3] = {0, 0, 0};
    std::uint64_t total_bytes = 0;
    {
      serve::ModelRegistry probe;
      for (int m = 0; m < 3; ++m) {
        serve::ModelConfig model_config;
        model_config.workload_id = tenant_fixtures[m]->workload_id;
        weight_bytes[m] =
            probe.publish(tenant_names[m], tenant_fixtures[m]->qnet, model_config)
                ->weight_bytes;
        total_bytes += weight_bytes[m];
      }
    }
    serve::RegistryConfig registry_config;
    registry_config.residency_budget_bytes = total_bytes - 1;
    auto registry = std::make_shared<serve::ModelRegistry>(registry_config);
    for (int m = 0; m < 3; ++m) {
      serve::ModelConfig model_config;
      model_config.workload_id = tenant_fixtures[m]->workload_id;
      registry->publish(tenant_names[m], tenant_fixtures[m]->qnet, model_config);
    }
    // The uninvolved swap victim: serves no traffic; its mid-wave flip must
    // not perturb anyone else's bits.
    registry->publish("spare", cnn_b.qnet, {});

    serve::ScenarioSpec spec;
    spec.kind = serve::ScenarioKind::burst;
    spec.num_requests = num_requests;
    spec.num_samples = num_samples;
    spec.screening_samples = 2;
    spec.num_models = 3;
    const std::vector<serve::ScenarioEvent> events = serve::generate_scenario(spec);

    // Per-tenant single-model baselines (R=1, max_batch=1, same stream
    // ids): the gold the multi-tenant server must reproduce exactly.
    std::vector<std::optional<serve::Response>> baseline(events.size());
    for (int m = 0; m < 3; ++m) {
      std::vector<serve::ScenarioEvent> mine;
      for (const serve::ScenarioEvent& event : events)
        if (event.model_index == m) mine.push_back(event);
      serve::ServerConfig base_config;
      base_config.max_batch = 1;
      serve::Server base(bench::single_model_registry(tenant_fixtures[m]->qnet),
                         accel_config, base_config);
      auto responses = serve::play_scenario(
          base, mine,
          [&](const serve::ScenarioEvent& event) {
            return bench::fixture_image(*tenant_fixtures[m], event);
          },
          /*as_fast_as_possible=*/true);
      for (std::size_t i = 0; i < mine.size(); ++i)
        baseline[mine[i].stream_id] = std::move(responses[i]);
    }

    serve::ServerConfig server_config;
    server_config.max_batch = 4;
    server_config.num_replicas = std::min(2, replicas_max);
    server_config.dispatch_mode = serve::DispatchMode::cost_aware;
    server_config.default_model = tenant_names[0];
    serve::Server server(registry, accel_config, server_config);
    const auto image_for = [&](const serve::ScenarioEvent& event) {
      return bench::fixture_image(*tenant_fixtures[event.model_index], event);
    };

    util::Stopwatch watch;
    const std::vector<serve::ScenarioEvent> first_half(
        events.begin(), events.begin() + static_cast<std::ptrdiff_t>(events.size() / 2));
    const std::vector<serve::ScenarioEvent> second_half(
        events.begin() + static_cast<std::ptrdiff_t>(events.size() / 2), events.end());
    auto first_responses =
        serve::play_scenario(server, first_half, tenant_names, image_for, true);
    registry->publish("spare", cnn.qnet, {});  // the mid-wave hot-swap
    auto second_responses =
        serve::play_scenario(server, second_half, tenant_names, image_for, true);
    tenant_report.req_per_sec = num_requests / watch.elapsed_seconds();

    std::vector<std::optional<serve::Response>> responses(events.size());
    for (std::size_t i = 0; i < first_responses.size(); ++i)
      responses[first_half[i].stream_id] = std::move(first_responses[i]);
    for (std::size_t i = 0; i < second_responses.size(); ++i)
      responses[second_half[i].stream_id] = std::move(second_responses[i]);

    bool identical_by_model[3] = {true, true, true};
    for (std::size_t r = 0; r < events.size(); ++r) {
      const int m = events[r].model_index;
      const auto& got = responses[r];
      const auto& ref = baseline[r];
      identical_by_model[m] = identical_by_model[m] && got.has_value() &&
                              ref.has_value() &&
                              got->probs.max_abs_diff(ref->probs) == 0.0f &&
                              got->escalated == ref->escalated;
    }

    // The modelled DDR reload price per tenant — what cost-aware dispatch
    // and admission charge when the tenant is resolved cold.
    serve::CostModel cost(core::PerfConfig{accel_config.nne, accel_config.ddr},
                          accel_config.use_intermediate_caching);
    tenant_report.registry = registry->stats();
    for (const serve::ModelServeStats& stats : server.model_stats()) {
      TenantRow row;
      row.stats = stats;
      for (int m = 0; m < 3; ++m) {
        if (tenant_names[static_cast<std::size_t>(m)] != stats.name) continue;
        cost.bind_model(stats.key,
                        registry->current(stats.name)->network->describe(),
                        weight_bytes[m]);
        row.cold_reload_ms = cost.cold_reload_ms(stats.key);
        row.bit_identical = identical_by_model[m];
      }
      tenant_report.rows.push_back(row);
      tenant_table.add_row({row.stats.name, std::to_string(row.stats.version),
                            std::to_string(row.stats.submitted),
                            std::to_string(row.stats.served),
                            std::to_string(row.stats.cold_starts),
                            util::fixed(row.cold_reload_ms, 4),
                            row.bit_identical ? "yes" : "NO"});
      all_tenants_identical = all_tenants_identical && row.bit_identical;
    }
  }
  std::printf("%s\n", tenant_table.to_string().c_str());
  std::printf(
      "registry: %llu tenants (%llu hot), %llu evictions, %llu cold reloads, "
      "%llu hot-swaps — cold tenants reload from DDR and stay bit-identical\n\n",
      static_cast<unsigned long long>(tenant_report.registry.models),
      static_cast<unsigned long long>(tenant_report.registry.hot_models),
      static_cast<unsigned long long>(tenant_report.registry.evictions),
      static_cast<unsigned long long>(tenant_report.registry.reloads),
      static_cast<unsigned long long>(tenant_report.registry.swaps));

  const bool cold_start_ok = run_cold_start();

  std::printf(
      "Reading the tables: larger max_batch coalesces more requests per\n"
      "accelerator pass; replica rows (R>1) pull per-shape batch groups\n"
      "concurrently, each replica on its slice of the shared pool —\n"
      "throughput scales with physical cores. The dispatch table's cost-aware\n"
      "rows rank queued shape groups with serve::CostModel (the paper's\n"
      "performance model) and serve the costliest first. The overload table\n"
      "saturates a depth-6 queue: adaptive downgrades routed requests to the\n"
      "screening pass and rejects by predicted cost, so its rejection count\n"
      "should undercut fail_fast's. The scenario suite replays the\n"
      "generator's diurnal/burst/adversarial/mixed shapes scaled up 2x.\n"
      "Responses are bit-identical across ALL rows at fixed stream ids\n"
      "(admission decisions excepted, by design) — checked, hard failure\n"
      "otherwise.\n");

  bool all_identical = true;
  bool all_consistent = true;
  for (const Row& row : rows) {
    all_identical = all_identical && row.bit_identical;
    all_consistent = all_consistent && row.counters_consistent;
  }
  if (json_path != nullptr) write_json(json_path, rows, tenant_report, cold_rows);
  if (scenarios_json_path != nullptr)
    write_scenarios_json(scenarios_json_path, scenario_rows);
  if (!cold_start_ok) return 1;  // its own FATAL already printed
  if (!all_identical) {
    std::fprintf(stderr,
                 "FATAL: batch size, replica count, queue depth, dispatch mode, "
                 "or scenario shape changed a response\n");
    return 1;
  }
  if (!all_tenants_identical) {
    std::fprintf(stderr,
                 "FATAL: multi-tenant serving diverged from a tenant's "
                 "single-model baseline\n");
    return 1;
  }
  if (!all_consistent) {
    std::fprintf(stderr, "FATAL: ServerStats counters inconsistent "
                         "(submitted != served + downgraded + rejected)\n");
    return 1;
  }
  return 0;
}
