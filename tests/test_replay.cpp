// Record/replay (serve/replay.h) and the scenario generator:
//   - a mixed S/L escalation workload recorded at R=1/threads=1 replays
//     checksum-clean at R in {2,4} x threads in {2,8} under both dispatch
//     modes (and with original timing) — the fleet-level form of the
//     bit-identity invariant,
//   - mutating one recorded checksum makes the replayer report EXACTLY that
//     request,
//   - an adaptive-shedding recording carries downgrade/reject outcomes plus
//     the full admission trailer; the replayed AdmissionInputs decisions
//     match the recorded admission log outcome-for-outcome, and downgraded
//     records replay checksum-clean as never-escalating requests,
//   - the fingerprint/seed guard fails fast against the wrong weights,
//   - generate_scenario is deterministic and each kind has its documented
//     structure.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <string>
#include <vector>

#include "bench/serve_fixture.h"
#include "serve/replay.h"
#include "serve/scenario.h"
#include "serve/server.h"
#include "serve/trace.h"

namespace bnn {
namespace {

// Per-process path: ctest runs each TEST in its own process, and several of
// them record the same trace — a shared name would race under ctest -j.
std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + std::to_string(::getpid()) +
         "_" + name;
}

// Records `spec` through a traced server at the canonical recording
// configuration (R=1, threads=1) and returns the journal.
serve::Trace record_scenario(const bench::ServeFixture& fixture,
                             const serve::ScenarioSpec& spec, const char* name,
                             serve::ServerConfig config = {}) {
  const std::string path = temp_path(name);
  config.num_replicas = 1;
  config.num_threads = 1;
  config.trace_path = path;
  {
    serve::Server server(bench::single_model_registry(fixture.qnet, {fixture.workload_id}),
                         bench::serve_accel_config(), config);
    (void)serve::play_scenario(
        server, serve::generate_scenario(spec),
        [&fixture](const serve::ScenarioEvent& event) {
          return bench::fixture_image(fixture, event);
        },
        /*as_fast_as_possible=*/true);
  }  // shutdown finalizes the journal
  return serve::read_trace(path);
}

// The mixed S/L escalation workload of the acceptance criteria: two image
// shapes, 1-in-4 heavy direct {4S, all-L} requests, light requests routed
// with an always-escalate threshold.
serve::Trace record_mixed_escalation_trace() {
  serve::ScenarioSpec spec;
  spec.kind = serve::ScenarioKind::mixed_shapes;
  spec.num_requests = 12;
  spec.num_samples = 4;
  spec.screening_samples = 2;
  spec.routed = true;
  spec.entropy_threshold_nats = -1.0;  // every routed request escalates
  serve::ServerConfig config;
  config.max_batch = 4;
  return record_scenario(bench::shared_mlp49_fixture(), spec, "mixed_escalation.trace",
                         config);
}

const serve::Trace& mixed_escalation_trace() {
  static const serve::Trace trace = record_mixed_escalation_trace();
  return trace;
}

// Re-serves `trace` on a one-entry registry holding `fixture` under the
// recorded (empty) tenant name.
serve::ReplayReport replay_on(
    const serve::Trace& trace, const bench::ServeFixture& fixture,
    const serve::ReplayConfig& config = {},
    const core::AcceleratorConfig& accel = bench::serve_accel_config()) {
  return serve::replay_trace(trace, bench::single_model_registry(fixture.qnet), accel, config);
}

// --- the acceptance matrix ---------------------------------------------------

TEST(Replay, RecordedTraceCarriesTheMixedEscalationWorkload) {
  const serve::Trace& trace = mixed_escalation_trace();
  ASSERT_EQ(trace.records.size(), 12u);
  int escalated = 0, heavy = 0;
  for (const serve::TraceRecord& record : trace.records) {
    EXPECT_EQ(record.outcome, serve::TraceOutcome::served);
    EXPECT_NE(record.checksum, 0u);
    if (record.escalated) ++escalated;
    if (!record.options.use_uncertainty_router) {
      ++heavy;
      EXPECT_EQ(record.options.num_samples, 16);  // 4x S
      EXPECT_EQ(record.options.bayes_layers, -1);
    }
  }
  EXPECT_EQ(heavy, 3);            // 1-in-4 of 12
  EXPECT_EQ(escalated, 12 - 3);   // every routed light escalated
  EXPECT_NE(trace.meta.network_fingerprint, 0u);
  EXPECT_EQ(trace.meta.workload_id, bench::kWorkloadMlp49);
}

TEST(Replay, ChecksumCleanAcrossReplicasThreadsAndDispatchModes) {
  const serve::Trace& trace = mixed_escalation_trace();
  struct Cell {
    int replicas, threads;
    serve::DispatchMode mode;
  };
  const Cell cells[] = {
      {2, 2, serve::DispatchMode::fifo},       {2, 8, serve::DispatchMode::cost_aware},
      {4, 2, serve::DispatchMode::cost_aware}, {4, 8, serve::DispatchMode::fifo},
  };
  for (const Cell& cell : cells) {
    serve::ReplayConfig config;
    config.num_replicas = cell.replicas;
    config.num_threads = cell.threads;
    config.dispatch_mode = cell.mode;
    const serve::ReplayReport report = replay_on(trace, bench::shared_mlp49_fixture(), config);
    EXPECT_TRUE(report.ok()) << serve::replay_summary(report);
    EXPECT_EQ(report.replayed, trace.records.size());
    EXPECT_EQ(report.matched, trace.records.size());
    EXPECT_EQ(report.skipped, 0u);
  }
}

TEST(Replay, OriginalTimingModeReplaysClean) {
  const serve::Trace& trace = mixed_escalation_trace();
  serve::ReplayConfig config;
  config.num_replicas = 2;
  config.num_threads = 2;
  config.as_fast_as_possible = false;  // pace to the recorded arrival_us
  const serve::ReplayReport report = replay_on(trace, bench::shared_mlp49_fixture(), config);
  EXPECT_TRUE(report.ok()) << serve::replay_summary(report);
  EXPECT_EQ(report.matched, trace.records.size());
}

TEST(Replay, MutatedChecksumIsReportedAsExactlyThatRequest) {
  serve::Trace trace = mixed_escalation_trace();  // copy
  const std::size_t victim = trace.records.size() / 3;
  trace.records[victim].checksum ^= 0x1ull;
  const serve::ReplayReport report = replay_on(trace, bench::shared_mlp49_fixture());
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.divergences.size(), 1u);
  EXPECT_EQ(report.divergences[0].seq, trace.records[victim].seq);
  EXPECT_EQ(report.divergences[0].stream_id, trace.records[victim].stream_id);
  EXPECT_EQ(report.divergences[0].expected, trace.records[victim].checksum);
  EXPECT_EQ(report.divergences[0].actual, trace.records[victim].checksum ^ 0x1ull);
  EXPECT_EQ(report.matched, trace.records.size() - 1);
  // The one-line summary names the failure for humans.
  EXPECT_NE(serve::replay_summary(report).find("divergent 1"), std::string::npos);
}

// --- fingerprint / seed guard ------------------------------------------------

TEST(Replay, WrongWeightsOrSeedFailFastUnlessDisabled) {
  serve::Trace trace = mixed_escalation_trace();
  const bench::ServeFixture& fixture = bench::shared_mlp49_fixture();
  ASSERT_EQ(trace.meta.models.size(), 1u);

  serve::Trace wrong_weights = trace;
  wrong_weights.meta.models[0].fingerprint ^= 0xabcdull;
  EXPECT_THROW((void)replay_on(wrong_weights, fixture), std::runtime_error);

  serve::Trace wrong_seed = trace;
  wrong_seed.meta.sampler_seed += 1;
  EXPECT_THROW((void)replay_on(wrong_seed, fixture), std::runtime_error);

  // verify_fingerprint=false replays anyway; accelerators REALLY built with
  // a different sampler seed then show up the honest way — as checksum
  // divergences on every record (different mask streams).
  core::AcceleratorConfig off_seed_config = bench::serve_accel_config();
  off_seed_config.sampler_seed += 1;
  serve::ReplayConfig no_verify;
  no_verify.verify_fingerprint = false;
  const serve::ReplayReport report = replay_on(trace, fixture, no_verify, off_seed_config);
  EXPECT_FALSE(report.ok());
  EXPECT_GT(report.divergences.size(), 0u);

  // A zero fingerprint (caller-supplied network, no recorded metadata)
  // skips the guard entirely.
  serve::Trace unverified = trace;
  unverified.meta.models[0].fingerprint = 0;
  EXPECT_TRUE(replay_on(unverified, fixture).ok());
}

// --- escalation-reuse flag ---------------------------------------------------

TEST(Replay, ReuseScreeningSamplesFlagTravelsInTheHeaderAndReplaysClean) {
  serve::ScenarioSpec spec;
  spec.kind = serve::ScenarioKind::adversarial_escalate;
  spec.num_requests = 6;
  spec.num_samples = 4;
  spec.screening_samples = 2;
  serve::ServerConfig config;
  config.max_batch = 2;
  config.reuse_screening_samples = true;
  const serve::Trace trace =
      record_scenario(bench::shared_cnn12_fixture(), spec, "reuse.trace", config);
  EXPECT_TRUE(trace.meta.reuse_screening_samples);
  ASSERT_EQ(trace.records.size(), 6u);
  for (const serve::TraceRecord& record : trace.records)
    EXPECT_TRUE(record.escalated);  // adversarial: everything escalates

  serve::ReplayConfig replay_config;
  replay_config.num_replicas = 2;
  replay_config.num_threads = 2;
  const serve::ReplayReport report =
      replay_on(trace, bench::shared_cnn12_fixture(), replay_config);
  EXPECT_TRUE(report.ok()) << serve::replay_summary(report);
  EXPECT_EQ(report.matched, 6u);
}

// --- adaptive shedding traces ------------------------------------------------

// Mirrors the deterministic overload fixture of test_serve_cost: a
// microscopic latency target makes every post-warm admission take the
// shedding path, so the trace must carry one served, one downgraded, and
// one rejected record plus the complete admission trailer.
TEST(Replay, AdaptiveSheddingTraceReplaysDecisionsOutcomeForOutcome) {
  const bench::ServeFixture& fixture = bench::shared_cnn12_fixture();
  const std::string path = temp_path("shed.trace");

  serve::ServerConfig config;
  config.max_batch = 1;
  config.num_threads = 1;
  config.num_replicas = 1;
  config.overload_policy = serve::OverloadPolicy::adaptive;
  config.latency_target_ms = 1e-9;  // always "overloaded" once warm
  config.calibrate_cost_model = false;
  config.admission_log_capacity = 2;  // ring smaller than the trailer
  config.trace_path = path;

  std::vector<serve::AdmissionRecord> live_log;
  {
    serve::Server server(bench::single_model_registry(fixture.qnet, {fixture.workload_id}),
                         bench::serve_accel_config(), config);
    const auto request_for = [&](int n, serve::RequestOptions options,
                                 std::uint64_t stream_id) {
      serve::Request request;
      request.image = fixture.dataset.images().batch_row(n);
      request.options = options;
      request.stream_id = stream_id;
      return request;
    };
    serve::RequestOptions warm;
    warm.num_samples = 2;
    warm.bayes_layers = 1;
    EXPECT_FALSE(server.infer(request_for(0, warm, 100)).shed_downgraded);

    serve::RequestOptions routed;
    routed.num_samples = 10;
    routed.bayes_layers = 2;
    routed.use_uncertainty_router = true;
    routed.screening_samples = 2;
    routed.entropy_threshold_nats = -1.0;
    EXPECT_TRUE(server.infer(request_for(1, routed, 101)).shed_downgraded);

    serve::RequestOptions costly;
    costly.num_samples = 10;
    costly.bayes_layers = 2;
    EXPECT_THROW(server.submit(request_for(2, costly, 102)).get(),
                 serve::QueueFullError);
    live_log = server.admission_log();
  }

  const serve::Trace trace = serve::read_trace(path);
  ASSERT_EQ(trace.records.size(), 3u);
  EXPECT_EQ(trace.records[0].outcome, serve::TraceOutcome::served);
  EXPECT_EQ(trace.records[1].outcome, serve::TraceOutcome::downgraded);
  EXPECT_EQ(trace.records[2].outcome, serve::TraceOutcome::rejected);
  EXPECT_EQ(trace.records[2].checksum, 0u);  // no response to hash
  EXPECT_EQ(trace.records[1].stream_id, 101u);
  EXPECT_EQ(trace.records[2].stream_id, 102u);

  // The trailer keeps EVERY decision even though the in-memory ring
  // (capacity 2) only kept the newest two.
  ASSERT_EQ(trace.admission.size(), 3u);
  EXPECT_EQ(live_log.size(), 2u);
  EXPECT_EQ(trace.admission[0].action, serve::AdmissionAction::admit);
  EXPECT_EQ(trace.admission[1].action, serve::AdmissionAction::downgrade);
  EXPECT_EQ(trace.admission[2].action, serve::AdmissionAction::reject);
  // The ring's survivors are the trailer's tail, field for field.
  for (std::size_t i = 0; i < live_log.size(); ++i) {
    const serve::AdmissionRecord& ring = live_log[i];
    const serve::AdmissionRecord& trail = trace.admission[1 + i];
    EXPECT_EQ(ring.submit_seq, trail.submit_seq);
    EXPECT_EQ(ring.action, trail.action);
    EXPECT_DOUBLE_EQ(ring.inputs.p99_ms, trail.inputs.p99_ms);
    EXPECT_DOUBLE_EQ(ring.inputs.request_ms, trail.inputs.request_ms);
  }
  // Replaying the recorded AdmissionInputs through the pure rule reproduces
  // every recorded decision — outcome for outcome.
  for (const serve::AdmissionRecord& record : trace.admission)
    EXPECT_EQ(serve::adaptive_admission(record.inputs), record.action);

  // And the full replay: served + downgraded re-serve checksum-clean (the
  // downgrade transform), the rejected record is skipped, the admission
  // trailer re-derives clean.
  serve::ReplayConfig replay_config;
  replay_config.num_replicas = 2;
  replay_config.num_threads = 2;
  const serve::ReplayReport report = replay_on(trace, fixture, replay_config);
  EXPECT_TRUE(report.ok()) << serve::replay_summary(report);
  EXPECT_EQ(report.replayed, 2u);
  EXPECT_EQ(report.matched, 2u);
  EXPECT_EQ(report.skipped, 1u);
  EXPECT_EQ(report.admission_records, 3u);
  EXPECT_EQ(report.admission_mismatches, 0u);

  // A tampered admission record is a mismatch, not a silent pass.
  serve::Trace tampered = trace;
  tampered.admission[2].action = serve::AdmissionAction::admit;
  const serve::ReplayReport bad = replay_on(tampered, fixture, replay_config);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.admission_mismatches, 1u);
}

// --- the scenario generator --------------------------------------------------

TEST(Scenario, GenerationIsDeterministicAndValidated) {
  serve::ScenarioSpec spec;
  spec.kind = serve::ScenarioKind::diurnal;
  spec.num_requests = 16;
  spec.arrival_gap_ms = 0.5;
  const auto a = serve::generate_scenario(spec);
  const auto b = serve::generate_scenario(spec);
  ASSERT_EQ(a.size(), 16u);
  ASSERT_EQ(b.size(), 16u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_ms, b[i].arrival_ms);
    EXPECT_EQ(a[i].stream_id, i);
    EXPECT_EQ(a[i].image_index, static_cast<int>(i));
  }
  // Arrival offsets never run backwards, whatever the load curve does.
  for (std::size_t i = 1; i < a.size(); ++i)
    EXPECT_GE(a[i].arrival_ms, a[i - 1].arrival_ms);

  spec.num_requests = 0;
  EXPECT_THROW((void)serve::generate_scenario(spec), std::invalid_argument);
  spec.num_requests = 16;
  spec.diurnal_amplitude = 1.0;
  EXPECT_THROW((void)serve::generate_scenario(spec), std::invalid_argument);
}

TEST(Scenario, KindsHaveTheirDocumentedStructure) {
  serve::ScenarioSpec spec;
  spec.num_requests = 16;
  spec.num_samples = 4;

  spec.kind = serve::ScenarioKind::mixed_shapes;
  const auto mixed = serve::generate_scenario(spec);
  int heavy = 0;
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    EXPECT_EQ(mixed[i].shape_variant, static_cast<int>(i % 2));
    if (!mixed[i].options.use_uncertainty_router &&
        mixed[i].options.num_samples == 16) {
      ++heavy;
      EXPECT_EQ(mixed[i].options.bayes_layers, -1);
    }
  }
  EXPECT_EQ(heavy, 4);  // 1-in-4

  spec.kind = serve::ScenarioKind::adversarial_escalate;
  for (const auto& event : serve::generate_scenario(spec)) {
    EXPECT_TRUE(event.options.use_uncertainty_router);
    EXPECT_LT(event.options.entropy_threshold_nats, 0.0);  // always escalate
    EXPECT_EQ(event.options.bayes_layers, -1);
  }

  spec.kind = serve::ScenarioKind::two_phase_overload;
  spec.warm_requests = -1;  // default split: num_requests / 4
  const auto overload = serve::generate_scenario(spec);
  for (std::size_t i = 0; i < overload.size(); ++i)
    EXPECT_EQ(overload[i].closed_loop_warm, i < 4) << i;

  spec.kind = serve::ScenarioKind::burst;
  spec.burst_size = 4;
  spec.burst_quiet_ms = 2.0;
  const auto burst = serve::generate_scenario(spec);
  // Within a burst arrivals coincide; bursts are separated by the quiet gap.
  EXPECT_EQ(burst[1].arrival_ms, burst[0].arrival_ms);
  EXPECT_GE(burst[4].arrival_ms, burst[3].arrival_ms + 2.0);

  EXPECT_THROW((void)serve::scenario_kind_from_name("no_such_kind"),
               std::invalid_argument);
  EXPECT_EQ(std::string("burst"),
            serve::scenario_kind_name(serve::scenario_kind_from_name("burst")));
  EXPECT_EQ(serve::all_scenario_kinds().size(), 6u);
}

// --- multi-model traces ------------------------------------------------------

// Records a 3-tenant round-robin wave through a registry-backed server and
// returns the journal (v2, 3-entry model table).
const serve::Trace& multi_model_trace() {
  static const serve::Trace trace = [] {
    const std::string path = temp_path("multi_model.trace");
    const bench::MultiTenantFixture multi = bench::make_multi_tenant_fixture(3);
    serve::ScenarioSpec spec;
    spec.num_requests = 12;
    spec.num_samples = 4;
    spec.num_models = 3;
    serve::ServerConfig config;
    config.max_batch = 2;
    config.default_model = multi.names.front();
    config.trace_path = path;
    {
      serve::Server server(multi.registry, bench::serve_accel_config(), config);
      (void)serve::play_scenario(
          server, serve::generate_scenario(spec), multi.names,
          [&multi](const serve::ScenarioEvent& event) {
            return bench::multi_fixture_image(multi, event);
          },
          /*as_fast_as_possible=*/true);
    }
    return serve::read_trace(path);
  }();
  return trace;
}

TEST(Replay, MultiModelTraceReplaysThroughARebuiltRegistry) {
  const serve::Trace& trace = multi_model_trace();
  ASSERT_EQ(trace.meta.models.size(), 3u);
  for (const serve::TraceRecord& record : trace.records)
    EXPECT_EQ(record.model_key, record.seq % 3);

  // A registry missing any referenced tenant refuses the trace by name.
  EXPECT_THROW((void)replay_on(trace, bench::shared_cnn12_fixture()), std::runtime_error);

  // Registry replay: rebuild every tenant from its model-table workload id
  // (exactly what tools/trace_replay does) and re-serve under a scaled-up
  // configuration. Checksum-clean, per the core invariant.
  auto registry = std::make_shared<serve::ModelRegistry>();
  for (const serve::TraceModelInfo& info : trace.meta.models) {
    bench::ServeFixture fixture = bench::make_workload_fixture(info.workload_id);
    serve::ModelConfig model_config;
    model_config.workload_id = fixture.workload_id;
    registry->publish(info.name, std::move(fixture.qnet), model_config);
  }
  serve::ReplayConfig replay_config;
  replay_config.num_replicas = 2;
  replay_config.num_threads = 2;
  const serve::ReplayReport report =
      serve::replay_trace(trace, registry, bench::serve_accel_config(), replay_config);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.replayed, 12u);
  EXPECT_EQ(report.matched, 12u);

  // Per-model fingerprint guard: hot-swap one tenant and the replay fails
  // fast, naming it — unless verification is disabled.
  bench::ServeFixture other = bench::make_cnn12b_fixture();
  registry->publish(trace.meta.models.front().name, std::move(other.qnet), {});
  EXPECT_THROW((void)serve::replay_trace(trace, registry,
                                         bench::serve_accel_config(), replay_config),
               std::runtime_error);

  // A trace spanning a hot-swap (two versions of one key in the table) is
  // not replayable against a single registry state.
  serve::Trace swapped = trace;
  serve::TraceModelInfo second = swapped.meta.models.front();
  second.model_version = 2;
  swapped.meta.models.push_back(second);
  EXPECT_THROW((void)serve::replay_trace(swapped, registry,
                                         bench::serve_accel_config(), replay_config),
               std::invalid_argument);
}

// --- trace diffing -----------------------------------------------------------

TEST(Replay, DiffTracesNamesTheFirstDivergentRecord) {
  const serve::Trace& trace = mixed_escalation_trace();

  serve::TraceDiff same = serve::diff_traces(trace, trace);
  EXPECT_TRUE(same.identical());
  EXPECT_EQ(same.compared, trace.records.size());
  EXPECT_EQ(same.equal, trace.records.size());
  EXPECT_NE(serve::diff_summary(same).find("identical"), std::string::npos);

  // One flipped checksum: exactly that seq, labelled as a checksum diff.
  serve::Trace mutated = trace;
  mutated.records[5].checksum ^= 1;
  serve::TraceDiff diff = serve::diff_traces(trace, mutated);
  EXPECT_FALSE(diff.identical());
  EXPECT_EQ(diff.equal, trace.records.size() - 1);
  EXPECT_EQ(diff.first_divergent_seq, trace.records[5].seq);
  EXPECT_EQ(diff.first_divergence, "checksum");
  EXPECT_NE(serve::diff_summary(diff).find("first divergence"), std::string::npos);

  // A truncated trace counts trailing extras on the longer side.
  serve::Trace shorter = trace;
  shorter.records.pop_back();
  diff = serve::diff_traces(trace, shorter);
  EXPECT_FALSE(diff.identical());
  EXPECT_EQ(diff.extra_a, 1u);
  EXPECT_EQ(diff.extra_b, 0u);
  EXPECT_EQ(diff.first_divergence, "record count");

  // Metadata divergence (different sampler seed) fails even when every
  // record pair happens to agree.
  serve::Trace reseeded = trace;
  reseeded.meta.sampler_seed += 1;
  diff = serve::diff_traces(trace, reseeded);
  EXPECT_FALSE(diff.meta_matches);
  EXPECT_FALSE(diff.identical());
}

}  // namespace
}  // namespace bnn
