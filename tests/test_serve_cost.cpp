// Cost-modelled dispatch and adaptive overload shedding:
//   - serve::CostModel wraps core::estimate_mc per {L, S} (cached, monotone
//     in S, first-pass/admission/downgrade relations for routed requests),
//   - core::calibrate_perf guards its inputs and scales modelled -> wall ms,
//   - adaptive_admission is the documented pure decision function,
//   - a Server under OverloadPolicy::adaptive downgrades routed requests to
//     a screening-only response that is BIT-IDENTICAL to a direct
//     never-escalating request at the same stream id, rejects non-routed
//     requests with QueueFullError while overloaded, keeps the
//     submitted == served + rejected counter identity, and logs admission
//     decisions that a single-threaded replay of the recorded inputs
//     reproduces exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <vector>

#include "bench/serve_fixture.h"
#include "core/accelerator.h"
#include "core/software_metrics.h"
#include "data/synth.h"
#include "nn/models.h"
#include "serve/cost_model.h"
#include "serve/server.h"
#include "train/trainer.h"

namespace bnn {
namespace {

// Tiny quantized CNN on 12x12 synthetic digits (mirrors the serve-test
// fixture; trained once per process).
struct CostFixture {
  CostFixture() {
    util::Rng rng(71);
    nn::Model model = nn::make_tiny_cnn(rng, 10, 1, 12);
    util::Rng data_rng(72);
    dataset = std::make_unique<data::Dataset>(data::make_synth_digits_small(96, data_rng));

    model.set_bayesian_last(0);
    train::TrainConfig config;
    config.epochs = 1;
    config.batch_size = 16;
    train::fit(model, *dataset, config);
    qnet = std::make_unique<quant::QuantNetwork>(quant::quantize_model(model, *dataset));
  }

  std::unique_ptr<data::Dataset> dataset;
  std::unique_ptr<quant::QuantNetwork> qnet;
};

CostFixture& fixture() {
  static CostFixture instance;
  return instance;
}

core::AcceleratorConfig accel_config(int num_threads) {
  core::AcceleratorConfig config;
  config.nne.pc = 16;
  config.nne.pf = 8;
  config.nne.pv = 4;
  config.sampler_seed = 4321;
  config.num_threads = num_threads;
  return config;
}

serve::Request request_for(const data::Batch& batch, int n, serve::RequestOptions options,
                           std::uint64_t stream_id) {
  serve::Request request;
  request.image = batch.images.batch_row(n);
  request.options = options;
  request.stream_id = stream_id;
  return request;
}

// --- CostModel --------------------------------------------------------------

// The fixture network's cost model, bound as key 0: the same estimate_mc
// inputs as Accelerator::estimate. Heap-allocated because the internal
// cache mutex pins the object.
std::unique_ptr<serve::CostModel> fixture_cost_model() {
  const core::AcceleratorConfig config = accel_config(1);
  auto model = std::make_unique<serve::CostModel>(core::PerfConfig{config.nne, config.ddr},
                                                  config.use_intermediate_caching);
  model->bind_model(0, fixture().qnet->describe(), fixture().qnet->resident_weight_bytes());
  return model;
}

TEST(CostModel, MatchesEstimateMcAndIsMonotoneInSamples) {
  auto& fx = fixture();
  core::Accelerator accelerator(*fx.qnet, accel_config(1));
  const auto model = fixture_cost_model();

  // The model is the accelerator's own estimate, cached.
  for (const int samples : {1, 4, 10}) {
    EXPECT_DOUBLE_EQ(model->modelled_ms(0, 2, samples),
                     accelerator.estimate(2, samples).latency_ms);
  }
  // More samples never model as cheaper; more Bayesian depth at fixed S
  // never models as cheaper either (longer stochastic suffix).
  EXPECT_LT(model->modelled_ms(0, 2, 2), model->modelled_ms(0, 2, 10));
  EXPECT_LE(model->modelled_ms(0, 1, 10), model->modelled_ms(0, fx.qnet->num_sites, 10));
  // L = -1 resolves to every site.
  EXPECT_DOUBLE_EQ(model->modelled_ms(0, -1, 5),
                   model->modelled_ms(0, fx.qnet->num_sites, 5));
}

TEST(CostModel, RequestCostsReflectRoutingAndDowngrade) {
  const auto model = fixture_cost_model();

  serve::RequestOptions direct;
  direct.num_samples = 10;
  direct.bayes_layers = 2;
  // A direct request is one full pass, worst case included.
  EXPECT_DOUBLE_EQ(model->first_pass_ms(0, direct), model->modelled_ms(0, 2, 10));
  EXPECT_DOUBLE_EQ(model->admission_ms(0, direct), model->modelled_ms(0, 2, 10));
  EXPECT_DOUBLE_EQ(model->downgraded_ms(0, direct), model->modelled_ms(0, 2, 10));

  serve::RequestOptions routed = direct;
  routed.use_uncertainty_router = true;
  routed.screening_samples = 2;
  // Routed: first pass is the cheap screening pass; admission assumes the
  // escalation pass on top; a downgrade strips it back to screening only.
  EXPECT_DOUBLE_EQ(model->first_pass_ms(0, routed), model->modelled_ms(0, 2, 2));
  EXPECT_DOUBLE_EQ(model->admission_ms(0, routed),
                   model->modelled_ms(0, 2, 2) + model->modelled_ms(0, 2, 10));
  EXPECT_DOUBLE_EQ(model->downgraded_ms(0, routed), model->modelled_ms(0, 2, 2));
  EXPECT_LT(model->downgraded_ms(0, routed), model->admission_ms(0, routed));
}

TEST(CostModel, EscalationReuseTightensRoutedAdmission) {
  const auto model = fixture_cost_model();

  serve::RequestOptions routed;
  routed.num_samples = 10;
  routed.bayes_layers = 2;
  routed.use_uncertainty_router = true;
  routed.screening_samples = 2;
  serve::RequestOptions direct;
  direct.num_samples = 10;
  direct.bayes_layers = 2;

  const double classic = model->admission_ms(0, routed);
  model->set_escalation_reuse(true);
  // With screening-sample reuse the escalation pass only runs the NEW
  // samples, so worst-case admission is screening + (full - screening).
  EXPECT_DOUBLE_EQ(model->admission_ms(0, routed),
                   model->modelled_ms(0, 2, 2) + model->modelled_ms(0, 2, 8));
  EXPECT_LT(model->admission_ms(0, routed), classic);
  // Non-routed requests have no escalation pass to shrink.
  EXPECT_DOUBLE_EQ(model->admission_ms(0, direct), model->modelled_ms(0, 2, 10));
  model->set_escalation_reuse(false);
  EXPECT_DOUBLE_EQ(model->admission_ms(0, routed), classic);
}

// --- calibration ------------------------------------------------------------

TEST(PerfCalibration, ScalesModelledLatencyAndGuardsInputs) {
  const core::PerfCalibration calibration = core::calibrate_perf(30.0, 10.0);
  EXPECT_DOUBLE_EQ(calibration.wall_ms_per_modelled_ms, 3.0);
  core::RunStats stats;
  stats.latency_ms = 4.0;
  EXPECT_DOUBLE_EQ(core::calibrated_wall_ms(stats, calibration), 12.0);

  EXPECT_THROW(core::calibrate_perf(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(core::calibrate_perf(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(core::calibrate_perf(-1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(core::calibrate_perf(std::numeric_limits<double>::quiet_NaN(), 1.0),
               std::invalid_argument);
  EXPECT_THROW(core::calibrate_perf(1.0, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

TEST(PerfCalibration, SoftwareMetricsProviderMeasuresEvaluationWallTime) {
  util::Rng rng(17);
  nn::Model model = nn::make_tiny_cnn(rng, 10, 1, 12);
  model.set_bayesian_last(2);
  util::Rng data_rng(18);
  data::Dataset tiny = data::make_synth_digits_small(8, data_rng);
  core::SoftwareMetricsProvider provider(model, tiny, tiny, 1, 1);

  EXPECT_DOUBLE_EQ(provider.last_evaluation_wall_ms(), 0.0);
  (void)provider.evaluate(1, 2);
  const double first = provider.last_evaluation_wall_ms();
  EXPECT_GT(first, 0.0);
  EXPECT_DOUBLE_EQ(provider.total_evaluation_wall_ms(), first);
  // A cache hit is not a measured evaluation.
  (void)provider.evaluate(1, 2);
  EXPECT_DOUBLE_EQ(provider.last_evaluation_wall_ms(), first);
  EXPECT_DOUBLE_EQ(provider.total_evaluation_wall_ms(), first);
  // The measured anchor calibrates the model against this host.
  const core::PerfCalibration calibration = core::calibrate_perf(first, 1.0);
  EXPECT_GT(calibration.wall_ms_per_modelled_ms, 0.0);
}

TEST(Server, AdaptiveCalibratesCostModelAtStartup) {
  auto& fx = fixture();
  serve::ServerConfig config;
  config.overload_policy = serve::OverloadPolicy::adaptive;
  config.latency_target_ms = 50.0;
  config.calibrate_cost_model = true;
  serve::Server server(bench::single_model_registry(*fx.qnet), accel_config(1), config);
  ASSERT_NE(server.cost_model(), nullptr);
  // A measured anchor replaced the identity scale with this host's
  // simulator-vs-model ratio (any positive finite value).
  const double scale = server.cost_model()->calibration().wall_ms_per_modelled_ms;
  EXPECT_GT(scale, 0.0);
  EXPECT_TRUE(std::isfinite(scale));
}

// --- the pure admission rule ------------------------------------------------

TEST(AdaptiveAdmission, FollowsTheDocumentedRule) {
  serve::AdmissionInputs inputs;
  inputs.latency_target_ms = 10.0;

  // 1. Hard queue bound dominates everything.
  inputs.queue_full = true;
  inputs.p99_ms = 0.0;
  EXPECT_EQ(serve::adaptive_admission(inputs), serve::AdmissionAction::reject);
  inputs.queue_full = false;

  // 2. Not overloaded (p99 at or under target): admit, whatever the cost.
  inputs.p99_ms = 10.0;
  inputs.request_ms = 1e9;
  EXPECT_EQ(serve::adaptive_admission(inputs), serve::AdmissionAction::admit);
  inputs.p99_ms = 0.0;  // empty window counts as healthy
  EXPECT_EQ(serve::adaptive_admission(inputs), serve::AdmissionAction::admit);

  // 3. Overloaded and routed: downgrade to screening-only.
  inputs.p99_ms = 11.0;
  inputs.downgrade_eligible = true;
  EXPECT_EQ(serve::adaptive_admission(inputs), serve::AdmissionAction::downgrade);

  // 4. Overloaded, not routed, but cheap enough to fit the budget: admit.
  inputs.downgrade_eligible = false;
  inputs.backlog_ms = 4.0;
  inputs.request_ms = 6.0;
  EXPECT_EQ(serve::adaptive_admission(inputs), serve::AdmissionAction::admit);

  // 5. Overloaded and over budget: shed the costly request.
  inputs.request_ms = 6.1;
  EXPECT_EQ(serve::adaptive_admission(inputs), serve::AdmissionAction::reject);
}

TEST(Server, AdaptiveRequiresPositiveLatencyTarget) {
  auto& fx = fixture();
  serve::ServerConfig config;
  config.overload_policy = serve::OverloadPolicy::adaptive;
  config.latency_target_ms = 0.0;
  EXPECT_THROW(serve::Server(bench::single_model_registry(*fx.qnet), accel_config(1), config),
               std::invalid_argument);
}

// --- end-to-end adaptive shedding -------------------------------------------

// Drives the server into overload deterministically: a microscopic latency
// target means the window p99 exceeds it from the first served request on,
// so every later admission takes the shedding path.
TEST(Server, AdaptiveDowngradesRoutedAndRejectsCostlyBitIdentically) {
  auto& fx = fixture();
  const data::Batch batch = fx.dataset->batch(0, 4);

  serve::ServerConfig config;
  config.max_batch = 1;
  config.num_threads = 1;
  config.overload_policy = serve::OverloadPolicy::adaptive;
  config.latency_target_ms = 1e-9;  // always "overloaded" once warm
  config.calibrate_cost_model = false;
  config.admission_log_capacity = 64;
  serve::Server server(bench::single_model_registry(*fx.qnet), accel_config(1), config);

  // Warm request: the window is empty, p99 = 0 <= target fails the
  // overload gate... (0 > 1e-9 is false) so it is admitted normally.
  serve::RequestOptions warm;
  warm.num_samples = 2;
  warm.bayes_layers = 1;
  const serve::Response warm_response = server.infer(request_for(batch, 0, warm, 100));
  EXPECT_FALSE(warm_response.shed_downgraded);

  // Routed request while overloaded: admitted DOWNGRADED — answered from
  // the screening pass with escalation suppressed.
  serve::RequestOptions routed;
  routed.num_samples = 10;
  routed.bayes_layers = 2;
  routed.use_uncertainty_router = true;
  routed.screening_samples = 2;
  routed.entropy_threshold_nats = -1.0;  // would always escalate if allowed
  const serve::Response downgraded = server.infer(request_for(batch, 1, routed, 101));
  EXPECT_TRUE(downgraded.shed_downgraded);
  EXPECT_FALSE(downgraded.escalated);
  EXPECT_EQ(downgraded.samples_used, 2);

  // Non-routed request while overloaded: rejected by predicted cost with
  // the distinct QueueFullError (backlog 0 + cost > 1e-9 ms target).
  serve::RequestOptions direct;
  direct.num_samples = 10;
  direct.bayes_layers = 2;
  std::future<serve::Response> rejected = server.submit(request_for(batch, 2, direct, 102));
  EXPECT_THROW(rejected.get(), serve::QueueFullError);

  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.shed_rejected, 1u);
  EXPECT_EQ(stats.shed_downgraded, 1u);
  // submitted == served(full) + downgraded-then-served + rejected.
  EXPECT_EQ(stats.submitted,
            (stats.requests - stats.shed_downgraded) + stats.shed_downgraded +
                stats.rejected);

  // Bit-identity of the downgrade: a direct never-escalating request with
  // the SAME stream id serves the identical screening pass.
  serve::ServerConfig plain_config;
  plain_config.max_batch = 1;
  plain_config.num_threads = 1;
  serve::Server plain(bench::single_model_registry(*fx.qnet), accel_config(1), plain_config);
  serve::RequestOptions never_escalate = routed;
  never_escalate.entropy_threshold_nats = 1e9;
  const serve::Response reference = plain.infer(request_for(batch, 1, never_escalate, 101));
  EXPECT_FALSE(reference.escalated);
  EXPECT_EQ(downgraded.probs.max_abs_diff(reference.probs), 0.0f);
  EXPECT_EQ(downgraded.predicted_class, reference.predicted_class);
  EXPECT_EQ(downgraded.samples_used, reference.samples_used);

  // Replay: every logged decision is reproduced exactly by re-applying the
  // pure rule to its recorded inputs, in submission order.
  const std::vector<serve::AdmissionRecord> log = server.admission_log();
  ASSERT_EQ(log.size(), 3u);
  for (std::size_t i = 1; i < log.size(); ++i)
    EXPECT_LT(log[i - 1].submit_seq, log[i].submit_seq);
  EXPECT_EQ(log[0].action, serve::AdmissionAction::admit);
  EXPECT_EQ(log[1].action, serve::AdmissionAction::downgrade);
  EXPECT_EQ(log[2].action, serve::AdmissionAction::reject);
  for (const serve::AdmissionRecord& record : log)
    EXPECT_EQ(serve::adaptive_admission(record.inputs), record.action);
}

// A full queue rejects under adaptive exactly like the hard bound promises,
// and the admission ring keeps only the newest `admission_log_capacity`.
TEST(Server, AdaptiveHonoursQueueBoundAndLogCapacity) {
  auto& fx = fixture();
  const data::Batch batch = fx.dataset->batch(0, 8);

  serve::ServerConfig config;
  config.max_batch = 1;
  config.num_threads = 1;
  config.max_queue_depth = 1;
  config.overload_policy = serve::OverloadPolicy::adaptive;
  config.latency_target_ms = 1e9;  // never "overloaded": only the bound sheds
  config.calibrate_cost_model = false;
  config.admission_log_capacity = 4;
  serve::Server server(bench::single_model_registry(*fx.qnet), accel_config(1), config);

  serve::RequestOptions slow;
  slow.num_samples = 400;
  slow.bayes_layers = 2;
  std::vector<std::future<serve::Response>> futures;
  for (int i = 0; i < 8; ++i)
    futures.push_back(server.submit(request_for(batch, i, slow, 200 + i)));
  int served = 0;
  int rejected = 0;
  for (auto& future : futures) {
    try {
      (void)future.get();
      ++served;
    } catch (const serve::QueueFullError&) {
      ++rejected;
    }
  }
  EXPECT_EQ(served + rejected, 8);
  EXPECT_GE(rejected, 4);  // 8 arrivals vs 1 in flight + 1 queued

  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests + stats.rejected, stats.submitted);
  EXPECT_EQ(stats.shed_rejected, stats.rejected);  // all via the adaptive path
  EXPECT_EQ(stats.shed_downgraded, 0u);
  EXPECT_LE(stats.peak_queue_depth, 1u);

  const std::vector<serve::AdmissionRecord> log = server.admission_log();
  EXPECT_EQ(log.size(), 4u);  // ring capacity, newest retained
  for (std::size_t i = 1; i < log.size(); ++i)
    EXPECT_LT(log[i - 1].submit_seq, log[i].submit_seq);
  for (const serve::AdmissionRecord& record : log) {
    EXPECT_EQ(serve::adaptive_admission(record.inputs), record.action);
    if (record.action == serve::AdmissionAction::reject) {
      EXPECT_TRUE(record.inputs.queue_full);
    }
  }
}

// --- stats window -----------------------------------------------------------

TEST(Server, StatsReportWindowCountAndSingleSamplePercentiles) {
  auto& fx = fixture();
  const data::Batch batch = fx.dataset->batch(0, 1);
  serve::Server server(bench::single_model_registry(*fx.qnet), accel_config(1));

  // Empty window: zero percentiles, zero count (not an exception).
  serve::ServerStats before = server.stats();
  EXPECT_EQ(before.latency_window_count, 0u);
  EXPECT_DOUBLE_EQ(before.latency_p50_ms, 0.0);
  EXPECT_DOUBLE_EQ(before.latency_p99_ms, 0.0);

  (void)server.infer(request_for(batch, 0, serve::RequestOptions{}, 7));
  const serve::ServerStats after = server.stats();
  EXPECT_EQ(after.latency_window_count, 1u);
  // A single sample is every percentile of itself.
  EXPECT_GT(after.latency_p50_ms, 0.0);
  EXPECT_DOUBLE_EQ(after.latency_p50_ms, after.latency_p95_ms);
  EXPECT_DOUBLE_EQ(after.latency_p95_ms, after.latency_p99_ms);
}

TEST(LatencyPercentile, EdgeCases) {
  // Single sample: every percentile including the extremes.
  EXPECT_DOUBLE_EQ(serve::latency_percentile({7.5}, 0.0), 7.5);
  EXPECT_DOUBLE_EQ(serve::latency_percentile({7.5}, 99.0), 7.5);
  EXPECT_DOUBLE_EQ(serve::latency_percentile({7.5}, 100.0), 7.5);
  // pct = 0 / 100 hit the exact min / max, no interpolation overshoot.
  EXPECT_DOUBLE_EQ(serve::latency_percentile({3.0, 1.0, 2.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(serve::latency_percentile({3.0, 1.0, 2.0}, 100.0), 3.0);
  // Empty window and out-of-range / NaN pct are rejected.
  EXPECT_THROW(serve::latency_percentile({}, 50.0), std::invalid_argument);
  EXPECT_THROW(serve::latency_percentile({1.0}, 100.5), std::invalid_argument);
  EXPECT_THROW(serve::latency_percentile({1.0}, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

}  // namespace
}  // namespace bnn
