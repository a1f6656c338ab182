// End-to-end integration: float training -> 8-bit quantization -> simulated
// accelerator, checked bit-exact against the integer reference executor.
#include "core/accelerator.h"

#include <gtest/gtest.h>

#include <limits>

#include "core/software_metrics.h"
#include "data/synth.h"
#include "nn/activations.h"
#include "metrics/metrics.h"
#include "nn/models.h"
#include "train/trainer.h"

namespace bnn::core {
namespace {

struct Fixture {
  Fixture() {
    util::Rng rng(31);
    model = std::make_unique<nn::Model>(nn::make_tiny_cnn(rng, 10, 1, 12));
    util::Rng data_rng(32);
    data::Dataset digits = data::make_synth_digits(200, data_rng);
    nn::Tensor small({digits.size(), 1, 12, 12});
    for (int n = 0; n < digits.size(); ++n)
      for (int y = 0; y < 12; ++y)
        for (int x = 0; x < 12; ++x)
          small.v4(n, 0, y, x) = digits.images().v4(n, 0, 2 + 2 * y, 2 + 2 * x);
    dataset = std::make_unique<data::Dataset>(std::move(small), digits.labels(), 10);

    model->set_bayesian_last(0);
    train::TrainConfig config;
    config.epochs = 3;
    config.batch_size = 16;
    train::fit(*model, *dataset, config);
    qnet = std::make_unique<quant::QuantNetwork>(quant::quantize_model(*model, *dataset));
  }

  AcceleratorConfig accel_config(bool use_ic = true, std::uint64_t seed = 5) const {
    AcceleratorConfig config;
    config.nne.pc = 16;
    config.nne.pf = 8;
    config.nne.pv = 4;
    config.sampler_seed = seed;
    config.use_intermediate_caching = use_ic;
    return config;
  }

  std::unique_ptr<nn::Model> model;
  std::unique_ptr<data::Dataset> dataset;
  std::unique_ptr<quant::QuantNetwork> qnet;
};

Fixture& fixture() {
  static Fixture instance;
  return instance;
}

TEST(Accelerator, DeterministicPredictionMatchesReferenceBitExactly) {
  auto& fx = fixture();
  Accelerator accelerator(*fx.qnet, fx.accel_config());
  const data::Batch batch = fx.dataset->batch(0, 8);
  const auto prediction = accelerator.predict(batch.images, 0, 1);

  for (int n = 0; n < 8; ++n) {
    const quant::QTensor image = quant::quantize_image(batch.images, n, fx.qnet->input);
    const auto outputs = quant::ref_forward(*fx.qnet, image, 0, nullptr);
    const nn::Tensor probs = nn::softmax_rows(quant::ref_logits(*fx.qnet, outputs.back()));
    for (int k = 0; k < 10; ++k)
      EXPECT_EQ(prediction.probs.v2(n, k), probs.v2(0, k)) << "n=" << n << " k=" << k;
  }
}

TEST(Accelerator, StochasticPredictionMatchesReferenceWithSameSamplerSeed) {
  auto& fx = fixture();
  for (int bayes_layers : {1, 2, 3}) {
    Accelerator accelerator(*fx.qnet, fx.accel_config(true, 77));
    const data::Batch batch = fx.dataset->batch(0, 3);
    const auto prediction = accelerator.predict(batch.images, bayes_layers, 5);

    // Reference consumes the identical per-(image, sample) LFSR lanes and
    // recomputes every layer per sample, so this also checks the
    // accelerator's IC schedule against full recompute.
    const auto lanes = [&fx](int image, int sample) -> std::unique_ptr<nn::MaskSource> {
      BernoulliSamplerConfig sampler_config;
      sampler_config.p = fx.qnet->dropout_p;
      sampler_config.pf = fx.accel_config().nne.pf;
      sampler_config.seed = Accelerator::sample_stream_seed(77, image, sample);
      return std::make_unique<BernoulliSampler>(sampler_config);
    };
    const nn::Tensor expected =
        quant::ref_mc_predict(*fx.qnet, batch.images, bayes_layers, 5, lanes);
    EXPECT_EQ(prediction.probs.max_abs_diff(expected), 0.0f) << "L=" << bayes_layers;
  }
}

TEST(Accelerator, IcAndNonIcProduceIdenticalPredictions) {
  auto& fx = fixture();
  Accelerator with_ic(*fx.qnet, fx.accel_config(true, 123));
  Accelerator without_ic(*fx.qnet, fx.accel_config(false, 123));
  const data::Batch batch = fx.dataset->batch(4, 3);
  const auto a = with_ic.predict(batch.images, 2, 7);
  const auto b = without_ic.predict(batch.images, 2, 7);
  EXPECT_EQ(a.probs.max_abs_diff(b.probs), 0.0f);
  // ... but IC is faster and lighter on memory.
  EXPECT_LT(a.stats.latency_ms, b.stats.latency_ms);
  EXPECT_LT(a.stats.ddr_bytes, b.stats.ddr_bytes);
}

TEST(Accelerator, FunctionalCyclesMatchAnalyticModel) {
  auto& fx = fixture();
  Accelerator accelerator(*fx.qnet, fx.accel_config(true, 9));
  const data::Batch batch = fx.dataset->batch(0, 1);
  const int bayes_layers = 2;
  const int samples = 4;
  (void)accelerator.predict(batch.images, bayes_layers, samples);

  // Expected: prefix layers once + suffix layers per sample (pure PE
  // cycles, no pipeline fill — the fill lives in the latency model).
  const nn::NetworkDesc desc = fx.qnet->describe();
  const int cut = desc.cut_layer_for(bayes_layers);
  std::int64_t expected = 0;
  for (int l = 0; l < desc.num_layers(); ++l) {
    const std::int64_t cycles =
        estimate_layer_cycles(desc.layers[static_cast<std::size_t>(l)],
                              accelerator.config().nne);
    expected += l <= cut ? cycles : cycles * samples;
  }
  EXPECT_EQ(accelerator.last_functional_compute_cycles(), expected);
}

TEST(Accelerator, QuantizedBnnAccuracyRemainsUseful) {
  auto& fx = fixture();
  Accelerator accelerator(*fx.qnet, fx.accel_config());
  const auto prediction = accelerator.predict(fx.dataset->images(), 2, 8);
  const double accuracy = metrics::accuracy(prediction.probs, fx.dataset->labels());
  EXPECT_GT(accuracy, 0.3);  // trained tiny net, int8, MCD: well above chance
}

TEST(Accelerator, ResourceReportFitsDevice) {
  auto& fx = fixture();
  Accelerator accelerator(*fx.qnet, fx.accel_config());
  const ResourceUsage usage = accelerator.resources(arria10_sx660());
  EXPECT_TRUE(fits(usage, arria10_sx660()));
  EXPECT_EQ(usage.multipliers, 16 * 8 * 4);
}

TEST(Accelerator, LaneArenaIsAllocationFreeAndBitIdenticalAfterWarmup) {
  auto& fx = fixture();
  // num_threads defaults to 1, so every lane runs on this thread and the
  // thread-local arena counter observes all of them.
  Accelerator accelerator(*fx.qnet, fx.accel_config(true, 55));
  const data::Batch batch = fx.dataset->batch(0, 4);
  const auto warm = accelerator.predict(batch.images, 2, 6);

  const std::uint64_t after_warmup = Accelerator::lane_arena_grow_events();
  Accelerator::Prediction repeat_prediction = accelerator.predict(batch.images, 2, 6);
  for (int i = 0; i < 2; ++i)
    repeat_prediction = accelerator.predict(batch.images, 2, 6);
  EXPECT_EQ(Accelerator::lane_arena_grow_events(), after_warmup)
      << "steady-state predict lanes must not allocate arena storage";

  // Reused arena storage (outputs, scratch, reseeded sampler) must not leak
  // state between calls: the repeat prediction is bit-identical to the
  // first, and to a fresh accelerator with a cold arena-independent config.
  EXPECT_EQ(warm.probs.max_abs_diff(repeat_prediction.probs), 0.0f);
  Accelerator fresh(*fx.qnet, fx.accel_config(true, 55));
  const auto cold = fresh.predict(batch.images, 2, 6);
  EXPECT_EQ(warm.probs.max_abs_diff(cold.probs), 0.0f);
}

TEST(Accelerator, SampleOffsetShiftsTheSamplerLaneWindow) {
  auto& fx = fixture();
  const std::uint64_t seed = 91;
  Accelerator accelerator(*fx.qnet, fx.accel_config(true, seed));
  const data::Batch batch = fx.dataset->batch(0, 2);
  const int bayes_layers = 2;
  const int offset = 4;
  std::vector<Accelerator::ImageRequest> requests;
  for (int n = 0; n < 2; ++n)
    requests.push_back({bayes_layers, 3, static_cast<std::uint64_t>(n), offset});
  const auto shifted = accelerator.predict_batch(batch.images, requests);

  // A request with sample_offset k must consume exactly the lanes
  // sample_stream_seed(seed, stream, k + s) — the tail window of the
  // single-request lane family, which is what lets the serving layer's
  // escalation-reuse mode run only the NEW samples of an escalated request.
  const auto lanes = [&fx, seed, offset](int image, int sample) {
    BernoulliSamplerConfig sampler_config;
    sampler_config.p = fx.qnet->dropout_p;
    sampler_config.pf = fx.accel_config().nne.pf;
    sampler_config.seed = Accelerator::sample_stream_seed(
        seed, static_cast<std::uint64_t>(image), offset + sample);
    return std::make_unique<BernoulliSampler>(sampler_config);
  };
  const nn::Tensor expected =
      quant::ref_mc_predict(*fx.qnet, batch.images, bayes_layers, 3, lanes);
  EXPECT_EQ(shifted.probs.max_abs_diff(expected), 0.0f);
}

TEST(Accelerator, RejectsBadArguments) {
  auto& fx = fixture();
  Accelerator accelerator(*fx.qnet, fx.accel_config());
  const data::Batch batch = fx.dataset->batch(0, 1);
  EXPECT_THROW(accelerator.predict(batch.images, -1, 5), std::invalid_argument);
  EXPECT_THROW(accelerator.predict(batch.images, 99, 5), std::invalid_argument);
  EXPECT_THROW(accelerator.predict(batch.images, 1, 0), std::invalid_argument);
  // A sampler window past INT_MAX would overflow the lane index.
  const std::vector<Accelerator::ImageRequest> past_int_max{
      {1, 2, 0, std::numeric_limits<int>::max()}};
  EXPECT_THROW(accelerator.predict_batch(batch.images, past_int_max), std::invalid_argument);
}

TEST(SoftwareMetrics, ProviderProducesSaneMetricsAndCaches) {
  auto& fx = fixture();
  util::Rng noise_rng(3);
  const data::Dataset noise = data::make_gaussian_noise(32, *fx.dataset, noise_rng);
  const data::Dataset test = fx.dataset->subset(0, 64);
  SoftwareMetricsProvider provider(*fx.model, test, noise);

  const MetricPoint a = provider.evaluate(2, 5);
  EXPECT_GT(a.accuracy, 0.2);
  EXPECT_LE(a.accuracy, 1.0);
  EXPECT_GT(a.ape, 0.0);
  EXPECT_LT(a.ape, std::log(10.0) + 1e-9);
  EXPECT_GE(a.ece, 0.0);
  EXPECT_LE(a.ece, 1.0);

  // Cached: identical object on repeat.
  const MetricPoint b = provider.evaluate(2, 5);
  EXPECT_EQ(a.accuracy, b.accuracy);
  EXPECT_EQ(a.ape, b.ape);
  EXPECT_EQ(a.ece, b.ece);
}

}  // namespace
}  // namespace bnn::core
