#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "bayes/predictive.h"
#include "data/synth.h"
#include "metrics/metrics.h"
#include "quant/fixed_point.h"
#include "quant/qnetwork.h"
#include "quant/qops.h"
#include "quant/qtensor.h"
#include "train/trainer.h"

namespace bnn::quant {
namespace {

TEST(FixedPoint, MultiplierRoundTrip) {
  for (double value : {1.0, 0.5, 0.1234, 1.0 / 0.75, 0.0003, 7.25, -0.4, -1.5}) {
    const FixedMultiplier m = quantize_multiplier(value);
    EXPECT_NEAR(multiplier_value(m), value, std::fabs(value) * 1e-8 + 1e-12) << value;
  }
  const FixedMultiplier zero = quantize_multiplier(0.0);
  EXPECT_EQ(zero.mult, 0);
}

TEST(FixedPoint, FixedMultiplyApproximatesRealProduct) {
  util::Rng rng(1);
  for (int trial = 0; trial < 200; ++trial) {
    const double m_real = rng.uniform(-4.0, 4.0);
    if (std::fabs(m_real) < 1e-6) continue;
    const FixedMultiplier m = quantize_multiplier(m_real);
    const auto x = static_cast<std::int32_t>(rng.uniform_int(-100000, 100000));
    const double expected = static_cast<double>(x) * m_real;
    EXPECT_NEAR(fixed_multiply(x, m), expected, 1.0 + std::fabs(expected) * 1e-6);
  }
}

TEST(FixedPoint, RoundingDivideByPotMatchesNearestTiesAway) {
  EXPECT_EQ(rounding_divide_by_pot(5, 1), 3);    // 2.5 -> 3
  EXPECT_EQ(rounding_divide_by_pot(4, 2), 1);    // 1.0
  EXPECT_EQ(rounding_divide_by_pot(6, 2), 2);    // 1.5 -> 2
  EXPECT_EQ(rounding_divide_by_pot(-5, 1), -3);  // -2.5 -> -3 (ties away from zero)
  EXPECT_EQ(rounding_divide_by_pot(-6, 2), -2);  // -1.5 -> -2
  EXPECT_EQ(rounding_divide_by_pot(-7, 2), -2);  // -1.75 -> -2
  EXPECT_EQ(rounding_divide_by_pot(100, 0), 100);
}

TEST(FixedPoint, SaturateInt8Clamps) {
  EXPECT_EQ(saturate_int8(300), 127);
  EXPECT_EQ(saturate_int8(-300), -128);
  EXPECT_EQ(saturate_int8(-5), -5);
}

TEST(FixedPoint, RoundedDivTiesAwayFromZero) {
  EXPECT_EQ(rounded_div(5, 2), 3);
  EXPECT_EQ(rounded_div(-5, 2), -3);
  EXPECT_EQ(rounded_div(4, 2), 2);
  EXPECT_EQ(rounded_div(7, 3), 2);
  EXPECT_THROW(rounded_div(4, 0), std::invalid_argument);
}

TEST(QuantParams, CoversRangeAndZeroIsExact) {
  const QuantParams p = choose_activation_params(-1.0f, 3.0f);
  // Real zero must map to an integer zero point.
  const float zero_real = p.scale * static_cast<float>(0 - p.zero_point + p.zero_point);
  EXPECT_EQ(zero_real, 0.0f);
  // Range endpoints representable within one step.
  const float lo = p.scale * static_cast<float>(-128 - p.zero_point);
  const float hi = p.scale * static_cast<float>(127 - p.zero_point);
  EXPECT_LE(lo, -1.0f + p.scale);
  EXPECT_GE(hi, 3.0f - p.scale);
}

TEST(QuantParams, PurelyPositiveRangePinsZeroPoint) {
  const QuantParams p = choose_activation_params(0.0f, 6.0f);
  EXPECT_EQ(p.zero_point, -128);
  EXPECT_NEAR(p.scale, 6.0f / 255.0f, 1e-6f);
}

TEST(QuantParams, DegenerateRangeIsSafe) {
  const QuantParams p = choose_activation_params(0.0f, 0.0f);
  EXPECT_GT(p.scale, 0.0f);
}

TEST(QTensorTest, QuantizeDequantizeRoundTrip) {
  util::Rng rng(2);
  nn::Tensor image = nn::Tensor::uniform({1, 3, 8, 8}, rng, -1.0f, 2.0f);
  const QuantParams p = choose_activation_params(-1.0f, 2.0f);
  const QTensor q = quantize_image(image, 0, p);
  const nn::Tensor back = dequantize(q);
  for (std::int64_t i = 0; i < image.numel(); ++i)
    EXPECT_NEAR(back[i], image[i], p.scale * 0.51f);
}

// quantize_image's element map as it always stood, where the int32 cast
// cannot wrap: saturate_int8(lround(x * (1 / scale)) + zero_point).
std::int8_t quantize_by_lround(float x, QuantParams p) {
  const float inv_scale = 1.0f / p.scale;
  return saturate_int8(static_cast<std::int32_t>(std::lround(x * inv_scale)) + p.zero_point);
}

std::vector<std::int8_t> quantize_values(const std::vector<float>& values, QuantParams p) {
  nn::Tensor image({1, 1, static_cast<int>(values.size())});
  for (std::size_t i = 0; i < values.size(); ++i) image[static_cast<std::int64_t>(i)] = values[i];
  return quantize_image(image, 0, p).data;
}

TEST(QTensorTest, QuantizeImageSaturatesOutOfRangeBySign) {
  const float inf = std::numeric_limits<float>::infinity();
  for (const std::int32_t zp : {-128, -5, 0, 7, 127}) {
    const QuantParams p{1.0f / 255.0f, zp};
    const std::vector<std::int8_t> q =
        quantize_values({inf, -inf, 4.29e9f, -4.29e9f, 3e38f, -3e38f, 600.0f, -600.0f,
                         std::numeric_limits<float>::quiet_NaN()},
                        p);
    const std::vector<std::int8_t> expected{127, -128, 127, -128, 127, -128, 127, -128,
                                            saturate_int8(zp)};
    EXPECT_EQ(q, expected) << "zero point " << zp;
  }
}

TEST(QTensorTest, QuantizeImageMatchesLroundInRange) {
  // Every half-integer in [-300, 300] and its two float neighbours at scale
  // 1 (ties round away from zero, as lround does)...
  std::vector<float> ties;
  for (int k = -601; k <= 601; k += 2) {
    const float half = static_cast<float>(k) / 2.0f;
    ties.push_back(half);
    ties.push_back(std::nextafter(half, -1000.0f));
    ties.push_back(std::nextafter(half, 1000.0f));
  }
  for (const std::int32_t zp : {-128, -5, 0, 7, 127}) {
    const QuantParams p{1.0f, zp};
    const std::vector<std::int8_t> q = quantize_values(ties, p);
    for (std::size_t i = 0; i < ties.size(); ++i)
      ASSERT_EQ(q[i], quantize_by_lround(ties[i], p)) << "x " << ties[i] << " zp " << zp;
  }
  // ...and 10^6 random values under random parameters.
  util::Rng rng(12);
  for (int block = 0; block < 100; ++block) {
    const QuantParams p{static_cast<float>(rng.uniform(1e-3, 1.0)), rng.uniform_int(-128, 127)};
    std::vector<float> values(10000);
    for (float& v : values) v = static_cast<float>(rng.uniform(-400.0, 400.0)) * p.scale;
    const std::vector<std::int8_t> q = quantize_values(values, p);
    for (std::size_t i = 0; i < values.size(); ++i)
      ASSERT_EQ(q[i], quantize_by_lround(values[i], p))
          << "x " << values[i] << " scale " << p.scale << " zp " << p.zero_point;
  }
}

TEST(QTensorTest, WeightScaleSymmetric) {
  const float weights[] = {-0.5f, 0.2f, 0.4f};
  const float scale = choose_weight_scale(weights, 3);
  EXPECT_NEAR(scale, 0.5f / 127.0f, 1e-7f);
}

// Shared fixture: a small trained-ish model and its quantization.
class QuantizedModel : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    util::Rng rng(7);
    model_ = new nn::Model(nn::make_tiny_cnn(rng, 10, 1, 12));
    util::Rng data_rng(8);
    data::Dataset digits = data::make_synth_digits(160, data_rng);
    nn::Tensor small({digits.size(), 1, 12, 12});
    for (int n = 0; n < digits.size(); ++n)
      for (int y = 0; y < 12; ++y)
        for (int x = 0; x < 12; ++x)
          small.v4(n, 0, y, x) = digits.images().v4(n, 0, 2 + 2 * y, 2 + 2 * x);
    dataset_ = new data::Dataset(std::move(small), digits.labels(), 10);

    model_->set_bayesian_last(0);
    train::TrainConfig config;
    config.epochs = 3;
    config.batch_size = 16;
    train::fit(*model_, *dataset_, config);
    qnet_ = new QuantNetwork(quantize_model(*model_, *dataset_));
  }
  static void TearDownTestSuite() {
    delete qnet_;
    delete dataset_;
    delete model_;
    qnet_ = nullptr;
    dataset_ = nullptr;
    model_ = nullptr;
  }

  static nn::Model* model_;
  static data::Dataset* dataset_;
  static QuantNetwork* qnet_;
};

nn::Model* QuantizedModel::model_ = nullptr;
data::Dataset* QuantizedModel::dataset_ = nullptr;
QuantNetwork* QuantizedModel::qnet_ = nullptr;

TEST_F(QuantizedModel, StructureMatchesFloatModel) {
  EXPECT_EQ(qnet_->num_layers(), model_->describe().num_layers());
  EXPECT_EQ(qnet_->num_sites, model_->num_sites());
  EXPECT_EQ(qnet_->num_classes, 10);
  for (const QLayer& layer : qnet_->layers) {
    EXPECT_EQ(static_cast<int>(layer.weight_scales.size()), layer.geom.out_c);
    EXPECT_EQ(static_cast<int>(layer.requant.size()), layer.geom.out_c);
    EXPECT_EQ(static_cast<int>(layer.bias.size()), layer.geom.out_c);
  }
}

TEST_F(QuantizedModel, ChainedQuantParams) {
  EXPECT_EQ(qnet_->layers.front().in, qnet_->input);
  for (std::size_t l = 1; l < qnet_->layers.size(); ++l)
    EXPECT_EQ(qnet_->layers[l].in, qnet_->layers[l - 1].out);
}

TEST_F(QuantizedModel, IntegerLogitsTrackFloatLogits) {
  model_->set_bayesian_last(0);
  model_->net().set_training(false);
  const data::Batch batch = dataset_->batch(0, 16);
  const nn::Tensor float_logits = model_->net().forward(batch.images);

  int argmax_agreement = 0;
  for (int n = 0; n < 16; ++n) {
    const QTensor image = quantize_image(batch.images, n, qnet_->input);
    const auto outputs = ref_forward(*qnet_, image, 0, nullptr);
    const nn::Tensor q_logits = ref_logits(*qnet_, outputs.back());
    int float_best = 0;
    int q_best = 0;
    for (int k = 1; k < 10; ++k) {
      if (float_logits.v2(n, k) > float_logits.v2(n, float_best)) float_best = k;
      if (q_logits.v2(0, k) > q_logits.v2(0, q_best)) q_best = k;
    }
    argmax_agreement += float_best == q_best ? 1 : 0;
  }
  EXPECT_GE(argmax_agreement, 14) << "int8 inference diverges from float reference";
}

TEST_F(QuantizedModel, QuantizedAccuracyCloseToFloat) {
  model_->set_bayesian_last(0);
  const double float_acc = train::evaluate_accuracy(*model_, *dataset_);

  nn::Tensor probs({dataset_->size(), 10});
  for (int n = 0; n < dataset_->size(); ++n) {
    const QTensor image = quantize_image(dataset_->images(), n, qnet_->input);
    const auto outputs = ref_forward(*qnet_, image, 0, nullptr);
    const nn::Tensor logits = ref_logits(*qnet_, outputs.back());
    for (int k = 0; k < 10; ++k) probs.v2(n, k) = logits.v2(0, k);
  }
  const double q_acc = metrics::accuracy(probs, dataset_->labels());
  EXPECT_NEAR(q_acc, float_acc, 0.08) << "8-bit quantization accuracy drop too large";
}

TEST_F(QuantizedModel, DeterministicForwardIsRepeatable) {
  const QTensor image = quantize_image(dataset_->images(), 0, qnet_->input);
  const auto a = ref_forward(*qnet_, image, 0, nullptr);
  const auto b = ref_forward(*qnet_, image, 0, nullptr);
  for (std::size_t l = 0; l < a.size(); ++l) EXPECT_EQ(a[l].data, b[l].data);
}

TEST_F(QuantizedModel, DropoutMasksZeroWholeFilters) {
  nn::RngMaskSource masks(0.5, util::Rng(3));
  const QTensor image = quantize_image(dataset_->images(), 0, qnet_->input);
  const auto outputs = ref_forward(*qnet_, image, qnet_->num_sites, &masks);
  // Check the first conv layer: each filter plane is either all-zp (dropped)
  // or untouched-by-zeroing (kept).
  const QLayer& first = qnet_->layers.front();
  const QTensor& out0 = outputs.front();
  int dropped = 0;
  for (int f = 0; f < out0.channels(); ++f) {
    bool all_zp = true;
    for (int h = 0; h < out0.height(); ++h)
      for (int w = 0; w < out0.width(); ++w)
        if (out0.at(f, h, w) != first.out.zero_point) all_zp = false;
    dropped += all_zp ? 1 : 0;
  }
  EXPECT_GT(dropped, 0);  // with p=0.5 over 8 filters, overwhelmingly likely
}

TEST_F(QuantizedModel, McPredictRowsNormalized) {
  nn::RngMaskSource masks(qnet_->dropout_p, util::Rng(5));
  const data::Batch batch = dataset_->batch(0, 3);
  const nn::Tensor probs = ref_mc_predict(*qnet_, batch.images, 2, 8, masks);
  for (int n = 0; n < 3; ++n) {
    float sum = 0.0f;
    for (int k = 0; k < 10; ++k) sum += probs.v2(n, k);
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST_F(QuantizedModel, CutLayerMatchesDescription) {
  const nn::NetworkDesc desc = qnet_->describe();
  for (int bayes = 0; bayes <= qnet_->num_sites; ++bayes)
    EXPECT_EQ(qnet_->cut_layer_for(bayes), desc.cut_layer_for(bayes));
}

// Residual topologies must quantize and execute too.
TEST(QuantResidual, ResNetQuantizesAndRuns) {
  util::Rng rng(11);
  nn::Model model = nn::make_resnet18(rng, 10, /*base_width=*/4);
  model.set_bayesian_last(0);
  util::Rng data_rng(12);
  data::Dataset objects = data::make_synth_objects(32, data_rng);
  QuantNetwork qnet = quantize_model(model, objects, {16});

  int shortcut_layers = 0;
  for (const QLayer& layer : qnet.layers)
    if (layer.geom.has_shortcut) {
      ++shortcut_layers;
      EXPECT_GE(layer.shortcut_source, 0);
      EXPECT_LT(layer.shortcut_source, qnet.num_layers());
    }
  EXPECT_EQ(shortcut_layers, 8);

  const QTensor image = quantize_image(objects.images(), 0, qnet.input);
  const auto outputs = ref_forward(qnet, image, 0, nullptr);
  EXPECT_EQ(outputs.back().numel(), 10);

  // Stochastic end-to-end with all sites active.
  nn::RngMaskSource masks(0.25, util::Rng(13));
  const auto stochastic = ref_forward(qnet, image, qnet.num_sites, &masks);
  EXPECT_EQ(stochastic.back().numel(), 10);
}

}  // namespace
}  // namespace bnn::quant
