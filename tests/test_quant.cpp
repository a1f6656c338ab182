#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "bayes/predictive.h"
#include "bench/serve_fixture.h"
#include "data/synth.h"
#include "metrics/metrics.h"
#include "quant/fixed_point.h"
#include "quant/qnetwork.h"
#include "quant/qops.h"
#include "quant/qplan.h"
#include "quant/qtensor.h"
#include "runtime/thread_pool.h"
#include "serve/trace.h"
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

TEST(TwoValuedActivations, DetectsUpToTwoDistinctValues) {
  QTensor x({2, 2, 2}, QuantParams{1.0f, 0});
  std::int8_t lo = 0, hi = 0;
  x.data = {5, 5, 5, 5, 5, 5, 5, 5};
  EXPECT_TRUE(two_valued_activations(x, &lo, &hi));
  EXPECT_EQ(lo, 5);
  EXPECT_EQ(hi, 5);
  x.data = {9, -4, 9, 9, -4, -4, 9, -4};
  EXPECT_TRUE(two_valued_activations(x, &lo, &hi));
  EXPECT_EQ(lo, -4);
  EXPECT_EQ(hi, 9);
  x.data[5] = 0;  // third value
  EXPECT_FALSE(two_valued_activations(x, &lo, &hi));
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

// --- calibration on a pool ------------------------------------------------------

// A throw inside calibration must not leave the caller's model with every
// Monte Carlo Dropout site switched off.
TEST(QuantizeModel, RestoresTheBayesianDepthWhenCalibrationThrows) {
  util::Rng rng(7);
  nn::Model model = nn::make_tiny_cnn(rng, 10, 1, 12);  // one input channel
  model.set_bayesian_last(2);
  util::Rng data_rng(8);
  const data::Dataset objects = data::make_synth_objects(4, data_rng);  // three channels
  EXPECT_THROW(quantize_model(model, objects), std::invalid_argument);
  EXPECT_EQ(model.bayesian_layers(), 2);
  for (int i = 0; i < model.num_sites(); ++i)
    EXPECT_EQ(model.site(i).active(), i >= model.num_sites() - 2) << "site " << i;
}

std::uint32_t bits(float v) { return std::bit_cast<std::uint32_t>(v); }

// The activation parameters the sequential calibration loop chooses:
// batches of 8 images through Network::forward, min and max over each
// hardware layer's anchor (its last conv/linear, BN, FU or shortcut-add
// node, as collect_layer_refs assigns them).
struct ReferenceParams {
  QuantParams input;
  std::vector<QuantParams> out;  // per hardware layer
};

ReferenceParams sequential_calibration(nn::Model& model, const data::Dataset& calibration,
                                       int max_images) {
  nn::Network& net = model.net();
  std::vector<nn::Network::NodeId> anchors;
  for (nn::Network::NodeId id = 1; id < net.num_nodes(); ++id) {
    switch (net.layer(id)->kind()) {
      case nn::LayerKind::conv2d:
      case nn::LayerKind::linear:
        anchors.push_back(id);
        break;
      case nn::LayerKind::batch_norm:
      case nn::LayerKind::relu:
      case nn::LayerKind::max_pool:
      case nn::LayerKind::avg_pool:
      case nn::LayerKind::global_avg_pool:
      case nn::LayerKind::add:
        anchors.back() = id;
        break;
      default:
        break;  // dropout, flatten and softmax are not range anchors
    }
  }
  const int saved = model.bayesian_layers();
  model.set_bayesian_last(0);
  net.set_training(false);
  constexpr float kMax = std::numeric_limits<float>::max();
  constexpr float kLowest = std::numeric_limits<float>::lowest();
  float in_lo = kMax, in_hi = kLowest;
  std::vector<float> lo(anchors.size(), kMax), hi(anchors.size(), kLowest);
  const int images = std::min(max_images, calibration.size());
  for (int start = 0; start < images; start += 8) {
    const data::Batch batch = calibration.batch(start, std::min(8, images - start));
    for (std::int64_t i = 0; i < batch.images.numel(); ++i) {
      in_lo = std::min(in_lo, batch.images[i]);
      in_hi = std::max(in_hi, batch.images[i]);
    }
    (void)net.forward(batch.images);
    for (std::size_t l = 0; l < anchors.size(); ++l) {
      const nn::Tensor& activation = net.activation(anchors[l]);
      for (std::int64_t i = 0; i < activation.numel(); ++i) {
        lo[l] = std::min(lo[l], activation[i]);
        hi[l] = std::max(hi[l], activation[i]);
      }
    }
  }
  model.set_bayesian_last(saved);
  ReferenceParams reference{choose_activation_params(in_lo, in_hi), {}};
  for (std::size_t l = 0; l < anchors.size(); ++l)
    reference.out.push_back(choose_activation_params(lo[l], hi[l]));
  return reference;
}

void expect_same_params(const QuantParams& got, const QuantParams& expected) {
  EXPECT_EQ(bits(got.scale), bits(expected.scale));
  EXPECT_EQ(got.zero_point, expected.zero_point);
}

void expect_same_multipliers(const std::vector<FixedMultiplier>& a,
                             const std::vector<FixedMultiplier>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].mult, b[i].mult) << "channel " << i;
    EXPECT_EQ(a[i].shift, b[i].shift) << "channel " << i;
  }
}

auto geometry(const nn::HwLayer& g) {
  return std::tie(g.label, g.op, g.in_c, g.in_h, g.in_w, g.conv_out_h, g.conv_out_w, g.out_c,
                  g.out_h, g.out_w, g.kernel, g.stride, g.pad, g.has_bias, g.has_bn, g.has_relu,
                  g.pool_kernel, g.pool_stride, g.pool_is_global, g.pool_is_max, g.has_shortcut,
                  g.is_bayes_site, g.site_index);
}

// Every field of two quantized networks, floats by bit pattern.
void expect_identical(const QuantNetwork& a, const QuantNetwork& b) {
  EXPECT_EQ(a.name, b.name);
  expect_same_params(a.input, b.input);
  EXPECT_EQ(a.num_classes, b.num_classes);
  EXPECT_EQ(a.num_sites, b.num_sites);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.dropout_p), std::bit_cast<std::uint64_t>(b.dropout_p));
  expect_same_multipliers({a.dropout_keep}, {b.dropout_keep});
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (std::size_t l = 0; l < a.layers.size(); ++l) {
    SCOPED_TRACE("layer " + std::to_string(l));
    const QLayer& x = a.layers[l];
    const QLayer& y = b.layers[l];
    EXPECT_TRUE(geometry(x.geom) == geometry(y.geom));
    EXPECT_EQ(x.input_source, y.input_source);
    EXPECT_EQ(x.shortcut_source, y.shortcut_source);
    expect_same_params(x.in, y.in);
    expect_same_params(x.out, y.out);
    EXPECT_EQ(x.weights, y.weights);
    ASSERT_EQ(x.weight_scales.size(), y.weight_scales.size());
    for (std::size_t f = 0; f < x.weight_scales.size(); ++f)
      EXPECT_EQ(bits(x.weight_scales[f]), bits(y.weight_scales[f])) << "filter " << f;
    EXPECT_EQ(x.bias, y.bias);
    expect_same_multipliers(x.requant, y.requant);
    EXPECT_EQ(x.post_add, y.post_add);
    expect_same_multipliers({x.shortcut_rescale}, {y.shortcut_rescale});
  }
}

struct CalibrationCase {
  std::string name;
  nn::Model model;
  data::Dataset images;
};

std::vector<CalibrationCase> calibration_cases() {
  std::vector<CalibrationCase> cases;
  // The paper networks at the serving benchmark's widths and seeds, untrained.
  {
    util::Rng rng(101), data_rng(102);
    cases.push_back({"lenet5", nn::make_lenet5(rng), data::make_synth_digits(64, data_rng)});
  }
  {
    util::Rng rng(201), data_rng(202);
    cases.push_back({"vgg11", nn::make_vgg11(rng, 10, /*width_divisor=*/8),
                     data::make_synth_svhn(64, data_rng)});
  }
  {
    util::Rng rng(301), data_rng(302);
    cases.push_back({"resnet18", nn::make_resnet18(rng, 10, /*base_width=*/8),
                     data::make_synth_objects(64, data_rng)});
  }
  for (const std::uint32_t id : {bench::kWorkloadCnn12, bench::kWorkloadMlp49,
                                 bench::kWorkloadCnn12b}) {
    bench::FloatFixture fixture = bench::make_float_fixture(id);
    cases.push_back({bench::workload_model_name(id), std::move(fixture.model),
                     std::move(fixture.dataset)});
  }
  return cases;
}

// One image per pool index, merged after the join, gives the sequential
// loop's activation parameters at every pool size. The rest of a QLayer is
// the unchanged assembly of the weights and these parameters, so every
// field and the fingerprint must also agree across the pool sizes. Every
// network here ends at an anchor (its last Linear), whose arena slot
// replay_suffix_row moves out: a lane that read that slot would fail here.
TEST(QuantizeModel, CalibrationIsByteIdenticalAtEveryPoolSize) {
  std::vector<std::unique_ptr<runtime::ThreadPool>> pools;
  for (const int threads : {1, 2, 8}) pools.push_back(std::make_unique<runtime::ThreadPool>(threads));
  for (CalibrationCase& c : calibration_cases()) {
    for (const int max_images : {64, 13, c.images.size() + 1}) {
      SCOPED_TRACE(c.name + " max_images " + std::to_string(max_images));
      const ReferenceParams reference = sequential_calibration(c.model, c.images, max_images);
      std::unique_ptr<QuantNetwork> first;
      for (const auto& pool : pools) {
        SCOPED_TRACE("pool of " + std::to_string(pool->size()));
        QuantNetwork qnet = quantize_model(c.model, c.images, {max_images, pool.get()});
        expect_same_params(qnet.input, reference.input);
        ASSERT_EQ(qnet.layers.size(), reference.out.size());
        for (std::size_t l = 0; l < qnet.layers.size(); ++l) {
          SCOPED_TRACE("layer " + std::to_string(l));
          expect_same_params(qnet.layers[l].out, reference.out[l]);
          const int source = qnet.layers[l].input_source;
          expect_same_params(qnet.layers[l].in,
                             source < 0 ? reference.input
                                        : reference.out[static_cast<std::size_t>(source)]);
        }
        if (!first) {
          first = std::make_unique<QuantNetwork>(std::move(qnet));
          continue;
        }
        expect_identical(qnet, *first);
        EXPECT_EQ(serve::network_fingerprint(qnet), serve::network_fingerprint(*first));
      }
    }
  }
}

}  // namespace
}  // namespace bnn::quant
