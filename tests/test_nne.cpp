// The NNE's tiled datapath must be bit-exact against the untiled plain-loop
// specification (quant/qops.h) for every parallelism configuration in the
// paper's design space.
#include "core/nne.h"

#include <gtest/gtest.h>

#include "data/synth.h"
#include "nn/models.h"
#include "quant/qops.h"
#include "train/trainer.h"

namespace bnn::core {
namespace {

struct QuantizedFixture {
  QuantizedFixture() {
    util::Rng rng(21);
    model = std::make_unique<nn::Model>(nn::make_tiny_cnn(rng, 10, 1, 12));
    util::Rng data_rng(22);
    data::Dataset digits = data::make_synth_digits(120, data_rng);
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
    qnet = std::make_unique<quant::QuantNetwork>(quant::quantize_model(*model, *dataset));
  }

  std::unique_ptr<nn::Model> model;
  std::unique_ptr<data::Dataset> dataset;
  std::unique_ptr<quant::QuantNetwork> qnet;
};

QuantizedFixture& fixture() {
  static QuantizedFixture instance;
  return instance;
}

TEST(NneCycles, FormulaHandChecked) {
  nn::HwLayer layer;
  layer.op = nn::HwLayer::Op::conv;
  layer.in_c = 16;
  layer.out_c = 32;
  layer.kernel = 3;
  layer.conv_out_h = 10;
  layer.conv_out_w = 10;
  NneConfig config;
  config.pc = 64;
  config.pf = 64;
  config.pv = 1;
  // ceil(32/64)=1 filter tile, ceil(16*9/64)=ceil(144/64)=3 term tiles,
  // ceil(100/1)=100 position tiles -> 300 cycles.
  EXPECT_EQ(estimate_layer_cycles(layer, config), 300);

  config.pv = 4;  // ceil(100/4)=25 -> 75 cycles
  EXPECT_EQ(estimate_layer_cycles(layer, config), 75);
  config.pf = 8;  // ceil(32/8)=4 filter tiles -> 300
  EXPECT_EQ(estimate_layer_cycles(layer, config), 300);
}

TEST(NneCycles, LinearLayerIsKernelOneCase) {
  nn::HwLayer layer;
  layer.op = nn::HwLayer::Op::linear;
  layer.in_c = 400;
  layer.out_c = 120;
  NneConfig config;
  config.pc = 64;
  config.pf = 64;
  config.pv = 1;
  // ceil(120/64)=2, ceil(400/64)=7, 1 position -> 14 cycles.
  EXPECT_EQ(estimate_layer_cycles(layer, config), 14);
}

TEST(NneCycles, PeakGopsFromParallelism) {
  NneConfig config;
  config.pc = 64;
  config.pf = 64;
  config.pv = 1;
  config.clock_mhz = 225.0;
  EXPECT_EQ(config.macs_per_cycle(), 4096);
  EXPECT_NEAR(config.peak_gops(), 4096.0 * 2.0 * 225.0 / 1e3, 1e-9);  // 1843.2
}

struct TilingCase {
  int pc, pf, pv;
};

class NneTiling : public ::testing::TestWithParam<TilingCase> {};

// For every layer of the quantized network, the tiled NNE execution must
// reproduce the reference executor's int8 output exactly and its counted
// cycles must equal the closed-form estimate.
TEST_P(NneTiling, BitExactAgainstReferenceAndFormula) {
  const TilingCase tc = GetParam();
  NneConfig config;
  config.pc = tc.pc;
  config.pf = tc.pf;
  config.pv = tc.pv;

  auto& fx = fixture();
  const quant::QuantNetwork& qnet = *fx.qnet;
  const quant::QTensor image = quant::quantize_image(fx.dataset->images(), 0, qnet.input);

  // Reference chain (deterministic).
  const std::vector<quant::QTensor> ref = quant::ref_forward(qnet, image, 0, nullptr);

  // Tiled execution layer by layer, feeding reference inputs so each layer
  // is compared in isolation as well as in composition.
  const quant::QTensor* input = &image;
  for (int l = 0; l < qnet.num_layers(); ++l) {
    const quant::QLayer& layer = qnet.layers[static_cast<std::size_t>(l)];
    const quant::QTensor* shortcut =
        layer.geom.has_shortcut ? &ref[static_cast<std::size_t>(layer.shortcut_source)]
                                : nullptr;
    const NneLayerResult result = nne_run_layer(layer, *input, shortcut, false, nullptr,
                                                qnet.dropout_keep, config);
    EXPECT_EQ(result.output.data, ref[static_cast<std::size_t>(l)].data)
        << "layer " << l << " diverges at PC=" << tc.pc << " PF=" << tc.pf
        << " PV=" << tc.pv;
    EXPECT_EQ(result.compute_cycles, estimate_layer_cycles(layer.geom, config))
        << "cycle count mismatch at layer " << l;
    EXPECT_EQ(result.macs_retired, layer.geom.macs());
    input = &ref[static_cast<std::size_t>(l)];
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperDesignSpace, NneTiling,
    ::testing::Values(TilingCase{8, 8, 1}, TilingCase{16, 8, 4}, TilingCase{32, 16, 1},
                      TilingCase{64, 64, 1}, TilingCase{128, 128, 16},
                      TilingCase{8, 128, 8}, TilingCase{128, 8, 1}));

// The tiny fixture above has no strided, 1x1 or shortcut layers. The
// reduced ResNet-18 has all of them: 3x3 stride-1 and stride-2 convs with
// pad 1 (border windows), 1x1 stride-2 pad-0 projections and shortcut adds.
// Every layer runs through the NNE at both tier caps and several tilings,
// fed the spec's own inputs, against the plain-loop spec.
TEST(QuantConvGather, MatchesPlainLoopBitExactlyOnStridedPaddedShapes) {
  util::Rng rng(17);
  nn::Model model = nn::make_resnet18(rng, 10, /*base_width=*/4);
  model.set_bayesian_last(0);
  util::Rng data_rng(18);
  data::Dataset objects = data::make_synth_objects(32, data_rng);
  const quant::QuantNetwork qnet = quant::quantize_model(model, objects, {16});
  const quant::NetworkExecPlan plan = quant::build_network_exec_plan(qnet);

  const quant::QTensor image = quant::quantize_image(objects.images(), 1, qnet.input);
  const std::vector<quant::QTensor> ref = quant::ref_forward(qnet, image, 0, nullptr);

  bool saw_strided = false, saw_padded = false, saw_pointwise = false, saw_shortcut = false;
  for (const TilingCase tc : {TilingCase{8, 8, 1}, TilingCase{16, 8, 4},
                              TilingCase{128, 32, 16}}) {
    NneConfig config;
    config.pc = tc.pc;
    config.pf = tc.pf;
    config.pv = tc.pv;
    for (const nn::kernels::Tier tier : {nn::kernels::Tier::int8, nn::kernels::Tier::bitpack}) {
      NneScratch scratch;
      quant::QTensor out;
      for (int l = 0; l < qnet.num_layers(); ++l) {
        const quant::QLayer& layer = qnet.layers[static_cast<std::size_t>(l)];
        const nn::HwLayer& g = layer.geom;
        const quant::QTensor& input =
            layer.input_source < 0 ? image : ref[static_cast<std::size_t>(layer.input_source)];
        const quant::QTensor* shortcut =
            g.has_shortcut ? &ref[static_cast<std::size_t>(layer.shortcut_source)] : nullptr;
        nne_run_layer_into(layer, plan.layer(l), input, shortcut, false, nullptr,
                           qnet.dropout_keep, config, tier, scratch, out);
        EXPECT_EQ(out.data, ref[static_cast<std::size_t>(l)].data)
            << "layer " << l << " (" << g.label << ") diverges at tier "
            << nn::kernels::tier_name(tier) << " PC=" << tc.pc << " PF=" << tc.pf
            << " PV=" << tc.pv;
        if (g.op != nn::HwLayer::Op::conv) continue;
        saw_strided = saw_strided || g.stride > 1;
        saw_padded = saw_padded || g.pad > 0;
        saw_pointwise = saw_pointwise || g.kernel == 1;
        saw_shortcut = saw_shortcut || g.has_shortcut;
      }
    }
  }
  EXPECT_TRUE(saw_strided) << "fixture lost its stride-2 conv coverage";
  EXPECT_TRUE(saw_padded) << "fixture lost its padded conv coverage";
  EXPECT_TRUE(saw_pointwise) << "fixture lost its 1x1 projection coverage";
  EXPECT_TRUE(saw_shortcut) << "fixture lost its shortcut coverage";
}

TEST(NneDropout, SameMaskStreamGivesSameOutputs) {
  auto& fx = fixture();
  const quant::QuantNetwork& qnet = *fx.qnet;
  const quant::QTensor image = quant::quantize_image(fx.dataset->images(), 1, qnet.input);

  NneConfig config;
  config.pc = 16;
  config.pf = 8;
  config.pv = 4;

  nn::RngMaskSource masks_ref(qnet.dropout_p, util::Rng(7));
  nn::RngMaskSource masks_nne(qnet.dropout_p, util::Rng(7));

  const std::vector<quant::QTensor> ref =
      quant::ref_forward(qnet, image, qnet.num_sites, &masks_ref);

  const quant::QTensor* input = &image;
  std::vector<quant::QTensor> outputs;
  for (int l = 0; l < qnet.num_layers(); ++l) {
    const quant::QLayer& layer = qnet.layers[static_cast<std::size_t>(l)];
    const quant::QTensor* shortcut =
        layer.geom.has_shortcut ? &outputs[static_cast<std::size_t>(layer.shortcut_source)]
                                : nullptr;
    NneLayerResult result =
        nne_run_layer(layer, *input, shortcut, layer.geom.is_bayes_site, &masks_nne,
                      qnet.dropout_keep, config);
    if (layer.geom.is_bayes_site) {
      EXPECT_EQ(result.mask_bits_consumed, layer.geom.out_c);
    }
    outputs.push_back(std::move(result.output));
    EXPECT_EQ(outputs.back().data, ref[static_cast<std::size_t>(l)].data) << "layer " << l;
    input = &outputs.back();
  }
}

TEST(NneValidation, RejectsBadArguments) {
  auto& fx = fixture();
  const quant::QuantNetwork& qnet = *fx.qnet;
  const quant::QLayer& first = qnet.layers.front();
  const quant::QTensor image = quant::quantize_image(fx.dataset->images(), 0, qnet.input);
  NneConfig config;
  // Active site without a mask source.
  EXPECT_THROW(
      nne_run_layer(first, image, nullptr, true, nullptr, qnet.dropout_keep, config),
      std::invalid_argument);
  // Wrong input shape.
  quant::QTensor wrong({3, 5, 5}, qnet.input);
  EXPECT_THROW(
      nne_run_layer(first, wrong, nullptr, false, nullptr, qnet.dropout_keep, config),
      std::invalid_argument);
  // An input zero point outside int8 (the int8 tier lowers padding as it).
  for (const std::int32_t zp : {-129, 128}) {
    quant::QLayer bad_zero_point = first;
    bad_zero_point.in.zero_point = zp;
    EXPECT_THROW(nne_run_layer(bad_zero_point, image, nullptr, false, nullptr,
                               qnet.dropout_keep, config),
                 std::invalid_argument)
        << "zp_in " << zp;
  }
}

}  // namespace
}  // namespace bnn::core
