// The NNE's tiled datapath must be bit-exact against the untiled plain-loop
// specification (quant/qops.h) for every parallelism configuration in the
// paper's design space, on both GEMM tiles and every lowering case.
#include "core/nne.h"

#include <gtest/gtest.h>

#include "data/synth.h"
#include "nn/gemm_kernels.h"
#include "nn/models.h"
#include "quant/qops.h"
#include "quant/qplan.h"
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
  const quant::NetworkExecPlan plan = quant::build_network_exec_plan(qnet);
  NneScratch scratch;
  quant::QTensor out;
  const quant::QTensor* input = &image;
  for (int l = 0; l < qnet.num_layers(); ++l) {
    const quant::QLayer& layer = qnet.layers[static_cast<std::size_t>(l)];
    const quant::QTensor* shortcut =
        layer.geom.has_shortcut ? &ref[static_cast<std::size_t>(layer.shortcut_source)]
                                : nullptr;
    const NneLayerStats stats =
        nne_run_layer_into(layer, plan.layer(l), *input, shortcut, false, nullptr,
                           qnet.dropout_keep, config, nn::kernels::Tier::int8, scratch, out);
    EXPECT_EQ(out.data, ref[static_cast<std::size_t>(l)].data)
        << "layer " << l << " diverges at PC=" << tc.pc << " PF=" << tc.pf
        << " PV=" << tc.pv;
    EXPECT_EQ(stats.compute_cycles, estimate_layer_cycles(layer.geom, config))
        << "cycle count mismatch at layer " << l;
    EXPECT_EQ(stats.macs_retired, layer.geom.macs());
    input = &ref[static_cast<std::size_t>(l)];
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperDesignSpace, NneTiling,
    ::testing::Values(TilingCase{8, 8, 1}, TilingCase{16, 8, 4}, TilingCase{32, 16, 1},
                      TilingCase{64, 64, 1}, TilingCase{128, 128, 16},
                      TilingCase{8, 128, 8}, TilingCase{128, 8, 1}));

// Which NNE paths a set of conv layers exercised: the two GEMM
// tiles (kernels::gemm_i8_filter_vectorized picks one per layer) and the
// lowering cases of the padded plane.
struct PathCoverage {
  bool position_tile = false, filter_tile = false;
  bool stride1_pad0 = false, stride1_pad1 = false, stride1_pad2 = false;
  bool strided = false, pointwise = false, shortcut = false;

  void add(const nn::HwLayer& g) {
    if (g.op != nn::HwLayer::Op::conv) return;
    const bool small = nn::kernels::gemm_i8_filter_vectorized(g.conv_out_h * g.conv_out_w);
    filter_tile = filter_tile || small;
    position_tile = position_tile || !small;
    const bool window = g.kernel > 1 && g.stride == 1;
    stride1_pad0 = stride1_pad0 || (window && g.pad == 0);
    stride1_pad1 = stride1_pad1 || (window && g.pad == 1);
    stride1_pad2 = stride1_pad2 || (window && g.pad == 2);
    strided = strided || g.stride > 1;
    pointwise = pointwise || g.kernel == 1;
    shortcut = shortcut || g.has_shortcut;
  }
};

// The tiny fixture above has no strided, 1x1, shortcut or small-map layers.
// The reduced ResNet-18 has 3x3 stride-1 and stride-2 convs with pad 1
// (border windows), 1x1 stride-2 pad-0 projections and shortcut adds; the
// reduced VGG-11 (width / 8) ends in 4x4 (16-position) and 2x2
// (4-position) maps, so both GEMM tiles run. Every layer runs through the
// NNE at several tilings, fed the spec's own inputs, against the
// plain-loop spec.
TEST(QuantConvGather, MatchesPlainLoopBitExactlyOnStridedPaddedShapes) {
  util::Rng rng(17);
  util::Rng data_rng(18);
  const data::Dataset objects = data::make_synth_objects(32, data_rng);
  nn::Model resnet = nn::make_resnet18(rng, 10, /*base_width=*/4);
  nn::Model vgg = nn::make_vgg11(rng, 10, /*width_divisor=*/8);
  const char* names[] = {"resnet18", "vgg11"};
  nn::Model* models[] = {&resnet, &vgg};

  PathCoverage seen;
  for (int n = 0; n < 2; ++n) {
    models[n]->set_bayesian_last(0);
    const quant::QuantNetwork qnet = quant::quantize_model(*models[n], objects, {16});
    const quant::NetworkExecPlan plan = quant::build_network_exec_plan(qnet);
    const quant::QTensor image = quant::quantize_image(objects.images(), 1, qnet.input);
    const std::vector<quant::QTensor> ref = quant::ref_forward(qnet, image, 0, nullptr);

    for (const TilingCase tc : {TilingCase{8, 8, 1}, TilingCase{16, 8, 4},
                                TilingCase{128, 32, 16}}) {
      NneConfig config;
      config.pc = tc.pc;
      config.pf = tc.pf;
      config.pv = tc.pv;
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
                           qnet.dropout_keep, config, nn::kernels::Tier::int8, scratch, out);
        EXPECT_EQ(out.data, ref[static_cast<std::size_t>(l)].data)
            << names[n] << " layer " << l << " (" << g.label << ") diverges at PC=" << tc.pc
            << " PF=" << tc.pf << " PV=" << tc.pv;
        seen.add(g);
      }
    }
  }
  EXPECT_TRUE(seen.strided) << "fixtures lost their stride-2 conv coverage";
  EXPECT_TRUE(seen.stride1_pad1) << "fixtures lost their padded conv coverage";
  EXPECT_TRUE(seen.pointwise) << "fixtures lost their 1x1 projection coverage";
  EXPECT_TRUE(seen.shortcut) << "fixtures lost their shortcut coverage";
  EXPECT_TRUE(seen.filter_tile) << "fixtures lost their small-map (filter tile) coverage";
  EXPECT_TRUE(seen.position_tile) << "fixtures lost their wide-map (position tile) coverage";
}

// A conv layer with arbitrary int8 weights and every FU/DU constant drawn
// at random.
struct SmallConv {
  int in_c, in_h, in_w, kernel, stride, pad;
  enum class Pool { none, max2, avg2, global } pool = Pool::none;
  bool shortcut = false;
};

quant::QLayer make_conv(util::Rng& rng, const SmallConv& spec, int out_c, std::int32_t zp_in) {
  quant::QLayer layer;
  nn::HwLayer& g = layer.geom;
  g.op = nn::HwLayer::Op::conv;
  g.in_c = spec.in_c;
  g.in_h = spec.in_h;
  g.in_w = spec.in_w;
  g.out_c = out_c;
  g.kernel = spec.kernel;
  g.stride = spec.stride;
  g.pad = spec.pad;
  g.conv_out_h = (spec.in_h + 2 * spec.pad - spec.kernel) / spec.stride + 1;
  g.conv_out_w = (spec.in_w + 2 * spec.pad - spec.kernel) / spec.stride + 1;
  g.has_relu = rng.uniform_int(0, 1) != 0;
  g.has_shortcut = spec.shortcut;
  g.out_h = g.conv_out_h;
  g.out_w = g.conv_out_w;
  if (spec.pool == SmallConv::Pool::global) {
    g.pool_is_global = true;
    g.out_h = g.out_w = 1;
  } else if (spec.pool != SmallConv::Pool::none) {
    g.pool_kernel = g.pool_stride = 2;
    g.pool_is_max = spec.pool == SmallConv::Pool::max2;
    g.out_h = (g.conv_out_h - 2) / 2 + 1;
    g.out_w = (g.conv_out_w - 2) / 2 + 1;
  }
  const int terms = spec.in_c * spec.kernel * spec.kernel;
  layer.weights.resize(static_cast<std::size_t>(out_c) * terms);
  for (auto& w : layer.weights) w = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  layer.bias.resize(static_cast<std::size_t>(out_c));
  for (auto& b : layer.bias) b = rng.uniform_int(-5000, 5000);
  layer.weight_scales.assign(static_cast<std::size_t>(out_c), 1.0f);
  layer.requant.resize(static_cast<std::size_t>(out_c));
  for (auto& m : layer.requant)
    m = quant::quantize_multiplier((rng.uniform_int(0, 3) == 0 ? -1.0 : 1.0) *
                                   (0.0002 + 0.0001 * rng.uniform_int(0, 40)));
  layer.post_add.resize(static_cast<std::size_t>(out_c));
  for (auto& p : layer.post_add) p = rng.uniform_int(-20, 20);
  layer.in = quant::QuantParams{0.05f, zp_in};
  layer.out = quant::QuantParams{0.1f, rng.uniform_int(-10, 10)};
  layer.shortcut_rescale = quant::quantize_multiplier(0.7);
  return layer;
}

// Hand-built conv layers with 1, 4, 9, 15 and 16 output positions, 1 to 64
// filters, every lowering case (stride 1 with pad 0/1/2, stride 2 and 3, 1x1), a
// shortcut, max/average/global pools and the extreme input zero points,
// each run through the NNE (with and without the Dropout Unit) against the
// plain-loop spec.
TEST(QuantConvGather, SmallAndBoundaryMapsMatchPlainLoop) {
  using Pool = SmallConv::Pool;
  const SmallConv specs[] = {
      {3, 3, 3, 3, 1, 0},                      // 1 position, stride 1 pad 0
      {2, 2, 2, 3, 2, 1, Pool::none, true},    // 1 position, stride 2 pad 1, shortcut
      {5, 1, 1, 1, 1, 0},                      // 1 position, 1x1
      {4, 2, 2, 3, 1, 1, Pool::avg2},          // 4 positions -> avg pool to 1
      {3, 4, 4, 1, 2, 0},                      // 4 positions, 1x1 stride 2
      {6, 3, 3, 3, 1, 1, Pool::none, true},    // 9 positions, pad 1, shortcut
      {2, 6, 6, 3, 2, 1, Pool::global},        // 9 positions, stride 2, global pool
      {2, 7, 7, 3, 3, 1},                      // 9 positions, stride 3
      {3, 3, 5, 5, 1, 2},                      // 15 positions, pad 2
      {4, 5, 7, 3, 1, 0, Pool::none, true},    // 15 positions, pad 0, shortcut
      {4, 4, 4, 3, 1, 1, Pool::max2},          // 16 positions -> max pool to 4
      {3, 8, 8, 1, 2, 0, Pool::global},        // 16 positions, 1x1 stride 2
      {2, 8, 8, 3, 2, 1, Pool::none, true},    // 16 positions, stride 2, shortcut
  };
  util::Rng rng(23);
  const quant::FixedMultiplier keep = quant::quantize_multiplier(1.0 / 0.75);
  NneConfig config;
  NneScratch scratch;
  quant::QTensor out;
  PathCoverage seen;
  for (const SmallConv& spec : specs) {
    for (const int out_c : {1, 5, 17, 64}) {
      for (const std::int32_t zp_in : {-128, 127}) {
        const quant::QLayer layer = make_conv(rng, spec, out_c, zp_in);
        const nn::HwLayer& g = layer.geom;
        const quant::LayerExecPlan plan = quant::build_layer_exec_plan(layer);
        quant::QTensor input({spec.in_c, spec.in_h, spec.in_w}, layer.in);
        for (auto& v : input.data) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
        // The shortcut operand at its int8 extremes and random values.
        quant::QTensor sc({out_c, g.conv_out_h, g.conv_out_w},
                          quant::QuantParams{0.2f, rng.uniform_int(0, 1) ? -128 : 127});
        for (auto& v : sc.data)
          v = static_cast<std::int8_t>(rng.uniform_int(0, 3) == 0   ? -128
                                       : rng.uniform_int(0, 2) == 0 ? 127
                                                                    : rng.uniform_int(-128, 127));
        const quant::QTensor* shortcut = spec.shortcut ? &sc : nullptr;
        for (const bool active : {false, true}) {
          nn::RngMaskSource masks_ref(0.25, util::Rng(41));
          nn::RngMaskSource masks_nne(0.25, util::Rng(41));
          const quant::QTensor expected =
              quant::ref_run_layer(layer, input, shortcut, active, &masks_ref, keep);
          nne_run_layer_into(layer, plan, input, shortcut, active, &masks_nne, keep, config,
                             nn::kernels::Tier::int8, scratch, out);
          ASSERT_EQ(out.data, expected.data)
              << "in " << spec.in_c << "x" << spec.in_h << "x" << spec.in_w << " k"
              << spec.kernel << " s" << spec.stride << " p" << spec.pad << " out_c " << out_c
              << " zp_in " << zp_in << " dropout " << active;
        }
        seen.add(g);
      }
    }
  }
  EXPECT_TRUE(seen.filter_tile && seen.position_tile);
  EXPECT_TRUE(seen.stride1_pad0 && seen.stride1_pad1 && seen.stride1_pad2);
  EXPECT_TRUE(seen.strided && seen.pointwise && seen.shortcut);
}

// The grouped K-major weight copy exists exactly where the NNE reads it,
// every conv and linear layer carries its zero-point correction, and the
// plan's weight_bytes (the residency currency) counts both: for 17
// filters, the resident rows (17 x terms bytes), the copy (groups x 32
// filters x 4 bytes) on a 3 x 3 map or a linear layer, and 4 bytes of
// correction per filter.
TEST(QuantConvGather, PlanCarriesKMajorCopyOnlyForSmallMaps) {
  util::Rng rng(24);
  const std::int32_t zp_in = -3;
  const struct {
    SmallConv spec;
    bool linear;
    bool kmajor;
    std::uint64_t weight_bytes;
  } cases[] = {
      {SmallConv{4, 3, 3, 3, 1, 1}, false, true, 17 * 36 + 9 * 32 * 4 + 17 * 4},  // 1832: 9 groups
      {SmallConv{3, 3, 3, 3, 1, 1}, false, true, 17 * 27 + 7 * 32 * 4 + 17 * 4},  // 1423: tail 3
      {SmallConv{4, 4, 4, 3, 1, 1}, false, false, 17 * 36 + 17 * 4},  // 680: 16 positions, no copy
      // A linear layer of 130 inputs, the filter tile's one-position map:
      // 6502 bytes, 33 groups (a 2-term tail).
      {SmallConv{130, 1, 1, 1, 1, 0}, true, true, 17 * 130 + 33 * 32 * 4 + 17 * 4},
  };
  for (const auto& c : cases) {
    const SmallConv& spec = c.spec;
    quant::QLayer layer = make_conv(rng, spec, 17, zp_in);
    if (c.linear) layer.geom.op = nn::HwLayer::Op::linear;
    const quant::LayerExecPlan plan = quant::build_layer_exec_plan(layer);
    const int terms = spec.in_c * spec.kernel * spec.kernel;
    EXPECT_EQ(plan.weight_bytes, c.weight_bytes) << "in_c " << spec.in_c << " map " << spec.in_h;
    ASSERT_EQ(plan.correction.size(), 17u);
    for (int f = 0; f < 17; ++f) {
      std::int32_t sum = 0;
      for (int t = 0; t < terms; ++t) sum += layer.weight_row(f)[t];
      EXPECT_EQ(plan.correction[static_cast<std::size_t>(f)], (zp_in + 128) * sum);
    }
    EXPECT_EQ(c.kmajor, c.linear || nn::kernels::gemm_i8_filter_vectorized(
                                        layer.geom.conv_out_h * layer.geom.conv_out_w));
    if (c.kmajor) {
      EXPECT_EQ(plan.ldw, 32);
      const int groups = (terms + 3) / 4;
      ASSERT_EQ(plan.weights_kmajor.size(), static_cast<std::size_t>(groups) * plan.ldw * 4);
      for (int t = 0; t < groups * 4; ++t)
        for (int f = 0; f < plan.ldw; ++f)
          EXPECT_EQ(plan.weights_kmajor[(static_cast<std::size_t>(t / 4) * plan.ldw + f) * 4 +
                                        t % 4],
                    f < 17 && t < terms ? layer.weight_row(f)[t] : 0);
    } else {
      EXPECT_EQ(plan.ldw, 0);
      EXPECT_TRUE(plan.weights_kmajor.empty());
    }
  }
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

  const quant::NetworkExecPlan plan = quant::build_network_exec_plan(qnet);
  NneScratch scratch;
  std::vector<quant::QTensor> outputs(static_cast<std::size_t>(qnet.num_layers()));
  const quant::QTensor* input = &image;
  for (int l = 0; l < qnet.num_layers(); ++l) {
    const quant::QLayer& layer = qnet.layers[static_cast<std::size_t>(l)];
    const quant::QTensor* shortcut =
        layer.geom.has_shortcut ? &outputs[static_cast<std::size_t>(layer.shortcut_source)]
                                : nullptr;
    quant::QTensor& out = outputs[static_cast<std::size_t>(l)];
    const NneLayerStats stats = nne_run_layer_into(
        layer, plan.layer(l), *input, shortcut, layer.geom.is_bayes_site, &masks_nne,
        qnet.dropout_keep, config, nn::kernels::Tier::int8, scratch, out);
    if (layer.geom.is_bayes_site) {
      EXPECT_EQ(stats.mask_bits_consumed, layer.geom.out_c);
    }
    EXPECT_EQ(out.data, ref[static_cast<std::size_t>(l)].data) << "layer " << l;
    input = &out;
  }
}

TEST(NneValidation, RejectsBadArguments) {
  auto& fx = fixture();
  const quant::QuantNetwork& qnet = *fx.qnet;
  const quant::QLayer& first = qnet.layers.front();
  const quant::LayerExecPlan plan = quant::build_layer_exec_plan(first);
  const quant::QTensor image = quant::quantize_image(fx.dataset->images(), 0, qnet.input);
  NneConfig config;
  NneScratch scratch;
  quant::QTensor out;
  const auto run = [&](const quant::QLayer& layer, const quant::QTensor& input, bool active) {
    nne_run_layer_into(layer, plan, input, nullptr, active, nullptr, qnet.dropout_keep, config,
                       nn::kernels::Tier::int8, scratch, out);
  };
  // Active site without a mask source.
  EXPECT_THROW(run(first, image, true), std::invalid_argument);
  // Wrong input shape.
  quant::QTensor wrong({3, 5, 5}, qnet.input);
  EXPECT_THROW(run(first, wrong, false), std::invalid_argument);
  // An input zero point outside int8 (lowering stores padding as it).
  for (const std::int32_t zp : {-129, 128}) {
    quant::QLayer bad_zero_point = first;
    bad_zero_point.in.zero_point = zp;
    EXPECT_THROW(run(bad_zero_point, image, false), std::invalid_argument) << "zp_in " << zp;
  }
}

}  // namespace
}  // namespace bnn::core
