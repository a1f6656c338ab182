// Blocks of Monte Carlo samples: one NNE layer call over a block of B
// samples, laid out [C][B][H][W], must equal B one-sample calls and the
// plain-loop specification (quant/qops.h) sample by sample, and the
// accelerator's blocked lanes must equal the full-recompute reference.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/accelerator.h"
#include "core/nne.h"
#include "data/synth.h"
#include "nn/gemm_kernels.h"
#include "nn/models.h"
#include "quant/qops.h"
#include "quant/qplan.h"

namespace bnn::core {
namespace {

// The block tensor {C, B * H, W} of B one-sample tensors {C, H, W}.
quant::QTensor stack_samples(const std::vector<quant::QTensor>& samples) {
  const int c = samples.front().channels(), h = samples.front().height();
  const int w = samples.front().width(), count = static_cast<int>(samples.size());
  quant::QTensor block({c, count * h, w}, samples.front().params);
  const std::size_t map = static_cast<std::size_t>(h) * w;
  for (int ch = 0; ch < c; ++ch)
    for (int b = 0; b < count; ++b)
      std::copy(samples[static_cast<std::size_t>(b)].data.begin() +
                    static_cast<std::ptrdiff_t>(ch * map),
                samples[static_cast<std::size_t>(b)].data.begin() +
                    static_cast<std::ptrdiff_t>((ch + 1) * map),
                block.data.begin() + static_cast<std::ptrdiff_t>((ch * count + b) * map));
  return block;
}

// Sample b's bytes of a block tensor, in [C][H][W] order.
std::vector<std::int8_t> sample_of(const quant::QTensor& block, int count, int b) {
  const std::size_t map = static_cast<std::size_t>(block.height() / count) * block.width();
  std::vector<std::int8_t> out;
  for (int ch = 0; ch < block.channels(); ++ch) {
    const auto first = block.data.begin() + static_cast<std::ptrdiff_t>(
                                                (static_cast<std::size_t>(ch) * count + b) * map);
    out.insert(out.end(), first, first + static_cast<std::ptrdiff_t>(map));
  }
  return out;
}

quant::QTensor random_tensor(util::Rng& rng, std::vector<int> shape, quant::QuantParams params) {
  quant::QTensor t(std::move(shape), params);
  for (auto& v : t.data)
    v = static_cast<std::int8_t>(rng.uniform_int(0, 4) == 0   ? params.zero_point
                                 : rng.uniform_int(0, 3) == 0 ? -128
                                                              : rng.uniform_int(-128, 127));
  return t;
}

// A conv or linear layer with arbitrary int8 weights and every FU constant
// drawn at random.
struct LayerSpec {
  int in_c, in_h, in_w, kernel, stride, pad;
  enum class Pool { none, max2, avg2, global } pool = Pool::none;
  bool shortcut = false;
  bool linear = false;
};

quant::QLayer make_layer(util::Rng& rng, const LayerSpec& spec, int out_c) {
  quant::QLayer layer;
  nn::HwLayer& g = layer.geom;
  g.op = spec.linear ? nn::HwLayer::Op::linear : nn::HwLayer::Op::conv;
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
  if (spec.pool == LayerSpec::Pool::global) {
    g.pool_is_global = true;
    g.out_h = g.out_w = 1;
  } else if (spec.pool != LayerSpec::Pool::none) {
    g.pool_kernel = g.pool_stride = 2;
    g.pool_is_max = spec.pool == LayerSpec::Pool::max2;
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
  layer.in = quant::QuantParams{0.05f, rng.uniform_int(0, 1) != 0 ? -128 : rng.uniform_int(-9, 9)};
  layer.out = quant::QuantParams{0.1f, rng.uniform_int(-10, 10)};
  layer.shortcut_rescale = quant::quantize_multiplier(0.7);
  return layer;
}

// Runs `layer` on B random samples three ways — the spec per sample, the
// one-sample NNE call per sample and one block call — with the Dropout Unit
// off and on (sample b drawing from its own stream), and checks that all
// three agree. `in_shape` is one sample's input shape.
void expect_block_equals_singles(util::Rng& rng, const quant::QLayer& layer,
                                 const std::vector<int>& in_shape, const char* label) {
  const nn::HwLayer& g = layer.geom;
  const quant::LayerExecPlan plan = quant::build_layer_exec_plan(layer);
  const quant::FixedMultiplier keep = quant::quantize_multiplier(1.0 / 0.75);
  NneConfig config;
  NneScratch single_scratch, block_scratch;
  for (const int count : {1, 2, 3, 4, 5, 8}) {
    std::vector<quant::QTensor> inputs, shortcuts;
    for (int b = 0; b < count; ++b) {
      inputs.push_back(random_tensor(rng, in_shape, layer.in));
      shortcuts.push_back(random_tensor(rng, {g.out_c, g.conv_out_h, g.conv_out_w},
                                        quant::QuantParams{0.2f, rng.uniform_int(-128, 127)}));
      shortcuts.back().params = shortcuts.front().params;
    }
    const quant::QTensor block_in = stack_samples(inputs);
    const quant::QTensor block_sc = stack_samples(shortcuts);
    for (const bool active : {false, true}) {
      std::vector<std::unique_ptr<nn::RngMaskSource>> block_masks;
      std::vector<nn::MaskSource*> masks;
      for (int b = 0; b < count; ++b) {
        block_masks.push_back(std::make_unique<nn::RngMaskSource>(0.25, util::Rng(700 + b)));
        masks.push_back(block_masks.back().get());
      }
      quant::QTensor block_out;
      const NneLayerStats block_stats = nne_run_block_into(
          layer, plan, count, block_in, g.has_shortcut ? &block_sc : nullptr, active,
          masks.data(), keep, config, nn::kernels::Tier::int8, block_scratch, block_out);
      ASSERT_EQ(block_out.channels(), g.out_c);
      ASSERT_EQ(block_out.height(), count * g.out_h);
      EXPECT_EQ(block_stats.compute_cycles, count * estimate_layer_cycles(g, config));
      EXPECT_EQ(block_stats.mask_bits_consumed, active ? count * g.out_c : 0);
      for (int b = 0; b < count; ++b) {
        const quant::QTensor* sc = g.has_shortcut ? &shortcuts[static_cast<std::size_t>(b)]
                                                  : nullptr;
        nn::RngMaskSource spec_masks(0.25, util::Rng(700 + b));
        nn::RngMaskSource single_masks(0.25, util::Rng(700 + b));
        const quant::QTensor expected = quant::ref_run_layer(
            layer, inputs[static_cast<std::size_t>(b)], sc, active, &spec_masks, keep);
        quant::QTensor single;
        nne_run_layer_into(layer, plan, inputs[static_cast<std::size_t>(b)], sc, active,
                           &single_masks, keep, config, nn::kernels::Tier::int8, single_scratch,
                           single);
        ASSERT_EQ(single.data, expected.data) << label << " B " << count << " sample " << b;
        ASSERT_EQ(sample_of(block_out, count, b), expected.data)
            << label << " out_c " << g.out_c << " B " << count << " sample " << b
            << " dropout " << active;
      }
    }
  }
}

// Every lowering case (stride 1 with pad 0/1/2, stride 2 and 3, strided
// 1x1 projections), maps of 1 to 15 positions whose blocks cross the
// filter/position tile boundary of 16, wide maps, max/average/global
// pools, a shortcut operand, and the Dropout Unit on and off.
TEST(NneBlock, BlockCallEqualsSingleCallsAndSpec) {
  using Pool = LayerSpec::Pool;
  const LayerSpec specs[] = {
      {3, 3, 3, 3, 1, 0},                     // 1 position, stride 1 pad 0
      {2, 2, 2, 3, 2, 1, Pool::none, true},   // 1 position, stride 2 pad 1, shortcut
      {5, 1, 1, 1, 1, 0},                     // 1 position, 1x1
      {4, 2, 2, 3, 1, 1, Pool::avg2},         // 4 positions -> avg pool to 1
      {3, 4, 4, 1, 2, 0, Pool::none, true},   // 4 positions, 1x1 stride 2, shortcut
      {6, 3, 3, 3, 1, 1, Pool::max2},         // 9 positions, pad 1 -> max pool to 1
      {2, 6, 6, 3, 2, 1, Pool::global},       // 9 positions, stride 2, global pool
      {2, 7, 7, 3, 3, 1},                     // 9 positions, stride 3
      {3, 3, 5, 5, 1, 2},                     // 15 positions, pad 2
      {4, 5, 7, 3, 1, 0, Pool::none, true},   // 15 positions, pad 0, shortcut
      {3, 8, 8, 1, 2, 0, Pool::global},       // 16 positions, 1x1 stride 2
      {4, 8, 8, 3, 1, 1, Pool::max2},         // 64 positions, pad 1 -> max pool
      {3, 6, 6, 1, 1, 0},                     // 36 positions, 1x1 stride 1 (whole plane)
      {2, 16, 16, 3, 1, 1, Pool::none, true}, // 256 positions, 16-wide rows, shortcut
  };
  util::Rng rng(731);
  for (const LayerSpec& spec : specs) {
    for (const int out_c : {3, 17}) {
      const quant::QLayer layer = make_layer(rng, spec, out_c);
      const std::string label = "conv " + std::to_string(spec.in_c) + "x" +
                                std::to_string(spec.in_h) + "x" + std::to_string(spec.in_w) +
                                " k" + std::to_string(spec.kernel) + " s" +
                                std::to_string(spec.stride) + " p" + std::to_string(spec.pad);
      expect_block_equals_singles(rng, layer, {spec.in_c, spec.in_h, spec.in_w}, label.c_str());
    }
  }
}

// A linear layer reads the flattened [C][B][H][W] block of the layer
// before: after a conv, term t = (c, h, w) of sample b sits at
// c * B * HW + b * HW + hw; after a linear layer (or a global pool), at
// t * B + b. Term counts cover whole groups and 1-, 2- and 3-term tails.
TEST(NneBlock, LinearBlockAfterConvAndAfterLinear) {
  util::Rng rng(732);
  const struct {
    std::vector<int> in_shape;  // one sample's input
  } cases[] = {
      {{4, 3, 3}},   // after a conv: 36 terms, HW = 9
      {{5, 2, 3}},   // after a conv: 30 terms (2-term tail), HW = 6
      {{16, 5, 5}},  // LeNet-5's fc1 input: 400 terms, HW = 25
      {{33, 1, 1}},  // after a linear layer: 33 terms (1-term tail)
      {{24, 1, 1}},  // after a linear layer
      {{7, 1, 1}},   // after a global pool: 7 terms (3-term tail)
  };
  for (const auto& c : cases) {
    const int terms = c.in_shape[0] * c.in_shape[1] * c.in_shape[2];
    for (const int out_c : {1, 10, 17}) {
      LayerSpec spec{terms, 1, 1, 1, 1, 0};
      spec.linear = true;
      const quant::QLayer layer = make_layer(rng, spec, out_c);
      const std::string label = "linear " + std::to_string(terms) + " from " +
                                std::to_string(c.in_shape[0]) + "x" +
                                std::to_string(c.in_shape[1]) + "x" +
                                std::to_string(c.in_shape[2]);
      expect_block_equals_singles(rng, layer, c.in_shape, label.c_str());
    }
  }
}

// A small map whose block reaches 16 positions takes the position tile
// over row-major weights, which a packed-weight layer materializes.
TEST(NneBlock, PackedSmallMapBlockMaterializesRowMajorWeights) {
  util::Rng rng(733);
  quant::QuantNetwork net;
  net.layers.push_back(make_layer(rng, LayerSpec{6, 3, 3, 3, 1, 1}, 17));
  quant::QLayer& layer = net.layers.front();
  const int terms = 6 * 9;
  for (int f = 0; f < 17; ++f)
    for (int t = 0; t < terms; ++t)
      layer.weights[static_cast<std::size_t>(f) * terms + t] =
          static_cast<std::int8_t>(rng.uniform_int(-1, 1) * (f % 3 + 1));
  ASSERT_EQ(quant::pack_binarizable_weights(net), 1);
  ASSERT_TRUE(layer.weights_packed);
  ASSERT_TRUE(nn::kernels::gemm_i8_filter_vectorized(9));
  ASSERT_FALSE(nn::kernels::gemm_i8_filter_vectorized(2 * 9));
  expect_block_equals_singles(rng, layer, {6, 3, 3}, "packed 3x3 map");
}

// The reduced VGG-11 and ResNet-18 of bench/common.h (untrained: the
// weights do not matter for bit-identity), at L = 1, round(2N/3) and N and
// S = 2, 3, 4: the blocked lanes, IC boundary and shortcuts across it
// included, equal the full-recompute reference with the accelerator's
// per-sample streams.
TEST(NneBlock, BlockedPredictBatchEqualsReferenceOnPaperNets) {
  util::Rng data_rng(734);
  const data::Dataset objects = data::make_synth_objects(8, data_rng);
  util::Rng rng(735);
  nn::Model vgg = nn::make_vgg11(rng, 10, /*width_divisor=*/8);
  nn::Model resnet = nn::make_resnet18(rng, 10, /*base_width=*/8);
  const nn::Tensor images = objects.batch(0, 2).images;
  for (nn::Model* model : {&vgg, &resnet}) {
    const quant::QuantNetwork qnet = quant::quantize_model(*model, objects, {8});
    const int sites = qnet.num_sites;
    AcceleratorConfig config;
    config.sampler_seed = 77;
    Accelerator accelerator(qnet, config);
    for (const int layers : {1, (2 * sites + 2) / 3, sites}) {
      for (const int samples : {2, 3, 4}) {
        const auto lanes = [&](int image, int sample) {
          BernoulliSamplerConfig sampler_config;
          sampler_config.p = qnet.dropout_p;
          sampler_config.pf = config.nne.pf;
          sampler_config.fifo_depth = config.sampler_fifo_depth;
          sampler_config.seed = Accelerator::sample_stream_seed(
              config.sampler_seed, static_cast<std::uint64_t>(image), sample);
          return std::make_unique<BernoulliSampler>(sampler_config);
        };
        const nn::Tensor expected = quant::ref_mc_predict(qnet, images, layers, samples, lanes);
        const auto got = accelerator.predict(images, layers, samples);
        EXPECT_EQ(got.probs.max_abs_diff(expected), 0.0f)
            << qnet.name << " L " << layers << " S " << samples;
      }
    }
  }
}

// No benchmark network has a layer past the IC cut that reads an output
// from before it, so this one is built by hand: the reduced ResNet-18 with
// a site moved onto the first conv of a residual block, whose shortcut (or
// projection) then reads the block input from before the cut. The blocked
// lanes broadcast that shared operand to every sample of the block.
TEST(NneBlock, SuffixOperandBeforeTheCutIsBroadcastToTheBlock) {
  util::Rng data_rng(736);
  const data::Dataset objects = data::make_synth_objects(8, data_rng);
  util::Rng rng(737);
  nn::Model resnet = nn::make_resnet18(rng, 10, /*base_width=*/4);
  quant::QuantNetwork qnet = quant::quantize_model(resnet, objects, {8});

  // The first layer l with a later layer reading a layer output before l.
  int cut = -1;
  for (int l = 1; l < qnet.num_layers() && cut < 0; ++l) {
    const auto before = [l](int source) { return source >= 0 && source < l; };
    for (int later = l + 1; later < qnet.num_layers(); ++later) {
      const quant::QLayer& layer = qnet.layers[static_cast<std::size_t>(later)];
      if (before(layer.input_source) ||
          (layer.geom.has_shortcut && before(layer.shortcut_source)))
        cut = l;
    }
  }
  ASSERT_GT(cut, 0);
  // Make `cut` a site (and the only one before the last layer's sites),
  // renumbering the sites in layer order.
  qnet.layers[static_cast<std::size_t>(cut)].geom.is_bayes_site = true;
  int sites = 0;
  for (quant::QLayer& layer : qnet.layers)
    if (layer.geom.is_bayes_site) layer.geom.site_index = sites++;
  qnet.num_sites = sites;
  const int site = qnet.layers[static_cast<std::size_t>(cut)].geom.site_index;
  const int layers = sites - site;  // the cut's site is the first active one
  ASSERT_EQ(qnet.cut_layer_for(layers), cut);

  const nn::Tensor images = objects.batch(0, 2).images;
  AcceleratorConfig config;
  config.sampler_seed = 78;
  for (const int samples : {1, 3, 8}) {
    const auto lanes = [&](int image, int sample) {
      BernoulliSamplerConfig sampler_config;
      sampler_config.p = qnet.dropout_p;
      sampler_config.pf = config.nne.pf;
      sampler_config.fifo_depth = config.sampler_fifo_depth;
      sampler_config.seed = Accelerator::sample_stream_seed(
          config.sampler_seed, static_cast<std::uint64_t>(image), sample);
      return std::make_unique<BernoulliSampler>(sampler_config);
    };
    const nn::Tensor expected = quant::ref_mc_predict(qnet, images, layers, samples, lanes);
    for (const bool use_ic : {true, false}) {
      config.use_intermediate_caching = use_ic;
      Accelerator accelerator(qnet, config);
      const auto got = accelerator.predict(images, layers, samples);
      EXPECT_EQ(got.probs.max_abs_diff(expected), 0.0f)
          << "S " << samples << " IC " << use_ic;
    }
  }
}

}  // namespace
}  // namespace bnn::core
