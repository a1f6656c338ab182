// The NNE against the plain-loop specification (quant/qops) on edge-case
// layer geometries — partial four-term groups, padded, strided, pooled and
// shortcut convs, extreme input zero points — at four PC/PF/PV tilings, with
// the closed-form cycle charge; and that warm NNE layer calls touch no heap
// (counted by this binary's replacement operator new, the only one in it).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/bernoulli_sampler.h"
#include "core/nne.h"
#include "nn/gemm_kernels.h"
#include "quant/qops.h"
#include "quant/qplan.h"
#include "util/rng.h"

// Heap allocations made by THIS thread while tl_count_allocations is set.
// The replacement global allocation functions below serve the whole test
// binary; with counting off they only forward to malloc/free.
namespace {
thread_local bool tl_count_allocations = false;
thread_local std::uint64_t tl_allocations = 0;

void* counted_malloc(std::size_t size) noexcept {
  if (tl_count_allocations) ++tl_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
// Out of line so the compiler never pairs an inlined free() with the
// operator new it saw allocate (-Wmismatched-new-delete).
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { release(p); }

namespace bnn {
namespace {

// A linear layer with weights from {-W, 0, +W} at per-row magnitudes 1, 5
// and 127, a row of only -128 and 0 (the one magnitude int8 reaches only
// negatively) and an all-zero row.
quant::QLayer make_linear(util::Rng& rng, int rows, int len, bool zero_free) {
  quant::QLayer layer;
  layer.geom.op = nn::HwLayer::Op::linear;
  layer.geom.in_c = len;
  layer.geom.out_c = rows;
  layer.weights.resize(static_cast<std::size_t>(rows) * len);
  const std::int32_t magnitudes[] = {1, 5, 127};
  for (int f = 0; f < rows; ++f) {
    std::int8_t* w = layer.weights.data() + static_cast<std::size_t>(f) * len;
    if (!zero_free && f == rows - 1) {
      // Minus-only W=128 row with zeros sprinkled in.
      for (int t = 0; t < len; ++t)
        w[t] = rng.uniform_int(0, 2) != 0 ? static_cast<std::int8_t>(-128)
                                          : static_cast<std::int8_t>(0);
      continue;
    }
    if (!zero_free && f == rows - 2) {
      for (int t = 0; t < len; ++t) w[t] = 0;  // all-zero row (W = 0)
      continue;
    }
    const std::int32_t mag = magnitudes[f % 3];
    for (int t = 0; t < len; ++t) {
      const int pick = rng.uniform_int(0, zero_free ? 1 : 2);
      w[t] = static_cast<std::int8_t>(pick == 0 ? -mag : pick == 1 ? mag : 0);
    }
  }
  layer.bias.assign(static_cast<std::size_t>(rows), 0);
  layer.weight_scales.assign(static_cast<std::size_t>(rows), 1.0f);
  layer.requant.assign(static_cast<std::size_t>(rows), quant::quantize_multiplier(0.02));
  layer.post_add.assign(static_cast<std::size_t>(rows), 0);
  return layer;
}

struct ConvSpec {
  int in_c, in_h, in_w, out_c, kernel, stride, pad;
  bool relu = false;
  int pool_kernel = 0;  // 0: none (pool_stride = pool_kernel)
  bool shortcut = false;
  bool ternary = true;  // false: no zero weights
};

// A conv layer with weights from {-W, 0, +W} at per-row magnitudes 1, 4 and
// 127, random biases and post-adds, and per-filter requant multipliers.
quant::QLayer make_conv(util::Rng& rng, const ConvSpec& spec) {
  quant::QLayer layer;
  nn::HwLayer& g = layer.geom;
  g.op = nn::HwLayer::Op::conv;
  g.in_c = spec.in_c;
  g.in_h = spec.in_h;
  g.in_w = spec.in_w;
  g.out_c = spec.out_c;
  g.kernel = spec.kernel;
  g.stride = spec.stride;
  g.pad = spec.pad;
  g.conv_out_h = (spec.in_h + 2 * spec.pad - spec.kernel) / spec.stride + 1;
  g.conv_out_w = (spec.in_w + 2 * spec.pad - spec.kernel) / spec.stride + 1;
  g.has_relu = spec.relu;
  g.has_shortcut = spec.shortcut;
  if (spec.pool_kernel > 0) {
    g.pool_kernel = spec.pool_kernel;
    g.pool_stride = spec.pool_kernel;
    g.out_h = (g.conv_out_h - g.pool_kernel) / g.pool_stride + 1;
    g.out_w = (g.conv_out_w - g.pool_kernel) / g.pool_stride + 1;
  } else {
    g.out_h = g.conv_out_h;
    g.out_w = g.conv_out_w;
  }

  const int terms = spec.in_c * spec.kernel * spec.kernel;
  layer.weights.resize(static_cast<std::size_t>(spec.out_c) * terms);
  const std::int32_t magnitudes[] = {1, 4, 127};
  for (int f = 0; f < spec.out_c; ++f) {
    const std::int32_t mag = magnitudes[f % 3];
    std::int8_t* w = layer.weights.data() + static_cast<std::size_t>(f) * terms;
    for (int t = 0; t < terms; ++t) {
      const int pick = rng.uniform_int(0, spec.ternary ? 2 : 1);
      w[t] = static_cast<std::int8_t>(pick == 0 ? -mag : pick == 1 ? mag : 0);
    }
  }
  layer.bias.resize(static_cast<std::size_t>(spec.out_c));
  for (auto& b : layer.bias) b = rng.uniform_int(-200, 200);
  layer.weight_scales.assign(static_cast<std::size_t>(spec.out_c), 1.0f);
  layer.requant.resize(static_cast<std::size_t>(spec.out_c));
  for (int f = 0; f < spec.out_c; ++f)
    layer.requant[static_cast<std::size_t>(f)] =
        quant::quantize_multiplier(0.01 + 0.005 * (f % 5));
  layer.post_add.resize(static_cast<std::size_t>(spec.out_c));
  for (auto& p : layer.post_add) p = rng.uniform_int(-4, 4);
  layer.in = quant::QuantParams{0.05f, -3};
  layer.out = quant::QuantParams{0.1f, 4};
  layer.shortcut_rescale = quant::quantize_multiplier(0.5);
  return layer;
}

// The NNE must reproduce the spec at every tiling and charge each call the
// paper's closed form, ceil(F / PF) * ceil(C * K * K / PC) * ceil(H * W / PV).
void expect_matches_spec(const quant::QLayer& layer, const quant::QTensor& input,
                         const quant::QTensor* shortcut, const char* label) {
  const quant::LayerExecPlan plan = quant::build_layer_exec_plan(layer);
  const quant::FixedMultiplier keep = quant::quantize_multiplier(1.0 / 0.75);
  const quant::QTensor spec =
      quant::ref_run_layer(layer, input, shortcut, false, nullptr, keep);
  const nn::HwLayer& g = layer.geom;
  const auto ceil_div = [](std::int64_t a, std::int64_t b) { return (a + b - 1) / b; };

  for (const auto& tc : {std::array<int, 3>{8, 8, 1}, std::array<int, 3>{64, 64, 1},
                         std::array<int, 3>{16, 8, 4}, std::array<int, 3>{128, 128, 16}}) {
    core::NneConfig config;
    config.pc = tc[0];
    config.pf = tc[1];
    config.pv = tc[2];
    core::NneScratch scratch;
    quant::QTensor out;
    const core::NneLayerStats stats =
        core::nne_run_layer_into(layer, plan, input, shortcut, false, nullptr, keep, config,
                                 nn::kernels::Tier::int8, scratch, out);
    EXPECT_EQ(out.data, spec.data)
        << label << ": PC=" << tc[0] << " PF=" << tc[1] << " PV=" << tc[2];
    const std::int64_t closed_form =
        ceil_div(g.out_c, config.pf) *
        ceil_div(static_cast<std::int64_t>(g.in_c) * g.kernel * g.kernel, config.pc) *
        ceil_div(static_cast<std::int64_t>(g.conv_out_h) * g.conv_out_w, config.pv);
    EXPECT_EQ(core::estimate_layer_cycles(g, config), closed_form) << label;
    EXPECT_EQ(stats.compute_cycles, closed_form) << label;
    EXPECT_EQ(stats.macs_retired, g.macs());
  }
}

TEST(NneSpec, LinearLayersIncludingPartialTailWord) {
  util::Rng rng(307);
  for (const int len : {64, 130, 300}) {
    for (const bool zero_free : {true, false}) {
      quant::QLayer layer = make_linear(rng, 10, len, zero_free);
      layer.in = quant::QuantParams{0.05f, -3};
      layer.out = quant::QuantParams{0.1f, 4};
      for (auto& b : layer.bias) b = rng.uniform_int(-200, 200);
      quant::QTensor input({len, 1, 1}, layer.in);
      for (auto& v : input.data) v = rng.uniform_int(0, 1) != 0 ? 9 : -7;
      expect_matches_spec(layer, input, nullptr, "linear");
    }
  }
}

TEST(NneSpec, ConvEdgeGeometries) {
  util::Rng rng(308);
  const struct {
    const char* label;
    ConvSpec spec;
  } cases[] = {
      {"k3 pad1 stride2 odd map", {3, 5, 7, 4, 3, 2, 1}},
      {"single channel k1", {1, 5, 5, 6, 1, 1, 0, false, 0, false, false}},
      {"relu + maxpool", {4, 8, 8, 5, 3, 1, 0, true, 2}},
      {"terms not word multiple", {13, 6, 6, 3, 3, 1, 1}},  // 117 terms
      {"zero-free k3", {8, 7, 7, 4, 3, 1, 1, false, 0, false, false}},
  };
  for (const auto& c : cases) {
    const quant::QLayer base = make_conv(rng, c.spec);
    // Padded and strided windows also run at the extreme input zero points:
    // lowering stores padding terms as the zero point itself.
    std::vector<std::int32_t> zero_points{base.in.zero_point};
    if (c.spec.pad > 0 || c.spec.stride > 1) zero_points.insert(zero_points.end(), {-128, 127});
    for (const std::int32_t zp : zero_points) {
      quant::QLayer layer = base;
      layer.in.zero_point = zp;
      quant::QTensor input({c.spec.in_c, c.spec.in_h, c.spec.in_w}, layer.in);
      for (auto& v : input.data) v = rng.uniform_int(0, 1) != 0 ? 6 : -2;
      const std::string label = std::string(c.label) + ", zp_in " + std::to_string(zp);
      expect_matches_spec(layer, input, nullptr, label.c_str());
    }
  }
}

TEST(NneSpec, ConvWithShortcutOperand) {
  util::Rng rng(309);
  ConvSpec spec{3, 6, 6, 4, 3, 1, 1};
  spec.shortcut = true;
  const quant::QLayer base = make_conv(rng, spec);
  // The shortcut operand takes arbitrary int8 values.
  quant::QTensor shortcut({4, 6, 6}, quant::QuantParams{0.2f, 7});
  for (auto& v : shortcut.data) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  for (const std::int32_t zp : {base.in.zero_point, -128, 127}) {
    quant::QLayer layer = base;
    layer.in.zero_point = zp;
    quant::QTensor input({3, 6, 6}, layer.in);
    for (auto& v : input.data) v = rng.uniform_int(0, 1) != 0 ? 6 : -2;
    const std::string label = "conv + shortcut, zp_in " + std::to_string(zp);
    expect_matches_spec(layer, input, &shortcut, label.c_str());
  }
}

TEST(NneScratchArena, SecondRunOverSameShapesIsAllocationFree) {
  util::Rng rng(311);
  // A padded conv written straight into its output, a pooled conv (pre-pool
  // map in the scratch), a padded small-map conv (3x3: the filter-vectorized
  // tile), a padded wide-map conv (16x16: the largest padded plane) and a
  // linear layer, each with the site inactive and active (the Dropout Unit
  // draws masks and rescales), one sample at a time and in blocks of 2 and
  // 8 samples.
  struct Case {
    quant::QLayer layer;
    quant::LayerExecPlan plan;
    quant::QTensor input;
  };
  std::vector<Case> cases;
  for (const ConvSpec& spec :
       {ConvSpec{4, 8, 8, 5, 3, 1, 1}, ConvSpec{4, 8, 8, 5, 3, 1, 0, true, 2},
        ConvSpec{6, 3, 3, 17, 3, 1, 1}, ConvSpec{3, 16, 16, 4, 3, 1, 1}})
    cases.push_back({make_conv(rng, spec), {}, {}});
  cases.push_back({make_linear(rng, 10, 130, false), {}, {}});
  cases.back().layer.in = quant::QuantParams{0.05f, -3};
  cases.back().layer.out = quant::QuantParams{0.1f, 4};
  for (Case& c : cases) {
    c.plan = quant::build_layer_exec_plan(c.layer);
    const nn::HwLayer& g = c.layer.geom;
    c.input = g.op == nn::HwLayer::Op::linear
                  ? quant::QTensor({g.in_c, 1, 1}, c.layer.in)
                  : quant::QTensor({g.in_c, g.in_h, g.in_w}, c.layer.in);
    for (auto& v : c.input.data) v = rng.uniform_int(0, 1) != 0 ? 6 : -2;
  }
  core::BernoulliSamplerConfig sampler_config;
  sampler_config.p = 0.25;
  sampler_config.seed = 3;
  core::BernoulliSampler sampler(sampler_config);
  const quant::FixedMultiplier keep = quant::quantize_multiplier(1.0 / 0.75);

  // Blocks of 2 and 8 samples of each input (the 3 x 3 map's block of 2
  // crosses into the position tile), each sample on its own sampler.
  std::vector<std::vector<quant::QTensor>> blocks(cases.size());
  std::uint64_t broadcast_grows = 0;
  for (std::size_t i = 0; i < cases.size(); ++i)
    for (const int count : {2, 8}) {
      blocks[i].emplace_back();
      core::broadcast_samples(cases[i].input, count, blocks[i].back(), broadcast_grows);
    }
  std::vector<core::BernoulliSampler> block_samplers(8, core::BernoulliSampler(sampler_config));
  nn::MaskSource* block_masks[8];
  for (int b = 0; b < 8; ++b) block_masks[b] = &block_samplers[static_cast<std::size_t>(b)];

  core::NneConfig config;
  core::NneScratch scratch;
  quant::QTensor out;
  const auto run_all = [&] {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const Case& c = cases[i];
      for (const bool active : {false, true}) {
        core::nne_run_layer_into(c.layer, c.plan, c.input, nullptr, active, &sampler, keep,
                                 config, nn::kernels::Tier::int8, scratch, out);
        for (const quant::QTensor& block : blocks[i])
          core::nne_run_block_into(c.layer, c.plan, block.height() / c.input.height(), block,
                                   nullptr, active, block_masks, keep, config, scratch, out);
      }
    }
  };
  run_all();  // warm-up: every buffer reaches its high-water mark
  const std::uint64_t after_warmup = scratch.grow_events;
  EXPECT_GT(after_warmup, 0u);

  tl_allocations = 0;
  tl_count_allocations = true;
  for (int i = 0; i < 3; ++i) run_all();
  tl_count_allocations = false;
  EXPECT_EQ(scratch.grow_events, after_warmup);
  EXPECT_EQ(tl_allocations, 0u) << "warm nne_run_layer_into calls must not touch the heap";
}

}  // namespace
}  // namespace bnn
