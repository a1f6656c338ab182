// The bit-packed XNOR/popcount kernel tier must be bit-identical to the
// int8 tier at every level: the word primitives against naive bit loops,
// packed_row_dot against the plain int8 dot, and the NNE at both tier caps
// against the plain-loop spec (quant/qops) across edge-case geometries.
// Also pins the tier-dependent cycle model and that warm NNE layer calls
// touch no heap (counted by this binary's replacement operator new).
#include "nn/bitpack_kernels.h"

#include <gtest/gtest.h>

#include <bit>
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
#include "serve/cost_model.h"
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

namespace kernels = nn::kernels;
using kernels::Tier;

std::vector<std::int8_t> random_two_valued(util::Rng& rng, int len, std::int8_t lo,
                                           std::int8_t hi) {
  std::vector<std::int8_t> x(static_cast<std::size_t>(len));
  for (auto& v : x) v = rng.uniform_int(0, 1) != 0 ? hi : lo;
  return x;
}

TEST(BitpackKernels, PackRoundTripAndTailBits) {
  util::Rng rng(301);
  for (const int len : {1, 63, 64, 65, 128, 1000, 1152}) {
    const std::int8_t lo = -7, hi = 9;
    const std::vector<std::int8_t> x = random_two_valued(rng, len, lo, hi);
    std::vector<std::uint64_t> bits(static_cast<std::size_t>(kernels::bit_words(len)),
                                    ~std::uint64_t{0});  // dirty buffer: pack must clear
    const std::int32_t pop = kernels::pack_eq_bits(x.data(), len, hi, bits.data());

    std::int32_t expected_pop = 0;
    for (int t = 0; t < len; ++t) {
      const bool set = x[static_cast<std::size_t>(t)] == hi;
      expected_pop += set ? 1 : 0;
      EXPECT_EQ(kernels::get_bit(bits.data(), t), set) << "len " << len << " bit " << t;
    }
    EXPECT_EQ(pop, expected_pop) << "len " << len;
    // Tail bits past len must be zero (the XOR identities depend on it).
    for (int t = len; t < kernels::bit_words(len) * kernels::kBitWordBits; ++t)
      EXPECT_FALSE(kernels::get_bit(bits.data(), t)) << "len " << len << " tail bit " << t;
  }
}

TEST(BitpackKernels, GatherPackMatchesDirectPackOfGatheredCopy) {
  util::Rng rng(302);
  for (const int len : {5, 64, 200, 1152}) {
    const std::int8_t lo = -3, hi = 2;
    const std::vector<std::int8_t> x = random_two_valued(rng, 4 * len, lo, hi);
    std::vector<std::int32_t> offsets(static_cast<std::size_t>(len));
    for (auto& o : offsets) o = rng.uniform_int(0, 4 * len - 1);

    std::vector<std::int8_t> gathered(static_cast<std::size_t>(len));
    for (int t = 0; t < len; ++t)
      gathered[static_cast<std::size_t>(t)] =
          x[static_cast<std::size_t>(offsets[static_cast<std::size_t>(t)])];

    const int words = kernels::bit_words(len);
    std::vector<std::uint64_t> direct(static_cast<std::size_t>(words));
    std::vector<std::uint64_t> gather(static_cast<std::size_t>(words));
    const std::int32_t pop_direct =
        kernels::pack_eq_bits(gathered.data(), len, hi, direct.data());
    const std::int32_t pop_gather =
        kernels::pack_eq_bits_gather(x.data(), offsets.data(), len, hi, gather.data());
    EXPECT_EQ(direct, gather) << "len " << len;
    EXPECT_EQ(pop_direct, pop_gather);
  }
}

TEST(BitpackKernels, PopcountPrimitivesMatchNaiveLoops) {
  util::Rng rng(303);
  for (const int words : {1, 2, 7, 18}) {
    std::vector<std::uint64_t> a(static_cast<std::size_t>(words)),
        b(static_cast<std::size_t>(words)), c(static_cast<std::size_t>(words));
    for (auto& w : a)
      w = (static_cast<std::uint64_t>(rng.uniform_int(0, 0x7fffffff)) << 33) ^
          static_cast<std::uint64_t>(rng.uniform_int(0, 0x7fffffff));
    for (auto& w : b)
      w = (static_cast<std::uint64_t>(rng.uniform_int(0, 0x7fffffff)) << 31) ^
          static_cast<std::uint64_t>(rng.uniform_int(0, 0x7fffffff));
    // c disjoint from b (the ternary plus/minus masks never overlap).
    for (int i = 0; i < words; ++i)
      c[static_cast<std::size_t>(i)] = ~b[static_cast<std::size_t>(i)] &
                                       a[static_cast<std::size_t>(i)];

    std::int32_t pop = 0, pxor = 0, pand = 0;
    for (int i = 0; i < words; ++i) {
      pop += std::popcount(a[static_cast<std::size_t>(i)]);
      pxor += std::popcount(a[static_cast<std::size_t>(i)] ^ b[static_cast<std::size_t>(i)]);
      pand += std::popcount(a[static_cast<std::size_t>(i)] & b[static_cast<std::size_t>(i)]);
    }
    EXPECT_EQ(kernels::popcount_words(a.data(), words), pop);
    EXPECT_EQ(kernels::popcount_xor(a.data(), b.data(), words), pxor);
    EXPECT_EQ(kernels::popcount_and(a.data(), b.data(), words), pand);

    std::int32_t pb = -1, mb = -1;
    kernels::popcount_and2(a.data(), b.data(), c.data(), words, &pb, &mb);
    EXPECT_EQ(pb, kernels::popcount_and(a.data(), b.data(), words));
    EXPECT_EQ(mb, kernels::popcount_and(a.data(), c.data(), words));
  }
}

// A binarizable linear layer mixing per-row magnitudes, a minus-only
// W = 128 row (the one magnitude int8 can only reach negatively), and an
// all-zero row.
quant::QLayer make_binarizable_linear(util::Rng& rng, int rows, int len, bool pure_binary) {
  quant::QLayer layer;
  layer.geom.op = nn::HwLayer::Op::linear;
  layer.geom.in_c = len;
  layer.geom.out_c = rows;
  layer.weights.resize(static_cast<std::size_t>(rows) * len);
  const std::int32_t magnitudes[] = {1, 5, 127};
  for (int f = 0; f < rows; ++f) {
    std::int8_t* w = layer.weights.data() + static_cast<std::size_t>(f) * len;
    if (!pure_binary && f == rows - 1) {
      // Minus-only W=128 row with zeros sprinkled in.
      for (int t = 0; t < len; ++t)
        w[t] = rng.uniform_int(0, 2) != 0 ? static_cast<std::int8_t>(-128)
                                          : static_cast<std::int8_t>(0);
      continue;
    }
    if (!pure_binary && f == rows - 2) {
      for (int t = 0; t < len; ++t) w[t] = 0;  // all-zero row (W = 0)
      continue;
    }
    const std::int32_t mag = magnitudes[f % 3];
    for (int t = 0; t < len; ++t) {
      const int pick = rng.uniform_int(0, pure_binary ? 1 : 2);
      w[t] = static_cast<std::int8_t>(pick == 0 ? -mag : pick == 1 ? mag : 0);
    }
  }
  layer.bias.assign(static_cast<std::size_t>(rows), 0);
  layer.weight_scales.assign(static_cast<std::size_t>(rows), 1.0f);
  layer.requant.assign(static_cast<std::size_t>(rows), quant::quantize_multiplier(0.02));
  layer.post_add.assign(static_cast<std::size_t>(rows), 0);
  return layer;
}

// sum_t (x[t] - zp) * w[t], the specification's per-term loop.
std::int32_t plain_dot(const std::int8_t* x, const std::int8_t* w, int len, std::int32_t zp) {
  std::int32_t sum = 0;
  for (int t = 0; t < len; ++t)
    sum += (static_cast<std::int32_t>(x[t]) - zp) * static_cast<std::int32_t>(w[t]);
  return sum;
}

TEST(PackedRowDot, EqualsInt8DotOverRandomBinarizableRows) {
  util::Rng rng(304);
  for (const int len : {1, 64, 130, 1152}) {
    for (const bool pure_binary : {true, false}) {
      const int rows = 8;
      const quant::QLayer layer = make_binarizable_linear(rng, rows, len, pure_binary);
      const quant::LayerExecPlan plan = quant::build_layer_exec_plan(layer);
      ASSERT_TRUE(plan.weights_binarizable);
      EXPECT_EQ(plan.pure_binary, pure_binary);

      // Extreme activation pairs (including full-range) and zero points.
      const struct {
        std::int8_t lo, hi;
        std::int32_t zp;
      } cases[] = {{-128, 127, 0}, {-128, 127, -128}, {-7, 9, -3}, {0, 1, 5}, {4, 4, -2}};
      for (const auto& c : cases) {
        std::vector<std::int8_t> x(static_cast<std::size_t>(len));
        for (auto& v : x) v = rng.uniform_int(0, 1) != 0 ? c.hi : c.lo;
        std::vector<std::uint64_t> xbits(static_cast<std::size_t>(plan.words));
        const std::int32_t x_pop = kernels::pack_eq_bits(x.data(), len, c.hi, xbits.data());
        const std::int32_t base = static_cast<std::int32_t>(c.lo) - c.zp;
        const std::int32_t delta = static_cast<std::int32_t>(c.hi) - c.lo;
        for (int f = 0; f < rows; ++f) {
          EXPECT_EQ(quant::packed_row_dot(plan, f, xbits.data(), x_pop, base, delta),
                    plain_dot(x.data(), layer.weight_row(f), len, c.zp))
              << "len " << len << " pure_binary " << pure_binary << " row " << f << " lo "
              << static_cast<int>(c.lo) << " hi " << static_cast<int>(c.hi) << " zp "
              << c.zp;
        }
      }
    }
  }
}

TEST(WeightBinarizability, StaticRulesAndTermBound) {
  util::Rng rng(305);
  quant::QLayer good = make_binarizable_linear(rng, 4, 100, false);
  EXPECT_TRUE(quant::layer_weights_binarizable(good));

  // Two distinct nonzero magnitudes in one row break binarizability.
  quant::QLayer mixed = good;
  mixed.weights[0] = 3;
  mixed.weights[1] = 7;
  EXPECT_FALSE(quant::layer_weights_binarizable(mixed));

  // Term count past the int32 overflow bound is rejected statically.
  quant::QLayer wide;
  wide.geom.op = nn::HwLayer::Op::linear;
  wide.geom.in_c = quant::kMaxBinarizableTerms + 1;
  wide.geom.out_c = 1;
  wide.weights.assign(static_cast<std::size_t>(wide.geom.in_c), 1);
  EXPECT_FALSE(quant::layer_weights_binarizable(wide));
  wide.geom.in_c = quant::kMaxBinarizableTerms;
  wide.weights.assign(static_cast<std::size_t>(wide.geom.in_c), 1);
  EXPECT_TRUE(quant::layer_weights_binarizable(wide));
}

TEST(WeightBinarizability, AnnotateStampsTheGeometry) {
  util::Rng rng(306);
  quant::QuantNetwork net;
  net.layers.push_back(make_binarizable_linear(rng, 4, 50, true));
  quant::QLayer plain = make_binarizable_linear(rng, 4, 50, true);
  plain.weights[3] = 2;  // second magnitude in row 0
  net.layers.push_back(std::move(plain));
  quant::annotate_weight_tiers(net);
  EXPECT_TRUE(net.layers[0].geom.weights_binarizable);
  EXPECT_FALSE(net.layers[1].geom.weights_binarizable);
}

TEST(TwoValuedActivations, DetectsUpToTwoDistinctValues) {
  quant::QTensor x({2, 2, 2}, quant::QuantParams{1.0f, 0});
  std::int8_t lo = 0, hi = 0;
  x.data = {5, 5, 5, 5, 5, 5, 5, 5};
  EXPECT_TRUE(quant::two_valued_activations(x, &lo, &hi));
  EXPECT_EQ(lo, 5);
  EXPECT_EQ(hi, 5);
  x.data = {9, -4, 9, 9, -4, -4, 9, -4};
  EXPECT_TRUE(quant::two_valued_activations(x, &lo, &hi));
  EXPECT_EQ(lo, -4);
  EXPECT_EQ(hi, 9);
  x.data[5] = 0;  // third value
  EXPECT_FALSE(quant::two_valued_activations(x, &lo, &hi));
}

// --- full-layer tier identity ----------------------------------------------

struct ConvSpec {
  int in_c, in_h, in_w, out_c, kernel, stride, pad;
  bool relu = false;
  int pool_kernel = 0;  // 0: none (pool_stride = pool_kernel)
  bool shortcut = false;
  bool ternary = true;
};

quant::QLayer make_binarizable_conv(util::Rng& rng, const ConvSpec& spec) {
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

void expect_tier_identity(const quant::QLayer& layer, const quant::QTensor& input,
                          const quant::QTensor* shortcut, const char* label) {
  const quant::LayerExecPlan plan = quant::build_layer_exec_plan(layer);
  ASSERT_TRUE(plan.weights_binarizable) << label;
  std::int8_t lo = 0, hi = 0;
  ASSERT_TRUE(quant::two_valued_activations(input, &lo, &hi)) << label;

  const quant::FixedMultiplier keep = quant::quantize_multiplier(1.0 / 0.75);
  const quant::QTensor spec =
      quant::ref_run_layer(layer, input, shortcut, false, nullptr, keep);

  // The NNE tiling must agree with the spec at both tier caps and charge
  // the closed-form cycle count for both annotation states.
  for (const auto& tc : {std::array<int, 3>{8, 8, 1}, std::array<int, 3>{64, 64, 1},
                         std::array<int, 3>{16, 8, 4}, std::array<int, 3>{128, 128, 16}}) {
    core::NneConfig config;
    config.pc = tc[0];
    config.pf = tc[1];
    config.pv = tc[2];
    for (const bool annotated : {false, true}) {
      quant::QLayer geom_layer = layer;
      geom_layer.geom.weights_binarizable = annotated;
      for (const Tier tier : {Tier::int8, Tier::bitpack}) {
        core::NneScratch scratch;
        quant::QTensor out;
        const core::NneLayerStats stats =
            core::nne_run_layer_into(geom_layer, plan, input, shortcut, false, nullptr, keep,
                                     config, tier, scratch, out);
        EXPECT_EQ(out.data, spec.data)
            << label << ": nne tier " << nn::kernels::tier_name(tier) << " PC=" << tc[0]
            << " PF=" << tc[1] << " PV=" << tc[2];
        EXPECT_EQ(stats.compute_cycles,
                  core::estimate_layer_cycles(geom_layer.geom, config))
            << label << ": cycles, annotated=" << annotated;
        EXPECT_EQ(stats.macs_retired, geom_layer.geom.macs());
      }
    }
  }
}

TEST(TierIdentity, LinearLayersIncludingPartialTailWord) {
  util::Rng rng(307);
  for (const int len : {64, 130, 300}) {
    for (const bool pure_binary : {true, false}) {
      quant::QLayer layer = make_binarizable_linear(rng, 10, len, pure_binary);
      layer.in = quant::QuantParams{0.05f, -3};
      layer.out = quant::QuantParams{0.1f, 4};
      for (auto& b : layer.bias) b = rng.uniform_int(-200, 200);
      quant::QTensor input({len, 1, 1}, layer.in);
      for (auto& v : input.data) v = rng.uniform_int(0, 1) != 0 ? 9 : -7;
      expect_tier_identity(layer, input, nullptr, "linear");
    }
  }
}

TEST(TierIdentity, ConvEdgeGeometries) {
  util::Rng rng(308);
  const struct {
    const char* label;
    ConvSpec spec;
  } cases[] = {
      {"k3 pad1 stride2 odd map", {3, 5, 7, 4, 3, 2, 1}},
      {"single channel k1", {1, 5, 5, 6, 1, 1, 0, false, 0, false, false}},
      {"relu + maxpool", {4, 8, 8, 5, 3, 1, 0, true, 2}},
      {"terms not word multiple", {13, 6, 6, 3, 3, 1, 1}},  // 117 terms
      {"pure binary k3", {8, 7, 7, 4, 3, 1, 1, false, 0, false, false}},
  };
  for (const auto& c : cases) {
    const quant::QLayer base = make_binarizable_conv(rng, c.spec);
    // Padded and strided windows also run at the extreme input zero points:
    // the int8 tier lowers padding terms as the zero point itself.
    std::vector<std::int32_t> zero_points{base.in.zero_point};
    if (c.spec.pad > 0 || c.spec.stride > 1) zero_points.insert(zero_points.end(), {-128, 127});
    for (const std::int32_t zp : zero_points) {
      quant::QLayer layer = base;
      layer.in.zero_point = zp;
      quant::QTensor input({c.spec.in_c, c.spec.in_h, c.spec.in_w}, layer.in);
      for (auto& v : input.data) v = rng.uniform_int(0, 1) != 0 ? 6 : -2;
      const std::string label = std::string(c.label) + ", zp_in " + std::to_string(zp);
      expect_tier_identity(layer, input, nullptr, label.c_str());
    }
  }
}

TEST(TierIdentity, ConvWithShortcutOperand) {
  util::Rng rng(309);
  ConvSpec spec{3, 6, 6, 4, 3, 1, 1};
  spec.shortcut = true;
  const quant::QLayer base = make_binarizable_conv(rng, spec);
  // The shortcut operand is NOT tier-constrained — arbitrary int8 values.
  quant::QTensor shortcut({4, 6, 6}, quant::QuantParams{0.2f, 7});
  for (auto& v : shortcut.data) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  for (const std::int32_t zp : {base.in.zero_point, -128, 127}) {
    quant::QLayer layer = base;
    layer.in.zero_point = zp;
    quant::QTensor input({3, 6, 6}, layer.in);
    for (auto& v : input.data) v = rng.uniform_int(0, 1) != 0 ? 6 : -2;
    const std::string label = "conv + shortcut, zp_in " + std::to_string(zp);
    expect_tier_identity(layer, input, &shortcut, label.c_str());
  }
}

TEST(TierIdentity, BitpackCapFallsBackOnThreeValuedInput) {
  util::Rng rng(310);
  const quant::QLayer layer = make_binarizable_conv(rng, ConvSpec{3, 6, 6, 4, 3, 1, 1});
  const quant::LayerExecPlan plan = quant::build_layer_exec_plan(layer);
  quant::QTensor input({3, 6, 6}, layer.in);
  for (auto& v : input.data) v = static_cast<std::int8_t>(rng.uniform_int(-5, 5));
  std::int8_t lo = 0, hi = 0;
  ASSERT_FALSE(quant::two_valued_activations(input, &lo, &hi));

  const quant::FixedMultiplier keep = quant::quantize_multiplier(1.0 / 0.75);
  const quant::QTensor spec = quant::ref_run_layer(layer, input, nullptr, false, nullptr, keep);

  core::NneConfig config;
  core::NneScratch scratch;
  quant::QTensor out;
  core::nne_run_layer_into(layer, plan, input, nullptr, false, nullptr, keep, config,
                           Tier::bitpack, scratch, out);
  EXPECT_EQ(out.data, spec.data);
}

TEST(NneScratchArena, SecondRunOverSameShapesIsAllocationFree) {
  util::Rng rng(311);
  // A padded conv written straight into its output, a pooled conv (pre-pool
  // map in the scratch), a padded small-map conv (3x3: the filter-vectorized
  // tile), a padded wide-map conv (16x16: the largest padded plane) and a
  // linear layer, each at both tier caps, with the site inactive and active
  // (the Dropout Unit draws masks and rescales), one sample at a time and
  // in blocks of 2 and 8 samples.
  struct Case {
    quant::QLayer layer;
    quant::LayerExecPlan plan;
    quant::QTensor input;
  };
  std::vector<Case> cases;
  for (const ConvSpec& spec :
       {ConvSpec{4, 8, 8, 5, 3, 1, 1}, ConvSpec{4, 8, 8, 5, 3, 1, 0, true, 2},
        ConvSpec{6, 3, 3, 17, 3, 1, 1}, ConvSpec{3, 16, 16, 4, 3, 1, 1}})
    cases.push_back({make_binarizable_conv(rng, spec), {}, {}});
  cases.push_back({make_binarizable_linear(rng, 10, 130, false), {}, {}});
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
      for (const Tier tier : {Tier::int8, Tier::bitpack})
        for (const bool active : {false, true}) {
          core::nne_run_layer_into(c.layer, c.plan, c.input, nullptr, active, &sampler, keep,
                                   config, tier, scratch, out);
          for (const quant::QTensor& block : blocks[i])
            core::nne_run_block_into(c.layer, c.plan,
                                     block.height() / c.input.height(), block,
                                     nullptr, active, block_masks, keep, config, tier, scratch,
                                     out);
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

// --- tier-aware cycle/cost model -------------------------------------------

TEST(BinaryCycleModel, AnnotationCreditsTermParallelism) {
  nn::HwLayer layer;
  layer.op = nn::HwLayer::Op::conv;
  layer.in_c = 128;
  layer.out_c = 128;
  layer.kernel = 3;
  layer.conv_out_h = 14;
  layer.conv_out_w = 14;
  core::NneConfig config;
  config.pc = 8;
  config.pf = 8;
  config.pv = 1;
  // 1152 terms: ceil(1152/8) = 144 tiles plain, ceil(1152/64) = 18 binary.
  const std::int64_t plain = core::estimate_layer_cycles(layer, config);
  layer.weights_binarizable = true;
  const std::int64_t binary = core::estimate_layer_cycles(layer, config);
  EXPECT_EQ(plain, 16LL * 144 * 196);
  EXPECT_EQ(binary, 16LL * 18 * 196);
}

TEST(BinaryCycleModel, CostModelChargesBinarizableLayersLess) {
  nn::NetworkDesc desc;
  desc.name = "binary-vs-plain";
  desc.input_shape = {128, 16, 16};
  desc.num_classes = 10;
  nn::HwLayer layer;
  layer.op = nn::HwLayer::Op::conv;
  layer.in_c = 128;
  layer.in_h = 16;
  layer.in_w = 16;
  layer.out_c = 128;
  layer.kernel = 3;
  layer.stride = 1;
  layer.pad = 1;
  layer.conv_out_h = 16;
  layer.conv_out_w = 16;
  layer.out_h = 16;
  layer.out_w = 16;
  layer.is_bayes_site = true;
  layer.site_index = 0;
  desc.layers.push_back(layer);

  core::PerfConfig config;
  config.nne.pc = 8;
  config.nne.pf = 8;
  config.nne.pv = 1;
  const double plain_ms =
      core::estimate_mc(desc, config, /*bayes_layers=*/1, /*num_samples=*/4, true).latency_ms;
  desc.layers[0].weights_binarizable = true;
  const double binary_ms =
      core::estimate_mc(desc, config, 1, 4, true).latency_ms;
  EXPECT_LT(binary_ms, plain_ms);

  // serve::CostModel wraps the same model, so the serving oracle sees the
  // tier discount too (key 0: plain, key 1: binarizable).
  serve::CostModel cost(config, true);
  desc.layers[0].weights_binarizable = false;
  cost.bind_model(0, desc, 0);
  desc.layers[0].weights_binarizable = true;
  cost.bind_model(1, desc, 0);
  EXPECT_LT(cost.modelled_ms(1, 1, 4), cost.modelled_ms(0, 1, 4));
}

}  // namespace
}  // namespace bnn
