#include "nn/gemm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "nn/gemm_kernels.h"
#include "quant/fixed_point.h"
#include "util/rng.h"

namespace bnn::nn {
namespace {

std::vector<float> random_matrix(int rows, int cols, util::Rng& rng) {
  std::vector<float> m(static_cast<std::size_t>(rows) * cols);
  for (float& v : m) v = static_cast<float>(rng.normal());
  return m;
}

void naive_gemm(int m, int n, int k, const std::vector<float>& a, const std::vector<float>& b,
                std::vector<float>& c) {
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int kk = 0; kk < k; ++kk)
        acc += a[static_cast<std::size_t>(i) * k + kk] * b[static_cast<std::size_t>(kk) * n + j];
      c[static_cast<std::size_t>(i) * n + j] = acc;
    }
}

class GemmShapes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapes, MatchesNaive) {
  const auto [m, n, k] = GetParam();
  util::Rng rng(m * 100 + n * 10 + k);
  const std::vector<float> a = random_matrix(m, k, rng);
  const std::vector<float> b = random_matrix(k, n, rng);
  std::vector<float> expected(static_cast<std::size_t>(m) * n);
  naive_gemm(m, n, k, a, b, expected);

  std::vector<float> got(static_cast<std::size_t>(m) * n, 1e9f);
  gemm(m, n, k, a.data(), b.data(), got.data(), /*accumulate=*/false);
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_NEAR(got[i], expected[i], 1e-4f);
}

TEST_P(GemmShapes, TransposedVariantsMatch) {
  const auto [m, n, k] = GetParam();
  util::Rng rng(m + n + k);
  const std::vector<float> a = random_matrix(m, k, rng);
  const std::vector<float> b = random_matrix(k, n, rng);
  std::vector<float> expected(static_cast<std::size_t>(m) * n);
  naive_gemm(m, n, k, a, b, expected);

  // gemm_at: pass a stored as [K, M] (the transpose of a).
  std::vector<float> a_t(a.size());
  for (int i = 0; i < m; ++i)
    for (int kk = 0; kk < k; ++kk)
      a_t[static_cast<std::size_t>(kk) * m + i] = a[static_cast<std::size_t>(i) * k + kk];
  std::vector<float> got(static_cast<std::size_t>(m) * n);
  gemm_at(m, n, k, a_t.data(), b.data(), got.data(), false);
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_NEAR(got[i], expected[i], 1e-4f);

  // gemm_bt: pass b stored as [N, K] (the transpose of b).
  std::vector<float> b_t(b.size());
  for (int kk = 0; kk < k; ++kk)
    for (int j = 0; j < n; ++j)
      b_t[static_cast<std::size_t>(j) * k + kk] = b[static_cast<std::size_t>(kk) * n + j];
  std::fill(got.begin(), got.end(), 0.0f);
  gemm_bt(m, n, k, a.data(), b_t.data(), got.data(), false);
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_NEAR(got[i], expected[i], 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(Sweep, GemmShapes,
                         ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 7),
                                           std::make_tuple(8, 8, 8), std::make_tuple(16, 1, 9),
                                           std::make_tuple(1, 17, 4),
                                           std::make_tuple(13, 11, 23)));

TEST(Gemm, AccumulateAddsOntoExisting) {
  util::Rng rng(3);
  const std::vector<float> a = random_matrix(2, 3, rng);
  const std::vector<float> b = random_matrix(3, 2, rng);
  std::vector<float> once(4);
  gemm(2, 2, 3, a.data(), b.data(), once.data(), false);
  std::vector<float> twice(4, 0.0f);
  gemm(2, 2, 3, a.data(), b.data(), twice.data(), true);
  gemm(2, 2, 3, a.data(), b.data(), twice.data(), true);
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(twice[static_cast<std::size_t>(i)],
                                          2.0f * once[static_cast<std::size_t>(i)], 1e-4f);
}

// Regression for the removed a_ik == 0.0f zero-skip: a zero row of A times
// a NaN/Inf B must produce NaN (0 * NaN = NaN, 0 * Inf = NaN), not silently
// skip the terms and report 0.
TEST(Gemm, ZeroRowTimesNanInfPropagates) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  // A = [[0, 0], [1, 1]] (row 0 all zeros), B = [[nan, inf], [1, 2]].
  const std::vector<float> a{0.0f, 0.0f, 1.0f, 1.0f};
  const std::vector<float> b{nan, inf, 1.0f, 2.0f};

  std::vector<float> c(4, 0.0f);
  gemm(2, 2, 2, a.data(), b.data(), c.data(), false);
  EXPECT_TRUE(std::isnan(c[0])) << "0*NaN swallowed by gemm";
  EXPECT_TRUE(std::isnan(c[1])) << "0*Inf swallowed by gemm";
  EXPECT_TRUE(std::isnan(c[2]));  // 1*nan + 1*1
  EXPECT_TRUE(std::isinf(c[3]) || std::isnan(c[3]));

  // gemm_at: A^T stored [K, M] with column 0 all zeros.
  const std::vector<float> a_t{0.0f, 1.0f, 0.0f, 1.0f};
  std::fill(c.begin(), c.end(), 0.0f);
  gemm_at(2, 2, 2, a_t.data(), b.data(), c.data(), false);
  EXPECT_TRUE(std::isnan(c[0])) << "0*NaN swallowed by gemm_at";
  EXPECT_TRUE(std::isnan(c[1])) << "0*Inf swallowed by gemm_at";

  // gemm_bt: B^T stored [N, K]; row 0 of A is zero, so every dot against a
  // NaN-carrying B row must be NaN.
  const std::vector<float> b_t{nan, 1.0f, inf, 2.0f};
  std::fill(c.begin(), c.end(), 0.0f);
  gemm_bt(2, 2, 2, a.data(), b_t.data(), c.data(), false);
  EXPECT_TRUE(std::isnan(c[0])) << "0*NaN swallowed by gemm_bt";
  EXPECT_TRUE(std::isnan(c[1])) << "0*Inf swallowed by gemm_bt";
}

// --- blocked kernels vs scalar references: exact bit-identity --------------
//
// The micro-kernel layer's contract is bits, not tolerances: blocking and
// vectorization run along the output axes only, so each c[i,j] accumulates
// its k-terms in the scalar order. Shapes cover m/n/k == 1, exact multiples
// of the register block, non-multiples (edge tiles), and k past the cache
// panel depth (multi-panel accumulation), for both accumulate modes.

class GemmKernelBitIdentity : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmKernelBitIdentity, AllVariantsMatchScalarBitForBit) {
  const auto [m, n, k] = GetParam();
  util::Rng rng(m * 1000003 + n * 1009 + k);
  const std::vector<float> a = random_matrix(m, k, rng);   // also read as [K, M] by _at
  const std::vector<float> b = random_matrix(k, n, rng);   // also read as [N, K] by _bt
  const std::vector<float> c0 = random_matrix(m, n, rng);  // accumulate seed

  struct Variant {
    const char* name;
    void (*scalar)(int, int, int, const float*, const float*, float*, bool);
    void (*blocked)(int, int, int, const float*, const float*, float*, bool);
  };
  const Variant variants[] = {
      {"gemm", nn::kernels::gemm_scalar, nn::kernels::gemm_blocked},
      {"gemm_at", nn::kernels::gemm_at_scalar, nn::kernels::gemm_at_blocked},
      {"gemm_bt", nn::kernels::gemm_bt_scalar, nn::kernels::gemm_bt_blocked},
  };
  for (const Variant& v : variants) {
    for (const bool accumulate : {false, true}) {
      std::vector<float> c_scalar = c0;
      std::vector<float> c_blocked = c0;
      v.scalar(m, n, k, a.data(), b.data(), c_scalar.data(), accumulate);
      v.blocked(m, n, k, a.data(), b.data(), c_blocked.data(), accumulate);
      EXPECT_EQ(std::memcmp(c_scalar.data(), c_blocked.data(), c_scalar.size() * sizeof(float)),
                0)
          << v.name << " accumulate=" << accumulate << " m=" << m << " n=" << n << " k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmKernelBitIdentity,
    ::testing::Values(std::make_tuple(1, 1, 1),      // degenerate
                      std::make_tuple(1, 17, 4),     // single row, edge columns
                      std::make_tuple(16, 1, 9),     // single column
                      std::make_tuple(4, 16, 64),    // exact register blocks
                      std::make_tuple(8, 32, 256),   // exact blocks, full panel
                      std::make_tuple(5, 19, 23),    // edge tiles both axes
                      std::make_tuple(37, 33, 70),   // edge tiles, larger
                      std::make_tuple(12, 48, 300),  // k spans two cache panels
                      std::make_tuple(6, 21, 513))); // panel remainder of 1

// The public entry points must be the blocked kernels (not a copy that
// could drift): routing check against the scalar references.
TEST(Gemm, PublicEntryPointsRouteToKernels) {
  util::Rng rng(99);
  const int m = 9, n = 34, k = 129;
  const std::vector<float> a = random_matrix(m, k, rng);
  const std::vector<float> b = random_matrix(k, n, rng);
  std::vector<float> via_public(static_cast<std::size_t>(m) * n, 0.0f);
  std::vector<float> via_scalar(static_cast<std::size_t>(m) * n, 0.0f);
  gemm(m, n, k, a.data(), b.data(), via_public.data(), false);
  nn::kernels::gemm_scalar(m, n, k, a.data(), b.data(), via_scalar.data(), false);
  EXPECT_EQ(std::memcmp(via_public.data(), via_scalar.data(), via_public.size() * sizeof(float)),
            0);
}

// --- int8 GEMM ----------------------------------------------------------------

// A conv GEMM operand pair in the kernels' contract: a logical K-major
// activation panel x[k][ldx] (int8; entries marked as padding hold the zero
// point, as lowering stores them), its grouped unsigned form
// [groups][ldx][4] built by the plain definition u = x + 128 (tail terms 0,
// columns past n random junk), and weights in an exact-size heap array, so
// a tail group reading past its row is an ASan report.
struct I8Operands {
  int m, n, k, ldx;
  std::vector<std::int8_t> w, x;
  std::vector<std::uint8_t> panel;
};

I8Operands make_i8_operands(util::Rng& rng, int m, int n, int k, std::int32_t zp) {
  I8Operands o{m, n, k, kernels::gemm_i8_ldx(n), {}, {}, {}};
  o.w.resize(static_cast<std::size_t>(m) * k);
  for (auto& v : o.w) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  // Weights at -128 and 127: a whole row of each, and the first and last
  // term of every row.
  std::fill(o.w.begin(), o.w.begin() + k, std::int8_t{-128});
  if (m > 1) std::fill(o.w.begin() + k, o.w.begin() + 2 * k, std::int8_t{127});
  for (int f = 0; f < m; ++f) {
    o.w[static_cast<std::size_t>(f) * k] = -128;
    o.w[static_cast<std::size_t>(f) * k + k - 1] = 127;
  }
  o.x.resize(static_cast<std::size_t>(k) * o.ldx);
  for (auto& v : o.x)
    v = static_cast<std::int8_t>(rng.uniform_int(0, 3) == 0 ? zp : rng.uniform_int(-128, 127));
  const int groups = kernels::gemm_i8_groups(k);
  o.panel.resize(static_cast<std::size_t>(groups) * o.ldx * 4);
  for (auto& v : o.panel) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  for (int t = 0; t < groups * 4; ++t)
    for (int p = 0; p < n; ++p)
      o.panel[(static_cast<std::size_t>(t / 4) * o.ldx + p) * 4 + t % 4] =
          t < k ? static_cast<std::uint8_t>(o.x[static_cast<std::size_t>(t) * o.ldx + p] + 128)
                : 0;
  return o;
}

// The specification's sums: c[f][p] = sum_t (x[t][p] - zp) * w[f][t].
std::vector<std::int32_t> plain_sums(const I8Operands& o, std::int32_t zp) {
  std::vector<std::int32_t> c(static_cast<std::size_t>(o.m) * o.n, 0);
  for (int f = 0; f < o.m; ++f)
    for (int t = 0; t < o.k; ++t) {
      const std::int32_t w = o.w[static_cast<std::size_t>(f) * o.k + t];
      const std::int8_t* x = o.x.data() + static_cast<std::size_t>(t) * o.ldx;
      for (int p = 0; p < o.n; ++p)
        c[static_cast<std::size_t>(f) * o.n + p] += (static_cast<std::int32_t>(x[p]) - zp) * w;
    }
  return c;
}

// The plan's correction against (zp + 128) * sum_t w[f][t].
std::vector<std::int32_t> checked_corrections(const I8Operands& o, std::int32_t zp) {
  std::vector<std::int32_t> correction(static_cast<std::size_t>(o.m));
  kernels::gemm_i8_corrections(o.m, o.k, o.w.data(), zp, correction.data());
  for (int f = 0; f < o.m; ++f) {
    std::int32_t sum = 0;
    for (int t = 0; t < o.k; ++t) sum += o.w[static_cast<std::size_t>(f) * o.k + t];
    EXPECT_EQ(correction[static_cast<std::size_t>(f)], (zp + 128) * sum) << "f=" << f;
  }
  return correction;
}

// Checks c[m + 1][ldc] against the plain sums: filters and columns past m
// and n must keep their 0x5a5a5a5a fill.
void expect_plain_sums(const I8Operands& o, std::int32_t zp, const std::vector<std::int32_t>& c,
                       int ldc, const char* tile) {
  const std::vector<std::int32_t> expected = plain_sums(o, zp);
  for (int f = 0; f <= o.m; ++f)
    for (int p = 0; p < ldc; ++p)
      ASSERT_EQ(c[static_cast<std::size_t>(f) * ldc + p],
                f < o.m && p < o.n ? expected[static_cast<std::size_t>(f) * o.n + p] : 0x5a5a5a5a)
          << tile << " m=" << o.m << " n=" << o.n << " k=" << o.k << " zp=" << zp
          << " f=" << f << " p=" << p;
}

// The term counts of the grouped panel's edge cases: k = 1..5 (tail groups
// of 1, 2 and 3 terms and one whole group), the 1- and 3-channel first
// layers' 9, 25 and 27, LeNet-5 conv2's 150 and the largest paper-net k.
constexpr int kGroupedKs[] = {1, 2, 3, 4, 5, 9, 25, 27, 150, 576};

// gemm_u8i8 against the plain loop over every k above, filter counts on and
// off the tile, n at, just past and far past the 16-position block, and the
// zero points that put padding bytes at u = 0 (zp -128) and u = 255 (zp
// 127); then the earlier edge shapes (m = 1, n = 1, n off the block, k past
// 576). The panel's junk columns must not reach c, and nothing past column
// n of a c row, nor any row past m, may be written.
TEST(GemmI8, MatchesPlainLoopOnEdgeShapes) {
  util::Rng rng(8);
  struct Shape {
    int m, n, k;
  };
  std::vector<Shape> shapes;
  for (const int k : kGroupedKs)
    for (const int m : {1, 5, 16, 17, 64})
      for (const int n : {16, 17, 1024}) shapes.push_back({m, n, k});
  for (const Shape s : {Shape{1, 1, 1}, Shape{1, 37, 9}, Shape{3, 16, 27}, Shape{5, 20, 72},
                        Shape{7, 33, 25}, Shape{9, 15, 144}, Shape{13, 7, 600}, Shape{8, 1, 144},
                        Shape{16, 4, 576}, Shape{6, 15, 25}, Shape{8, 17, 9}, Shape{4, 100, 1},
                        Shape{64, 49, 577}, Shape{10, 32, 288}})
    shapes.push_back(s);
  for (const Shape& s : shapes) {
    for (const std::int32_t zp : {-128, -3, 127}) {
      const I8Operands o = make_i8_operands(rng, s.m, s.n, s.k, zp);
      ASSERT_GE(o.ldx, s.n);
      ASSERT_EQ(o.ldx % 16, 0);
      const std::vector<std::int32_t> correction = checked_corrections(o, zp);
      const int ldc = s.n + 3;
      std::vector<std::int32_t> c(static_cast<std::size_t>(s.m + 1) * ldc, 0x5a5a5a5a);
      kernels::gemm_u8i8(s.m, s.n, s.k, o.w.data(), o.panel.data(), o.ldx, correction.data(),
                         c.data(), ldc);
      expect_plain_sums(o, zp, c, ldc, "position tile");
    }
  }
}

// gemm_u8i8_kmajor over a pack_i8_kmajor copy against the same plain loop,
// on every map size below the position block, filter counts on and off the
// 16-filter block and every k above; the copy is checked byte for byte
// (tail terms and filters past m hold 0).
TEST(GemmI8, FilterVectorizedTileMatchesPlainLoop) {
  util::Rng rng(9);
  for (int n = 1; n < 16; ++n) {
    ASSERT_TRUE(kernels::gemm_i8_filter_vectorized(n));
    for (const int m : {1, 5, 16, 17, 64}) {
      for (const int k : kGroupedKs) {
        const int ldw = kernels::gemm_i8_ldw(m);
        ASSERT_EQ(ldw % 16, 0);
        ASSERT_GE(ldw, m);
        for (const std::int32_t zp : {-128, -3, 127}) {
          const I8Operands o = make_i8_operands(rng, m, n, k, zp);
          const int groups = kernels::gemm_i8_groups(k);
          std::vector<std::int8_t> wk(static_cast<std::size_t>(groups) * ldw * 4, 99);
          kernels::pack_i8_kmajor(m, k, o.w.data(), wk.data());
          for (int t = 0; t < groups * 4; ++t)
            for (int f = 0; f < ldw; ++f)
              ASSERT_EQ(wk[(static_cast<std::size_t>(t / 4) * ldw + f) * 4 + t % 4],
                        t < k && f < m ? o.w[static_cast<std::size_t>(f) * k + t] : 0)
                  << "m=" << m << " k=" << k << " t=" << t << " f=" << f;
          const std::vector<std::int32_t> correction = checked_corrections(o, zp);
          const int ldc = n + 2;
          std::vector<std::int32_t> c(static_cast<std::size_t>(m + 1) * ldc, 0x5a5a5a5a);
          kernels::gemm_u8i8_kmajor(m, n, k, wk.data(), ldw, o.panel.data(), o.ldx,
                                    correction.data(), c.data(), ldc);
          expect_plain_sums(o, zp, c, ldc, "filter tile");
        }
      }
    }
  }
  EXPECT_FALSE(kernels::gemm_i8_filter_vectorized(16));
  EXPECT_FALSE(kernels::gemm_i8_filter_vectorized(1024));
}

// interleave_group writes exactly runs x run words, each the four rows'
// bytes with the sign bit flipped, whatever the run length is relative to
// its 16-position vectors and at steps 1 (stride-1 conv rows), 2 and 3;
// bytes between runs and between a run's positions are never read, and a
// row's last read is its last byte.
// A linear layer is a one-position map: its input row, flipped to
// u = x + 128 and zero-padded to whole groups, is a panel with ldx = 1, and
// the filter tile over the K-major copy computes every filter's dot.
TEST(GemmI8, OnePositionFilterTileMatchesPlainDot) {
  util::Rng rng(7);
  for (const int len : {1, 2, 3, 7, 64, 300, 1152}) {
    for (const int m : {1, 10, 17, 120}) {
      std::vector<std::int8_t> x(static_cast<std::size_t>(len));
      std::vector<std::int8_t> w(static_cast<std::size_t>(m) * len);
      for (auto& v : x) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
      for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
      const int groups = kernels::gemm_i8_groups(len), ldw = kernels::gemm_i8_ldw(m);
      std::vector<std::int8_t> wk(static_cast<std::size_t>(groups) * ldw * 4);
      kernels::pack_i8_kmajor(m, len, w.data(), wk.data());
      std::vector<std::uint8_t> u(static_cast<std::size_t>(groups) * 4, 0);
      for (int t = 0; t < len; ++t)
        u[static_cast<std::size_t>(t)] =
            static_cast<std::uint8_t>(x[static_cast<std::size_t>(t)]) ^ 0x80u;
      for (const std::int32_t zp : {-128, -7, 0, 11, 127}) {
        std::vector<std::int32_t> correction(static_cast<std::size_t>(m));
        kernels::gemm_i8_corrections(m, len, w.data(), zp, correction.data());
        std::vector<std::int32_t> c(static_cast<std::size_t>(m));
        kernels::gemm_u8i8_kmajor(m, 1, len, wk.data(), ldw, u.data(), 1, correction.data(),
                                  c.data(), 1);
        for (int f = 0; f < m; ++f) {
          std::int32_t expected = 0;
          for (int t = 0; t < len; ++t)
            expected += (static_cast<std::int32_t>(x[static_cast<std::size_t>(t)]) - zp) *
                        static_cast<std::int32_t>(w[static_cast<std::size_t>(f) * len + t]);
          ASSERT_EQ(c[static_cast<std::size_t>(f)], expected)
              << "len=" << len << " m=" << m << " zp=" << zp << " f=" << f;
        }
      }
    }
  }
}

TEST(GemmI8, InterleaveGroupFlipsAndInterleavesFourRows) {
  util::Rng rng(11);
  for (const int step : {1, 2, 3})
    for (const int runs : {1, 3})
      for (const int run : {1, 3, 15, 16, 17, 31, 64, 100}) {
        const int pitch = run * step + 5;
        const int n = runs * run;
        // Exact-size rows ending at the last run's last position: a read
        // past it is an ASan report.
        std::vector<std::vector<std::int8_t>> rows(4);
        const std::int8_t* row_ptrs[4];
        for (int j = 0; j < 4; ++j) {
          std::vector<std::int8_t>& row = rows[static_cast<std::size_t>(j)];
          row.resize(static_cast<std::size_t>((runs - 1) * pitch + (run - 1) * step + 1));
          for (auto& v : row) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
          row[0] = j % 2 == 0 ? -128 : 127;
          row_ptrs[j] = row.data();
        }
        std::vector<std::uint8_t> dst(static_cast<std::size_t>(4) * (n + 2), 0xa5);
        kernels::interleave_group(row_ptrs, runs, run, pitch, step, dst.data());
        for (int p = 0; p < n + 2; ++p)
          for (int j = 0; j < 4; ++j)
            ASSERT_EQ(dst[static_cast<std::size_t>(p) * 4 + j],
                      p < n ? static_cast<std::uint8_t>(
                                  row_ptrs[j][p / run * pitch + p % run * step] + 128)
                            : 0xa5)
                << "step=" << step << " runs=" << runs << " run=" << run << " p=" << p
                << " j=" << j;
      }
  EXPECT_EQ(kernels::gemm_i8_groups(1), 1);
  EXPECT_EQ(kernels::gemm_i8_groups(4), 1);
  EXPECT_EQ(kernels::gemm_i8_groups(5), 2);
  EXPECT_EQ(kernels::gemm_i8_groups(576), 144);
}

// --- requantization plane kernels ---------------------------------------------

// One FU element as the scalar quant chain.
std::int8_t fu_reference(std::int32_t x, std::int32_t bias, quant::FixedMultiplier m,
                         std::int32_t offset, std::int32_t floor, const std::int8_t* sc,
                         std::int32_t sc_zero_point, quant::FixedMultiplier sc_rescale) {
  std::int32_t q = quant::fixed_multiply(x + bias, m) + offset;
  if (sc != nullptr)
    q += quant::fixed_multiply(static_cast<std::int32_t>(*sc) - sc_zero_point, sc_rescale);
  return quant::saturate_int8(std::max(q, floor));
}

// A sum drawn log-uniformly in magnitude up to 2^30, either sign.
std::int32_t log_uniform_sum(util::Rng& rng) {
  const int bits = rng.uniform_int(0, 30);
  const std::int32_t magnitude = rng.uniform_int(0, (1 << bits) - 1) | ((1 << bits) >> 1);
  return rng.uniform_int(0, 1) != 0 ? -magnitude : magnitude;
}

// True when the chain's int32 additions (x + bias, + offset, + sc_term) stay
// in range for this element — both the kernel and the scalar chain add in
// int32, where overflow is undefined.
bool chain_in_range(std::int32_t x, std::int32_t bias, quant::FixedMultiplier m,
                    std::int32_t offset, const std::int8_t* sc, std::int32_t sc_zero_point,
                    quant::FixedMultiplier sc_rescale) {
  const auto fits = [](std::int64_t v) { return v == static_cast<std::int32_t>(v); };
  const std::int64_t biased = std::int64_t{x} + bias;
  if (!fits(biased)) return false;
  std::int64_t q =
      std::int64_t{quant::fixed_multiply(static_cast<std::int32_t>(biased), m)} + offset;
  if (!fits(q)) return false;
  if (sc != nullptr)
    q += quant::fixed_multiply(static_cast<std::int32_t>(*sc) - sc_zero_point, sc_rescale);
  return fits(q);
}

// Multipliers whose shifts run from -31 (a right shift of 31) to +30, both
// signs, plus the raw extremes INT32_MIN and INT32_MAX.
std::vector<quant::FixedMultiplier> plane_multipliers(util::Rng& rng) {
  std::vector<quant::FixedMultiplier> multipliers;
  for (int e = -32; e <= 29; ++e)
    for (const double sign : {1.0, -1.0})
      multipliers.push_back(
          quant::quantize_multiplier(sign * std::ldexp(1.0 + rng.uniform(), e)));
  for (const int shift : {-31, -3, 0, 5, 30}) {
    multipliers.push_back({std::numeric_limits<std::int32_t>::min(), shift});
    multipliers.push_back({std::numeric_limits<std::int32_t>::max(), shift});
  }
  return multipliers;
}

TEST(RequantRow, MatchesScalarFixedMultiplyChainBitForBit) {
  util::Rng rng(10);
  const std::vector<quant::FixedMultiplier> multipliers = plane_multipliers(rng);
  std::vector<int> shifts;
  for (const auto& m : multipliers) shifts.push_back(m.shift);
  EXPECT_EQ(*std::min_element(shifts.begin(), shifts.end()), -31);
  EXPECT_EQ(*std::max_element(shifts.begin(), shifts.end()), 30);
  const auto pick = [&] {
    return multipliers[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(multipliers.size()) - 1))];
  };

  // Rows of every length the kernel treats differently (one element, shorter
  // than a vector, whole vectors, a partial last vector), 1 to 130 rows.
  for (const int n : {1, 2, 3, 4, 15, 16, 17, 64, 1024}) {
    for (const int rows : {1, 2, 7, 17, 64, 130}) {
      if (static_cast<std::int64_t>(n) * rows > 20000 && rows > 2) continue;
      const std::size_t total = static_cast<std::size_t>(n) * rows;
      for (const bool relu : {false, true}) {
        for (const bool shortcut : {false, true}) {
          std::vector<std::int32_t> bias(static_cast<std::size_t>(rows));
          std::vector<quant::FixedMultiplier> requant(static_cast<std::size_t>(rows));
          std::vector<std::int32_t> post_add(static_cast<std::size_t>(rows));
          for (int r = 0; r < rows; ++r) {
            bias[static_cast<std::size_t>(r)] = rng.uniform_int(-(1 << 20), 1 << 20);
            requant[static_cast<std::size_t>(r)] = pick();
            post_add[static_cast<std::size_t>(r)] = rng.uniform_int(-100, 100);
          }
          kernels::RequantPlane fu;
          fu.bias = bias.data();
          fu.requant = requant.data();
          fu.post_add = post_add.data();
          fu.zero_point = rng.uniform_int(-128, 127);
          fu.relu = relu;
          std::vector<std::int8_t> sc(total);
          if (shortcut) {
            fu.sc = sc.data();
            fu.sc_zero_point = rng.uniform_int(-128, 127);
            fu.sc_rescale = pick();
          }
          const std::int32_t floor =
              relu ? fu.zero_point : std::numeric_limits<std::int32_t>::min();
          std::vector<std::int32_t> sums(total);
          for (std::size_t i = 0; i < total; ++i) {
            const std::size_t r = i / static_cast<std::size_t>(n);
            do {
              sums[i] = log_uniform_sum(rng);
              // The shortcut operand at the int8 extremes and in between.
              const int which = rng.uniform_int(0, 2);
              sc[i] = static_cast<std::int8_t>(which == 0   ? -128
                                               : which == 1 ? 127
                                                            : rng.uniform_int(-128, 127));
            } while (!chain_in_range(sums[i], bias[r], requant[r], post_add[r] + fu.zero_point,
                                     fu.sc == nullptr ? nullptr : &sc[i], fu.sc_zero_point,
                                     fu.sc_rescale));
          }
          // Guard bytes around the plane: the kernel writes exactly the plane.
          std::vector<std::int8_t> got(total + 128, std::int8_t{0x5a});
          kernels::requant_plane(sums.data(), rows, n, fu, got.data() + 64);
          for (std::size_t i = 0; i < 64; ++i) {
            ASSERT_EQ(got[i], 0x5a) << "wrote before the plane";
            ASSERT_EQ(got[64 + total + i], 0x5a) << "wrote past the plane";
          }
          for (std::size_t i = 0; i < total; ++i) {
            const std::size_t r = i / static_cast<std::size_t>(n);
            ASSERT_EQ(got[64 + i],
                      fu_reference(sums[i], bias[r], requant[r], post_add[r] + fu.zero_point,
                                   floor, fu.sc == nullptr ? nullptr : &sc[i],
                                   fu.sc_zero_point, fu.sc_rescale))
                << "n=" << n << " rows=" << rows << " element " << i << " mult="
                << requant[r].mult << " shift=" << requant[r].shift << " sum=" << sums[i]
                << " relu=" << relu << " shortcut=" << shortcut;
          }
        }
      }
    }
  }
}

TEST(RequantRow, SaturationWrapAndDropoutForm) {
  // The doubling high multiply's INT32_MIN * INT32_MIN saturation and the
  // wrapping left shift are reachable only through raw (mult, shift) pairs:
  // one row per pair, every sum in every row.
  const std::int32_t int_min = std::numeric_limits<std::int32_t>::min();
  const std::vector<std::int32_t> sums{int_min, int_min + 1, -(1 << 30), (1 << 30) + 7,
                                       std::numeric_limits<std::int32_t>::max(), 0, -1, 1};
  const int n = static_cast<int>(sums.size());
  std::vector<quant::FixedMultiplier> requant;
  for (const std::int32_t mult : {int_min, int_min + 1, (1 << 30), -(1 << 30), 1, -1})
    for (const int shift : {-31, -5, 0, 1, 3, 30, 31})
      requant.push_back({mult, shift});
  const int rows = static_cast<int>(requant.size());
  std::vector<std::int32_t> plane, zeros(static_cast<std::size_t>(rows), 0);
  for (int r = 0; r < rows; ++r) plane.insert(plane.end(), sums.begin(), sums.end());
  kernels::RequantPlane fu;
  fu.bias = zeros.data();
  fu.requant = requant.data();
  fu.post_add = zeros.data();
  std::vector<std::int8_t> got(plane.size());
  kernels::requant_plane(plane.data(), rows, n, fu, got.data());
  for (int r = 0; r < rows; ++r)
    for (int p = 0; p < n; ++p)
      ASSERT_EQ(got[static_cast<std::size_t>(r) * n + p],
                fu_reference(sums[static_cast<std::size_t>(p)], 0,
                             requant[static_cast<std::size_t>(r)], 0, int_min, nullptr, 0, {}))
          << "mult=" << requant[static_cast<std::size_t>(r)].mult
          << " shift=" << requant[static_cast<std::size_t>(r)].shift << " sum=" << sums[p];

  // The Dropout Unit form, in place over [rows][samples][n]: dropped maps
  // become the zero point, kept ones are rescaled about it. Sample b's drop
  // bit for row r is bit 63 - r % 64 of word b * ceil(rows / 64) + r / 64.
  util::Rng rng(11);
  for (const int samples : {1, 2, 5}) {
    for (const int plane_n : {1, 3, 4, 16, 17, 64}) {
      for (const int du_rows : {1, 5, 64, 65, 130}) {
        for (const std::int32_t zp : {-128, 0, 127}) {
          for (const double keep_value : {1.0 / 0.75, 2.0, 256.0 / 255.0}) {
            const quant::FixedMultiplier keep = quant::quantize_multiplier(keep_value);
            std::vector<std::int8_t> x(static_cast<std::size_t>(du_rows) * samples * plane_n);
            for (auto& v : x) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
            const int words = (du_rows + 63) / 64;
            std::vector<std::uint64_t> drop(static_cast<std::size_t>(samples) * words);
            for (auto& word : drop) word = rng.next_u64();
            std::vector<std::int8_t> expected(x.size());
            for (int r = 0; r < du_rows; ++r) {
              for (int b = 0; b < samples; ++b) {
                const std::uint64_t word = drop[static_cast<std::size_t>(b) * words + r / 64];
                const bool dropped = ((word >> (63 - r % 64)) & 1u) != 0;
                for (int p = 0; p < plane_n; ++p) {
                  const std::size_t i =
                      (static_cast<std::size_t>(r) * samples + b) * plane_n + p;
                  expected[i] =
                      dropped ? quant::saturate_int8(zp)
                              : quant::saturate_int8(
                                    quant::fixed_multiply(static_cast<std::int32_t>(x[i]) - zp,
                                                          keep) +
                                    zp);
                }
              }
            }
            kernels::dropout_plane(x.data(), du_rows, samples, plane_n, drop.data(), zp, keep);
            ASSERT_EQ(x, expected) << "samples " << samples << " n " << plane_n << " rows "
                                   << du_rows << " zp " << zp << " keep " << keep_value;
          }
        }
      }
    }
  }
}

TEST(RequantRow, RightShiftPast31Throws) {
  const std::vector<std::int32_t> sums{1, 2, 3, 4, 5, 6};
  std::vector<std::int8_t> out(sums.size(), 0);
  const std::vector<std::int32_t> zeros{0, 0};
  std::vector<quant::FixedMultiplier> requant{{1 << 30, -31}, {1 << 30, -32}};
  kernels::RequantPlane fu;
  fu.bias = zeros.data();
  fu.requant = requant.data();
  fu.post_add = zeros.data();
  // Any row's multiplier is checked, before anything is written.
  EXPECT_THROW(kernels::requant_plane(sums.data(), 2, 3, fu, out.data()), std::invalid_argument);
  EXPECT_EQ(out, std::vector<std::int8_t>(sums.size(), 0));
  EXPECT_THROW(quant::fixed_multiply(1, requant[1]), std::invalid_argument);
  // The shortcut multiplier is checked the same way.
  requant[1].shift = -31;
  const std::vector<std::int8_t> sc(sums.size(), 5);
  fu.sc = sc.data();
  fu.sc_rescale = {1 << 30, -32};
  EXPECT_THROW(kernels::requant_plane(sums.data(), 2, 3, fu, out.data()), std::invalid_argument);
  fu.sc_rescale.shift = -31;
  EXPECT_NO_THROW(kernels::requant_plane(sums.data(), 2, 3, fu, out.data()));
  // And the Dropout Unit's keep multiplier.
  std::vector<std::int8_t> plane(6, 3);
  const std::uint64_t drop = 0;
  EXPECT_THROW(kernels::dropout_plane(plane.data(), 2, 1, 3, &drop, 0, {1 << 30, -32}),
               std::invalid_argument);
  EXPECT_NO_THROW(kernels::dropout_plane(plane.data(), 2, 1, 3, &drop, 0, {1 << 30, -31}));
}

TEST(ConvExtent, Formula) {
  EXPECT_EQ(conv_out_extent(28, 5, 1, 2), 28);
  EXPECT_EQ(conv_out_extent(28, 5, 1, 0), 24);
  EXPECT_EQ(conv_out_extent(32, 3, 2, 1), 16);
  EXPECT_EQ(conv_out_extent(4, 2, 2, 0), 2);
}

TEST(ConvExtent, RejectsImpossibleGeometry) {
  EXPECT_THROW(conv_out_extent(2, 5, 1, 0), std::invalid_argument);
  EXPECT_THROW(conv_out_extent(8, 0, 1, 0), std::invalid_argument);
  EXPECT_THROW(conv_out_extent(8, 3, 0, 0), std::invalid_argument);
}

// im2col and col2im must be adjoint linear maps: <im2col(x), y> = <x, col2im(y)>.
TEST(Im2Col, AdjointProperty) {
  util::Rng rng(11);
  const int channels = 3, height = 7, width = 6, kernel = 3, stride = 2, pad = 1;
  const int out_h = conv_out_extent(height, kernel, stride, pad);
  const int out_w = conv_out_extent(width, kernel, stride, pad);
  const int cols = channels * kernel * kernel * out_h * out_w;

  std::vector<float> x(static_cast<std::size_t>(channels) * height * width);
  for (float& v : x) v = static_cast<float>(rng.normal());
  std::vector<float> y(static_cast<std::size_t>(cols));
  for (float& v : y) v = static_cast<float>(rng.normal());

  std::vector<float> col_x(static_cast<std::size_t>(cols));
  im2col(x.data(), channels, height, width, kernel, stride, pad, out_h, out_w, col_x.data());
  std::vector<float> img_y(x.size(), 0.0f);
  col2im(y.data(), channels, height, width, kernel, stride, pad, out_h, out_w, img_y.data());

  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < col_x.size(); ++i) lhs += static_cast<double>(col_x[i]) * y[i];
  for (std::size_t i = 0; i < x.size(); ++i) rhs += static_cast<double>(x[i]) * img_y[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Im2Col, IdentityKernelCopiesPixels) {
  const int channels = 2, height = 3, width = 3;
  std::vector<float> x(18);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<float>(i);
  std::vector<float> col(18);
  im2col(x.data(), channels, height, width, 1, 1, 0, height, width, col.data());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(col[i], x[i]);
}

}  // namespace
}  // namespace bnn::nn
