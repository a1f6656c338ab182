#include "nn/gemm_kernels.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "util/check.h"

namespace bnn::nn::kernels {

const char* tier_name(Tier tier) {
  switch (tier) {
    case Tier::int8: return "int8";
    case Tier::bitpack: return "bitpack";
  }
  return "unknown";
}

namespace {

// Register-block geometry. An MR x NR output tile is held in registers
// across a KC-deep k-panel; NR is sized so the accumulator tile plus the
// A broadcasts and one B row fit the vector register file (16 registers on
// x86-64). KC bounds the panel so the B block a tile streams through stays
// L1-resident.
//
// The micro kernel uses GCC/Clang generic vector types instead of relying
// on the auto-vectorizer (which SLP-shreds the 2-D accumulator array into
// slow shuffle soup) and instead of intrinsics (which would pin an ISA).
// The vector width follows the strongest ISA the TU is compiled for; every
// lane still performs one rounded multiply and one rounded add per k-term
// (-ffp-contract=off in this TU), so the bits match the scalar references
// and are independent of the chosen width.
#if defined(__AVX__)
#define BNN_KERNEL_VEC_BYTES 32
#else
#define BNN_KERNEL_VEC_BYTES 16
#endif
typedef float vf __attribute__((vector_size(BNN_KERNEL_VEC_BYTES)));
constexpr int VL = BNN_KERNEL_VEC_BYTES / static_cast<int>(sizeof(float));
constexpr int MR = 4;
constexpr int NV = 2;        // vector registers per accumulator row
constexpr int NR = NV * VL;  // 16 with AVX, 8 with baseline SSE2
constexpr int KC = 256;

inline vf splat(float v) {
  vf out;
  for (int l = 0; l < VL; ++l) out[l] = v;
  return out;
}

inline vf loadu(const float* p) {
  vf out;
  __builtin_memcpy(&out, p, sizeof(vf));
  return out;
}

inline void storeu(float* p, vf v) { __builtin_memcpy(p, &v, sizeof(vf)); }

// gemm_bt tiles are square: the dot-product form has no unit-stride output
// axis to vectorize without splitting the per-(i,j) accumulator (which
// would change the float reduction order), so the win is MR_BT * NR_BT
// independent accumulator chains the CPU overlaps, versus the scalar
// loop's one latency-bound chain.
constexpr int MR_BT = 4;
constexpr int NR_BT = 4;

}  // namespace

// --- scalar references ------------------------------------------------------

void gemm_scalar(int m, int n, int k, const float* a, const float* b, float* c, bool accumulate) {
  if (!accumulate)
    std::fill(c, c + static_cast<std::size_t>(m) * n, 0.0f);
  for (int i = 0; i < m; ++i) {
    const float* a_row = a + static_cast<std::size_t>(i) * k;
    float* c_row = c + static_cast<std::size_t>(i) * n;
    for (int kk = 0; kk < k; ++kk) {
      const float a_ik = a_row[kk];
      const float* b_row = b + static_cast<std::size_t>(kk) * n;
      for (int j = 0; j < n; ++j) c_row[j] += a_ik * b_row[j];
    }
  }
}

void gemm_at_scalar(int m, int n, int k, const float* a, const float* b, float* c,
                    bool accumulate) {
  if (!accumulate)
    std::fill(c, c + static_cast<std::size_t>(m) * n, 0.0f);
  for (int kk = 0; kk < k; ++kk) {
    const float* a_row = a + static_cast<std::size_t>(kk) * m;
    const float* b_row = b + static_cast<std::size_t>(kk) * n;
    for (int i = 0; i < m; ++i) {
      const float a_ki = a_row[i];
      float* c_row = c + static_cast<std::size_t>(i) * n;
      for (int j = 0; j < n; ++j) c_row[j] += a_ki * b_row[j];
    }
  }
}

void gemm_bt_scalar(int m, int n, int k, const float* a, const float* b, float* c,
                    bool accumulate) {
  for (int i = 0; i < m; ++i) {
    const float* a_row = a + static_cast<std::size_t>(i) * k;
    float* c_row = c + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      const float* b_row = b + static_cast<std::size_t>(j) * k;
      float acc = 0.0f;
      for (int kk = 0; kk < k; ++kk) acc += a_row[kk] * b_row[kk];
      if (accumulate)
        c_row[j] += acc;
      else
        c_row[j] = acc;
    }
  }
}

// --- blocked float kernels --------------------------------------------------

namespace {

// Both micro kernels read PACKED panels: A as MR-interleaved tiles
// (pa[kk][mi], stride MR) and B as contiguous KC x NR rows (stride NR).
//
// `load_c` distinguishes the first k-panel of a non-accumulating call (the
// tile starts from zero and overwrites C) from every later panel (C holds
// the running sum). Either way each c[i,j] receives its k-terms one at a
// time in ascending k — the scalar reference's exact operation sequence.

// Full MR x NR register tile over one k-panel: 8 vector accumulators plus
// one broadcast and NV B-row loads live per iteration.
inline void micro_full(int kc, const float* __restrict a, const float* __restrict b,
                       float* __restrict c, int ldc, bool load_c) {
  vf acc[MR][NV];
  for (int mi = 0; mi < MR; ++mi)
    for (int v = 0; v < NV; ++v)
      acc[mi][v] =
          load_c ? loadu(c + static_cast<std::size_t>(mi) * ldc + v * VL) : splat(0.0f);
  for (int kk = 0; kk < kc; ++kk) {
    vf bv[NV];
    for (int v = 0; v < NV; ++v) bv[v] = loadu(b + v * VL);
    for (int mi = 0; mi < MR; ++mi) {
      const vf av = splat(a[mi]);
      for (int v = 0; v < NV; ++v) acc[mi][v] += av * bv[v];
    }
    a += MR;
    b += NR;
  }
  for (int mi = 0; mi < MR; ++mi)
    for (int v = 0; v < NV; ++v)
      storeu(c + static_cast<std::size_t>(mi) * ldc + v * VL, acc[mi][v]);
}

// Remainder tile with runtime extents mr <= MR, nr <= NR (scalar: edges are
// a vanishing fraction of the work on any non-tiny shape).
inline void micro_edge(int mr, int nr, int kc, const float* __restrict a,
                       const float* __restrict b, float* __restrict c, int ldc, bool load_c) {
  float acc[MR][NR];
  for (int mi = 0; mi < mr; ++mi)
    for (int ni = 0; ni < nr; ++ni)
      acc[mi][ni] = load_c ? c[static_cast<std::size_t>(mi) * ldc + ni] : 0.0f;
  for (int kk = 0; kk < kc; ++kk) {
    for (int mi = 0; mi < mr; ++mi) {
      const float av = a[mi];
      for (int ni = 0; ni < nr; ++ni) acc[mi][ni] += av * b[ni];
    }
    a += MR;
    b += NR;
  }
  for (int mi = 0; mi < mr; ++mi)
    for (int ni = 0; ni < nr; ++ni) c[static_cast<std::size_t>(mi) * ldc + ni] = acc[mi][ni];
}

// Shared driver for gemm / gemm_at. Both operands are repacked panel by
// panel (pure data movement — it cannot change any floating-point result):
//
//  - A's k-panel is packed once per k0 into MR-interleaved tiles
//    (pa[tile][kk][mi], contiguous), read back sequentially by every j-tile
//    sweep. This also makes gemm and gemm_at identical from the micro
//    kernel's point of view.
//  - B's KC x NR block is packed per (k0, j0) into a contiguous scratch
//    (at most KC*NR floats = 16 KiB, L1-resident). Without this, layer
//    shapes with power-of-two N (e.g. the VGG im2col GEMM, N=1024) put
//    every row of the block in the same L1 set — a 4 KiB-aliasing conflict
//    storm that makes the tiled loop *slower* than the streaming scalar
//    one.
//
// Packing buffers are thread-local so repeated layer calls reuse their
// high-water allocation; lanes of the (image, sample) pair loop each carry
// their own.
void gemm_panels(int m, int n, int k, const float* a, std::ptrdiff_t a_rs, std::ptrdiff_t a_cs,
                 const float* b, float* c, bool accumulate) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    if (!accumulate) std::fill(c, c + static_cast<std::size_t>(m) * n, 0.0f);
    return;
  }
  static thread_local std::vector<float> pa_buf, pb_buf;
  const int i_tiles = (m + MR - 1) / MR;
  pa_buf.resize(static_cast<std::size_t>(i_tiles) * MR * std::min(KC, k));
  pb_buf.resize(static_cast<std::size_t>(std::min(KC, k)) * NR);

  for (int k0 = 0; k0 < k; k0 += KC) {  // ascending: preserves each c[i,j]'s k-order
    const int kc = std::min(KC, k - k0);
    const bool load_c = accumulate || k0 > 0;

    // Pack A(:, k0:k0+kc) as MR-interleaved tiles; rows past m pad with
    // zeros that only feed accumulator lanes no tile ever stores.
    for (int ti = 0; ti < i_tiles; ++ti) {
      float* pa = pa_buf.data() + static_cast<std::size_t>(ti) * MR * kc;
      for (int kk = 0; kk < kc; ++kk) {
        for (int mi = 0; mi < MR; ++mi) {
          const int row = ti * MR + mi;
          pa[static_cast<std::size_t>(kk) * MR + mi] =
              row < m ? a[row * a_rs + static_cast<std::ptrdiff_t>(k0 + kk) * a_cs] : 0.0f;
        }
      }
    }

    for (int j0 = 0; j0 < n; j0 += NR) {
      const int nr = std::min(NR, n - j0);
      // Pack B(k0:k0+kc, j0:j0+nr) contiguously (zero-pad partial widths).
      for (int kk = 0; kk < kc; ++kk) {
        const float* b_row = b + static_cast<std::size_t>(k0 + kk) * n + j0;
        float* pb_row = pb_buf.data() + static_cast<std::size_t>(kk) * NR;
        for (int ni = 0; ni < nr; ++ni) pb_row[ni] = b_row[ni];
        for (int ni = nr; ni < NR; ++ni) pb_row[ni] = 0.0f;
      }

      for (int ti = 0; ti < i_tiles; ++ti) {
        const float* pa = pa_buf.data() + static_cast<std::size_t>(ti) * MR * kc;
        const int mr = std::min(MR, m - ti * MR);
        float* c_tile = c + static_cast<std::size_t>(ti) * MR * n + j0;
        if (mr == MR && nr == NR)
          micro_full(kc, pa, pb_buf.data(), c_tile, n, load_c);
        else
          micro_edge(mr, nr, kc, pa, pb_buf.data(), c_tile, n, load_c);
      }
    }
  }
}

}  // namespace

void gemm_blocked(int m, int n, int k, const float* a, const float* b, float* c,
                  bool accumulate) {
  gemm_panels(m, n, k, a, /*a_rs=*/k, /*a_cs=*/1, b, c, accumulate);
}

void gemm_at_blocked(int m, int n, int k, const float* a, const float* b, float* c,
                     bool accumulate) {
  gemm_panels(m, n, k, a, /*a_rs=*/1, /*a_cs=*/m, b, c, accumulate);
}

void gemm_bt_blocked(int m, int n, int k, const float* __restrict a, const float* __restrict b,
                     float* __restrict c, bool accumulate) {
  // Overwriting calls can transpose B (pure data movement) and take the
  // vectorized panel path: its per-(i,j) chain ((0+t0)+t1)+... is exactly
  // the scalar gemm_bt accumulator chain, so the bits are unchanged. An
  // accumulating call cannot — it would fold c in at the start of the
  // chain instead of adding the finished dot product onto it — and tiny m
  // cannot amortize the transpose; both fall through to the ILP form.
  if (!accumulate && m >= 8 && k >= 2) {
    static thread_local std::vector<float> bt_buf;
    bt_buf.resize(static_cast<std::size_t>(k) * n);
    for (int j = 0; j < n; ++j) {
      const float* b_row = b + static_cast<std::size_t>(j) * k;
      for (int kk = 0; kk < k; ++kk) bt_buf[static_cast<std::size_t>(kk) * n + j] = b_row[kk];
    }
    gemm_panels(m, n, k, a, /*a_rs=*/k, /*a_cs=*/1, bt_buf.data(), c, false);
    return;
  }
  for (int i0 = 0; i0 < m; i0 += MR_BT) {
    const int mr = std::min(MR_BT, m - i0);
    for (int j0 = 0; j0 < n; j0 += NR_BT) {
      const int nr = std::min(NR_BT, n - j0);
      float acc[MR_BT][NR_BT] = {};
      if (mr == MR_BT && nr == NR_BT) {
        for (int kk = 0; kk < k; ++kk) {
          float av[MR_BT];
          for (int mi = 0; mi < MR_BT; ++mi)
            av[mi] = a[static_cast<std::size_t>(i0 + mi) * k + kk];
          for (int ni = 0; ni < NR_BT; ++ni) {
            const float bv = b[static_cast<std::size_t>(j0 + ni) * k + kk];
            for (int mi = 0; mi < MR_BT; ++mi) acc[mi][ni] += av[mi] * bv;
          }
        }
      } else {
        for (int kk = 0; kk < k; ++kk) {
          for (int mi = 0; mi < mr; ++mi) {
            const float av = a[static_cast<std::size_t>(i0 + mi) * k + kk];
            for (int ni = 0; ni < nr; ++ni)
              acc[mi][ni] += av * b[static_cast<std::size_t>(j0 + ni) * k + kk];
          }
        }
      }
      for (int mi = 0; mi < mr; ++mi) {
        float* c_row = c + static_cast<std::size_t>(i0 + mi) * n + j0;
        for (int ni = 0; ni < nr; ++ni) {
          if (accumulate)
            c_row[ni] += acc[mi][ni];
          else
            c_row[ni] = acc[mi][ni];
        }
      }
    }
  }
}

// --- int8 -> int32 kernels --------------------------------------------------

// Plain single-accumulator reduction: integer addition is associative, so
// the auto-vectorizer is free to widen it.
std::int32_t dot_i8_zp(const std::int8_t* __restrict x, const std::int8_t* __restrict w, int len,
                       std::int32_t zero_point) {
  std::int32_t acc = 0;
  for (int t = 0; t < len; ++t)
    acc += (static_cast<std::int32_t>(x[t]) - zero_point) * static_cast<std::int32_t>(w[t]);
  return acc;
}

namespace {

// The int8 GEMM vectorizes along positions: per term, one vector of lowered
// activations (widened to int32, zero point subtracted) is multiplied by one
// broadcast weight per filter row of the tile. int32 lanes hold every product
// and sum exactly. The vector width follows the strongest integer ISA the TU
// is compiled for — generic vector types again, so no intrinsic pins an ISA,
// and no vector is wider than the target's registers (a wider one changes
// the psABI, which -Wpsabi flags). The position block stays 16 wide on every
// ISA and the filter block shrinks as the vectors per block row grow, so a
// tile always keeps 8 accumulator registers.
#if defined(__AVX512F__)
#define BNN_KERNEL_INT_VEC_BYTES 64
#elif defined(__AVX2__)
#define BNN_KERNEL_INT_VEC_BYTES 32
#else
#define BNN_KERNEL_INT_VEC_BYTES 16
#endif
typedef std::int32_t vi __attribute__((vector_size(BNN_KERNEL_INT_VEC_BYTES)));
constexpr int IVL = BNN_KERNEL_INT_VEC_BYTES / static_cast<int>(sizeof(std::int32_t));
// The widening goes int8 -> int16 -> int32: one doubling per step is what
// the compiler lowers to sign-extending moves (one quadrupling step is
// scalarized lane by lane).
typedef std::int8_t vb __attribute__((vector_size(IVL)));
typedef std::int16_t vh __attribute__((vector_size(2 * IVL)));
constexpr int I8_NR = 16;           // positions per tile
constexpr int I8_NV = I8_NR / IVL;  // vectors per tile row: 1 (AVX-512), 2 (AVX2), 4
constexpr int I8_MR = 8 / I8_NV;    // filters per tile: 8, 4, 2

// One I8_MR x I8_NR tile over the whole term range. `rows` are the tile's
// weight rows (a partial filter block repeats its last row; only the first
// `mr` rows are stored), `x` is the tile's first panel column, and only the
// first `nr` positions are stored.
void gemm_i8_tile(int k, const std::int8_t* const* rows, const std::int8_t* __restrict x,
                  int ldx, std::int32_t zero_point, std::int32_t* __restrict c, int ldc, int mr,
                  int nr) {
  vi acc[I8_MR][I8_NV] = {};
  for (int t = 0; t < k; ++t) {
    const std::int8_t* xt = x + static_cast<std::size_t>(t) * ldx;
    vi xv[I8_NV];
    for (int v = 0; v < I8_NV; ++v) {
      vb raw;
      __builtin_memcpy(&raw, xt + v * IVL, sizeof(vb));
      xv[v] = __builtin_convertvector(__builtin_convertvector(raw, vh), vi) - zero_point;
    }
    for (int r = 0; r < I8_MR; ++r) {
      const std::int32_t wt = rows[r][t];
      for (int v = 0; v < I8_NV; ++v) acc[r][v] += xv[v] * wt;
    }
  }
  for (int r = 0; r < mr; ++r) {
    std::int32_t* c_row = c + static_cast<std::size_t>(r) * ldc;
    if (nr == I8_NR) {
      for (int v = 0; v < I8_NV; ++v) __builtin_memcpy(c_row + v * IVL, &acc[r][v], sizeof(vi));
    } else {
      std::int32_t lanes[I8_NR];
      for (int v = 0; v < I8_NV; ++v) __builtin_memcpy(lanes + v * IVL, &acc[r][v], sizeof(vi));
      std::copy(lanes, lanes + nr, c_row);
    }
  }
}

}  // namespace

int gemm_i8_ldx(int n) { return (n + I8_NR - 1) / I8_NR * I8_NR; }

namespace {

// The filter-vectorized tile mirrors the position tile with the axes
// swapped: 16 filters per block held as I8_NV vectors, I8_MR positions per
// tile, so a full tile again keeps 8 accumulator registers. `p_count`
// positions (1..I8_MR) are computed, each from one broadcast lowered
// activation per term; filters past `mr` are computed from the copy's zero
// padding and never stored.
constexpr int KF_NR = I8_NR;  // filters per block: the K-major copy's rounding

template <int P>
void gemm_i8_ftile(int k, const std::int8_t* __restrict wk, int ldw,
                   const std::int8_t* __restrict x, int ldx, std::int32_t zero_point,
                   std::int32_t* __restrict c, int ldc, int mr) {
  vi acc[P][I8_NV] = {};
  for (int t = 0; t < k; ++t) {
    const std::int8_t* wt = wk + static_cast<std::size_t>(t) * ldw;
    vi wv[I8_NV];
    for (int v = 0; v < I8_NV; ++v) {
      vb raw;
      __builtin_memcpy(&raw, wt + v * IVL, sizeof(vb));
      wv[v] = __builtin_convertvector(__builtin_convertvector(raw, vh), vi);
    }
    const std::int8_t* xt = x + static_cast<std::size_t>(t) * ldx;
    for (int p = 0; p < P; ++p) {
      const std::int32_t xs = static_cast<std::int32_t>(xt[p]) - zero_point;
      for (int v = 0; v < I8_NV; ++v) acc[p][v] += wv[v] * xs;
    }
  }
  for (int p = 0; p < P; ++p) {
    std::int32_t lanes[KF_NR];
    for (int v = 0; v < I8_NV; ++v) __builtin_memcpy(lanes + v * IVL, &acc[p][v], sizeof(vi));
    for (int f = 0; f < mr; ++f) c[static_cast<std::size_t>(f) * ldc + p] = lanes[f];
  }
}

template <int... Ps>
void gemm_i8_ftile_n(std::integer_sequence<int, Ps...>, int p_count, int k,
                     const std::int8_t* wk, int ldw, const std::int8_t* x, int ldx,
                     std::int32_t zero_point, std::int32_t* c, int ldc, int mr) {
  // Dispatch the runtime position count to its fixed-trip instantiation.
  (void)((p_count == Ps + 1 &&
          (gemm_i8_ftile<Ps + 1>(k, wk, ldw, x, ldx, zero_point, c, ldc, mr), true)) ||
         ...);
}

}  // namespace

bool gemm_i8_filter_vectorized(int n) { return n < I8_NR; }

int gemm_i8_ldw(int m) { return (m + KF_NR - 1) / KF_NR * KF_NR; }

void pack_i8_kmajor(int m, int k, const std::int8_t* w, std::int8_t* wk) {
  const int ldw = gemm_i8_ldw(m);
  std::fill(wk, wk + static_cast<std::size_t>(k) * ldw, std::int8_t{0});
  for (int f = 0; f < m; ++f)
    for (int t = 0; t < k; ++t)
      wk[static_cast<std::size_t>(t) * ldw + f] = w[static_cast<std::size_t>(f) * k + t];
}

void gemm_i8_zp_kmajor(int m, int n, int k, const std::int8_t* wk, int ldw,
                       const std::int8_t* x, int ldx, std::int32_t zero_point,
                       std::int32_t* c, int ldc) {
  for (int f0 = 0; f0 < m; f0 += KF_NR) {
    const int mr = std::min(KF_NR, m - f0);
    for (int p0 = 0; p0 < n; p0 += I8_MR)
      gemm_i8_ftile_n(std::make_integer_sequence<int, I8_MR>{}, std::min(I8_MR, n - p0), k,
                      wk + f0, ldw, x + p0, ldx, zero_point,
                      c + static_cast<std::size_t>(f0) * ldc + p0, ldc, mr);
  }
}

// --- requantization row kernel ------------------------------------------------

namespace {

// One fixed-point multiplier's per-row constants.
struct FixedLane {
  std::uint32_t left_scale;  // 2^left_shift mod 2^32: the wrapping left shift
  std::int32_t mult;
  int right_shift;
  std::int32_t mask;  // 2^right_shift - 1
  std::int32_t half;  // mask >> 1
};

FixedLane fixed_lane(std::int32_t mult, int shift) {
  const int left = shift > 0 ? shift : 0;
  const int right = shift > 0 ? 0 : -shift;
  util::require(right <= 31, "rounding_divide_by_pot: bad exponent");
  const auto mask = static_cast<std::int32_t>((std::int64_t{1} << right) - 1);
  return {left < 32 ? std::uint32_t{1} << left : 0u, mult, right, mask, mask >> 1};
}

// quant::fixed_multiply without branches on the element:
//  - the left shift wraps modulo 2^32, as the int64 product truncated to
//    int32 does;
//  - the doubling high multiply's (ab + nudge) / 2^31, truncated toward
//    zero, equals floor((ab + 2^30) / 2^31) for either sign of ab; its low
//    32 bits are bits 31..62 of ab + 2^30, so a logical shift serves;
//  - that quotient lies in [-2^31 + 1, 2^31] and reaches 2^31 (wrapping to
//    INT32_MIN) only for INT32_MIN * INT32_MIN, which saturates;
//  - the rounding right shift is rounding_divide_by_pot, which returns x
//    unchanged at exponent 0 (mask 0 never exceeds the threshold).
inline std::int32_t fixed_lane_multiply(std::int32_t x, FixedLane l) {
  const auto shifted = static_cast<std::int32_t>(static_cast<std::uint32_t>(x) * l.left_scale);
  const std::int64_t ab = static_cast<std::int64_t>(shifted) * l.mult;
  auto high = static_cast<std::int32_t>(
      static_cast<std::uint64_t>(ab + (std::int64_t{1} << 30)) >> 31);
  high = high == std::numeric_limits<std::int32_t>::min()
             ? std::numeric_limits<std::int32_t>::max()
             : high;
  const std::int32_t remainder = high & l.mask;
  const std::int32_t threshold = l.half + (high < 0 ? 1 : 0);
  return (high >> l.right_shift) + (remainder > threshold ? 1 : 0);
}

template <bool kShortcut, typename T>
void requant_loop(const T* x, int n, const RequantRow& row, std::int8_t* dst) {
  // Every constant in a local: the int8 stores may alias any object.
  const FixedLane m = fixed_lane(row.mult, row.shift);
  const FixedLane s = kShortcut ? fixed_lane(row.sc_mult, row.sc_shift) : m;
  const std::int32_t bias = row.bias, offset = row.offset, floor = row.floor;
  const std::int32_t sc_zero_point = row.sc_zero_point;
  const std::int8_t* sc = row.sc;
  for (int p = 0; p < n; ++p) {
    std::int32_t q = fixed_lane_multiply(static_cast<std::int32_t>(x[p]) + bias, m) + offset;
    if constexpr (kShortcut)
      q += fixed_lane_multiply(static_cast<std::int32_t>(sc[p]) - sc_zero_point, s);
    dst[p] = static_cast<std::int8_t>(std::clamp(std::max(q, floor), -128, 127));
  }
}

template <typename T>
void requant_row_any(const T* x, int n, const RequantRow& row, std::int8_t* dst) {
  if (row.sc != nullptr)
    requant_loop<true>(x, n, row, dst);
  else
    requant_loop<false>(x, n, row, dst);
}

}  // namespace

void requant_row(const std::int32_t* x, int n, const RequantRow& row, std::int8_t* dst) {
  requant_row_any(x, n, row, dst);
}

void requant_row(const std::int8_t* x, int n, const RequantRow& row, std::int8_t* dst) {
  requant_row_any(x, n, row, dst);
}

void gemm_i8_zp(int m, int n, int k, const std::int8_t* w, const std::int8_t* x, int ldx,
                std::int32_t zero_point, std::int32_t* c, int ldc) {
  // Position blocks outer: a block's k x 16 panel columns stay cache-resident
  // while every filter block sweeps them.
  for (int p0 = 0; p0 < n; p0 += I8_NR) {
    const int nr = std::min(I8_NR, n - p0);
    for (int f0 = 0; f0 < m; f0 += I8_MR) {
      const int mr = std::min(I8_MR, m - f0);
      const std::int8_t* rows[I8_MR];
      for (int r = 0; r < I8_MR; ++r)
        rows[r] = w + static_cast<std::size_t>(f0 + std::min(r, mr - 1)) * k;
      gemm_i8_tile(k, rows, x + p0, ldx, zero_point, c + static_cast<std::size_t>(f0) * ldc + p0,
                   ldc, mr, nr);
    }
  }
}

}  // namespace bnn::nn::kernels
