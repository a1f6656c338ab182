#include "nn/gemm_kernels.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "util/check.h"

#if defined(__AVX512VNNI__)
#include <immintrin.h>
#endif

namespace bnn::nn::kernels {

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

namespace {

// The conv GEMM's vectors hold int32 lanes, one output per lane, and each
// lane reduces four terms per step: lane l of a panel vector is the four
// unsigned term bytes of one position (position tile) or of one broadcast
// position (filter tile), lane l of a weight vector the four signed weight
// bytes of one filter. The vector width follows the strongest integer ISA
// the TU is compiled for, with generic vector types, and no vector is wider
// than the target's registers (a wider one changes the psABI, which -Wpsabi
// flags). The position block stays 16 wide on every ISA and the filter block
// shrinks as the vectors per block row grow, so a tile always keeps 8
// accumulator registers.
#if defined(__AVX512F__)
#define BNN_KERNEL_INT_VEC_BYTES 64
#elif defined(__AVX2__)
#define BNN_KERNEL_INT_VEC_BYTES 32
#else
#define BNN_KERNEL_INT_VEC_BYTES 16
#endif
typedef std::int32_t vi __attribute__((vector_size(BNN_KERNEL_INT_VEC_BYTES)));
typedef std::uint32_t vu __attribute__((vector_size(BNN_KERNEL_INT_VEC_BYTES)));
constexpr int IVL = BNN_KERNEL_INT_VEC_BYTES / static_cast<int>(sizeof(std::int32_t));
constexpr int I8_NR = 16;           // positions per tile
constexpr int I8_NV = I8_NR / IVL;  // vectors per tile row: 1 (AVX-512), 2 (AVX2), 4
constexpr int I8_MR = 8 / I8_NV;    // filters per tile: 8, 4, 2
constexpr int KF_NR = I8_NR;        // filters per block of the filter tile

inline vi load_vi(const void* p) {
  vi out;
  __builtin_memcpy(&out, p, sizeof(vi));
  return out;
}

inline std::int32_t load_word(const void* p) {
  std::int32_t out;
  __builtin_memcpy(&out, p, sizeof(out));
  return out;
}

inline vi splat_word(std::int32_t v) { return vi{} + v; }

// The four-term step: lane l of the result is
//   acc[l] + sum_{j < 4} u_j * w_j,
// u_j the unsigned byte j of u[l], w_j the signed byte j of w[l]. Products
// are at most 255 * 128 in magnitude, so neither form saturates or wraps
// within the bound build_layer_exec_plan requires.
#if defined(__AVX512VNNI__)
// One vpdpbusd (the non-saturating form; vpdpbusds would clamp).
inline vi dot4(vi acc, vi u, vi w) {
  return reinterpret_cast<vi>(_mm512_dpbusd_epi32(reinterpret_cast<__m512i>(acc),
                                                  reinterpret_cast<__m512i>(u),
                                                  reinterpret_cast<__m512i>(w)));
}
constexpr const char* kDot4Body = "dot4-avx512vnni";
#else
// Each product u_j * w_j fits in int16 (|u w| <= 255 * 128 = 32640), so the
// step shifts and masks each lane's even terms (0, 2) and odd terms (1, 3)
// into int16 pairs, multiplies them in int16 lanes (exact), and adds the
// four sign-extended products in int32. Inlined into a tile, the unpacking
// of the operand its accumulators share is computed once per group.
inline vi dot4(vi acc, vi u, vi w) {
  typedef std::int16_t vh __attribute__((vector_size(sizeof(vi))));
  const vi u_even = u & 0x00FF00FF;
  const vi u_odd = reinterpret_cast<vi>(reinterpret_cast<vu>(u) >> 8) & 0x00FF00FF;
  const vi w_even = (((w << 24) >> 24) & 0xFFFF) | (((w << 8) >> 24) << 16);
  const vi w_odd = (((w << 16) >> 24) & 0xFFFF) | ((w >> 24) << 16);
  const auto times = [](vi a, vi b) {
    return reinterpret_cast<vi>(reinterpret_cast<vh>(a) * reinterpret_cast<vh>(b));
  };
  const vi p_even = times(u_even, w_even), p_odd = times(u_odd, w_odd);
  return acc + ((p_even << 16) >> 16) + (p_even >> 16) + ((p_odd << 16) >> 16) + (p_odd >> 16);
}
constexpr const char* kDot4Body = IVL == 16 ? "generic-512" : IVL == 8 ? "generic-256"
                                                                       : "generic-128";
#endif

// One I8_MR x I8_NR tile of the position-vectorized GEMM over the whole term
// range. `rows` are the tile's weight rows (a partial filter block repeats
// its last row; only the first `mr` rows are stored), `x` is the tile's first
// panel column, and only the first `nr` positions are stored.
void gemm_u8i8_tile(int k, const std::int8_t* const* rows, const std::uint8_t* __restrict x,
                    int ldx, const std::int32_t* correction, std::int32_t* __restrict c, int ldc,
                    int mr, int nr) {
  const int full = k / 4, tail = k % 4;
  const std::size_t group_bytes = static_cast<std::size_t>(ldx) * 4;
  vi acc[I8_MR][I8_NV] = {};
  if (tail != 0) {
    // The tail group first (the accumulators then stay in registers through
    // the main loop): its weight words end at each row's last byte, and
    // zero weights fill the rest.
    const std::uint8_t* xg = x + full * group_bytes;
    for (int r = 0; r < I8_MR; ++r) {
      std::uint32_t word = 0;
      for (int j = 0; j < tail; ++j)
        word |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(rows[r][4 * full + j]))
                << (8 * j);
      const vi wv = splat_word(static_cast<std::int32_t>(word));
      for (int v = 0; v < I8_NV; ++v) acc[r][v] = dot4(acc[r][v], load_vi(xg + v * IVL * 4), wv);
    }
  }
  for (int g = 0; g < full; ++g) {
    const std::uint8_t* xg = x + g * group_bytes;
    vi xv[I8_NV];
    for (int v = 0; v < I8_NV; ++v) xv[v] = load_vi(xg + v * IVL * 4);
    for (int r = 0; r < I8_MR; ++r) {
      const vi wv = splat_word(load_word(rows[r] + 4 * g));
      for (int v = 0; v < I8_NV; ++v) acc[r][v] = dot4(acc[r][v], xv[v], wv);
    }
  }
  for (int r = 0; r < mr; ++r) {
    std::int32_t lanes[I8_NR];
    for (int v = 0; v < I8_NV; ++v) {
      const vi sums = acc[r][v] - correction[r];
      __builtin_memcpy(lanes + v * IVL, &sums, sizeof(vi));
    }
    std::int32_t* c_row = c + static_cast<std::size_t>(r) * ldc;
    if (nr == I8_NR)
      __builtin_memcpy(c_row, lanes, sizeof(lanes));
    else
      std::copy(lanes, lanes + nr, c_row);
  }
}

// The filter-vectorized tile mirrors the position tile with the axes
// swapped: 16 filters per block held as I8_NV vectors, P <= I8_MR positions
// per tile, so a full tile again keeps 8 accumulator registers. Each
// position's group word is broadcast; filters past `mr` are computed from
// the copy's zero padding and never stored.
template <int P>
void gemm_u8i8_ftile(int groups, const std::int8_t* __restrict wk, int ldw,
                     const std::uint8_t* __restrict x, int ldx, const std::int32_t* correction,
                     std::int32_t* __restrict c, int ldc, int mr) {
  vi acc[P][I8_NV] = {};
  for (int g = 0; g < groups; ++g) {
    const std::int8_t* wg = wk + static_cast<std::size_t>(g) * ldw * 4;
    vi wv[I8_NV];
    for (int v = 0; v < I8_NV; ++v) wv[v] = load_vi(wg + v * IVL * 4);
    const std::uint8_t* xg = x + static_cast<std::size_t>(g) * ldx * 4;
    for (int p = 0; p < P; ++p) {
      const vi xs = splat_word(load_word(xg + 4 * p));
      for (int v = 0; v < I8_NV; ++v) acc[p][v] = dot4(acc[p][v], xs, wv[v]);
    }
  }
  for (int p = 0; p < P; ++p) {
    std::int32_t lanes[KF_NR];
    for (int v = 0; v < I8_NV; ++v) __builtin_memcpy(lanes + v * IVL, &acc[p][v], sizeof(vi));
    for (int f = 0; f < mr; ++f)
      c[static_cast<std::size_t>(f) * ldc + p] = lanes[f] - correction[f];
  }
}

template <int... Ps>
void gemm_u8i8_ftile_n(std::integer_sequence<int, Ps...>, int p_count, int groups,
                       const std::int8_t* wk, int ldw, const std::uint8_t* x, int ldx,
                       const std::int32_t* correction, std::int32_t* c, int ldc, int mr) {
  // Dispatch the runtime position count to its fixed-trip instantiation.
  (void)((p_count == Ps + 1 &&
          (gemm_u8i8_ftile<Ps + 1>(groups, wk, ldw, x, ldx, correction, c, ldc, mr), true)) ||
         ...);
}

}  // namespace

int gemm_i8_groups(int k) { return (k + 3) / 4; }

int gemm_i8_ldx(int n) { return (n + I8_NR - 1) / I8_NR * I8_NR; }

namespace {

// One run of interleave_group: dst[p * 4 + j] = r_j[p * step] ^ 0x80 for
// p < n. A constant S > 0 is the step (S = 1 vectorizes 16 positions at a
// time); S = 0 reads `step`.
template <int S>
void interleave_run(const std::int8_t* __restrict r0, const std::int8_t* __restrict r1,
                    const std::int8_t* __restrict r2, const std::int8_t* __restrict r3, int n,
                    int step, std::uint8_t* __restrict dst) {
  typedef std::uint8_t v16b __attribute__((vector_size(16)));
  typedef std::uint16_t v8h __attribute__((vector_size(16)));
  int p = 0;
  for (; S == 1 && p + 16 <= n; p += 16) {
    v16b a, b, c, d;
    __builtin_memcpy(&a, r0 + p, 16);
    __builtin_memcpy(&b, r1 + p, 16);
    __builtin_memcpy(&c, r2 + p, 16);
    __builtin_memcpy(&d, r3 + p, 16);
    // Byte pairs (a_i, b_i) and (c_i, d_i), then pairs of pairs.
    const v16b ab_lo = __builtin_shufflevector(a, b, 0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6,
                                               22, 7, 23);
    const v16b ab_hi = __builtin_shufflevector(a, b, 8, 24, 9, 25, 10, 26, 11, 27, 12, 28, 13,
                                               29, 14, 30, 15, 31);
    const v16b cd_lo = __builtin_shufflevector(c, d, 0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6,
                                               22, 7, 23);
    const v16b cd_hi = __builtin_shufflevector(c, d, 8, 24, 9, 25, 10, 26, 11, 27, 12, 28, 13,
                                               29, 14, 30, 15, 31);
    const v8h lo_ab = reinterpret_cast<v8h>(ab_lo), lo_cd = reinterpret_cast<v8h>(cd_lo);
    const v8h hi_ab = reinterpret_cast<v8h>(ab_hi), hi_cd = reinterpret_cast<v8h>(cd_hi);
    // Stored one by one: an array of the four would round-trip the stack.
    std::uint8_t* out = dst + static_cast<std::size_t>(p) * 4;
    const auto put = [](std::uint8_t* at, v8h words) {
      const v16b flipped = reinterpret_cast<v16b>(words) ^ 0x80;
      __builtin_memcpy(at, &flipped, 16);
    };
    put(out, __builtin_shufflevector(lo_ab, lo_cd, 0, 8, 1, 9, 2, 10, 3, 11));
    put(out + 16, __builtin_shufflevector(lo_ab, lo_cd, 4, 12, 5, 13, 6, 14, 7, 15));
    put(out + 32, __builtin_shufflevector(hi_ab, hi_cd, 0, 8, 1, 9, 2, 10, 3, 11));
    put(out + 48, __builtin_shufflevector(hi_ab, hi_cd, 4, 12, 5, 13, 6, 14, 7, 15));
  }
  const std::size_t s = S > 0 ? S : static_cast<std::size_t>(step);
  for (; p < n; ++p) {
    const std::size_t at = p * s;
    const auto byte = [at](const std::int8_t* r) {
      return static_cast<std::uint32_t>(static_cast<std::uint8_t>(r[at]));
    };
    const std::uint32_t word =
        (byte(r0) | byte(r1) << 8 | byte(r2) << 16 | byte(r3) << 24) ^ 0x80808080u;
    __builtin_memcpy(dst + static_cast<std::size_t>(p) * 4, &word, 4);
  }
}

template <int S>
void interleave_runs(const std::int8_t* const rows[4], int runs, int run, int pitch, int step,
                     std::uint8_t* dst) {
  for (int r = 0; r < runs; ++r) {
    const std::size_t at = static_cast<std::size_t>(r) * pitch;
    interleave_run<S>(rows[0] + at, rows[1] + at, rows[2] + at, rows[3] + at, run, step,
                      dst + static_cast<std::size_t>(r) * run * 4);
  }
}

}  // namespace

void interleave_group(const std::int8_t* const rows[4], int runs, int run, int pitch, int step,
                      std::uint8_t* dst) {
  (step == 1 ? interleave_runs<1> : step == 2 ? interleave_runs<2> : interleave_runs<0>)(
      rows, runs, run, pitch, step, dst);
}

void gemm_i8_corrections(int m, int k, const std::int8_t* w, std::int32_t zero_point,
                         std::int32_t* correction) {
  for (int f = 0; f < m; ++f) {
    std::int64_t sum = 0;
    const std::int8_t* row = w + static_cast<std::size_t>(f) * k;
    for (int t = 0; t < k; ++t) sum += row[t];
    correction[f] = static_cast<std::int32_t>((std::int64_t{zero_point} + 128) * sum);
  }
}

void gemm_u8i8(int m, int n, int k, const std::int8_t* w, const std::uint8_t* x, int ldx,
               const std::int32_t* correction, std::int32_t* c, int ldc) {
  // Position blocks outer: a block's groups x 16 panel columns stay
  // cache-resident while every filter block sweeps them.
  for (int p0 = 0; p0 < n; p0 += I8_NR) {
    const int nr = std::min(I8_NR, n - p0);
    for (int f0 = 0; f0 < m; f0 += I8_MR) {
      const int mr = std::min(I8_MR, m - f0);
      const std::int8_t* rows[I8_MR];
      for (int r = 0; r < I8_MR; ++r)
        rows[r] = w + static_cast<std::size_t>(f0 + std::min(r, mr - 1)) * k;
      gemm_u8i8_tile(k, rows, x + static_cast<std::size_t>(p0) * 4, ldx, correction + f0,
                     c + static_cast<std::size_t>(f0) * ldc + p0, ldc, mr, nr);
    }
  }
}

bool gemm_i8_filter_vectorized(int n) { return n < I8_NR; }

int gemm_i8_ldw(int m) { return (m + KF_NR - 1) / KF_NR * KF_NR; }

void pack_i8_kmajor(int m, int k, const std::int8_t* w, std::int8_t* wk) {
  const int ldw = gemm_i8_ldw(m), full = k / 4, tail = k % 4;
  std::fill(wk, wk + static_cast<std::size_t>(gemm_i8_groups(k)) * ldw * 4, std::int8_t{0});
  // One word per (filter, full group); the tail group's bytes end at the
  // row's last term.
  for (int f = 0; f < m; ++f) {
    const std::int8_t* row = w + static_cast<std::size_t>(f) * k;
    std::int8_t* dst = wk + static_cast<std::size_t>(f) * 4;
    for (int g = 0; g < full; ++g)
      __builtin_memcpy(dst + static_cast<std::size_t>(g) * ldw * 4, row + 4 * g, 4);
    std::copy(row + 4 * full, row + 4 * full + tail,
              dst + static_cast<std::size_t>(full) * ldw * 4);
  }
}

void gemm_u8i8_kmajor(int m, int n, int k, const std::int8_t* wk, int ldw,
                      const std::uint8_t* x, int ldx, const std::int32_t* correction,
                      std::int32_t* c, int ldc) {
  const int groups = gemm_i8_groups(k);
  for (int f0 = 0; f0 < m; f0 += KF_NR) {
    const int mr = std::min(KF_NR, m - f0);
    for (int p0 = 0; p0 < n; p0 += I8_MR)
      gemm_u8i8_ftile_n(std::make_integer_sequence<int, I8_MR>{}, std::min(I8_MR, n - p0),
                        groups, wk + static_cast<std::size_t>(f0) * 4, ldw,
                        x + static_cast<std::size_t>(p0) * 4, ldx, correction + f0,
                        c + static_cast<std::size_t>(f0) * ldc + p0, ldc, mr);
  }
}

const char* gemm_i8_body() { return kDot4Body; }

// --- requantization plane kernels --------------------------------------------

namespace {

// The requant kernels work on the GEMM's int32 vectors; their 64-bit
// products use int64 vectors of the same width, and their int8 results the
// IVL-byte vectors an int32 vector narrows to.
typedef std::int64_t vl __attribute__((vector_size(sizeof(vi))));
typedef std::uint64_t vul __attribute__((vector_size(sizeof(vi))));
typedef std::int8_t vb __attribute__((vector_size(IVL)));

// Sign-extends IVL int8 lanes to int32, through int16 lanes: GCC 12 splits
// a direct int8 -> int32 conversion of a whole vector into scalar moves.
inline vi load_i8_lanes(const std::int8_t* p) {
  typedef std::int16_t vh __attribute__((vector_size(2 * IVL)));
  vb bytes;
  __builtin_memcpy(&bytes, p, sizeof(vb));
  return __builtin_convertvector(__builtin_convertvector(bytes, vh), vi);
}

// Lane-wise a + b modulo 2^32: a row's last vector also computes lanes past
// the row, whose sums are nobody's, so no lane may overflow a signed add.
inline vi add(vi a, vi b) {
  return reinterpret_cast<vi>(reinterpret_cast<vu>(a) + reinterpret_cast<vu>(b));
}

// The low 32 bits of each 64-bit lane, sign-extended.
inline vl low_words_extended(vl a) {
  return reinterpret_cast<vl>(reinterpret_cast<vul>(a) << 32) >> 32;
}

// One fixed-point multiplier's constants, lane-wise: a vector of rows (the
// one-element-row path) or one row broadcast.
struct LaneFixed {
  vu left;         // the left shift, 0..31
  vu kept;         // all ones, or 0 for a left shift past 31 (x * 2^left = 0 mod 2^32)
  vl mult_even;    // mult of the even lanes, sign-extended to 64 bits
  vl mult_odd;     // mult of the odd lanes, sign-extended to 64 bits
  vi right;        // the right shift, 0..31
  vi mask;         // 2^right - 1
  vi half;         // mask >> 1
  // Some lane shifts left or has mult INT32_MIN (so its high multiply may
  // saturate); without either, both steps are skipped.
  bool general;
};

void check_exponent(FixedMultiplier m) {
  util::require(m.shift >= -31, "rounding_divide_by_pot: bad exponent");
}

// One lane's constants (right shift already checked to be <= 31).
struct FixedScalars {
  std::uint32_t left, kept;
  std::int32_t mult, right, mask;
};

FixedScalars fixed_scalars(FixedMultiplier m) {
  const int right = m.shift > 0 ? 0 : -m.shift;
  return {static_cast<std::uint32_t>(m.shift > 0 ? std::min(m.shift, 31) : 0),
          m.shift > 31 ? 0u : ~0u, m.mult, right,
          static_cast<std::int32_t>((std::int64_t{1} << right) - 1)};
}

// Every lane from one multiplier (a row's).
LaneFixed splat_fixed(FixedMultiplier m) {
  const FixedScalars c = fixed_scalars(m);
  const vi mask = splat_word(c.mask);
  return {vu{} + c.left, vu{} + c.kept, vl{} + c.mult, vl{} + c.mult, splat_word(c.right), mask,
          mask >> 1, c.left != 0 || c.mult == std::numeric_limits<std::int32_t>::min()};
}

// Lane l from m[l] (a vector of one-element rows).
LaneFixed lane_fixed(const FixedMultiplier* m) {
  LaneFixed f = splat_fixed(FixedMultiplier{});
  vi mult{};
  for (int l = 0; l < IVL; ++l) {
    const FixedScalars c = fixed_scalars(m[l]);
    f.left[l] = c.left;
    f.kept[l] = c.kept;
    mult[l] = c.mult;
    f.right[l] = c.right;
    f.mask[l] = c.mask;
    f.general = f.general || c.left != 0 || c.mult == std::numeric_limits<std::int32_t>::min();
  }
  f.mult_even = low_words_extended(reinterpret_cast<vl>(mult));
  f.mult_odd = reinterpret_cast<vl>(mult) >> 32;
  f.half = f.mask >> 1;
  return f;
}

inline vi max_lanes(vi a, vi b) { return a > b ? a : b; }
inline vi min_lanes(vi a, vi b) { return a < b ? a : b; }

// quant::fixed_multiply, lane-wise and without branches:
//  - the left shift wraps modulo 2^32, as the int64 product truncated to
//    int32 does;
//  - the doubling high multiply's (ab + nudge) / 2^31, truncated toward
//    zero, equals floor((ab + 2^30) / 2^31) for either sign of ab; its low
//    32 bits are bits 31..62 of ab + 2^30. The 64-bit products come from
//    the even and the odd 32-bit lanes, sign-extended in place (a product
//    of two such values plus 2^30 cannot overflow int64, and the shifts
//    that could are done in unsigned lanes); shifting the odd lanes' sums
//    left by one moves their bits 31..62 into the upper half of their
//    64-bit lane, where the odd result belongs;
//  - that quotient lies in [-2^31 + 1, 2^31] and reaches 2^31 (wrapping to
//    INT32_MIN) only for INT32_MIN * INT32_MIN, which saturates;
//  - kGeneral = false (no lane shifts left or has mult INT32_MIN, the
//    common case) skips the left shift and the saturation check;
//  - the rounding right shift is rounding_divide_by_pot, which returns x
//    unchanged at exponent 0 (mask 0 never exceeds the threshold).
template <bool kGeneral>
inline vi fixed_multiply_lanes(vi x, const LaneFixed& f) {
  const vl a = reinterpret_cast<vl>(kGeneral ? (reinterpret_cast<vu>(x) << f.left) & f.kept
                                             : reinterpret_cast<vu>(x));
  const vl nudge = vl{} + (std::int64_t{1} << 30);
  const vul even = reinterpret_cast<vul>(low_words_extended(a) * f.mult_even + nudge) >> 31;
  const vul odd = reinterpret_cast<vul>((a >> 32) * f.mult_odd + nudge) << 1;
  const vul low_words = vul{} + 0xFFFFFFFFu;
  vi high = reinterpret_cast<vi>((even & low_words) | (odd & ~low_words));
  // INT32_MIN - 1 wraps to INT32_MAX: the comparison is -1 where it holds.
  if constexpr (kGeneral) high = add(high, high == std::numeric_limits<std::int32_t>::min());
  const vi threshold = f.half - (high < 0);
  return (high >> f.right) - ((high & f.mask) > threshold);
}

// saturate_int8(max(q, floor)), narrowed.
inline vb saturate_lanes(vi q, vi floor) {
  q = min_lanes(max_lanes(max_lanes(q, floor), splat_word(-128)), splat_word(127));
  return __builtin_convertvector(q, vb);
}

// A row's FU constants: its multiplier and the two additions around it.
struct LaneRow {
  LaneFixed m;
  vi bias;
  vi offset;
};

// The FU's plane-wide constants.
struct PlaneLanes {
  vi floor;
  vi sc_zero_point;
  LaneFixed sc_rescale;
};

// A plane's shortcut operand: none, or one whose rescale is plain or
// general in fixed_multiply_lanes' sense.
enum class Shortcut { none, plain, general };

// The FU chain on one vector of elements; `sc` is the shortcut operand's
// lanes (ignored without a shortcut). kGeneral is the row multiplier's
// form.
template <Shortcut kSc, bool kGeneral>
inline vb fu_lanes(vi x, vi sc, const LaneRow& row, const PlaneLanes& plane) {
  vi q = add(fixed_multiply_lanes<kGeneral>(add(x, row.bias), row.m), row.offset);
  if constexpr (kSc != Shortcut::none)
    q = add(q, fixed_multiply_lanes<kSc == Shortcut::general>(sc - plane.sc_zero_point,
                                                               plane.sc_rescale));
  return saturate_lanes(q, plane.floor);
}

// Elements [at, at + count) of the plane through fu_lanes, count <= IVL.
// A short count is read and written through stack copies, so nothing past
// the plane is touched.
template <Shortcut kSc, bool kGeneral>
inline void fu_vector(const std::int32_t* x, const std::int8_t* sc, std::size_t at, int count,
                      const LaneRow& row, const PlaneLanes& plane, std::int8_t* dst) {
  constexpr bool kShortcut = kSc != Shortcut::none;
  if (count == IVL) {
    const vi s = kShortcut ? load_i8_lanes(sc + at) : vi{};
    const vb out = fu_lanes<kSc, kGeneral>(load_vi(x + at), s, row, plane);
    __builtin_memcpy(dst + at, &out, sizeof(vb));
    return;
  }
  std::int32_t xs[IVL] = {};
  std::int8_t ss[IVL] = {};
  std::copy(x + at, x + at + count, xs);
  if (kShortcut) std::copy(sc + at, sc + at + count, ss);
  const vi s = kShortcut ? load_i8_lanes(ss) : vi{};
  const vb out = fu_lanes<kSc, kGeneral>(load_vi(xs), s, row, plane);
  __builtin_memcpy(dst + at, &out, static_cast<std::size_t>(count));
}

// Row r's elements [begin, end) of the plane: whole vectors, then the
// row's last partial vector, run whole while it stays inside the plane
// (the lanes past the row land in later rows, which are retired after this
// one and overwrite them). Near the plane's end the partial vector is the
// plane's last whole vector instead, and only the row's own lanes are
// stored.
template <Shortcut kSc, bool kGeneral>
void fu_row(const std::int32_t* x, const std::int8_t* sc, std::size_t begin, std::size_t end,
            std::size_t total, const LaneRow& row_in, const PlaneLanes& plane_in,
            std::int8_t* dst) {
  // Local copies: the int8 stores may alias any object, so constants read
  // through the references would be reloaded after every store.
  const LaneRow row = row_in;
  const PlaneLanes plane = plane_in;
  std::size_t at = begin;
  for (; at + IVL <= end; at += IVL)
    fu_vector<kSc, kGeneral>(x, sc, at, IVL, row, plane, dst);
  if (at == end) return;
  if (at + IVL <= total) {
    fu_vector<kSc, kGeneral>(x, sc, at, IVL, row, plane, dst);
  } else if (total >= static_cast<std::size_t>(IVL)) {
    const std::size_t last = total - IVL;
    const vi s = kSc != Shortcut::none ? load_i8_lanes(sc + last) : vi{};
    const vb out = fu_lanes<kSc, kGeneral>(load_vi(x + last), s, row, plane);
    std::int8_t lanes[IVL];
    __builtin_memcpy(lanes, &out, sizeof(vb));
    std::copy(lanes + (at - last), lanes + (end - last), dst + at);
  } else {
    fu_vector<kSc, kGeneral>(x, sc, at, static_cast<int>(total - at), row, plane, dst);
  }
}

template <Shortcut kSc>
void requant_plane_impl(const std::int32_t* x, int rows, int n, const RequantPlane& fu,
                        std::int8_t* dst) {
  const std::size_t total = static_cast<std::size_t>(rows) * n;
  const PlaneLanes plane{
      splat_word(fu.relu ? fu.zero_point : std::numeric_limits<std::int32_t>::min()),
      splat_word(fu.sc_zero_point), splat_fixed(fu.sc_rescale)};
  if (n == 1) {
    // One element per row: lane l is row r0 + l.
    for (int r0 = 0; r0 < rows; r0 += IVL) {
      const int count = std::min(IVL, rows - r0);
      FixedMultiplier m[IVL] = {};
      std::int32_t bias[IVL] = {}, offset[IVL] = {};
      for (int l = 0; l < count; ++l) {
        const auto r = static_cast<std::size_t>(r0 + l);
        m[l] = fu.requant[r];
        bias[l] = fu.bias[r];
        offset[l] = fu.post_add[r] + fu.zero_point;
      }
      LaneRow row{lane_fixed(m), load_vi(bias), load_vi(offset)};
      const auto at = static_cast<std::size_t>(r0);
      if (row.m.general)
        fu_vector<kSc, true>(x, fu.sc, at, count, row, plane, dst);
      else
        fu_vector<kSc, false>(x, fu.sc, at, count, row, plane, dst);
    }
    return;
  }
  for (int r = 0; r < rows; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    const LaneRow row{splat_fixed(fu.requant[ri]), splat_word(fu.bias[ri]),
                      splat_word(fu.post_add[ri] + fu.zero_point)};
    const std::size_t begin = ri * n;
    if (row.m.general)
      fu_row<kSc, true>(x, fu.sc, begin, begin + n, total, row, plane, dst);
    else
      fu_row<kSc, false>(x, fu.sc, begin, begin + n, total, row, plane, dst);
  }
}

}  // namespace

void requant_plane(const std::int32_t* x, int rows, int n, const RequantPlane& fu,
                   std::int8_t* dst) {
  for (int r = 0; r < rows; ++r) check_exponent(fu.requant[static_cast<std::size_t>(r)]);
  if (fu.sc == nullptr) {
    requant_plane_impl<Shortcut::none>(x, rows, n, fu, dst);
    return;
  }
  check_exponent(fu.sc_rescale);
  if (splat_fixed(fu.sc_rescale).general)
    requant_plane_impl<Shortcut::general>(x, rows, n, fu, dst);
  else
    requant_plane_impl<Shortcut::plain>(x, rows, n, fu, dst);
}

void dropout_plane(std::int8_t* x, int rows, int samples, int n, const std::uint64_t* drop,
                   std::int32_t zero_point, FixedMultiplier keep) {
  check_exponent(keep);
  // Every plane shares the rescale, so the whole block is one flat run of
  // rows * samples * n elements; dropped planes are overwritten afterwards.
  const LaneFixed m = splat_fixed(keep);
  const vi bias = splat_word(-zero_point), offset = splat_word(zero_point);
  const vi floor = splat_word(std::numeric_limits<std::int32_t>::min());
  const std::size_t total = static_cast<std::size_t>(rows) * samples * n;
  const auto rescale = [&](std::int8_t* at) {
    const vi q = add(m.general
                         ? fixed_multiply_lanes<true>(add(load_i8_lanes(at), bias), m)
                         : fixed_multiply_lanes<false>(add(load_i8_lanes(at), bias), m),
                     offset);
    const vb out = saturate_lanes(q, floor);
    __builtin_memcpy(at, &out, sizeof(vb));
  };
  std::size_t at = 0;
  for (; at + IVL <= total; at += IVL) rescale(x + at);
  if (at < total) {
    std::int8_t tail[IVL] = {};
    std::copy(x + at, x + total, tail);
    rescale(tail);
    std::copy(tail, tail + (total - at), x + at);
  }
  const std::int8_t dropped =
      static_cast<std::int8_t>(std::clamp(zero_point, std::int32_t{-128}, std::int32_t{127}));
  const int words = (rows + 63) / 64;
  for (int b = 0; b < samples; ++b) {
    for (int w = 0; w < words; ++w) {
      std::uint64_t bits = drop[static_cast<std::size_t>(b) * words + w];
      while (bits != 0) {
        const int lead = __builtin_clzll(bits);
        const int r = w * 64 + lead;
        if (r >= rows) break;
        std::int8_t* plane = x + (static_cast<std::size_t>(r) * samples + b) * n;
        std::fill(plane, plane + n, dropped);
        bits &= ~(std::uint64_t{1} << (63 - lead));
      }
    }
  }
}

}  // namespace bnn::nn::kernels
