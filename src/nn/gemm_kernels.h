// Micro-kernel layer under the float GEMM front end and the int8 NNE: the
// register-blocked, cache-tiled float GEMMs, the four-terms-per-step int8
// GEMM the NNE runs every conv and linear layer through
// (position-vectorized, or filter-vectorized over a grouped K-major weight
// copy for maps under 16 positions and for linear layers) with the
// interleave that fills its panel, and the requant plane kernels that retire
// the NNE's Functional Unit and Dropout Unit planes in one call each —
// compiler-vectorized kernels with no external dependencies; the GEMM's
// four-term step is the u8 x s8 dot-product instruction where the TU targets
// AVX512-VNNI.
//
// Bit-identity contract (enforced by tests/test_gemm.cpp and the
// bench/gemm_microbench smoke run): every blocked float kernel produces the
// SAME BITS as its scalar reference. This holds by construction, not by
// tolerance: blocking and vectorization only ever run along the output
// (i, j) axes, so each c[i,j] still accumulates its k-terms sequentially,
// in ascending k, into a single accumulator — the exact floating-point
// operation sequence of the scalar loop. See docs/ARCHITECTURE.md
// ("Micro-kernel layer") for the full argument.
//
// The int8 kernels accumulate in int32, which is associative, so they may
// reorder freely and are exact by arithmetic rather than by ordering. The
// requant plane kernels are integer-only and element-wise, so they equal
// the scalar quant::fixed_multiply chain whatever width they vectorize at.
#ifndef BNN_NN_GEMM_KERNELS_H
#define BNN_NN_GEMM_KERNELS_H

#include <cstdint>

namespace bnn::nn::kernels {

// Kept only for perfbench/layers.cpp, which compiles against it; the NNE reads no tier.
enum class Tier { int8, bitpack };

// Register-block geometry lives inside gemm_kernels.cpp: the output-tile
// width is chosen per target ISA (4x16 with AVX, 4x8 with baseline SSE2) so
// the accumulator tile plus operands fit the vector register file without
// spilling. The translation unit is optionally compiled with -march=native
// (CMake option BNN_KERNEL_NATIVE, default ON) — the ISA choice never
// reaches a result: callers only see the C interface below (gemm_i8_body
// names the int8 step for benches), and bit-identity between blocked and
// scalar variants is a within-TU property enforced by tests.

// --- scalar references ------------------------------------------------------
// The plain triple loops the blocked kernels must match bit-for-bit. These
// deliberately have no zero-skip branch: skipping a_ik == 0 would drop
// NaN/Inf propagation from B (0 * NaN must stay NaN) and make runtime
// data-dependent.

// C[M,N] (+)= A[M,K] * B[K,N]; all row-major.
void gemm_scalar(int m, int n, int k, const float* a, const float* b, float* c, bool accumulate);

// C[M,N] (+)= A[K,M]^T * B[K,N].
void gemm_at_scalar(int m, int n, int k, const float* a, const float* b, float* c,
                    bool accumulate);

// C[M,N] (+)= A[M,K] * B[N,K]^T.
void gemm_bt_scalar(int m, int n, int k, const float* a, const float* b, float* c,
                    bool accumulate);

// --- blocked float kernels --------------------------------------------------
// Same contracts as the scalar references, same bits, faster: kMr x kNr
// register tiles, kKc cache panels, restrict-qualified pointers and
// fixed-trip inner loops the compiler vectorizes along j.

void gemm_blocked(int m, int n, int k, const float* a, const float* b, float* c, bool accumulate);

void gemm_at_blocked(int m, int n, int k, const float* a, const float* b, float* c,
                     bool accumulate);

void gemm_bt_blocked(int m, int n, int k, const float* a, const float* b, float* c,
                     bool accumulate);

// --- the NNE's conv GEMM, four terms per step --------------------------------
// The conv GEMM reduces terms in groups of four, as the PE's multiply-add
// modules reduce PC terms per cycle through an adder tree. Its lowered
// panel x holds each activation as the unsigned byte u = x ^ 0x80 = x + 128
// (0..255), laid out [gemm_i8_groups(k)][ldx][4]: group g's four terms of
// position p are the four bytes at x + (g * ldx + p) * 4. A step multiplies
// four such bytes by four int8 weights and adds the four products, so
//   sum_t (x_t - zp) * w_t = sum_t u_t * w_t - (zp + 128) * sum_t w_t
// holds exactly in int32: the GEMM accumulates the first sum and subtracts a
// per-filter correction, (zp + 128) * sum_t w_t (gemm_i8_corrections). A
// padding term holds u = zp + 128, which the correction cancels, so it adds
// 0 as the specification's skipped term does; a tail term t >= k (the last
// group of a k that is not a multiple of 4) has weight 0 and any u. Every
// partial sum is bounded by 255 * 128 * k, so k < 2^31 / 32640 keeps the
// accumulation exact (quant::build_layer_exec_plan requires it).

// Four-term groups covering k terms: ceil(k / 4).
int gemm_i8_groups(int k);

// Row stride, in positions, of the panel for n positions: n rounded up to
// the position tile (16).
int gemm_i8_ldx(int n);

// Writes one group of the panel from its four term rows, each read as
// `runs` runs of `run` positions, runs `pitch` bytes apart and positions
// `step` bytes apart (a conv term row at stride `step`):
//   dst[(r * run + p) * 4 + j] = rows[j][r * pitch + p * step] ^ 0x80
// for r < runs, p < run, j < 4, reading no other byte. The NNE's lowering
// calls it once per group and sample, or once per group with one run per
// sample of a block.
void interleave_group(const std::int8_t* const rows[4], int runs, int run, int pitch, int step,
                      std::uint8_t* dst);

// correction[f] = (zero_point + 128) * sum_{t < k} w[f * k + t] for f < m.
void gemm_i8_corrections(int m, int k, const std::int8_t* w, std::int32_t zero_point,
                         std::int32_t* correction);

// Position-vectorized GEMM (maps of 16 positions and more):
//   c[f * ldc + p] = sum_{t < k} u[t][p] * w[f * k + t] - correction[f]
// for f < m filters and p < n positions, with u[t][p] the panel byte of
// term t at position p. w is row-major [m][k] (one weight row per filter,
// read up to its last byte and no further: the tail group assembles its
// weights in the tile). The kernel works on whole 16-position blocks, so it
// READS columns n..ldx-1 of every group (any bytes; they never reach c) and
// writes only columns < n of c (ldc >= n). Each (filter block, position
// block) tile runs the whole term range in registers — the PF x PV reuse of
// the NNE's PE array, on vector lanes.
void gemm_u8i8(int m, int n, int k, const std::int8_t* w, const std::uint8_t* x, int ldx,
               const std::int32_t* correction, std::int32_t* c, int ldc);

// --- filter-vectorized GEMM (maps under 16 positions, linear layers) ---------
// gemm_u8i8 vectorizes along positions in blocks of 16, so a map with fewer
// positions would leave lanes idle. Below that size the conv GEMM vectorizes
// along filters instead: per group, one broadcast four-term activation word
// per position against a vector of filters' four-term weight words. Those
// weights are read from a grouped K-major copy built once per layer
// (quant::build_layer_exec_plan), so a small-map call does no packing. The
// plan build and the NNE both ask gemm_i8_filter_vectorized, so they agree
// on which layers carry the copy. A linear layer is a one-position map: the
// NNE calls this tile with n = 1 and ldx = 1 on its flipped input row.
bool gemm_i8_filter_vectorized(int n);

// Filter stride of the grouped K-major copy for m filters: m rounded up to
// the filter block (16).
int gemm_i8_ldw(int m);

// Packs row-major w[m][k] into the grouped K-major copy
// wk[gemm_i8_groups(k)][ldw][4], ldw = gemm_i8_ldw(m): byte j of filter f in
// group g is w[f][4g + j]. Filters m..ldw-1 and tail terms t >= k hold 0.
// A full group moves as one word; the tail group's bytes are read up to the
// row's last term and no further.
void pack_i8_kmajor(int m, int k, const std::int8_t* w, std::int8_t* wk);

// gemm_u8i8's contract with weights from wk = pack_i8_kmajor(w):
//   c[f * ldc + p] = sum_{t < k} u[t][p] * w[f * k + t] - correction[f]
// for f < m, p < n. Reads only columns < n of each panel group and writes
// only filters < m of c.
void gemm_u8i8_kmajor(int m, int n, int k, const std::int8_t* wk, int ldw,
                      const std::uint8_t* x, int ldx, const std::int32_t* correction,
                      std::int32_t* c, int ldc);

// Names the four-term step this build's kernel TU compiled: "dot4-avx512vnni"
// (one vpdpbusd per accumulator) where the TU targets AVX512-VNNI, else
// "generic-<vector bits>" (a shift/mask/multiply step on generic vectors).
// Benches record it beside their timings.
const char* gemm_i8_body();

// --- requantization plane kernels --------------------------------------------
// A fixed-point multiplier, the real value mult * 2^(shift - 31) with mult a
// Q31 value. This is quant::FixedMultiplier (quant/fixed_point.h names it
// with a using-declaration): nn cannot include quant, and the FU kernel reads
// a layer's per-filter multipliers where they are stored.
struct FixedMultiplier {
  std::int32_t mult = 0;
  int shift = 0;
};

// The NNE's Functional Unit (bias -> BN requant -> SC -> ReLU -> saturate)
// retires a layer's whole [rows][n] int32 sum plane in one call:
//   dst[r][p] = saturate_int8(max(fixed_multiply(x[r][p] + bias[r], requant[r])
//                                 + post_add[r] + zero_point [+ sc_term(r, p)], floor))
//   sc_term(r, p) = fixed_multiply(sc[r][p] - sc_zero_point, sc_rescale)
//   floor = relu ? zero_point : INT32_MIN
// with fixed_multiply exactly quant::fixed_multiply (gemmlowp semantics: a
// wrapping left shift for shift > 0, the saturating rounding doubling high
// multiply including its INT32_MIN * INT32_MIN case, and a round-to-nearest
// right shift for shift <= 0). Each row's constants are set up once, outside
// its element loop, and a row's last partial vector needs no scalar
// epilogue; a plane of one-element rows (linear layers, global pools)
// vectorizes across rows instead. Like quant::rounding_divide_by_pot, a
// right shift past 31 (shift < -31, in any row's multiplier or in
// sc_rescale) throws std::invalid_argument, before anything is written.
// `dst` must not overlap `x` or `sc`.
struct RequantPlane {
  const std::int32_t* bias = nullptr;        // [rows]
  const FixedMultiplier* requant = nullptr;  // [rows]
  const std::int32_t* post_add = nullptr;    // [rows]
  std::int32_t zero_point = 0;               // the output zero point
  bool relu = false;                         // floor at zero_point
  // Optional shortcut operand, [rows][n] (null: no sc_term).
  const std::int8_t* sc = nullptr;
  std::int32_t sc_zero_point = 0;
  FixedMultiplier sc_rescale;
};
void requant_plane(const std::int32_t* x, int rows, int n, const RequantPlane& fu,
                   std::int8_t* dst);

// The plane kernel's int8 form, the Dropout Unit, in place over a block of
// `samples` maps per row, x[rows][samples][n] (the NNE's B-sample layout):
// plane (r, b) whose drop bit is set becomes saturate_int8(zero_point), and
// every other element is rescaled about the zero point,
//   x[r][b][p] = saturate_int8(fixed_multiply(x[r][b][p] - zero_point, keep) + zero_point).
// Sample b's drop bits take ceil(rows / 64) words from drop + b * ceil(rows /
// 64): its bit for row r is bit 63 - r % 64 of word r / 64, the order of
// nn::MaskSource::draw_drops; bits past `rows` are ignored. keep.shift < -31
// throws std::invalid_argument.
void dropout_plane(std::int8_t* x, int rows, int samples, int n, const std::uint64_t* drop,
                   std::int32_t zero_point, FixedMultiplier keep);

}  // namespace bnn::nn::kernels

#endif  // BNN_NN_GEMM_KERNELS_H
