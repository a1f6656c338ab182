// Micro-kernel layer under the float GEMM front end and the int8 NNE: the
// register-blocked, cache-tiled float GEMMs, the int8 GEMM the NNE's int8
// tier runs every conv layer through (position-vectorized, or
// filter-vectorized over a K-major weight copy for maps under 16
// positions), the int8 dot product of its linear layers, and the requant
// row kernel that retires the NNE's Functional Unit and Dropout Unit rows —
// compiler-vectorized kernels with no external dependencies.
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
// requant row kernel is integer-only and element-wise, so it equals the
// scalar quant::fixed_multiply chain whatever width it vectorizes at.
#ifndef BNN_NN_GEMM_KERNELS_H
#define BNN_NN_GEMM_KERNELS_H

#include <cstdint>
#include <limits>

namespace bnn::nn::kernels {

// --- kernel tiers -----------------------------------------------------------
// The NNE (core/nne.cpp), the one fast int8 executor, dispatches its inner
// product through one of two tiers. The tier a caller passes is a CAP, not
// a demand: Tier::bitpack routes a layer through the packed popcount path
// only when the layer's weights are binarizable AND the pass's activations
// are two-valued (quant/qplan.h), and falls back to Tier::int8 otherwise —
// so outputs are bit-identical across tiers unconditionally. The plain-loop
// specification both must match is quant/qops.h, which uses no tier.
enum class Tier {
  int8,     // gemm_i8_zp (conv) / dot_i8_zp (linear) kernels
  bitpack,  // bit-packed XNOR/popcount (+ ternary pass/negate/zero) tier
};

const char* tier_name(Tier tier);

// Register-block geometry lives inside gemm_kernels.cpp: the output-tile
// width is chosen per target ISA (4x16 with AVX, 4x8 with baseline SSE2) so
// the accumulator tile plus operands fit the vector register file without
// spilling. The translation unit is optionally compiled with -march=native
// (CMake option BNN_KERNEL_NATIVE, default ON) — the ISA choice never
// leaks: callers only see the C interface below, and bit-identity between
// blocked and scalar variants is a within-TU property enforced by tests.

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

// --- int8 -> int32 kernels --------------------------------------------------
// Products (x - zero_point) * w with int8 x, w and zero_point are at most
// 255 * 128 in magnitude and are accumulated exactly in int32, so any
// summation order equals the per-term loop of the src/quant/qops.cpp
// specification.

// One full-length inner product: sum_t (x[t] - zero_point) * w[t] (the NNE's
// linear layers, one call per filter).
std::int32_t dot_i8_zp(const std::int8_t* x, const std::int8_t* w, int len,
                       std::int32_t zero_point);

// The NNE's conv GEMM over a lowered input:
//   c[f * ldc + p] = sum_{t < k} (x[t * ldx + p] - zero_point) * w[f * k + t]
// for f < m filters and p < n positions. w is row-major [m][k] (one weight
// row per filter); x is K-major [k][ldx] — one row per term, positions
// contiguous — with ldx >= gemm_i8_ldx(n). The kernel works on whole
// position blocks, so it READS columns n..gemm_i8_ldx(n)-1 of every x row
// (any int8 values; they never reach c) and writes only columns < n of c
// (ldc >= n).
// Each (filter block, position block) tile runs the whole term range in
// registers — the PF x PV reuse of the NNE's PE array, on vector lanes.
void gemm_i8_zp(int m, int n, int k, const std::int8_t* w, const std::int8_t* x, int ldx,
                std::int32_t zero_point, std::int32_t* c, int ldc);

// Row stride of gemm_i8_zp's x panel for n positions: n rounded up to the
// kernel's position block (16).
int gemm_i8_ldx(int n);

// --- filter-vectorized int8 GEMM (maps under 16 positions) -------------------
// gemm_i8_zp vectorizes along positions in blocks of 16, so a map with fewer
// positions leaves lanes idle. Below that size the conv GEMM vectorizes
// along filters instead: per term, one broadcast lowered activation per
// position against a vector of filter weights. Those weights are read from
// a K-major copy built once per layer (quant::build_layer_exec_plan), so
// a small-map call does no packing. The plan build and the NNE both ask
// gemm_i8_filter_vectorized, so they agree on which layers carry the copy.
bool gemm_i8_filter_vectorized(int n);

// Filter stride of the K-major weight copy for m filters: m rounded up to
// the filter block (16).
int gemm_i8_ldw(int m);

// Packs row-major w[m][k] into K-major wk[k][ldw], ldw = gemm_i8_ldw(m);
// filters m..ldw-1 of every term row hold 0.
void pack_i8_kmajor(int m, int k, const std::int8_t* w, std::int8_t* wk);

// gemm_i8_zp's contract with K-major weights wk = pack_i8_kmajor(w):
//   c[f * ldc + p] = sum_{t < k} (x[t * ldx + p] - zero_point) * wk[t * ldw + f]
// for f < m, p < n. Reads only columns < n of each x row and writes only
// filters < m of c.
void gemm_i8_zp_kmajor(int m, int n, int k, const std::int8_t* wk, int ldw,
                       const std::int8_t* x, int ldx, std::int32_t zero_point,
                       std::int32_t* c, int ldc);

// --- requantization row kernel ------------------------------------------------
// The NNE's Functional Unit (BN requant -> SC -> ReLU -> saturate) and its
// Dropout Unit rescale retire one output row at a time through this kernel:
//   dst[p] = saturate_int8(max(fixed_multiply(x[p] + bias, (mult, shift))
//                              + offset [+ sc_term(p)], floor))
//   sc_term(p) = fixed_multiply(sc[p] - sc_zero_point, (sc_mult, sc_shift))
// with fixed_multiply exactly quant::fixed_multiply (gemmlowp semantics: a
// wrapping left shift for shift > 0, the saturating rounding doubling high
// multiply including its INT32_MIN * INT32_MIN case, and a round-to-nearest
// right shift for shift <= 0). nn cannot include quant, so a multiplier is
// the raw (mult, shift) pair of quant::FixedMultiplier. The row constants
// are hoisted out of the element loop, so the loop vectorizes; like
// quant::rounding_divide_by_pot, a right shift past 31 (shift < -31)
// throws std::invalid_argument, checked once per row.
struct RequantRow {
  std::int32_t bias = 0;
  std::int32_t mult = 0;
  int shift = 0;
  std::int32_t offset = 0;
  // The ReLU floor (the output zero point), or INT32_MIN for none.
  std::int32_t floor = std::numeric_limits<std::int32_t>::min();
  // Optional shortcut operand (null: no sc_term).
  const std::int8_t* sc = nullptr;
  std::int32_t sc_zero_point = 0;
  std::int32_t sc_mult = 0;
  int sc_shift = 0;
};

// The FU form over an int32 term-sum row.
void requant_row(const std::int32_t* x, int n, const RequantRow& row, std::int8_t* dst);
// The DU form over an int8 row; dst may equal x (in-place rescale).
void requant_row(const std::int8_t* x, int n, const RequantRow& row, std::int8_t* dst);

}  // namespace bnn::nn::kernels

#endif  // BNN_NN_GEMM_KERNELS_H
