// Micro-kernel layer under the float GEMM front end and the int8 NNE inner
// loops: register-blocked, cache-tiled, compiler-vectorizable kernels with
// no external dependencies.
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
// reorder freely and are exact by arithmetic rather than by ordering.
#ifndef BNN_NN_GEMM_KERNELS_H
#define BNN_NN_GEMM_KERNELS_H

#include <cstdint>

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
  int8,     // vectorized dot_i8_zp / dot_i8_zp_gather kernels
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

// --- int8 -> int32 dot kernels ----------------------------------------------
// The NNE channel-tile inner product: sum_t (x[t] - zero_point) * w[t],
// accumulated exactly in int32, so any summation order equals the per-term
// loop of the src/quant/qops.cpp specification.

std::int32_t dot_i8_zp(const std::int8_t* x, const std::int8_t* w, int len,
                       std::int32_t zero_point);

// Gather variant for convolution tiles: x is indexed through a precomputed
// offset table (the hoisted per-term t/(k*k), t%(k*k) index math), w is
// read contiguously. Callers guarantee every offset is in bounds (interior
// positions only; border positions take the checked path).
std::int32_t dot_i8_zp_gather(const std::int8_t* x, const std::int32_t* offsets,
                              const std::int8_t* w, int len, std::int32_t zero_point);

}  // namespace bnn::nn::kernels

#endif  // BNN_NN_GEMM_KERNELS_H
