// Fixed-point arithmetic primitives for 8-bit linear quantization, following
// the integer-only inference scheme of Jacob et al. (CVPR 2018) that the
// paper applies to its trained models. The exact rounding semantics here are
// the specification both the reference integer executor (qops) and the
// simulated NNE datapath implement, which is what makes the "accelerator
// output == reference output" tests bit-exact.
//
// The per-element requantization chain (fixed_multiply and what it calls,
// saturate_int8) is defined inline here: the plain-loop specification
// (quant/qops) runs it once per output element, where an out-of-line call
// per step would cost more than the arithmetic. The NNE runs the same chain
// through the kernel layer's plane kernels (nn/gemm_kernels.h).
#ifndef BNN_QUANT_FIXED_POINT_H
#define BNN_QUANT_FIXED_POINT_H

#include <cstdint>
#include <limits>

#include "nn/gemm_kernels.h"
#include "util/check.h"

namespace bnn::quant {

// Real multiplier m encoded as mult * 2^(shift - 31) with mult a Q31 value
// whose magnitude lies in [2^30, 2^31) (or 0 for m == 0). The type lives in
// the kernel layer, whose FU plane kernel reads a layer's multipliers in
// place (nn cannot include quant).
using FixedMultiplier = nn::kernels::FixedMultiplier;

// Encodes an arbitrary finite real multiplier (sign allowed).
FixedMultiplier quantize_multiplier(double value);

// Decodes back to double (for diagnostics / error-bound tests).
double multiplier_value(FixedMultiplier m);

// Rounding doubling high multiply: (a*b*2) >> 32 with round-to-nearest and
// INT32_MIN*INT32_MIN saturation — gemmlowp/TFLite semantics.
inline std::int32_t saturating_rounding_doubling_high_mul(std::int32_t a, std::int32_t b) {
  const bool overflow = a == b && a == std::numeric_limits<std::int32_t>::min();
  const std::int64_t ab = static_cast<std::int64_t>(a) * static_cast<std::int64_t>(b);
  const std::int32_t nudge = ab >= 0 ? (1 << 30) : (1 - (1 << 30));
  const auto high = static_cast<std::int32_t>((ab + nudge) / (1ll << 31));
  return overflow ? std::numeric_limits<std::int32_t>::max() : high;
}

// x / 2^exponent with round-to-nearest (ties away from zero on the positive
// side, gemmlowp semantics); exponent in [0, 31].
inline std::int32_t rounding_divide_by_pot(std::int32_t x, int exponent) {
  util::require(exponent >= 0 && exponent <= 31, "rounding_divide_by_pot: bad exponent");
  if (exponent == 0) return x;
  const std::int32_t mask = static_cast<std::int32_t>((1ll << exponent) - 1);
  const std::int32_t remainder = x & mask;
  const std::int32_t threshold = (mask >> 1) + (x < 0 ? 1 : 0);
  return (x >> exponent) + (remainder > threshold ? 1 : 0);
}

// y = x * m (rounded), the requantization workhorse.
inline std::int32_t fixed_multiply(std::int32_t x, FixedMultiplier m) {
  const int left_shift = m.shift > 0 ? m.shift : 0;
  const int right_shift = m.shift > 0 ? 0 : -m.shift;
  const std::int32_t shifted =
      static_cast<std::int32_t>(static_cast<std::int64_t>(x) * (1ll << left_shift));
  return rounding_divide_by_pot(saturating_rounding_doubling_high_mul(shifted, m.mult),
                                right_shift);
}

// Clamp to the int8 range.
inline std::int8_t saturate_int8(std::int32_t x) {
  if (x < -128) return -128;
  if (x > 127) return 127;
  return static_cast<std::int8_t>(x);
}

// Integer division with round-half-away-from-zero (used by average pooling).
std::int32_t rounded_div(std::int64_t numerator, std::int64_t denominator);

}  // namespace bnn::quant

#endif  // BNN_QUANT_FIXED_POINT_H
