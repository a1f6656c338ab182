#include "quant/fixed_point.h"

#include <cmath>
#include <cstdlib>

#include "util/check.h"

namespace bnn::quant {

FixedMultiplier quantize_multiplier(double value) {
  util::require(std::isfinite(value), "quantize_multiplier: value must be finite");
  if (value == 0.0) return {0, 0};
  int shift = 0;
  const double fraction = std::frexp(value, &shift);  // value = fraction * 2^shift
  auto q_fixed = static_cast<std::int64_t>(std::llround(fraction * (1ll << 31)));
  util::ensure(std::llabs(q_fixed) <= (1ll << 31), "quantize_multiplier: bad frexp result");
  if (q_fixed == (1ll << 31)) {
    q_fixed /= 2;
    ++shift;
  }
  if (q_fixed == -(1ll << 31)) {
    q_fixed /= 2;
    ++shift;
  }
  util::require(shift <= 30 && shift >= -31,
                "quantize_multiplier: magnitude out of representable range");
  return {static_cast<std::int32_t>(q_fixed), shift};
}

double multiplier_value(FixedMultiplier m) {
  return static_cast<double>(m.mult) * std::ldexp(1.0, m.shift - 31);
}

std::int32_t rounded_div(std::int64_t numerator, std::int64_t denominator) {
  util::require(denominator > 0, "rounded_div: denominator must be positive");
  if (numerator >= 0)
    return static_cast<std::int32_t>((numerator + denominator / 2) / denominator);
  return static_cast<std::int32_t>(-((-numerator + denominator / 2) / denominator));
}

}  // namespace bnn::quant
