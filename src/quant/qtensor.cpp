#include "quant/qtensor.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "quant/fixed_point.h"
#include "util/check.h"

namespace bnn::quant {

QuantParams choose_activation_params(float range_min, float range_max) {
  util::require(range_min <= range_max, "choose_activation_params: inverted range");
  // The representable range must include 0 so zero maps exactly.
  range_min = std::min(range_min, 0.0f);
  range_max = std::max(range_max, 0.0f);
  if (range_max == range_min) return {1.0f, 0};

  const float scale = (range_max - range_min) / 255.0f;
  const float zp_real = -128.0f - range_min / scale;
  const auto zero_point =
      static_cast<std::int32_t>(std::lround(std::clamp(zp_real, -128.0f, 127.0f)));
  return {scale, zero_point};
}

float choose_weight_scale(const float* weights, std::int64_t count) {
  util::require(count > 0, "choose_weight_scale: empty slice");
  float max_abs = 0.0f;
  for (std::int64_t i = 0; i < count; ++i) max_abs = std::max(max_abs, std::fabs(weights[i]));
  if (max_abs == 0.0f) return 1.0f;
  return max_abs / 127.0f;
}

QTensor::QTensor(std::vector<int> shape_in, QuantParams params_in) {
  shape = std::move(shape_in);
  params = params_in;
  std::int64_t n = 1;
  for (int s : shape) {
    util::require(s > 0, "qtensor: shape entries must be positive");
    n *= s;
  }
  data.assign(static_cast<std::size_t>(n),
              static_cast<std::int8_t>(saturate_int8(params.zero_point)));
}

bool QTensor::reset(std::initializer_list<int> dims, QuantParams params_in) {
  bool grew = dims.size() > shape.capacity();
  shape.assign(dims);
  params = params_in;
  std::int64_t n = 1;
  for (int s : shape) {
    util::require(s > 0, "qtensor: shape entries must be positive");
    n *= s;
  }
  grew |= static_cast<std::size_t>(n) > data.capacity();
  data.resize(static_cast<std::size_t>(n));
  return grew;
}

QTensor quantize_image(const nn::Tensor& image, int n, QuantParams params) {
  util::require(image.dim() == 3 || image.dim() == 4, "quantize_image: expects CHW or NCHW");
  const int offset = image.dim() == 4 ? 1 : 0;
  const int c = image.size(offset + 0);
  const int h = image.size(offset + 1);
  const int w = image.size(offset + 2);
  if (image.dim() == 3) util::require(n == 0, "quantize_image: n must be 0 for CHW input");

  const std::int32_t zp = params.zero_point;
  util::require(zp >= -(1 << 22) && zp <= (1 << 22), "quantize_image: zero point out of range");
  QTensor q({c, h, w}, params);
  const std::int64_t plane = static_cast<std::int64_t>(c) * h * w;
  const float* src = image.data() + (image.dim() == 4 ? static_cast<std::int64_t>(n) * plane : 0);
  std::int8_t* dst = q.data.data();
  const float inv_scale = 1.0f / params.scale;
  // saturate_int8(lround(x * inv_scale) + zp) without libm and without int32
  // wrap: the scaled value is clamped to [lo, hi], past which the result
  // saturates either way, and then rounded half away from zero as lround
  // does — truncate, then step away from zero when the fraction is at least
  // one half. Both steps are exact for |v| < 2^23. NaN is cleared to 0 by
  // its bits: a float comparison there would keep the loop from
  // vectorizing.
  const auto lo = static_cast<float>(-129 - zp), hi = static_cast<float>(128 - zp);
  for (std::int64_t i = 0; i < plane; ++i) {
    const float v = src[i] * inv_scale;
    const bool nan = (std::bit_cast<std::uint32_t>(v) & 0x7FFFFFFFu) > 0x7F800000u;
    const float clamped = std::bit_cast<float>(
        std::bit_cast<std::uint32_t>(std::min(std::max(v, lo), hi)) & (nan ? 0u : ~0u));
    const auto whole = static_cast<std::int32_t>(clamped);
    const float frac = clamped - static_cast<float>(whole);
    const std::int32_t rounded =
        whole + (frac >= 0.5f ? 1 : 0) - (frac <= -0.5f ? 1 : 0) + zp;
    dst[i] = static_cast<std::int8_t>(std::clamp(rounded, -128, 127));
  }
  return q;
}

nn::Tensor dequantize(const QTensor& q) {
  util::require(!q.shape.empty(), "dequantize: empty tensor");
  nn::Tensor out(q.shape);
  for (std::int64_t i = 0; i < q.numel(); ++i)
    out[i] = q.params.scale *
             static_cast<float>(q.data[static_cast<std::size_t>(i)] - q.params.zero_point);
  return out;
}

}  // namespace bnn::quant
