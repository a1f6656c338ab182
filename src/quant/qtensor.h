// Quantized activation tensor: int8 payload plus affine quantization
// parameters (real = scale * (q - zero_point)). Batch-free {C, H, W} layout
// — the accelerator processes one image at a time, as in the paper's
// batch-1 evaluation.
#ifndef BNN_QUANT_QTENSOR_H
#define BNN_QUANT_QTENSOR_H

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "nn/tensor.h"
#include "util/check.h"  // C++20 guard: defaulted operator== below needs it

namespace bnn::quant {

struct QuantParams {
  float scale = 1.0f;
  std::int32_t zero_point = 0;

  bool operator==(const QuantParams&) const = default;
};

// Asymmetric int8 parameters covering [range_min, range_max] (widened to
// always include 0 so that zero_point is exact, per Jacob et al.).
QuantParams choose_activation_params(float range_min, float range_max);

// Symmetric scale for a weight slice: max|w| mapped to 127.
float choose_weight_scale(const float* weights, std::int64_t count);

struct QTensor {
  std::vector<int> shape;  // {C, H, W} (or {F, 1, 1} for vectors)
  std::vector<std::int8_t> data;
  QuantParams params;

  QTensor() = default;
  QTensor(std::vector<int> shape_in, QuantParams params_in);

  // Re-shapes in place, reusing the shape's and the data buffer's capacity
  // (the accelerator's per-lane arena calls this every sample; the dims come
  // as an initializer list, so a warm call builds no temporary vector).
  // Unlike the constructor the payload is NOT zero-point-filled — callers
  // must overwrite every element. Returns true when a buffer had to grow
  // (an allocation happened).
  bool reset(std::initializer_list<int> dims, QuantParams params_in);

  std::int64_t numel() const { return static_cast<std::int64_t>(data.size()); }
  int channels() const { return shape.empty() ? 0 : shape[0]; }
  int height() const { return shape.size() > 1 ? shape[1] : 1; }
  int width() const { return shape.size() > 2 ? shape[2] : 1; }

  std::int8_t at(int c, int h, int w) const {
    return data[(static_cast<std::size_t>(c) * height() + h) * width() + w];
  }
  std::int8_t& at(int c, int h, int w) {
    return data[(static_cast<std::size_t>(c) * height() + h) * width() + w];
  }

  // Real-valued view of one element.
  float real(int c, int h, int w) const {
    return params.scale * static_cast<float>(at(c, h, w) - params.zero_point);
  }
};

// Quantizes one image (C, H, W) of a float tensor (3-D, or 4-D with n
// selecting the sample) under the given parameters: each element becomes
// saturate_int8(lround(x * (1 / scale)) + zero_point). Values past the int8
// range, however far (+-inf included), saturate by sign; NaN maps to the
// zero point. The zero point must lie within +-2^22.
QTensor quantize_image(const nn::Tensor& image, int n, QuantParams params);

// Dequantizes to a float tensor of the same {C, H, W} shape.
nn::Tensor dequantize(const QTensor& q);

}  // namespace bnn::quant

#endif  // BNN_QUANT_QTENSOR_H
