#include "nn/dropout.h"

#include <algorithm>

#include "util/check.h"

namespace bnn::nn {

void MaskSource::draw_drops(int n, std::uint64_t* words) {
  for (int w = 0; w * 64 < n; ++w) {
    std::uint64_t word = 0;
    const int count = std::min(64, n - w * 64);
    for (int i = 0; i < count; ++i)
      if (next_drop()) word |= std::uint64_t{1} << (63 - i);
    words[w] = word;
  }
}

McDropout::McDropout(double p, std::uint64_t seed) : p_(p), seed_(seed) {
  util::require(p >= 0.0 && p < 1.0, "mc_dropout: p must be in [0, 1)");
  owned_source_ = std::make_unique<RngMaskSource>(p_, util::Rng(seed_));
}

void McDropout::set_p(double p) {
  util::require(p >= 0.0 && p < 1.0, "mc_dropout: p must be in [0, 1)");
  if (p != p_) {
    p_ = p;
    owned_source_ = std::make_unique<RngMaskSource>(p_, util::Rng(seed_));
  }
}

void McDropout::reseed(std::uint64_t seed) {
  seed_ = seed;
  owned_source_ = std::make_unique<RngMaskSource>(p_, util::Rng(seed_));
}

MaskSource& McDropout::source() {
  return external_source_ != nullptr ? *external_source_ : *owned_source_;
}

void draw_mc_dropout_mask_into(int batch, int channels, MaskSource& source, double p,
                               Tensor& mask) {
  const float keep_scale = static_cast<float>(1.0 / (1.0 - p));
  // One decision per (sample, channel), channel-minor so the order matches
  // the hardware sampler's filter-serial mask stream.
  mask.reset({batch, channels});
  for (int n = 0; n < batch; ++n)
    for (int c = 0; c < channels; ++c)
      mask.v2(n, c) = source.next_drop() ? 0.0f : keep_scale;
}

Tensor draw_mc_dropout_mask(int batch, int channels, MaskSource& source, double p) {
  Tensor mask;
  draw_mc_dropout_mask_into(batch, channels, source, p, mask);
  return mask;
}

void apply_mc_dropout_mask_into(const Tensor& x, const Tensor& mask, Tensor& y) {
  util::require(x.dim() == 4 || x.dim() == 2, "mc_dropout expects NCHW or (N, F) input");
  const int batch = x.size(0);
  const int channels = x.size(1);
  util::require(mask.dim() == 2 && mask.size(0) == batch && mask.size(1) == channels,
                "mc_dropout: mask shape must be (batch, channels)");
  y.reset(x.shape());
  if (x.dim() == 2) {
    for (int n = 0; n < batch; ++n)
      for (int c = 0; c < channels; ++c) y.v2(n, c) = x.v2(n, c) * mask.v2(n, c);
  } else {
    const int plane = x.size(2) * x.size(3);
    for (int n = 0; n < batch; ++n) {
      for (int c = 0; c < channels; ++c) {
        const float m = mask.v2(n, c);
        const float* src_plane = x.data() + x.index4(n, c, 0, 0);
        float* dst_plane = y.data() + y.index4(n, c, 0, 0);
        for (int i = 0; i < plane; ++i) dst_plane[i] = src_plane[i] * m;
      }
    }
  }
}

Tensor apply_mc_dropout_mask(const Tensor& x, const Tensor& mask) {
  Tensor y;
  apply_mc_dropout_mask_into(x, mask, y);
  return y;
}

Tensor McDropout::forward(const Tensor& x) {
  util::require(x.dim() == 4 || x.dim() == 2, "mc_dropout expects NCHW or (N, F) input");
  forward_was_active_ = active_;
  if (!active_) return x;
  mask_ = draw_mc_dropout_mask(x.size(0), x.size(1), source(), p_);
  return apply_mc_dropout_mask(x, mask_);
}

Tensor McDropout::backward(const Tensor& grad_out) {
  if (!forward_was_active_) return grad_out;
  util::ensure(!mask_.empty(), "mc_dropout backward without cached forward");
  const int batch = grad_out.size(0);
  const int channels = grad_out.size(1);
  Tensor grad_in(grad_out.shape());
  if (grad_out.dim() == 2) {
    for (int n = 0; n < batch; ++n)
      for (int c = 0; c < channels; ++c)
        grad_in.v2(n, c) = grad_out.v2(n, c) * mask_.v2(n, c);
  } else {
    const int plane = grad_out.size(2) * grad_out.size(3);
    for (int n = 0; n < batch; ++n) {
      for (int c = 0; c < channels; ++c) {
        const float m = mask_.v2(n, c);
        const float* src_plane = grad_out.data() + grad_out.index4(n, c, 0, 0);
        float* dst_plane = grad_in.data() + grad_in.index4(n, c, 0, 0);
        for (int i = 0; i < plane; ++i) dst_plane[i] = src_plane[i] * m;
      }
    }
  }
  return grad_in;
}

}  // namespace bnn::nn
