#include "quant/qops.h"

#include <algorithm>
#include <limits>

#include "nn/activations.h"
#include "util/check.h"

namespace bnn::quant {

namespace {

// PE + FU/BN + FU/SC + FU/ReLU for one layer, before pooling: returns the
// int8 map of conv_out_h x conv_out_w positions. The PE is the plain
// per-position (c, kh, kw) accumulation with bounds-checked padding; a
// linear layer is the 1x1 case over its flattened input (in_h = in_w = 1).
QTensor compute_pre_pool(const QLayer& layer, const QTensor& input, const QTensor* shortcut) {
  const nn::HwLayer& g = layer.geom;
  const std::int32_t zp_in = layer.in.zero_point;
  const std::int32_t zp_out = layer.out.zero_point;
  if (g.op == nn::HwLayer::Op::linear)
    util::require(input.numel() == g.in_c, "qops: linear input size mismatch");
  else
    util::require(input.channels() == g.in_c && input.height() == g.in_h &&
                      input.width() == g.in_w,
                  "qops: conv input shape mismatch");
  if (g.has_shortcut) {
    util::require(shortcut != nullptr, "qops: missing shortcut operand");
    util::require(shortcut->channels() == g.out_c &&
                      shortcut->height() == g.conv_out_h &&
                      shortcut->width() == g.conv_out_w,
                  "qops: shortcut operand shape mismatch");
  }

  QTensor pre({g.out_c, g.conv_out_h, g.conv_out_w}, layer.out);
  for (int f = 0; f < g.out_c; ++f) {
    const std::int8_t* w = layer.weight_row(f);
    for (int oh = 0; oh < g.conv_out_h; ++oh) {
      for (int ow = 0; ow < g.conv_out_w; ++ow) {
        std::int32_t acc = layer.bias[static_cast<std::size_t>(f)];
        for (int c = 0; c < g.in_c; ++c) {
          for (int kh = 0; kh < g.kernel; ++kh) {
            const int ih = oh * g.stride - g.pad + kh;
            if (ih < 0 || ih >= g.in_h) continue;  // padding contributes zero
            for (int kw = 0; kw < g.kernel; ++kw) {
              const int iw = ow * g.stride - g.pad + kw;
              if (iw < 0 || iw >= g.in_w) continue;
              const std::int8_t x =
                  input.data[(static_cast<std::size_t>(c) * g.in_h + ih) * g.in_w + iw];
              acc += (static_cast<std::int32_t>(x) - zp_in) *
                     static_cast<std::int32_t>(
                         w[(static_cast<std::size_t>(c) * g.kernel + kh) * g.kernel + kw]);
            }
          }
        }
        std::int32_t q = fixed_multiply(acc, layer.requant[static_cast<std::size_t>(f)]) +
                         layer.post_add[static_cast<std::size_t>(f)] + zp_out;
        if (g.has_shortcut)
          q += fixed_multiply(static_cast<std::int32_t>(shortcut->at(f, oh, ow)) -
                                  shortcut->params.zero_point,
                              layer.shortcut_rescale);
        if (g.has_relu) q = std::max(q, zp_out);
        pre.at(f, oh, ow) = saturate_int8(q);
      }
    }
  }
  return pre;
}

// FU/Pool stage: int8-domain max or (rounded) average pooling.
QTensor apply_pool(const QLayer& layer, QTensor pre) {
  const nn::HwLayer& g = layer.geom;
  if (g.pool_kernel == 0 && !g.pool_is_global) return pre;

  QTensor out({g.out_c, g.out_h, g.out_w}, layer.out);
  if (g.pool_is_global) {
    const std::int64_t area = static_cast<std::int64_t>(g.conv_out_h) * g.conv_out_w;
    for (int f = 0; f < g.out_c; ++f) {
      std::int64_t sum = 0;
      for (int h = 0; h < g.conv_out_h; ++h)
        for (int w = 0; w < g.conv_out_w; ++w) sum += pre.at(f, h, w);
      out.at(f, 0, 0) = saturate_int8(rounded_div(sum, area));
    }
    return out;
  }

  for (int f = 0; f < g.out_c; ++f) {
    for (int oh = 0; oh < g.out_h; ++oh) {
      for (int ow = 0; ow < g.out_w; ++ow) {
        if (g.pool_is_max) {
          std::int8_t best = std::numeric_limits<std::int8_t>::min();
          for (int kh = 0; kh < g.pool_kernel; ++kh)
            for (int kw = 0; kw < g.pool_kernel; ++kw)
              best = std::max(best,
                              pre.at(f, oh * g.pool_stride + kh, ow * g.pool_stride + kw));
          out.at(f, oh, ow) = best;
        } else {
          std::int64_t sum = 0;
          for (int kh = 0; kh < g.pool_kernel; ++kh)
            for (int kw = 0; kw < g.pool_kernel; ++kw)
              sum += pre.at(f, oh * g.pool_stride + kh, ow * g.pool_stride + kw);
          out.at(f, oh, ow) = saturate_int8(
              rounded_div(sum, static_cast<std::int64_t>(g.pool_kernel) * g.pool_kernel));
        }
      }
    }
  }
  return out;
}

// DU stage: one drop bit per output filter in ascending order.
void apply_dropout(const QLayer& layer, QTensor& out, nn::MaskSource& masks,
                   FixedMultiplier dropout_keep) {
  const std::int32_t zp = layer.out.zero_point;
  const int plane = out.height() * out.width();
  for (int f = 0; f < out.channels(); ++f) {
    const bool drop = masks.next_drop();
    std::int8_t* row = out.data.data() + static_cast<std::size_t>(f) * plane;
    if (drop) {
      std::fill(row, row + plane, saturate_int8(zp));
    } else {
      for (int i = 0; i < plane; ++i)
        row[i] = saturate_int8(
            fixed_multiply(static_cast<std::int32_t>(row[i]) - zp, dropout_keep) + zp);
    }
  }
}

}  // namespace

QTensor ref_run_layer(const QLayer& layer, const QTensor& input, const QTensor* shortcut,
                      bool site_active, nn::MaskSource* masks, FixedMultiplier dropout_keep) {
  QTensor out = apply_pool(layer, compute_pre_pool(layer, input, shortcut));
  if (site_active) {
    util::require(masks != nullptr, "qops: active site requires a mask source");
    apply_dropout(layer, out, *masks, dropout_keep);
  }
  return out;
}

std::vector<QTensor> ref_forward(const QuantNetwork& net, const QTensor& image,
                                 int bayes_layers, nn::MaskSource* masks) {
  util::require(bayes_layers >= 0 && bayes_layers <= net.num_sites,
                "ref_forward: bayes_layers out of range");
  const int first_active_site = net.num_sites - bayes_layers;
  std::vector<QTensor> outputs;
  outputs.reserve(net.layers.size());
  for (const QLayer& layer : net.layers) {
    const QTensor& input =
        layer.input_source < 0 ? image
                               : outputs[static_cast<std::size_t>(layer.input_source)];
    const QTensor* shortcut =
        layer.geom.has_shortcut
            ? &outputs[static_cast<std::size_t>(layer.shortcut_source)]
            : nullptr;
    const bool active =
        layer.geom.is_bayes_site && layer.geom.site_index >= first_active_site;
    outputs.push_back(
        ref_run_layer(layer, input, shortcut, active, masks, net.dropout_keep));
  }
  return outputs;
}

nn::Tensor ref_logits(const QuantNetwork& net, const QTensor& final_output) {
  util::require(final_output.numel() == net.num_classes, "ref_logits: wrong output size");
  nn::Tensor logits({1, net.num_classes});
  for (int k = 0; k < net.num_classes; ++k)
    logits.v2(0, k) = final_output.params.scale *
                      static_cast<float>(final_output.data[static_cast<std::size_t>(k)] -
                                         final_output.params.zero_point);
  return logits;
}

nn::Tensor ref_mc_predict(const QuantNetwork& net, const nn::Tensor& images, int bayes_layers,
                          int num_samples, nn::MaskSource& masks) {
  // Legacy single-stream form: every (image, sample) forwards to the one
  // shared source, preserving the original sequential consumption order.
  struct Borrowed final : nn::MaskSource {
    explicit Borrowed(nn::MaskSource& inner) : inner_(inner) {}
    bool next_drop() override { return inner_.next_drop(); }
    nn::MaskSource& inner_;
  };
  return ref_mc_predict(net, images, bayes_layers, num_samples,
                        [&masks](int, int) { return std::make_unique<Borrowed>(masks); });
}

nn::Tensor ref_mc_predict(const QuantNetwork& net, const nn::Tensor& images, int bayes_layers,
                          int num_samples, const MaskStreamFactory& streams) {
  util::require(images.dim() == 4, "ref_mc_predict expects NCHW images");
  util::require(num_samples >= 1, "ref_mc_predict: need at least one sample");
  const int batch = images.size(0);
  // A deterministic network (L = 0) needs exactly one pass.
  const int samples = bayes_layers == 0 ? 1 : num_samples;
  nn::Tensor probs({batch, net.num_classes});
  for (int n = 0; n < batch; ++n) {
    const QTensor image = quantize_image(images, n, net.input);
    nn::Tensor accumulated({1, net.num_classes});
    for (int s = 0; s < samples; ++s) {
      const std::unique_ptr<nn::MaskSource> lane = streams(n, s);
      const std::vector<QTensor> outputs = ref_forward(net, image, bayes_layers, lane.get());
      accumulated.add_(nn::softmax_rows(ref_logits(net, outputs.back())));
    }
    accumulated.scale_(1.0f / static_cast<float>(samples));
    for (int k = 0; k < net.num_classes; ++k) probs.v2(n, k) = accumulated.v2(0, k);
  }
  return probs;
}

}  // namespace bnn::quant
