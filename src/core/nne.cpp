#include "core/nne.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "nn/bitpack_kernels.h"
#include "nn/gemm_kernels.h"
#include "util/check.h"

namespace bnn::core {

const std::vector<int>& pc_domain() {
  static const std::vector<int> domain{8, 16, 32, 64, 128};
  return domain;
}
const std::vector<int>& pf_domain() {
  static const std::vector<int> domain{8, 16, 32, 64, 128};
  return domain;
}
const std::vector<int>& pv_domain() {
  static const std::vector<int> domain{1, 4, 8, 16};
  return domain;
}

namespace {

using nn::kernels::Tier;

std::int64_t ceil_div(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

// Cycle cost of the layer's term reduction per (filter tile, position tile).
// A PURE function of geometry and configuration — never of the tier that
// actually executed (see the header: annotation drives the model, runtime
// activation values drive the execution, and the two may disagree).
std::int64_t modelled_term_tiles(const nn::HwLayer& layer, const NneConfig& config) {
  const std::int64_t terms =
      static_cast<std::int64_t>(layer.in_c) * layer.kernel * layer.kernel;
  const std::int64_t lane_terms =
      static_cast<std::int64_t>(config.pc) *
      (layer.weights_binarizable ? config.binary_term_parallelism : 1);
  return ceil_div(terms, lane_terms);
}

// Grows a vector to at least `n` elements, counting capacity growths
// (allocations). Never shrinks, so a layer call after a larger one neither
// frees nor re-zeroes anything; callers use the first `n` elements.
template <typename T>
void grow_to(std::vector<T>& vec, std::size_t n, std::uint64_t& grow_events) {
  if (n <= vec.size()) return;
  if (n > vec.capacity()) ++grow_events;
  vec.resize(n);
}

// Lowers a conv input into gemm_i8_zp's K-major panel: row t = (c, kh, kw)
// holds term t's input value at every output position, `zp` wherever the
// window reaches into padding, and `zp` again in the row's ldx padding. A
// padding term then contributes (zp - zp) * w = 0 to its sum — exactly the
// specification's skipped term.
void lower_conv_input(const nn::HwLayer& g, const std::int8_t* in, std::int8_t zp, int ldx,
                      std::int8_t* panel) {
  // Geometry in locals: the int8 stores below may alias any object, so
  // fields read through `g` would be reloaded after every one.
  const int in_h = g.in_h, in_w = g.in_w, kernel = g.kernel, stride = g.stride, pad = g.pad;
  const int out_h = g.conv_out_h, out_w = g.conv_out_w;
  const int positions = out_h * out_w;
  for (int c = 0; c < g.in_c; ++c) {
    const std::int8_t* plane = in + static_cast<std::size_t>(c) * in_h * in_w;
    for (int kh = 0; kh < kernel; ++kh) {
      for (int kw = 0; kw < kernel; ++kw) {
        std::int8_t* row = panel + static_cast<std::size_t>((c * kernel + kh) * kernel + kw) * ldx;
        // Output columns [ow_lo, ow_hi) read input column iw0 + ow * stride
        // inside the map; the rest of each output row is padding.
        const int iw0 = kw - pad;
        const int ow_lo =
            std::min(out_w, iw0 >= 0 ? 0 : static_cast<int>(ceil_div(-iw0, stride)));
        const int ow_hi = in_w - 1 - iw0 < 0 ? 0 : std::min(out_w, (in_w - 1 - iw0) / stride + 1);
        for (int oh = 0; oh < out_h; ++oh) {
          std::int8_t* dst = row + static_cast<std::size_t>(oh) * out_w;
          const int ih = oh * stride - pad + kh;
          if (ih < 0 || ih >= in_h || ow_lo >= ow_hi) {
            std::fill(dst, dst + out_w, zp);
            continue;
          }
          const std::int8_t* src = plane + static_cast<std::size_t>(ih) * in_w;
          std::fill(dst, dst + ow_lo, zp);
          if (stride == 1) {
            for (int ow = ow_lo; ow < ow_hi; ++ow) dst[ow] = src[iw0 + ow];
          } else {
            for (int ow = ow_lo; ow < ow_hi; ++ow) dst[ow] = src[iw0 + ow * stride];
          }
          std::fill(dst + ow_hi, dst + out_w, zp);
        }
        std::fill(row + positions, row + ldx, zp);
      }
    }
  }
}

}  // namespace

std::int64_t estimate_layer_cycles(const nn::HwLayer& layer, const NneConfig& config) {
  util::require(config.pc >= 1 && config.pf >= 1 && config.pv >= 1,
                "nne: parallelism degrees must be positive");
  util::require(config.binary_term_parallelism >= 1,
                "nne: binary_term_parallelism must be positive");
  const std::int64_t filter_tiles = ceil_div(layer.out_c, config.pf);
  const std::int64_t term_tiles = modelled_term_tiles(layer, config);
  const std::int64_t position_tiles =
      ceil_div(static_cast<std::int64_t>(layer.conv_out_h) * layer.conv_out_w, config.pv);
  return filter_tiles * term_tiles * position_tiles;
}

NneLayerStats nne_run_layer_into(const quant::QLayer& layer, const quant::LayerExecPlan& plan,
                                 const quant::QTensor& input, const quant::QTensor* shortcut,
                                 bool site_active, nn::MaskSource* masks,
                                 quant::FixedMultiplier dropout_keep, const NneConfig& config,
                                 nn::kernels::Tier tier, NneScratch& scratch,
                                 quant::QTensor& out) {
  const nn::HwLayer& g = layer.geom;
  const std::int32_t zp_in = layer.in.zero_point;
  const std::int32_t zp_out = layer.out.zero_point;
  util::require(!g.has_shortcut || shortcut != nullptr, "nne: missing shortcut operand");
  util::require(!site_active || masks != nullptr, "nne: active site requires a mask source");
  util::require(config.binary_term_parallelism >= 1,
                "nne: binary_term_parallelism must be positive");
  // The lowered panel stores padding terms as the zero point itself.
  util::require(zp_in >= -128 && zp_in <= 127, "nne: input zero point must fit int8");

  NneLayerStats stats;
  stats.macs_retired = g.macs();
  // The PE's PF x PC x PV tiling survives in the cycle charge alone: the
  // closed form, independent of which tier or kernel computed the sums.
  stats.compute_cycles = estimate_layer_cycles(g, config);

  const int positions = g.conv_out_h * g.conv_out_w;
  const int terms = plan.terms;

  const bool is_linear = g.op == nn::HwLayer::Op::linear;
  if (is_linear)
    util::require(input.numel() == g.in_c, "nne: linear input size mismatch");
  else
    util::require(input.channels() == g.in_c && input.height() == g.in_h &&
                      input.width() == g.in_w,
                  "nne: conv input shape mismatch");
  if (g.has_shortcut)
    util::require(shortcut->channels() == g.out_c && shortcut->height() == g.conv_out_h &&
                      shortcut->width() == g.conv_out_w,
                  "nne: shortcut shape mismatch");

  // Resolve the tier cap against this (layer, input) pair.
  std::int8_t lo = 0, hi = 0;
  if (tier == Tier::bitpack &&
      !(plan.weights_binarizable && quant::two_valued_activations(input, &lo, &hi)))
    tier = Tier::int8;
  const std::int32_t base = static_cast<std::int32_t>(lo) - zp_in;
  const std::int32_t delta = static_cast<std::int32_t>(hi) - lo;

  // The FU chain writes the pre-pool map; when there is no pool stage that
  // map IS the stored output, so write it there directly and keep
  // scratch.pre untouched (no buffer churn in the arena).
  const bool has_pool = g.pool_is_global || g.pool_kernel > 0;
  if (out.reset({g.out_c, g.out_h, g.out_w}, layer.out)) ++scratch.grow_events;
  quant::QTensor& pre = has_pool ? scratch.pre : out;
  if (has_pool &&
      scratch.pre.reset({g.out_c, g.conv_out_h, g.conv_out_w}, layer.out))
    ++scratch.grow_events;

  // The PE's retiring accumulators for the whole layer: one int32 term sum
  // per (filter, position), [out_c][positions]. Both tiers fill it; one FU
  // pass below retires it.
  grow_to(scratch.sums, static_cast<std::size_t>(g.out_c) * positions, scratch.grow_events);
  std::int32_t* sums = scratch.sums.data();

  const std::int8_t* in_data = input.data.data();

  // Packed-weight layers dropped their byte rows. The bitpack interior path
  // reads only the masks, but the int8 tier and conv border windows still
  // need byte rows — materialize them into the arena once per layer call
  // (exact reconstruction, so bits are unchanged).
  const bool has_border =
      !is_linear &&
      (g.pad > 0 || (g.conv_out_h - 1) * g.stride + g.kernel > g.in_h ||
       (g.conv_out_w - 1) * g.stride + g.kernel > g.in_w);
  const std::int8_t* wmatrix = layer.weights.data();
  if (layer.weights_packed && (tier != Tier::bitpack || has_border)) {
    grow_to(scratch.wrows, static_cast<std::size_t>(g.out_c) * terms, scratch.grow_events);
    for (int f = 0; f < g.out_c; ++f)
      layer.materialize_weight_row(f, scratch.wrows.data() +
                                          static_cast<std::size_t>(f) * terms);
    wmatrix = scratch.wrows.data();
  }
  const auto weight_row = [&](int f) {
    return wmatrix + static_cast<std::size_t>(f) * terms;
  };

  if (tier == Tier::int8 && is_linear) {
    for (int f = 0; f < g.out_c; ++f)
      sums[f] = nn::kernels::dot_i8_zp(in_data, weight_row(f), terms, zp_in);
  } else if (tier == Tier::int8) {
    // Lower every window once, then one GEMM computes every (filter,
    // position) sum: each lowered term feeds all filters and positions of a
    // register tile, the PE array's PF x PV reuse.
    const int ldx = nn::kernels::gemm_i8_ldx(positions);
    grow_to(scratch.panel, static_cast<std::size_t>(terms) * ldx, scratch.grow_events);
    lower_conv_input(g, in_data, static_cast<std::int8_t>(zp_in), ldx, scratch.panel.data());
    nn::kernels::gemm_i8_zp(g.out_c, positions, terms, wmatrix, scratch.panel.data(), ldx,
                            zp_in, sums, positions);
  } else if (is_linear) {
    // Packed reduction over the whole term range, one closed form per
    // filter (quant/qplan.h).
    grow_to(scratch.xbits, static_cast<std::size_t>(plan.words), scratch.grow_events);
    const std::int32_t x_pop =
        nn::kernels::pack_eq_bits(in_data, terms, hi, scratch.xbits.data());
    for (int f = 0; f < g.out_c; ++f)
      sums[f] = quant::packed_row_dot(plan, f, scratch.xbits.data(), x_pop, base, delta);
  } else {
    // Sign-pack each INTERIOR window once so every filter row reuses its
    // words; border windows take the bounds-checked border_dot, which skips
    // padding terms as the specification does.
    const std::int32_t* term_dh = plan.term_dh.data();
    const std::int32_t* term_dw = plan.term_dw.data();
    const std::int32_t* term_off = plan.term_off.data();
    const auto border_dot = [&](const std::int8_t* w, int ih0, int iw0) {
      std::int32_t sum = 0;
      for (int t = 0; t < terms; ++t) {
        const int ih = ih0 + term_dh[static_cast<std::size_t>(t)];
        const int iw = iw0 + term_dw[static_cast<std::size_t>(t)];
        if (ih < 0 || ih >= g.in_h || iw < 0 || iw >= g.in_w) continue;
        sum += (static_cast<std::int32_t>(
                    in_data[term_off[static_cast<std::size_t>(t)] +
                            static_cast<std::ptrdiff_t>(ih0) * g.in_w + iw0]) -
                zp_in) *
               static_cast<std::int32_t>(w[t]);
      }
      return sum;
    };
    grow_to(scratch.xbits, static_cast<std::size_t>(plan.words), scratch.grow_events);
    std::uint64_t* xbits = scratch.xbits.data();
    for (int p = 0; p < positions; ++p) {
      const int ih0 = p / g.conv_out_w * g.stride - g.pad;
      const int iw0 = p % g.conv_out_w * g.stride - g.pad;
      const bool interior =
          ih0 >= 0 && iw0 >= 0 && ih0 + g.kernel <= g.in_h && iw0 + g.kernel <= g.in_w;
      if (interior) {
        const std::int32_t x_pop = nn::kernels::pack_eq_bits_gather(
            in_data + static_cast<std::size_t>(ih0) * g.in_w + iw0, term_off, terms, hi, xbits);
        for (int f = 0; f < g.out_c; ++f)
          sums[static_cast<std::size_t>(f) * positions + p] =
              quant::packed_row_dot(plan, f, xbits, x_pop, base, delta);
      } else {
        for (int f = 0; f < g.out_c; ++f)
          sums[static_cast<std::size_t>(f) * positions + p] = border_dot(weight_row(f), ih0, iw0);
      }
    }
  }

  // FU chain, one pass over the sum plane: bias -> BN requant -> SC -> ReLU
  // -> saturate into the pre-pool map ([out_c][positions], the flat layout
  // of `pre` and of the shortcut operand). Operands in locals, since the
  // int8 stores may alias any object.
  const bool relu = g.has_relu;
  const std::int32_t sc_zero_point = g.has_shortcut ? shortcut->params.zero_point : 0;
  const quant::FixedMultiplier sc_rescale = layer.shortcut_rescale;
  for (int f = 0; f < g.out_c; ++f) {
    const std::int32_t bias = layer.bias[static_cast<std::size_t>(f)];
    const quant::FixedMultiplier requant = layer.requant[static_cast<std::size_t>(f)];
    const std::int32_t offset = layer.post_add[static_cast<std::size_t>(f)] + zp_out;
    const std::int32_t* row = sums + static_cast<std::size_t>(f) * positions;
    std::int8_t* dst = pre.data.data() + static_cast<std::size_t>(f) * positions;
    const std::int8_t* sc =
        g.has_shortcut ? shortcut->data.data() + static_cast<std::size_t>(f) * positions
                       : nullptr;
    for (int p = 0; p < positions; ++p) {
      std::int32_t q = quant::fixed_multiply(row[p] + bias, requant) + offset;
      if (sc != nullptr)
        q += quant::fixed_multiply(static_cast<std::int32_t>(sc[p]) - sc_zero_point, sc_rescale);
      if (relu) q = std::max(q, zp_out);
      dst[p] = quant::saturate_int8(q);
    }
  }

  // FU pool stage (pipelined; adds no throughput cycles).
  if (g.pool_is_global) {
    const std::int64_t area = static_cast<std::int64_t>(g.conv_out_h) * g.conv_out_w;
    for (int f = 0; f < g.out_c; ++f) {
      std::int64_t sum = 0;
      for (int h = 0; h < g.conv_out_h; ++h)
        for (int w = 0; w < g.conv_out_w; ++w) sum += pre.at(f, h, w);
      out.at(f, 0, 0) = quant::saturate_int8(quant::rounded_div(sum, area));
    }
  } else if (g.pool_kernel > 0) {
    for (int f = 0; f < g.out_c; ++f) {
      for (int oh = 0; oh < g.out_h; ++oh) {
        for (int ow = 0; ow < g.out_w; ++ow) {
          if (g.pool_is_max) {
            std::int8_t best = std::numeric_limits<std::int8_t>::min();
            for (int kh = 0; kh < g.pool_kernel; ++kh)
              for (int kw = 0; kw < g.pool_kernel; ++kw)
                best = std::max(
                    best, pre.at(f, oh * g.pool_stride + kh, ow * g.pool_stride + kw));
            out.at(f, oh, ow) = best;
          } else {
            std::int64_t sum = 0;
            for (int kh = 0; kh < g.pool_kernel; ++kh)
              for (int kw = 0; kw < g.pool_kernel; ++kw)
                sum += pre.at(f, oh * g.pool_stride + kh, ow * g.pool_stride + kw);
            out.at(f, oh, ow) = quant::saturate_int8(quant::rounded_div(
                sum, static_cast<std::int64_t>(g.pool_kernel) * g.pool_kernel));
          }
        }
      }
    }
  }
  // No pool: the FU chain already wrote `out` (pre aliases it).

  if (site_active) {
    apply_dropout_unit(out, *masks, dropout_keep);
    stats.mask_bits_consumed = g.out_c;
  }

  return stats;
}

void apply_dropout_unit(quant::QTensor& out, nn::MaskSource& masks,
                        quant::FixedMultiplier dropout_keep) {
  const std::int32_t zp = out.params.zero_point;
  const int plane = out.height() * out.width();
  for (int f = 0; f < out.channels(); ++f) {
    std::int8_t* row = out.data.data() + static_cast<std::size_t>(f) * plane;
    if (masks.next_drop()) {
      std::fill(row, row + plane, quant::saturate_int8(zp));
    } else {
      for (int i = 0; i < plane; ++i)
        row[i] = quant::saturate_int8(
            quant::fixed_multiply(static_cast<std::int32_t>(row[i]) - zp, dropout_keep) + zp);
    }
  }
}

NneLayerResult nne_run_layer(const quant::QLayer& layer, const quant::QTensor& input,
                             const quant::QTensor* shortcut, bool site_active,
                             nn::MaskSource* masks, quant::FixedMultiplier dropout_keep,
                             const NneConfig& config) {
  const quant::LayerExecPlan plan = quant::build_layer_exec_plan(layer);
  NneScratch scratch;
  NneLayerResult result;
  const NneLayerStats stats =
      nne_run_layer_into(layer, plan, input, shortcut, site_active, masks, dropout_keep,
                         config, nn::kernels::Tier::bitpack, scratch, result.output);
  result.compute_cycles = stats.compute_cycles;
  result.macs_retired = stats.macs_retired;
  result.mask_bits_consumed = stats.mask_bits_consumed;
  return result;
}

}  // namespace bnn::core
