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

// Grows a vector to `n` elements, counting capacity growths (allocations).
template <typename T>
void grow_to(std::vector<T>& vec, std::size_t n, std::uint64_t& grow_events) {
  if (n > vec.capacity()) ++grow_events;
  vec.resize(n);
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

  NneLayerStats stats;
  stats.macs_retired = g.macs();

  const int positions = g.conv_out_h * g.conv_out_w;
  const int terms = plan.terms;
  const std::int64_t filter_tiles = ceil_div(g.out_c, config.pf);
  const std::int64_t term_tiles = ceil_div(terms, config.pc);
  const std::int64_t position_tiles = ceil_div(positions, config.pv);
  const std::int64_t model_tiles = modelled_term_tiles(g, config);

  const bool is_linear = g.op == nn::HwLayer::Op::linear;
  if (is_linear)
    util::require(input.numel() == g.in_c, "nne: linear input size mismatch");
  else
    util::require(input.channels() == g.in_c && input.height() == g.in_h &&
                      input.width() == g.in_w,
                  "nne: conv input shape mismatch");

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

  // Accumulators: one per (PU filter lane, PV position lane).
  grow_to(scratch.acc, static_cast<std::size_t>(config.pf) * config.pv, scratch.grow_events);
  std::int32_t* acc = scratch.acc.data();

  const std::int8_t* in_data = input.data.data();
  const std::int32_t* term_dh = plan.term_dh.data();
  const std::int32_t* term_dw = plan.term_dw.data();
  const std::int32_t* term_off = plan.term_off.data();

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

  // Packed-activation prepass (bitpack tier only): sign-pack the input once
  // per layer so every filter row reuses the same window words. Linear
  // layers pack the whole input vector; conv layers pack each INTERIOR
  // window (border windows keep the checked loop in both tiers, so border
  // bits agree across tiers by construction).
  std::int32_t x_pop_linear = 0;
  if (tier == Tier::bitpack) {
    if (is_linear) {
      grow_to(scratch.xbits, static_cast<std::size_t>(plan.words), scratch.grow_events);
      x_pop_linear = nn::kernels::pack_eq_bits(in_data, terms, hi, scratch.xbits.data());
    } else {
      grow_to(scratch.xbits, static_cast<std::size_t>(positions) * plan.words,
              scratch.grow_events);
      grow_to(scratch.x_pop, static_cast<std::size_t>(positions), scratch.grow_events);
      for (int p = 0; p < positions; ++p) {
        const int oh = p / g.conv_out_w;
        const int ow = p % g.conv_out_w;
        const int ih0 = oh * g.stride - g.pad;
        const int iw0 = ow * g.stride - g.pad;
        if (ih0 >= 0 && iw0 >= 0 && ih0 + g.kernel <= g.in_h && iw0 + g.kernel <= g.in_w)
          scratch.x_pop[static_cast<std::size_t>(p)] = nn::kernels::pack_eq_bits_gather(
              in_data + static_cast<std::size_t>(ih0) * g.in_w + iw0, term_off, terms, hi,
              scratch.xbits.data() + static_cast<std::size_t>(p) * plan.words);
      }
    }
  }

  // Border window: padding terms contribute zero; every term bound-checked.
  const auto border_dot = [&](const std::int8_t* w, int ih0, int iw0, int t_begin,
                              int t_end) {
    std::int32_t sum = 0;
    for (int t = t_begin; t < t_end; ++t) {
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

  for (std::int64_t ft = 0; ft < filter_tiles; ++ft) {
    const int f_base = static_cast<int>(ft) * config.pf;
    const int f_count = std::min(config.pf, g.out_c - f_base);
    for (std::int64_t pt = 0; pt < position_tiles; ++pt) {
      const int p_base = static_cast<int>(pt) * config.pv;
      const int p_count = std::min(config.pv, positions - p_base);

      // Bias preload into the accumulators.
      for (int fl = 0; fl < f_count; ++fl)
        for (int vl = 0; vl < p_count; ++vl)
          acc[static_cast<std::size_t>(fl) * config.pv + vl] =
              layer.bias[static_cast<std::size_t>(f_base + fl)];

      if (tier == Tier::bitpack) {
        // Packed reduction: whole term range in one closed form per
        // (filter, position) lane — int32 addition is associative, so
        // skipping the channel-tile partial sums is bit-exact.
        for (int fl = 0; fl < f_count; ++fl) {
          const int f = f_base + fl;
          for (int vl = 0; vl < p_count; ++vl) {
            const int position = p_base + vl;
            std::int32_t tree;
            if (is_linear) {
              tree = quant::packed_row_dot(plan, f, scratch.xbits.data(), x_pop_linear, base,
                                           delta);
            } else {
              const int oh = position / g.conv_out_w;
              const int ow = position % g.conv_out_w;
              const int ih0 = oh * g.stride - g.pad;
              const int iw0 = ow * g.stride - g.pad;
              if (ih0 >= 0 && iw0 >= 0 && ih0 + g.kernel <= g.in_h &&
                  iw0 + g.kernel <= g.in_w) {
                tree = quant::packed_row_dot(
                    plan, f,
                    scratch.xbits.data() + static_cast<std::size_t>(position) * plan.words,
                    scratch.x_pop[static_cast<std::size_t>(position)], base, delta);
              } else {
                tree = border_dot(weight_row(f), ih0, iw0, 0, terms);
              }
            }
            acc[static_cast<std::size_t>(fl) * config.pv + vl] += tree;
          }
        }
      } else {
        // Channel-tile loop: PC multipliers + adder tree per (filter,
        // position) lane.
        for (std::int64_t ct = 0; ct < term_tiles; ++ct) {
          const int t_base = static_cast<int>(ct) * config.pc;
          const int t_count = std::min(config.pc, terms - t_base);
          for (int fl = 0; fl < f_count; ++fl) {
            const std::int8_t* w = weight_row(f_base + fl);
            for (int vl = 0; vl < p_count; ++vl) {
              const int position = p_base + vl;
              // Adder-tree partial sum for this cycle. int32 accumulation is
              // exact, so the vectorized dot kernels are bit-identical to the
              // spec's per-term loop.
              std::int32_t tree = 0;
              if (is_linear) {
                tree = nn::kernels::dot_i8_zp(in_data + t_base, w + t_base, t_count, zp_in);
              } else {
                const int oh = position / g.conv_out_w;
                const int ow = position % g.conv_out_w;
                const int ih0 = oh * g.stride - g.pad;
                const int iw0 = ow * g.stride - g.pad;
                if (ih0 >= 0 && iw0 >= 0 && ih0 + g.kernel <= g.in_h &&
                    iw0 + g.kernel <= g.in_w) {
                  // Interior window: every term is in bounds, gather through
                  // the precomputed offset table.
                  tree = nn::kernels::dot_i8_zp_gather(
                      in_data + static_cast<std::size_t>(ih0) * g.in_w + iw0,
                      term_off + t_base, w + t_base, t_count, zp_in);
                } else {
                  tree = border_dot(w, ih0, iw0, t_base, t_base + t_count);
                }
              }
              acc[static_cast<std::size_t>(fl) * config.pv + vl] += tree;
            }
          }
        }
      }
      // Cycle charge for the term reduction of this (ft, pt) tile — the
      // modelled count, independent of which tier actually executed.
      stats.compute_cycles += model_tiles;

      // FU chain on the retiring accumulators: BN requant -> SC -> ReLU.
      for (int fl = 0; fl < f_count; ++fl) {
        const int f = f_base + fl;
        for (int vl = 0; vl < p_count; ++vl) {
          const int position = p_base + vl;
          const int oh = position / g.conv_out_w;
          const int ow = position % g.conv_out_w;
          std::int32_t q =
              quant::fixed_multiply(acc[static_cast<std::size_t>(fl) * config.pv + vl],
                                    layer.requant[static_cast<std::size_t>(f)]) +
              layer.post_add[static_cast<std::size_t>(f)] + zp_out;
          if (g.has_shortcut)
            q += quant::fixed_multiply(
                static_cast<std::int32_t>(shortcut->at(f, oh, ow)) -
                    shortcut->params.zero_point,
                layer.shortcut_rescale);
          if (g.has_relu) q = std::max(q, zp_out);
          pre.at(f, oh, ow) = quant::saturate_int8(q);
        }
      }
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
