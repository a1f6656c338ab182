#include "core/nne.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <utility>
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

// Copies `rows` rows of W bytes between strided planes. W is a template
// constant, so each row is a few fixed-size moves: conv rows here are 1 to
// 32 bytes, where a memcpy call per row costs more than the copy.
using RowCopy = void (*)(const std::int8_t* src, int src_stride, std::int8_t* dst,
                         int dst_stride, int rows, int width);

template <int W>
void copy_rows(const std::int8_t* src, int src_stride, std::int8_t* dst, int dst_stride,
               int rows, int /*width*/) {
  for (int r = 0; r < rows; ++r)
    std::memcpy(dst + static_cast<std::size_t>(r) * dst_stride,
                src + static_cast<std::size_t>(r) * src_stride, W);
}

void copy_rows_any(const std::int8_t* src, int src_stride, std::int8_t* dst, int dst_stride,
                   int rows, int width) {
  for (int r = 0; r < rows; ++r)
    std::memcpy(dst + static_cast<std::size_t>(r) * dst_stride,
                src + static_cast<std::size_t>(r) * src_stride, static_cast<std::size_t>(width));
}

template <int... Ws>
constexpr std::array<RowCopy, sizeof...(Ws)> fixed_row_copies(std::integer_sequence<int, Ws...>) {
  return {&copy_rows<Ws>...};
}

RowCopy row_copy_for(int width) {
  static constexpr auto table = fixed_row_copies(std::make_integer_sequence<int, 33>{});
  return width < static_cast<int>(table.size()) ? table[static_cast<std::size_t>(width)]
                                                : &copy_rows_any;
}

// Copies a conv input [in_c][in_h][in_w] into `padded`, [in_c][in_h + 2 pad]
// [in_w + 2 pad], with a `zp` border of `pad` on every side. Every window
// of the layer then lies inside the plane.
void pad_conv_input(const nn::HwLayer& g, const std::int8_t* in, std::int8_t zp,
                    std::int8_t* padded) {
  const int in_h = g.in_h, in_w = g.in_w, pad = g.pad;
  const int ph = in_h + 2 * pad, pw = in_w + 2 * pad;
  const RowCopy copy = row_copy_for(in_w);
  std::fill(padded, padded + static_cast<std::size_t>(g.in_c) * ph * pw, zp);
  for (int c = 0; c < g.in_c; ++c)
    copy(in + static_cast<std::size_t>(c) * in_h * in_w, in_w,
         padded + (static_cast<std::size_t>(c) * ph + pad) * pw + pad, pw, in_h, in_w);
}

// Gathers a strided term row: out_h rows of out_w bytes, every `stride`-th
// byte of every `stride`-th plane row.
void gather_rows(const std::int8_t* src, int pw, std::int8_t* dst, int out_h, int out_w,
                 int stride) {
  for (int oh = 0; oh < out_h; ++oh) {
    std::int8_t* out_row = dst + static_cast<std::size_t>(oh) * out_w;
    const std::int8_t* in_row = src + static_cast<std::size_t>(oh) * stride * pw;
    for (int ow = 0; ow < out_w; ++ow) out_row[ow] = in_row[ow * stride];
  }
}

// Lowers a conv input into the GEMM's grouped panel, [groups][ldx][4]
// (kernels::interleave_group flips each byte to u = x + 128): group g holds
// terms 4g..4g+3, term t = (c, kh, kw) taking its input value at every
// output position. `plane` is the input padded by pad_conv_input (the input
// itself for pad 0), so a window reaching into the padding reads the zero
// point there, and a padding term contributes (zp - zp) * w = 0 to its sum —
// exactly the specification's skipped term. A term row is out_h runs of
// out_w bytes `stride` apart, the runs stride * pw apart in the plane (a
// 1x1 stride-1 conv's row is its whole channel plane, one run), and a full
// group is interleaved straight from the plane. Stride-1 runs that do not
// fill whole 16-position vectors are first copied into `stage`'s four
// ldx-long rows instead: a scalar interleave of the short runs measured
// twice as slow. The tail group is staged too, its rows past the last term
// filled with -128, so they hold u = 0. Columns past the positions are left
// as they were: the GEMM reads them but never stores what they produce.
void lower_conv_input(const nn::HwLayer& g, const std::int8_t* plane, int ldx,
                      std::int8_t* stage, std::uint8_t* panel) {
  // Geometry in locals: the int8 stores below may alias any object, so
  // fields read through `g` would be reloaded after every one.
  const int kernel = g.kernel, stride = g.stride;
  const int ph = g.in_h + 2 * g.pad, pw = g.in_w + 2 * g.pad;
  const int out_h = g.conv_out_h, out_w = g.conv_out_w;
  const int terms = g.in_c * kernel * kernel, groups = nn::kernels::gemm_i8_groups(terms);
  const bool whole_plane = stride == 1 && out_w == pw;
  const bool direct = stride > 1 || whole_plane || out_w % 16 == 0;
  const int runs = whole_plane ? 1 : out_h, run = whole_plane ? out_h * out_w : out_w;
  const RowCopy copy = row_copy_for(out_w);
  int c = 0, kh = 0, kw = 0;  // the next term's (c, kh, kw)
  for (int grp = 0; grp < groups; ++grp) {
    std::uint8_t* dst = panel + static_cast<std::size_t>(grp) * ldx * 4;
    const std::int8_t* rows[4];
    const int count = std::min(4, terms - 4 * grp);
    for (int j = 0; j < count; ++j) {
      rows[j] = plane + (static_cast<std::size_t>(c) * ph + kh) * pw + kw;
      if (++kw == kernel) {
        kw = 0;
        if (++kh == kernel) {
          kh = 0;
          ++c;
        }
      }
    }
    if (direct && count == 4) {
      nn::kernels::interleave_group(rows, runs, run, stride * pw, stride, dst);
      continue;
    }
    for (int j = 0; j < 4; ++j) {
      std::int8_t* staged = stage + static_cast<std::size_t>(j) * ldx;
      if (j >= count)
        std::fill(staged, staged + ldx, std::numeric_limits<std::int8_t>::min());
      else if (stride == 1)
        copy(rows[j], pw, staged, out_w, out_h, out_w);
      else
        gather_rows(rows[j], pw, staged, out_h, out_w, stride);
      rows[j] = staged;
    }
    nn::kernels::interleave_group(rows, 1, ldx, 0, 1, dst);
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

void nne_lower(const quant::QLayer& layer, const quant::QTensor& input, NneScratch& scratch) {
  const nn::HwLayer& g = layer.geom;
  const std::int32_t zp_in = layer.in.zero_point;
  const std::int8_t* plane = input.data.data();
  if (g.pad > 0) {
    grow_to(scratch.padded,
            static_cast<std::size_t>(g.in_c) * (g.in_h + 2 * g.pad) * (g.in_w + 2 * g.pad),
            scratch.grow_events);
    pad_conv_input(g, plane, static_cast<std::int8_t>(zp_in), scratch.padded.data());
    plane = scratch.padded.data();
  }
  const int ldx = nn::kernels::gemm_i8_ldx(g.conv_out_h * g.conv_out_w);
  const int groups = nn::kernels::gemm_i8_groups(g.in_c * g.kernel * g.kernel);
  grow_to(scratch.panel, static_cast<std::size_t>(groups) * ldx * 4, scratch.grow_events);
  grow_to(scratch.stage, static_cast<std::size_t>(4) * ldx, scratch.grow_events);
  lower_conv_input(g, plane, ldx, scratch.stage.data(), scratch.panel.data());
}

void nne_gemm(const quant::QLayer& layer, const quant::LayerExecPlan& plan,
              const std::int8_t* weights, NneScratch& scratch) {
  const nn::HwLayer& g = layer.geom;
  const int positions = g.conv_out_h * g.conv_out_w;
  const int ldx = nn::kernels::gemm_i8_ldx(positions);
  util::require(plan.correction.size() == static_cast<std::size_t>(g.out_c),
                "nne: plan lacks the zero-point correction of a conv layer");
  grow_to(scratch.sums, static_cast<std::size_t>(g.out_c) * positions, scratch.grow_events);
  if (nn::kernels::gemm_i8_filter_vectorized(positions)) {
    util::require(plan.ldw == nn::kernels::gemm_i8_ldw(g.out_c) &&
                      plan.weights_kmajor.size() ==
                          static_cast<std::size_t>(nn::kernels::gemm_i8_groups(plan.terms)) *
                              plan.ldw * 4,
                  "nne: plan lacks the K-major weight copy of a small-map layer");
    nn::kernels::gemm_u8i8_kmajor(g.out_c, positions, plan.terms, plan.weights_kmajor.data(),
                                  plan.ldw, scratch.panel.data(), ldx, plan.correction.data(),
                                  scratch.sums.data(), positions);
  } else {
    nn::kernels::gemm_u8i8(g.out_c, positions, plan.terms, weights, scratch.panel.data(), ldx,
                           plan.correction.data(), scratch.sums.data(), positions);
  }
}

void nne_requant(const quant::QLayer& layer, const std::int32_t* sums,
                 const quant::QTensor* shortcut, quant::QTensor& pre) {
  const nn::HwLayer& g = layer.geom;
  util::require(layer.bias.size() == static_cast<std::size_t>(g.out_c) &&
                    layer.requant.size() == static_cast<std::size_t>(g.out_c) &&
                    layer.post_add.size() == static_cast<std::size_t>(g.out_c),
                "nne: layer lacks per-filter FU constants");
  nn::kernels::RequantPlane fu;
  fu.bias = layer.bias.data();
  fu.requant = layer.requant.data();
  fu.post_add = layer.post_add.data();
  fu.zero_point = layer.out.zero_point;
  fu.relu = g.has_relu;
  if (g.has_shortcut) {
    fu.sc = shortcut->data.data();
    fu.sc_zero_point = shortcut->params.zero_point;
    fu.sc_rescale = layer.shortcut_rescale;
  }
  nn::kernels::requant_plane(sums, g.out_c, g.conv_out_h * g.conv_out_w, fu, pre.data.data());
}

void nne_pool(const nn::HwLayer& g, const quant::QTensor& pre, quant::QTensor& out) {
  const int pre_h = g.conv_out_h, pre_w = g.conv_out_w;
  if (g.pool_is_global) {
    const std::int64_t area = static_cast<std::int64_t>(pre_h) * pre_w;
    for (int f = 0; f < g.out_c; ++f) {
      const std::int8_t* plane = pre.data.data() + static_cast<std::size_t>(f) * area;
      std::int64_t sum = 0;
      for (std::int64_t i = 0; i < area; ++i) sum += plane[i];
      out.data[static_cast<std::size_t>(f)] =
          quant::saturate_int8(quant::rounded_div(sum, area));
    }
    return;
  }
  if (g.pool_kernel <= 0) return;
  const int pk = g.pool_kernel, ps = g.pool_stride, out_h = g.out_h, out_w = g.out_w;
  const bool is_max = g.pool_is_max;
  if (is_max && pk == 2 && ps == 2) {
    // The paper nets' 2 x 2 max pool: two pre-pool rows per output row.
    for (int row = 0; row < g.out_c * out_h; ++row) {
      const int f = row / out_h, oh = row % out_h;
      const std::int8_t* r0 =
          pre.data.data() + (static_cast<std::size_t>(f) * pre_h + 2 * oh) * pre_w;
      const std::int8_t* r1 = r0 + pre_w;
      std::int8_t* dst = out.data.data() + static_cast<std::size_t>(row) * out_w;
      for (int ow = 0; ow < out_w; ++ow)
        dst[ow] = std::max(std::max(r0[2 * ow], r0[2 * ow + 1]),
                           std::max(r1[2 * ow], r1[2 * ow + 1]));
    }
    return;
  }
  const std::int64_t window = static_cast<std::int64_t>(pk) * pk;
  for (int f = 0; f < g.out_c; ++f) {
    const std::int8_t* plane = pre.data.data() + static_cast<std::size_t>(f) * pre_h * pre_w;
    std::int8_t* dst = out.data.data() + static_cast<std::size_t>(f) * out_h * out_w;
    for (int oh = 0; oh < out_h; ++oh) {
      const std::int8_t* top = plane + static_cast<std::size_t>(oh) * ps * pre_w;
      for (int ow = 0; ow < out_w; ++ow) {
        const std::int8_t* corner = top + static_cast<std::size_t>(ow) * ps;
        if (is_max) {
          std::int8_t best = std::numeric_limits<std::int8_t>::min();
          for (int kh = 0; kh < pk; ++kh)
            for (int kw = 0; kw < pk; ++kw)
              best = std::max(best, corner[static_cast<std::size_t>(kh) * pre_w + kw]);
          dst[oh * out_w + ow] = best;
        } else {
          std::int64_t sum = 0;
          for (int kh = 0; kh < pk; ++kh)
            for (int kw = 0; kw < pk; ++kw)
              sum += corner[static_cast<std::size_t>(kh) * pre_w + kw];
          dst[oh * out_w + ow] = quant::saturate_int8(quant::rounded_div(sum, window));
        }
      }
    }
  }
}

NneLayerStats nne_run_layer_into(const quant::QLayer& layer, const quant::LayerExecPlan& plan,
                                 const quant::QTensor& input, const quant::QTensor* shortcut,
                                 bool site_active, nn::MaskSource* masks,
                                 quant::FixedMultiplier dropout_keep, const NneConfig& config,
                                 nn::kernels::Tier tier, NneScratch& scratch,
                                 quant::QTensor& out) {
  const nn::HwLayer& g = layer.geom;
  const std::int32_t zp_in = layer.in.zero_point;
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
  // reads only the masks, and a small-map int8 conv reads the plan's K-major
  // copy, but the other int8 paths and conv border windows still need byte
  // rows — materialize them into the arena once per layer call (exact
  // reconstruction, so bits are unchanged).
  const bool has_border =
      !is_linear &&
      (g.pad > 0 || (g.conv_out_h - 1) * g.stride + g.kernel > g.in_h ||
       (g.conv_out_w - 1) * g.stride + g.kernel > g.in_w);
  const bool kmajor =
      tier == Tier::int8 && (is_linear || nn::kernels::gemm_i8_filter_vectorized(positions));
  const std::int8_t* wmatrix = layer.weights.data();
  if (layer.weights_packed && !kmajor && (tier != Tier::bitpack || has_border)) {
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
    // The specification's 1x1 conv over a 1x1 map: the input row, flipped
    // once to u = x + 128 and padded with zeros to whole four-term groups
    // (their weights are 0), is the one-position panel of the filter tile
    // over the plan's grouped K-major copy.
    const int padded_terms = 4 * nn::kernels::gemm_i8_groups(terms);
    util::require(plan.correction.size() == static_cast<std::size_t>(g.out_c) &&
                      plan.ldw == nn::kernels::gemm_i8_ldw(g.out_c) &&
                      plan.weights_kmajor.size() ==
                          static_cast<std::size_t>(padded_terms) * plan.ldw,
                  "nne: plan lacks the K-major weight copy of a linear layer");
    grow_to(scratch.panel, static_cast<std::size_t>(padded_terms), scratch.grow_events);
    std::uint8_t* u = scratch.panel.data();
    for (int t = 0; t < terms; ++t) u[t] = static_cast<std::uint8_t>(in_data[t]) ^ 0x80u;
    std::fill(u + terms, u + padded_terms, std::uint8_t{0});
    nn::kernels::gemm_u8i8_kmajor(g.out_c, 1, terms, plan.weights_kmajor.data(), plan.ldw, u, 1,
                                  plan.correction.data(), sums, 1);
  } else if (tier == Tier::int8) {
    // Lower every window once, then one GEMM computes every (filter,
    // position) sum: each lowered term feeds all filters and positions of a
    // register tile, the PE array's PF x PV reuse.
    nne_lower(layer, input, scratch);
    nne_gemm(layer, plan, wmatrix, scratch);
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

  // FU chain, one pass over the sum plane, then the pool stage (pipelined;
  // adds no throughput cycles).
  nne_requant(layer, sums, shortcut, pre);
  nne_pool(g, pre, out);
  // No pool: the FU chain already wrote `out` (pre aliases it).

  if (site_active) {
    apply_dropout_unit(out, *masks, dropout_keep);
    stats.mask_bits_consumed = g.out_c;
  }

  return stats;
}

void apply_dropout_unit(quant::QTensor& out, nn::MaskSource& masks,
                        quant::FixedMultiplier dropout_keep) {
  // The site's decisions in ascending filter order, drawn as whole words
  // into a stack block (one block covers every layer up to kBlockRows
  // filters), then one plane call per block: dropped planes become the
  // zero point, kept ones are rescaled about it,
  // saturate(fixed_multiply(x - zp, keep) + zp).
  constexpr int kBlockRows = 4096;
  std::uint64_t drop[kBlockRows / 64] = {};
  const int plane = out.height() * out.width();
  for (int f0 = 0; f0 < out.channels(); f0 += kBlockRows) {
    const int rows = std::min(kBlockRows, out.channels() - f0);
    masks.draw_drops(rows, drop);
    nn::kernels::dropout_plane(out.data.data() + static_cast<std::size_t>(f0) * plane, rows,
                               plane, drop, out.params.zero_point, dropout_keep);
  }
}

}  // namespace bnn::core
