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

// Copies a block's conv input, [in_c][samples][in_h][in_w], into `padded`,
// [in_c][samples][in_h + 2 pad][in_w + 2 pad], with a `zp` border of `pad`
// on every side of every sample's map. Every window of the layer then lies
// inside its own sample's map.
void pad_conv_input(const nn::HwLayer& g, int samples, const std::int8_t* in, std::int8_t zp,
                    std::int8_t* padded) {
  const int in_h = g.in_h, in_w = g.in_w, pad = g.pad;
  const int ph = in_h + 2 * pad, pw = in_w + 2 * pad, maps = g.in_c * samples;
  const RowCopy copy = row_copy_for(in_w);
  std::fill(padded, padded + static_cast<std::size_t>(maps) * ph * pw, zp);
  for (int m = 0; m < maps; ++m)
    copy(in + static_cast<std::size_t>(m) * in_h * in_w, in_w,
         padded + (static_cast<std::size_t>(m) * ph + pad) * pw + pad, pw, in_h, in_w);
}

// Whether a layer's conv input is staged before it is interleaved:
// stride-1 rows that do not fill whole 16-position vectors (and are not
// the whole plane).
bool stages_input(const nn::HwLayer& g) {
  const int pw = g.in_w + 2 * g.pad;
  return g.stride == 1 && g.conv_out_w != pw && g.conv_out_w % 16 != 0;
}

// Lowers a block's conv input into the GEMM's grouped panel, [groups][ldx]
// [4] (kernels::interleave_group flips each byte to u = x + 128): group g
// holds terms 4g..4g+3, term t = (c, kh, kw) taking its input value at every
// output position of every sample, sample b's positions in columns
// [b * P, (b + 1) * P). `plane` is the input padded by pad_conv_input (the
// input itself for pad 0), so a window reaching into the padding reads its
// own sample's zero point there, and a padding term contributes
// (zp - zp) * w = 0 to its sum — exactly the specification's skipped term.
// A term row of one sample is out_h runs of out_w bytes `stride` apart, the
// runs stride * pw apart in the map (a 1x1 stride-1 conv's row is its whole
// channel plane, and the block's maps of one channel are adjacent, so the
// whole block is one run), and a group is interleaved straight from the
// plane, one call per sample. Stride-1 runs that do not fill whole
// 16-position vectors are staged instead (stages_input): each (channel, kw,
// sample) map is copied once, all ph rows of it from column kw, into
// `stage`, [in_c][kernel][samples][ph][out_w], where term (c, kh, kw) of a
// sample is the contiguous run of out_h * out_w bytes from row kh, and one
// call per group interleaves the block's runs, ph * out_w bytes apart (a
// scalar interleave of the short runs measured twice as slow, and a copy
// per term row and output row four times as many copies). The tail group's
// rows past the last term repeat its first (their weights are 0). Columns
// past the positions are left as they were: the GEMM reads them but never
// stores what they produce.
void lower_conv_input(const nn::HwLayer& g, int samples, const std::int8_t* plane, int ldx,
                      std::int8_t* stage, std::uint8_t* panel) {
  // Geometry in locals: the int8 stores below may alias any object, so
  // fields read through `g` would be reloaded after every one.
  const int kernel = g.kernel, stride = g.stride;
  const int ph = g.in_h + 2 * g.pad, pw = g.in_w + 2 * g.pad;
  const int out_h = g.conv_out_h, out_w = g.conv_out_w, positions = out_h * out_w;
  const std::size_t map = static_cast<std::size_t>(ph) * pw;  // one sample's padded map
  const int terms = g.in_c * kernel * kernel, groups = nn::kernels::gemm_i8_groups(terms);
  const bool whole_plane = stride == 1 && out_w == pw, staged = stages_input(g);
  const std::size_t band = static_cast<std::size_t>(ph) * out_w;  // one staged map
  if (staged) {
    const RowCopy copy = row_copy_for(out_w);
    std::int8_t* to = stage;
    for (int c = 0; c < g.in_c; ++c)
      for (int kw = 0; kw < kernel; ++kw)
        for (int b = 0; b < samples; ++b, to += band)
          copy(plane + (static_cast<std::size_t>(c) * samples + b) * map + kw, pw, to, out_w,
               ph, out_w);
  }
  // Sample 0's term row t, and how the block's rows are laid out: in the
  // stage, `samples` runs of a sample's positions, band bytes apart; in the
  // plane, per sample (calls), out_h runs or one.
  const auto term_row = [&](int c, int kh, int kw) -> const std::int8_t* {
    if (staged)
      return stage + (static_cast<std::size_t>(c) * kernel + kw) * samples * band +
             static_cast<std::size_t>(kh) * out_w;
    return plane + (static_cast<std::size_t>(c) * samples * ph + kh) * pw + kw;
  };
  const int calls = staged || whole_plane ? 1 : samples;
  const int runs = staged ? samples : whole_plane ? 1 : out_h;
  const int run = staged ? positions : whole_plane ? samples * positions : out_w;
  const int pitch = staged ? static_cast<int>(band) : stride * pw;
  int c = 0, kh = 0, kw = 0;  // the next term's (c, kh, kw)
  for (int grp = 0; grp < groups; ++grp) {
    std::uint8_t* dst = panel + static_cast<std::size_t>(grp) * ldx * 4;
    const std::int8_t* rows[4] = {};
    const int count = std::min(4, terms - 4 * grp);
    for (int j = 0; j < 4; ++j) {
      if (j >= count) {
        rows[j] = rows[0];
        continue;
      }
      rows[j] = term_row(c, kh, kw);
      if (++kw == kernel) {
        kw = 0;
        if (++kh == kernel) {
          kh = 0;
          ++c;
        }
      }
    }
    for (int b = 0; b < calls; ++b) {
      const std::size_t at = static_cast<std::size_t>(b) * map;
      const std::int8_t* const sample_rows[4] = {rows[0] + at, rows[1] + at, rows[2] + at,
                                                 rows[3] + at};
      nn::kernels::interleave_group(sample_rows, runs, run, pitch, stride,
                                    dst + static_cast<std::size_t>(b) * positions * 4);
    }
  }
}

// Lowers a block's linear input into the one-position-per-sample panel of
// the filter tile, [groups][samples][4] as u = x + 128. The input is the
// flattened [C][samples][hw] of the layer before (hw = 1 after a linear
// layer or a global pool), so term t = (c, i) of sample b sits at
// (c * samples + b) * hw + i: a group's four term rows are read `hw` bytes
// per sample apart, and each sample's four terms are stored as one word (a
// word assembled from four byte stores would stall the GEMM's word loads).
// A tail group's rows past the last term read the first term's (their
// weights are 0). One sample's panel is its row itself, flipped in one
// vectorized pass with tail terms 0: the word loop is exact there too, but
// costs 70-350 ns against 4-19 ns per call on the six networks' linear
// inputs, which made a one-sample linear layer up to half again as slow
// (nne_samples/<net>/L<l>/1 rows on a 4-vCPU AVX512-VNNI host, e.g.
// LeNet-5 L4 314 -> 460 ns).
void lower_linear_input(int terms, int samples, int hw, const std::int8_t* in,
                        std::uint8_t* panel) {
  const int groups = nn::kernels::gemm_i8_groups(terms);
  if (samples == 1) {
    for (int t = 0; t < terms; ++t) panel[t] = static_cast<std::uint8_t>(in[t]) ^ 0x80u;
    std::fill(panel + terms, panel + 4 * groups, std::uint8_t{0});
    return;
  }
  const std::size_t pitch = static_cast<std::size_t>(samples) * hw;
  int c = 0, i = 0;  // the next term's channel and map offset
  for (int grp = 0; grp < groups; ++grp) {
    const std::int8_t* rows[4];
    const int count = std::min(4, terms - 4 * grp);
    for (int j = 0; j < 4; ++j) {
      if (j >= count) {
        rows[j] = in;
        continue;
      }
      rows[j] = in + static_cast<std::size_t>(c) * pitch + i;
      if (++i == hw) {
        i = 0;
        ++c;
      }
    }
    std::uint8_t* dst = panel + static_cast<std::size_t>(grp) * samples * 4;
    for (int b = 0; b < samples; ++b) {
      const std::size_t at = static_cast<std::size_t>(b) * hw;
      const auto byte = [at](const std::int8_t* r) {
        return static_cast<std::uint32_t>(static_cast<std::uint8_t>(r[at]));
      };
      const std::uint32_t word =
          (byte(rows[0]) | byte(rows[1]) << 8 | byte(rows[2]) << 16 | byte(rows[3]) << 24) ^
          0x80808080u;
      std::memcpy(dst + static_cast<std::size_t>(b) * 4, &word, 4);
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

void nne_lower(const quant::QLayer& layer, int samples, const quant::QTensor& input,
               NneScratch& scratch) {
  const nn::HwLayer& g = layer.geom;
  const std::int32_t zp_in = layer.in.zero_point;
  const std::int8_t* plane = input.data.data();
  if (g.pad > 0) {
    grow_to(scratch.padded,
            static_cast<std::size_t>(g.in_c) * samples * (g.in_h + 2 * g.pad) *
                (g.in_w + 2 * g.pad),
            scratch.grow_events);
    pad_conv_input(g, samples, plane, static_cast<std::int8_t>(zp_in), scratch.padded.data());
    plane = scratch.padded.data();
  }
  const int ldx = nn::kernels::gemm_i8_ldx(samples * g.conv_out_h * g.conv_out_w);
  const int groups = nn::kernels::gemm_i8_groups(g.in_c * g.kernel * g.kernel);
  grow_to(scratch.panel, static_cast<std::size_t>(groups) * ldx * 4, scratch.grow_events);
  if (stages_input(g))
    grow_to(scratch.stage,
            static_cast<std::size_t>(g.in_c) * g.kernel * samples * (g.in_h + 2 * g.pad) *
                g.conv_out_w,
            scratch.grow_events);
  lower_conv_input(g, samples, plane, ldx, scratch.stage.data(), scratch.panel.data());
}

void nne_gemm(const quant::QLayer& layer, const quant::LayerExecPlan& plan, int samples,
              const std::int8_t* weights, NneScratch& scratch) {
  const nn::HwLayer& g = layer.geom;
  const int n = samples * g.conv_out_h * g.conv_out_w;
  const int ldx = nn::kernels::gemm_i8_ldx(n);
  util::require(plan.correction.size() == static_cast<std::size_t>(g.out_c),
                "nne: plan lacks the zero-point correction of a conv layer");
  grow_to(scratch.sums, static_cast<std::size_t>(g.out_c) * n, scratch.grow_events);
  if (nn::kernels::gemm_i8_filter_vectorized(n)) {
    // n < 16 implies positions < 16, so the plan carries the copy.
    util::require(plan.ldw == nn::kernels::gemm_i8_ldw(g.out_c) &&
                      plan.weights_kmajor.size() ==
                          static_cast<std::size_t>(nn::kernels::gemm_i8_groups(plan.terms)) *
                              plan.ldw * 4,
                  "nne: plan lacks the K-major weight copy of a small-map layer");
    nn::kernels::gemm_u8i8_kmajor(g.out_c, n, plan.terms, plan.weights_kmajor.data(), plan.ldw,
                                  scratch.panel.data(), ldx, plan.correction.data(),
                                  scratch.sums.data(), n);
  } else {
    nn::kernels::gemm_u8i8(g.out_c, n, plan.terms, weights, scratch.panel.data(), ldx,
                           plan.correction.data(), scratch.sums.data(), n);
  }
}

void nne_requant(const quant::QLayer& layer, int samples, const std::int32_t* sums,
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
  // A row of the plane is one filter's [samples][positions]: the block's
  // layout, so the plane is the pre-pool map.
  nn::kernels::requant_plane(sums, g.out_c, samples * g.conv_out_h * g.conv_out_w, fu,
                             pre.data.data());
}

void nne_pool(const nn::HwLayer& g, int samples, const quant::QTensor& pre, quant::QTensor& out) {
  // The block's [out_c][samples] maps are out_c * samples consecutive planes.
  const int planes = g.out_c * samples;
  const int pre_h = g.conv_out_h, pre_w = g.conv_out_w;
  if (g.pool_is_global) {
    const std::int64_t area = static_cast<std::int64_t>(pre_h) * pre_w;
    for (int f = 0; f < planes; ++f) {
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
    const std::int8_t* plane = pre.data.data();
    std::int8_t* dst = out.data.data();
    for (int f = 0; f < planes; ++f, plane += static_cast<std::size_t>(pre_h) * pre_w) {
      for (int oh = 0; oh < out_h; ++oh, dst += out_w) {
        const std::int8_t* r0 = plane + static_cast<std::size_t>(2 * oh) * pre_w;
        const std::int8_t* r1 = r0 + pre_w;
        for (int ow = 0; ow < out_w; ++ow)
          dst[ow] = std::max(std::max(r0[2 * ow], r0[2 * ow + 1]),
                             std::max(r1[2 * ow], r1[2 * ow + 1]));
      }
    }
    return;
  }
  const std::int64_t window = static_cast<std::int64_t>(pk) * pk;
  for (int f = 0; f < planes; ++f) {
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

NneLayerStats nne_run_block_into(const quant::QLayer& layer, const quant::LayerExecPlan& plan,
                                 int samples, const quant::QTensor& input,
                                 const quant::QTensor* shortcut, bool site_active,
                                 nn::MaskSource* const* masks,
                                 quant::FixedMultiplier dropout_keep, const NneConfig& config,
                                 nn::kernels::Tier tier, NneScratch& scratch,
                                 quant::QTensor& out) {
  const nn::HwLayer& g = layer.geom;
  const std::int32_t zp_in = layer.in.zero_point;
  util::require(samples >= 1 && samples <= kMaxBlockSamples,
                "nne: a block holds 1 to kMaxBlockSamples samples");
  util::require(!g.has_shortcut || shortcut != nullptr, "nne: missing shortcut operand");
  util::require(!site_active || masks != nullptr, "nne: active site requires a mask source");
  util::require(config.binary_term_parallelism >= 1,
                "nne: binary_term_parallelism must be positive");
  // The lowered panel stores padding terms as the zero point itself.
  util::require(zp_in >= -128 && zp_in <= 127, "nne: input zero point must fit int8");

  NneLayerStats stats;
  // The modelled machine runs the block's samples one after another: each
  // is charged the closed form, independent of which tier or kernel
  // computed the sums (the PE's PF x PC x PV tiling survives in the charge
  // alone).
  stats.macs_retired = samples * g.macs();
  stats.compute_cycles = samples * estimate_layer_cycles(g, config);

  const int positions = g.conv_out_h * g.conv_out_w;
  const int n = samples * positions;  // the block's sum-plane row
  const int terms = plan.terms;

  const bool is_linear = g.op == nn::HwLayer::Op::linear;
  if (is_linear)
    util::require(input.numel() == static_cast<std::int64_t>(samples) * g.in_c &&
                      input.height() % samples == 0,
                  "nne: linear input size mismatch");
  else
    util::require(input.channels() == g.in_c && input.height() == samples * g.in_h &&
                      input.width() == g.in_w,
                  "nne: conv input shape mismatch");
  if (g.has_shortcut)
    util::require(shortcut->channels() == g.out_c &&
                      shortcut->height() == samples * g.conv_out_h &&
                      shortcut->width() == g.conv_out_w,
                  "nne: shortcut shape mismatch");

  // Resolve the tier cap against this (layer, input) pair. A block of
  // several samples takes the int8 GEMM, which the tier contract makes
  // bit-identical.
  std::int8_t lo = 0, hi = 0;
  if (tier == Tier::bitpack &&
      !(samples == 1 && plan.weights_binarizable &&
        quant::two_valued_activations(input, &lo, &hi)))
    tier = Tier::int8;
  const std::int32_t base = static_cast<std::int32_t>(lo) - zp_in;
  const std::int32_t delta = static_cast<std::int32_t>(hi) - lo;

  // The FU chain writes the pre-pool map; when there is no pool stage that
  // map IS the stored output, so write it there directly and keep
  // scratch.pre untouched (no buffer churn in the arena).
  const bool has_pool = g.pool_is_global || g.pool_kernel > 0;
  if (out.reset({g.out_c, samples * g.out_h, g.out_w}, layer.out)) ++scratch.grow_events;
  quant::QTensor& pre = has_pool ? scratch.pre : out;
  if (has_pool &&
      scratch.pre.reset({g.out_c, samples * g.conv_out_h, g.conv_out_w}, layer.out))
    ++scratch.grow_events;

  // The PE's retiring accumulators for the whole block: one int32 term sum
  // per (filter, sample, position), [out_c][samples][positions]. Both tiers
  // fill it; one FU pass below retires it.
  grow_to(scratch.sums, static_cast<std::size_t>(g.out_c) * n, scratch.grow_events);
  std::int32_t* sums = scratch.sums.data();

  const std::int8_t* in_data = input.data.data();

  // Packed-weight layers dropped their byte rows. The bitpack interior path
  // reads only the masks, and a small-block int8 conv reads the plan's
  // K-major copy, but the other int8 paths and conv border windows still
  // need byte rows — materialize them into the arena once per layer call
  // (exact reconstruction, so bits are unchanged).
  const bool has_border =
      !is_linear &&
      (g.pad > 0 || (g.conv_out_h - 1) * g.stride + g.kernel > g.in_h ||
       (g.conv_out_w - 1) * g.stride + g.kernel > g.in_w);
  const bool kmajor =
      tier == Tier::int8 && (is_linear || nn::kernels::gemm_i8_filter_vectorized(n));
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
    // The specification's 1x1 conv over a 1x1 map: each sample's input row,
    // flipped to u = x + 128 and filled out to whole four-term groups
    // (their weights are 0), is one position of the filter tile's panel
    // over the plan's grouped K-major copy.
    const int padded_terms = 4 * nn::kernels::gemm_i8_groups(terms);
    util::require(plan.correction.size() == static_cast<std::size_t>(g.out_c) &&
                      plan.ldw == nn::kernels::gemm_i8_ldw(g.out_c) &&
                      plan.weights_kmajor.size() ==
                          static_cast<std::size_t>(padded_terms) * plan.ldw,
                  "nne: plan lacks the K-major weight copy of a linear layer");
    grow_to(scratch.panel, static_cast<std::size_t>(padded_terms) * samples,
            scratch.grow_events);
    const int hw = input.height() / samples * input.width();
    lower_linear_input(terms, samples, hw, in_data, scratch.panel.data());
    nn::kernels::gemm_u8i8_kmajor(g.out_c, samples, terms, plan.weights_kmajor.data(), plan.ldw,
                                  scratch.panel.data(), samples, plan.correction.data(), sums,
                                  samples);
  } else if (tier == Tier::int8) {
    // Lower every window of every sample once, then one GEMM computes every
    // (filter, sample, position) sum: each lowered term feeds all filters
    // and positions of a register tile, the PE array's PF x PV reuse, and
    // each weight row streams once per block.
    nne_lower(layer, samples, input, scratch);
    nne_gemm(layer, plan, samples, wmatrix, scratch);
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
  nne_requant(layer, samples, sums, shortcut, pre);
  nne_pool(g, samples, pre, out);
  // No pool: the FU chain already wrote `out` (pre aliases it).

  if (site_active) {
    apply_dropout_unit(out, samples, masks, dropout_keep);
    stats.mask_bits_consumed = samples * g.out_c;
  }

  return stats;
}

NneLayerStats nne_run_layer_into(const quant::QLayer& layer, const quant::LayerExecPlan& plan,
                                 const quant::QTensor& input, const quant::QTensor* shortcut,
                                 bool site_active, nn::MaskSource* masks,
                                 quant::FixedMultiplier dropout_keep, const NneConfig& config,
                                 nn::kernels::Tier tier, NneScratch& scratch,
                                 quant::QTensor& out) {
  nn::MaskSource* const sample_masks[1] = {masks};
  return nne_run_block_into(layer, plan, 1, input, shortcut, site_active,
                            masks != nullptr ? sample_masks : nullptr, dropout_keep, config,
                            tier, scratch, out);
}

void apply_dropout_unit(quant::QTensor& out, int samples, nn::MaskSource* const* masks,
                        quant::FixedMultiplier dropout_keep) {
  // Each sample's decisions in ascending filter order, drawn from its own
  // source as whole words into a stack block (one block covers every layer
  // up to kBlockRows filters), then one plane call per block: dropped
  // planes become the zero point, kept ones are rescaled about it,
  // saturate(fixed_multiply(x - zp, keep) + zp).
  constexpr int kBlockRows = 4096, kWords = kBlockRows / 64;
  std::uint64_t drop[kMaxBlockSamples * kWords] = {};
  util::require(samples >= 1 && samples <= kMaxBlockSamples &&
                    out.height() % samples == 0,
                "nne: dropout block does not match the tensor");
  const int plane = out.height() / samples * out.width();
  for (int f0 = 0; f0 < out.channels(); f0 += kBlockRows) {
    const int rows = std::min(kBlockRows, out.channels() - f0);
    const int words = (rows + 63) / 64;
    for (int b = 0; b < samples; ++b)
      masks[b]->draw_drops(rows, drop + static_cast<std::size_t>(b) * words);
    nn::kernels::dropout_plane(
        out.data.data() + static_cast<std::size_t>(f0) * samples * plane, rows, samples, plane,
        drop, out.params.zero_point, dropout_keep);
  }
}

void broadcast_samples(const quant::QTensor& src, int samples, quant::QTensor& dst,
                       std::uint64_t& grow_events) {
  const int c = src.channels(), h = src.height(), w = src.width();
  if (dst.reset({c, samples * h, w}, src.params)) ++grow_events;
  const std::size_t map = static_cast<std::size_t>(h) * w;
  for (int ch = 0; ch < c; ++ch) {
    const std::int8_t* from = src.data.data() + static_cast<std::size_t>(ch) * map;
    std::int8_t* to = dst.data.data() + static_cast<std::size_t>(ch) * samples * map;
    for (int b = 0; b < samples; ++b)
      std::copy(from, from + map, to + static_cast<std::size_t>(b) * map);
  }
}

}  // namespace bnn::core
