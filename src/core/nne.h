// Neural Network Engine model (paper Fig. 2).
//
// The NNE executes one layer at a time. Its Processing Engine exposes three
// axes of fine-grained parallelism:
//   PF — filter parallelism: PF processing units, one output filter each,
//   PV — vector parallelism: PV multiply-add modules per PU, one output
//        position each,
//   PC — channel parallelism: PC multipliers + an adder tree per module,
//        reducing PC input-channel/kernel terms per cycle.
// One PE pass therefore retires PC*PF*PV MACs per cycle and a layer takes
//   ceil(F/PF) * ceil(C*K*K/PC) * ceil(Hout*Wout/PV)
// compute cycles plus a pipeline fill. The Functional Unit chain
// (BN -> SC -> ReLU -> Pool) and the Dropout Unit are pipelined behind the
// PE and add only fill latency.
//
// `nne_run_block_into` is the cycle-counted FUNCTIONAL implementation and
// the repository's one fast int8 executor. It computes every (filter,
// sample, position) term sum of a layer for a block of Monte Carlo samples
// — the values the PE's accumulators retire — into one int32 plane, then
// runs the FU chain over that plane in one pass (`nne_run_layer_into` is
// its one-sample form). It must match the plain-loop specification (quant/qops.h)
// bit-for-bit: int32 accumulation is order-independent, which is the
// invariant the equivalence tests pin down. The hardware's PF x PC x PV
// tiling survives in the cycle charge: a call reports the closed form of
// `estimate_layer_cycles`, which also serves networks too large to execute
// functionally.
//
// On the host the GEMM is meant to be the layer, as the PE array is on the
// FPGA. A conv layer's int8 path is four stages (declared below):
//   - lowering copies the input once into a zero-point-bordered plane and
//     interleaves the layer's terms, four at a time, into the GEMM's grouped
//     unsigned panel (kernels::interleave_group), so padding needs no bounds
//     logic;
//   - one GEMM computes the sum plane four terms per step (the u8 x s8
//     dot-product instruction where the kernel TU targets AVX512-VNNI),
//     subtracting the plan's per-filter zero-point correction; it
//     vectorizes along positions for maps of 16 positions and more, and
//     along filters below that (over a grouped K-major weight copy the plan
//     builds once), so a 2 x 2 map does not leave 12 of 16 lanes idle;
//   - one requant plane call (kernels::requant_plane, compiled with the
//     GEMM for the build machine's ISA) retires the whole sum plane
//     through the FU chain, per-filter constants set up once per row;
//   - the pool stage walks raw row pointers.
// A linear layer is the specification's 1x1 conv over a 1x1 map: each
// sample's input row, flipped once to u = x + 128, is one position of the
// panel for the filter-vectorized tile over the plan's grouped K-major copy.
// The Dropout Unit draws a site's decisions as whole mask words
// (nn::MaskSource::draw_drops), one source per sample, and retires the
// site in one call of the plane kernel's int8 form (kernels::dropout_plane).
// Every stage runs over the block's samples at once (see "blocks of Monte
// Carlo samples" below).
//
// Kernel tiers: the inner product dispatches through nn::kernels::Tier. The
// tier changes only HOW the int32 sums are computed (the int8 GEMM over the
// layer's lowered windows, or the packed popcount path of quant/qplan.h) —
// never WHAT they contain, so outputs are bit-identical across tiers.
// Cycle counts are likewise tier-independent at runtime: a layer is charged
// by the closed-form formula below, which credits binary term parallelism
// from the STATIC HwLayer::weights_binarizable annotation alone. An
// un-annotated net that happens to hit the packed path simply runs faster
// than modelled; an annotated net that falls back (three-valued
// activations) is modelled as binary hardware would be — the modelled
// machine has the popcount datapath either way.
#ifndef BNN_CORE_NNE_H
#define BNN_CORE_NNE_H

#include <cstdint>

#include "nn/dropout.h"
#include "nn/gemm_kernels.h"
#include "nn/netdesc.h"
#include "quant/qnetwork.h"
#include "quant/qplan.h"
#include "quant/qtensor.h"

namespace bnn::core {

struct NneConfig {
  int pc = 64;   // channel parallelism
  int pf = 64;   // filter parallelism
  int pv = 1;    // vector parallelism
  double clock_mhz = 225.0;
  int data_width_bits = 8;
  // Pipeline depth of PE + FU + DU, charged once per layer.
  int pipeline_fill_cycles = 24;
  // Extra term parallelism for weights-binarizable layers: the XNOR/popcount
  // datapath reduces this many more terms per multiplier lane per cycle
  // (single-bit products cost ~1/8 of an 8-bit MAC in LUTs, so the same
  // fabric fits 8x the reducers). Credited per layer by the STATIC
  // HwLayer::weights_binarizable annotation; see the header comment.
  int binary_term_parallelism = 8;

  std::int64_t macs_per_cycle() const {
    return static_cast<std::int64_t>(pc) * pf * pv;
  }
  // Peak arithmetic throughput in GOP/s (1 MAC = 2 ops).
  double peak_gops() const {
    return static_cast<double>(macs_per_cycle()) * 2.0 * clock_mhz / 1e3;
  }
};

// The paper's hardware design space (Section IV-A).
const std::vector<int>& pc_domain();  // {8, 16, 32, 64, 128}
const std::vector<int>& pf_domain();  // {8, 16, 32, 64, 128}
const std::vector<int>& pv_domain();  // {1, 4, 8, 16}

// Closed-form PE cycle count for one layer (compute only, no memory).
std::int64_t estimate_layer_cycles(const nn::HwLayer& layer, const NneConfig& config);

// A layer call's counters; the output goes into a caller-owned tensor.
// A block call charges each of its samples in full.
struct NneLayerStats {
  std::int64_t compute_cycles = 0;
  std::int64_t macs_retired = 0;
  int mask_bits_consumed = 0;
};

// Reusable per-lane working memory. All buffers grow monotonically and are
// fully overwritten each call, so after one pass over a network's largest
// layer (at the largest block) every subsequent layer call is
// allocation-free; `grow_events` counts the capacity growths that did happen
// (the accelerator's steady-state-zero-allocation test watches it).
struct NneScratch {
  quant::QTensor pre;                // pre-pool map (pooled layers), [out_c][B][h][w]
  std::vector<std::int32_t> sums;    // term sums, [out_c][B][positions]
  std::vector<std::int8_t> padded;   // zp-bordered conv input, [in_c][B][h + 2 pad][w + 2 pad]
  std::vector<std::uint8_t> panel;   // [groups][ldx][4] conv windows, or linear input rows
  std::vector<std::int8_t> stage;    // staged narrow-row input, [in_c][kernel][B][h + 2 pad][out_w]
  std::vector<std::uint64_t> xbits;  // one packed activation window, [words] (bitpack tier)
  std::vector<std::int8_t> wrows;    // materialized byte rows of packed-weight layers
  std::uint64_t grow_events = 0;
};

// --- blocks of Monte Carlo samples --------------------------------------------
// The paper's IC schedule runs the Bayesian suffix once per sample, and its
// PE streams each weight once into PF x PV lanes. On the host a layer call
// runs a BLOCK of B samples of one image at once: one lowering pass, one
// GEMM with n = B x positions (so each weight row streams once per block and
// small maps fill their vector lanes), one requant plane, one pool pass and
// one Dropout Unit call retire all B. A block's activations are laid out
// [C][B][H][W] — channel-major, then sample, then the map — and held in a
// QTensor shaped {C, B * H, W}: sample b's rows of channel c are rows
// [b * H, (b + 1) * H) of plane c. A vector (a linear layer's output, a
// global pool's) is {C, B, 1}, element (c, b) at c * B + b, so the layout
// flattens the same way after a conv and after a linear layer. B = 1 is the
// plain [C][H][W] tensor. Every sample keeps its own zero-point border, mask
// source and draw order, so a block call equals B single calls bit for bit.
constexpr int kMaxBlockSamples = 8;

// Executes one layer for a block of `samples` (1..kMaxBlockSamples) samples
// into `out` (resized in place, capacity reused; must not alias
// `input`/`shortcut`). `input`, `shortcut` and `out` are block tensors.
// `plan` must be build_layer_exec_plan(layer). `tier` is a CAP (see
// nn/gemm_kernels.h): bitpack falls back to int8 unless the layer's weights
// are binarizable, this input is two-valued and the block is one sample.
// `shortcut` must be non-null iff the layer has a shortcut (shaped like the
// pre-pool block); `masks` must be non-null when `site_active`, sample b
// drawing from masks[b]; the input zero point must be an int8 value (the
// int8 tier stores it as padding).
NneLayerStats nne_run_block_into(const quant::QLayer& layer, const quant::LayerExecPlan& plan,
                                 int samples, const quant::QTensor& input,
                                 const quant::QTensor* shortcut, bool site_active,
                                 nn::MaskSource* const* masks,
                                 quant::FixedMultiplier dropout_keep, const NneConfig& config,
                                 nn::kernels::Tier tier, NneScratch& scratch,
                                 quant::QTensor& out);

// The one-sample call: nne_run_block_into with samples = 1 and `masks` as
// the sample's source.
NneLayerStats nne_run_layer_into(const quant::QLayer& layer, const quant::LayerExecPlan& plan,
                                 const quant::QTensor& input, const quant::QTensor* shortcut,
                                 bool site_active, nn::MaskSource* masks,
                                 quant::FixedMultiplier dropout_keep, const NneConfig& config,
                                 nn::kernels::Tier tier, NneScratch& scratch,
                                 quant::QTensor& out);

// Copies a one-sample tensor {C, H, W} into each of a block's `samples`
// slots, {C, samples * H, W}; counts a growth of `dst` in `grow_events`.
void broadcast_samples(const quant::QTensor& src, int samples, quant::QTensor& dst,
                       std::uint64_t& grow_events);

// --- the int8 conv path, stage by stage ---------------------------------------
// nne_run_block_into's int8-tier conv path is exactly these four calls in
// order (bench/nne_microbench times each one and checks that composing them
// reproduces the whole call). `layer`, `plan`, `samples` and the tensors
// follow nne_run_block_into's contract; each stage grows only NneScratch
// buffers.
//
// 1. Lowering: copies the input once into scratch.padded with a zero-point
//    border around every sample's map (pad 0 reads the input itself), then
//    writes each four-term group of scratch.panel, [gemm_i8_groups(terms)]
//    [gemm_i8_ldx(samples * positions)][4], as unsigned bytes u = x + 128
//    (the border becomes zp + 128; tail terms past the last one repeat its
//    first, and their weights are 0) with kernels::interleave_group calls;
//    sample b's positions fill columns [b * positions, (b + 1) *
//    positions), and no window reads another sample's map. A group's four
//    term rows (c, kh, kw) are read straight from the plane at the layer's
//    stride — a 1x1 conv's are four channels of the input itself — except
//    where stride-1 rows do not fill whole 16-position vectors: there each
//    (channel, kw, sample) map is first copied once into scratch.stage, all
//    its padded rows from column kw, so that a term row of a sample is one
//    contiguous run.
void nne_lower(const quant::QLayer& layer, int samples, const quant::QTensor& input,
               NneScratch& scratch);
// 2. One int8 GEMM from scratch.panel into scratch.sums, [out_c][samples *
//    positions], four terms per step, minus the plan's per-filter correction
//    (zp_in + 128) * sum_t w[f][t], which makes each sum exactly
//    sum_t (x_t - zp_in) * w[f][t]. A block row of 16 positions and more
//    takes the position-vectorized tile over `weights` (row-major
//    [out_c][terms]); a smaller one takes the filter-vectorized tile over
//    the plan's grouped K-major copy (kernels::gemm_i8_filter_vectorized
//    decides; the plan builds the copy for maps under 16 positions, so a
//    block under 16 always finds it).
void nne_gemm(const quant::QLayer& layer, const quant::LayerExecPlan& plan, int samples,
              const std::int8_t* weights, NneScratch& scratch);
// 3. The FU requant chain, bias -> BN requant -> SC -> ReLU -> saturate:
//    one kernels::requant_plane call over the whole [out_c][samples *
//    positions] plane, from `sums` into the pre-pool block `pre`,
//    [out_c][samples][conv_out_h][conv_out_w] (already shaped), the
//    shortcut operand read in the same pass. The layer's per-filter bias,
//    multipliers and post-adds are read where they are stored.
void nne_requant(const quant::QLayer& layer, int samples, const std::int32_t* sums,
                 const quant::QTensor* shortcut, quant::QTensor& pre);
// 4. The FU pool stage (max, average or global) over the block's
//    out_c * samples maps, from `pre` into `out` (already shaped); a no-op
//    for a layer without a pool. A global pool yields [out_c][samples].
void nne_pool(const nn::HwLayer& g, int samples, const quant::QTensor& pre, quant::QTensor& out);

// The Dropout Unit over a block tensor `out`: sample b draws one decision
// per filter from masks[b] in ascending filter order through the bulk draw
// (nn::MaskSource::draw_drops, into mask words on the stack), then one
// kernels::dropout_plane call retires the block: map (c, b) becomes the
// tensor's zero point when sample b dropped filter c, and is otherwise
// rescaled by `dropout_keep` (the fixed-point 1/(1-p)) about the zero point.
// nne_run_block_into runs it on active sites, and the accelerator's IC
// schedule on the block's copies of the cached cut-layer output.
void apply_dropout_unit(quant::QTensor& out, int samples, nn::MaskSource* const* masks,
                        quant::FixedMultiplier dropout_keep);

}  // namespace bnn::core

#endif  // BNN_CORE_NNE_H
