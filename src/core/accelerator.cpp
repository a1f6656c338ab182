#include "core/accelerator.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <mutex>

#include "nn/activations.h"
#include "runtime/thread_pool.h"
#include "util/check.h"
#include "util/rng.h"

namespace bnn::core {

namespace {

// Reusable per-worker storage for predict lanes — the quantized analogue of
// the float path's ReplayArena. Thread-local so lanes never contend: a lane
// keeps every layer output of its block, the NNE scratch (sum plane,
// lowered windows) and its block's Bernoulli samplers
// across (image, sample block) units, predict calls and accelerator
// instances (a deterministic L = 0 lane draws no masks and leaves the
// samplers alone); the IC prefix layers an image's first lane runs use the
// same scratch. All buffers grow to the largest shapes and blocks seen and
// are fully overwritten per use, so steady-state lanes are allocation-free;
// grow_events counts the warmup growths (plus NneScratch's own counter).
struct LaneArena {
  NneScratch scratch;
  std::vector<quant::QTensor> outputs;  // block outputs, indexed by TRUE layer index
  quant::QTensor image;                 // the block's copies of the image
  std::vector<BernoulliSampler> samplers;  // slot b serves the block's sample b
  std::uint64_t grow_events = 0;
};

LaneArena& lane_arena() {
  thread_local LaneArena arena;
  return arena;
}

}  // namespace

std::uint64_t Accelerator::lane_arena_grow_events() {
  const LaneArena& arena = lane_arena();
  return arena.grow_events + arena.scratch.grow_events;
}

Accelerator::Accelerator(quant::QuantNetwork network, AcceleratorConfig config)
    : Accelerator(std::make_shared<const quant::QuantNetwork>(std::move(network)), config) {}

Accelerator::Accelerator(std::shared_ptr<const quant::QuantNetwork> network,
                         AcceleratorConfig config)
    : network_(std::move(network)), config_(config) {
  util::require(network_ != nullptr, "accelerator: null network");
  plan_ = std::make_shared<const quant::NetworkExecPlan>(
      quant::build_network_exec_plan(*network_));
  desc_ = network_->describe();
  // Fail fast on a non-realizable dropout probability instead of at the
  // first predict() (each (image, sample) lane builds its own sampler).
  (void)lfsrs_for_probability(network_->dropout_p);
}

Accelerator::Accelerator(std::shared_ptr<const quant::QuantNetwork> network,
                         std::shared_ptr<const quant::NetworkExecPlan> plan,
                         AcceleratorConfig config)
    : network_(std::move(network)), plan_(std::move(plan)), config_(config) {
  util::require(network_ != nullptr, "accelerator: null network");
  util::require(plan_ != nullptr, "accelerator: null execution plan");
  util::require(plan_->layers.size() == network_->layers.size(),
                "accelerator: plan does not match the network");
  desc_ = network_->describe();
  (void)lfsrs_for_probability(network_->dropout_p);
}

std::uint64_t Accelerator::sample_stream_seed(std::uint64_t base_seed,
                                              std::uint64_t stream_id, int sample) {
  return util::Rng(base_seed)
      .fork(stream_id)
      .fork(static_cast<std::uint64_t>(sample))
      .seed();
}

Accelerator::Prediction Accelerator::predict(const nn::Tensor& images, int bayes_layers,
                                             int num_samples) {
  util::require(images.dim() == 4, "accelerator: expects NCHW images");
  const int batch = images.size(0);
  std::vector<ImageRequest> requests(static_cast<std::size_t>(batch));
  for (int n = 0; n < batch; ++n) {
    requests[static_cast<std::size_t>(n)] = ImageRequest{
        bayes_layers, num_samples, static_cast<std::uint64_t>(n)};
  }

  BatchPrediction batched = predict_batch(images, requests);
  Prediction prediction;
  prediction.probs = std::move(batched.probs);
  // Uniform knobs: every per-image estimate is the same one-image cost.
  prediction.stats = batched.stats.front();
  return prediction;
}

Accelerator::BatchPrediction Accelerator::predict_batch(
    const nn::Tensor& images, const std::vector<ImageRequest>& requests) {
  util::require(images.dim() == 4, "accelerator: expects NCHW images");
  const int batch = images.size(0);
  util::require(batch >= 1, "accelerator: empty image batch");
  util::require(static_cast<int>(requests.size()) == batch,
                "accelerator: need exactly one ImageRequest per image");

  // Per-image schedule resolved up front: the sample space is the union of
  // every image's sample range.
  struct ImagePlan {
    int samples = 1;            // 1 when L == 0 (deterministic single pass)
    int cut = 0;                // last prefix layer (IC boundary)
    int first_active_site = 0;  // sites >= this draw masks
    bool use_ic = false;
    std::int64_t pair_offset = 0;  // first flattened sample index of this image
    int blocks = 1;                // sample blocks this image splits into
  };
  std::vector<ImagePlan> plans(static_cast<std::size_t>(batch));
  std::int64_t total_pairs = 0;
  std::int64_t total_blocks = 0;
  for (int n = 0; n < batch; ++n) {
    const ImageRequest& request = requests[static_cast<std::size_t>(n)];
    util::require(request.num_samples >= 1, "accelerator: need at least one sample");
    util::require(request.sample_offset >= 0, "accelerator: sample_offset must be >= 0");
    util::require(request.sample_offset <= std::numeric_limits<int>::max() - request.num_samples,
                  "accelerator: sample_offset + num_samples overflows int");
    util::require(request.bayes_layers >= 0 && request.bayes_layers <= network_->num_sites,
                  "accelerator: bayes_layers out of range");
    ImagePlan& plan = plans[static_cast<std::size_t>(n)];
    plan.samples = request.bayes_layers == 0 ? 1 : request.num_samples;
    plan.cut = network_->cut_layer_for(request.bayes_layers);
    plan.first_active_site = network_->num_sites - request.bayes_layers;
    plan.use_ic = config_.use_intermediate_caching && request.bayes_layers > 0;
    plan.pair_offset = total_pairs;
    plan.blocks = (plan.samples + kMaxBlockSamples - 1) / kMaxBlockSamples;
    total_pairs += plan.samples;
    total_blocks += plan.blocks;
  }

  // Work units are (image, sample block) pairs: each runs the block's
  // samples through every layer past the prefix with one layer call per
  // layer. An image splits into more blocks than its cap needs only while
  // the pool has more lanes than blocks, in proportion to its samples.
  runtime::ThreadPool& pool = config_.pool ? *config_.pool : runtime::shared_pool();
  const int lanes = std::min(pool.size(), runtime::resolve_thread_count(config_.num_threads));
  if (lanes > total_blocks) {
    total_blocks = 0;
    for (ImagePlan& plan : plans) {
      const std::int64_t share = (lanes * static_cast<std::int64_t>(plan.samples) +
                                  total_pairs - 1) / total_pairs;
      plan.blocks = static_cast<int>(std::min<std::int64_t>(
          plan.samples, std::max<std::int64_t>(plan.blocks, share)));
      total_blocks += plan.blocks;
    }
  }
  struct Unit {
    int image = 0;
    int first = 0;  // the block's first sample
    int count = 1;  // its samples
  };
  std::vector<Unit> units;
  units.reserve(static_cast<std::size_t>(total_blocks));
  for (int n = 0; n < batch; ++n) {
    const ImagePlan& plan = plans[static_cast<std::size_t>(n)];
    for (int j = 0; j < plan.blocks; ++j) {
      const int first = static_cast<int>(static_cast<std::int64_t>(j) * plan.samples / plan.blocks);
      const int end =
          static_cast<int>(static_cast<std::int64_t>(j + 1) * plan.samples / plan.blocks);
      units.push_back({n, first, end - first});
    }
  }

  // Lazily-shared per-image steps: whichever lane first touches image n
  // quantizes it and (under IC) runs its deterministic prefix; later lanes
  // of the same image wait on the once_flag and then read it read-only.
  struct ImageState {
    std::once_flag once;
    quant::QTensor qimage;
    std::vector<quant::QTensor> prefix;
    std::int64_t prefix_cycles = 0;
  };
  std::unique_ptr<ImageState[]> states(new ImageState[static_cast<std::size_t>(batch)]);

  // One preallocated probability row per (image, sample) pair: lanes write
  // logits into their rows and softmax them in place (nn::softmax_row — the
  // exact per-row computation of nn::softmax_rows), so the per-sample path
  // allocates nothing.
  const int num_classes = network_->num_classes;
  nn::Tensor all_probs({static_cast<int>(total_pairs), num_classes});
  std::vector<std::int64_t> unit_cycles(units.size(), 0);

  // Each sample runs on its own decorrelated sampler stream, so its masks
  // never depend on which block, thread or order it ran in. The lane
  // arena's samplers are REUSED via reseed (bit-identical to fresh
  // samplers) whenever their structural knobs match; slot b serves the
  // block's sample b.
  auto block_samplers = [this](LaneArena& arena, std::uint64_t stream_id, int first, int count,
                               nn::MaskSource** masks) {
    std::vector<BernoulliSampler>& samplers = arena.samplers;
    if (!samplers.empty() && !(samplers.front().p() == network_->dropout_p &&
                               samplers.front().pf() == config_.nne.pf &&
                               samplers.front().fifo_depth() == config_.sampler_fifo_depth))
      samplers.clear();
    if (samplers.capacity() < static_cast<std::size_t>(kMaxBlockSamples)) {
      samplers.reserve(static_cast<std::size_t>(kMaxBlockSamples));
      ++arena.grow_events;
    }
    while (static_cast<int>(samplers.size()) < count) {
      BernoulliSamplerConfig sampler_config;
      sampler_config.p = network_->dropout_p;
      sampler_config.pf = config_.nne.pf;
      sampler_config.fifo_depth = config_.sampler_fifo_depth;
      samplers.emplace_back(sampler_config);
      ++arena.grow_events;
    }
    for (int b = 0; b < count; ++b) {
      BernoulliSampler& sampler = samplers[static_cast<std::size_t>(b)];
      sampler.reseed(sample_stream_seed(config_.sampler_seed, stream_id, first + b));
      masks[b] = &sampler;
    }
  };

  // `stored(i)` resolves layer i's retained output (i = -1: the image) in
  // whatever storage the calling lane uses. `out` must be the slot layer
  // `index` retires into.
  auto run_layer = [this](int index, int samples, const auto& stored, bool site_active,
                          nn::MaskSource* const* masks, std::int64_t& cycles,
                          NneScratch& scratch, quant::QTensor& out) {
    const quant::QLayer& layer = network_->layers[static_cast<std::size_t>(index)];
    const quant::QTensor* shortcut =
        layer.geom.has_shortcut ? &stored(layer.shortcut_source) : nullptr;
    const NneLayerStats stats = nne_run_block_into(
        layer, plan_->layer(index), samples, stored(layer.input_source), shortcut, site_active,
        masks, network_->dropout_keep, config_.nne, scratch, out);
    cycles += stats.compute_cycles;
  };

  // Sample b's dequantized logits (column b of the final [K][B] block) into
  // a preallocated row, then softmax in place — same float operations as
  // softmax_rows(ref_logits(net, last)), without the temporaries.
  auto store_probs = [num_classes](const quant::QTensor& last, int samples, int b, float* row) {
    util::require(last.numel() == static_cast<std::int64_t>(num_classes) * samples,
                  "accelerator: wrong final output size");
    for (int k = 0; k < num_classes; ++k)
      row[k] = last.params.scale *
               static_cast<float>(last.data[static_cast<std::size_t>(k) * samples + b] -
                                  last.params.zero_point);
    nn::softmax_row(row, row, num_classes);
  };

  const int num_layers = network_->num_layers();
  pool.parallel_for(
      static_cast<std::int64_t>(units.size()),
      [&](std::int64_t u) {
        const Unit& unit = units[static_cast<std::size_t>(u)];
        const int n = unit.image, samples = unit.count;
        const ImagePlan& plan = plans[static_cast<std::size_t>(n)];
        const ImageRequest& request = requests[static_cast<std::size_t>(n)];
        ImageState& state = states[static_cast<std::size_t>(n)];

        std::call_once(state.once, [&] {
          state.qimage = quant::quantize_image(images, n, network_->input);
          if (!plan.use_ic) return;
          // Prefix once, one sample, shared read-only across lanes: the cut
          // layer's pre-DU output is the on-chip boundary of the IC
          // schedule. Only the prefix outputs are call-local shared state;
          // the layers run on this lane's arena scratch, which every layer
          // call overwrites.
          NneScratch& prefix_scratch = lane_arena().scratch;
          state.prefix.reserve(static_cast<std::size_t>(plan.cut + 1));
          const auto stored_prefix = [&state](int index) -> const quant::QTensor& {
            return index < 0 ? state.qimage : state.prefix[static_cast<std::size_t>(index)];
          };
          for (int l = 0; l <= plan.cut; ++l) {
            // Shaped up front, so the layer call finds it big enough and the
            // arena's growth counter sees arena buffers only.
            const quant::QLayer& layer = network_->layers[static_cast<std::size_t>(l)];
            quant::QTensor out({layer.geom.out_c, layer.geom.out_h, layer.geom.out_w},
                               layer.out);
            run_layer(l, 1, stored_prefix, /*site_active=*/false, nullptr, state.prefix_cycles,
                      prefix_scratch, out);
            state.prefix.push_back(std::move(out));
          }
        });

        LaneArena& arena = lane_arena();
        if (arena.outputs.size() < network_->layers.size()) {
          arena.outputs.resize(network_->layers.size());
          ++arena.grow_events;
        }
        // A deterministic (L = 0) lane draws nothing, so it gets no sampler.
        nn::MaskSource* masks[kMaxBlockSamples] = {};
        if (request.bayes_layers > 0)
          block_samplers(arena, request.stream_id, request.sample_offset + unit.first, samples,
                         masks);

        // Operands below `shared` are one-sample tensors every sample of
        // the image reads alike: the image and, under IC, the prefix
        // outputs before the cut. A block of one reads them in place; a
        // larger block reads its copies, made once per block for each
        // operand a layer past the prefix reads.
        const int first = plan.use_ic ? plan.cut + 1 : 0;
        const int shared = plan.use_ic ? plan.cut : 0;
        const auto shared_operand = [&state](int index) -> const quant::QTensor& {
          return index < 0 ? state.qimage : state.prefix[static_cast<std::size_t>(index)];
        };
        const auto block_slot = [&arena](int index) -> quant::QTensor& {
          return index < 0 ? arena.image : arena.outputs[static_cast<std::size_t>(index)];
        };
        const auto stored = [&](int index) -> const quant::QTensor& {
          if (index >= shared) return arena.outputs[static_cast<std::size_t>(index)];
          return samples == 1 ? shared_operand(index) : block_slot(index);
        };
        if (samples > 1) {
          for (int l = first; l < num_layers; ++l) {
            const quant::QLayer& layer = network_->layers[static_cast<std::size_t>(l)];
            if (layer.input_source < shared)
              broadcast_samples(shared_operand(layer.input_source), samples,
                                block_slot(layer.input_source), arena.grow_events);
            if (layer.geom.has_shortcut && layer.shortcut_source < shared)
              broadcast_samples(shared_operand(layer.shortcut_source), samples,
                                block_slot(layer.shortcut_source), arena.grow_events);
          }
        }
        if (plan.use_ic) {
          // The cached boundary into the block's B slots of the cut layer's
          // arena output, then one DU call masks each sample's copy with
          // its own fresh mask.
          quant::QTensor& masked = arena.outputs[static_cast<std::size_t>(plan.cut)];
          broadcast_samples(state.prefix.back(), samples, masked, arena.grow_events);
          apply_dropout_unit(masked, samples, masks, network_->dropout_keep);
        }

        std::int64_t cycles = 0;
        for (int l = first; l < num_layers; ++l) {
          const quant::QLayer& layer = network_->layers[static_cast<std::size_t>(l)];
          const bool active = request.bayes_layers > 0 && layer.geom.is_bayes_site &&
                              layer.geom.site_index >= plan.first_active_site;
          run_layer(l, samples, stored, active, masks, cycles, arena.scratch,
                    arena.outputs[static_cast<std::size_t>(l)]);
        }
        const quant::QTensor& last = arena.outputs[static_cast<std::size_t>(num_layers - 1)];
        for (int b = 0; b < samples; ++b)
          store_probs(last, samples, b,
                      all_probs.data() +
                          all_probs.index2(static_cast<int>(plan.pair_offset + unit.first + b), 0));
        unit_cycles[static_cast<std::size_t>(u)] = cycles;
      },
      lanes);

  // Fixed-order reduction per image: rows summed in ascending sample order
  // then scaled — the same per-element float operation sequence as the
  // historical add_/scale_ reduction, so results are bit-identical for
  // every thread count, block split and batch composition.
  BatchPrediction out;
  out.probs = nn::Tensor({batch, num_classes});
  out.stats.reserve(static_cast<std::size_t>(batch));
  functional_cycles_ = 0;
  for (int n = 0; n < batch; ++n) {
    const ImagePlan& plan = plans[static_cast<std::size_t>(n)];
    const ImageRequest& request = requests[static_cast<std::size_t>(n)];
    const float inv_samples = 1.0f / static_cast<float>(plan.samples);
    for (int k = 0; k < num_classes; ++k) {
      float acc = all_probs.v2(static_cast<int>(plan.pair_offset), k);
      for (int s = 1; s < plan.samples; ++s)
        acc += all_probs.v2(static_cast<int>(plan.pair_offset + s), k);
      out.probs.v2(n, k) = acc * inv_samples;
    }
    functional_cycles_ += states[static_cast<std::size_t>(n)].prefix_cycles;
    out.stats.push_back(estimate(request.bayes_layers, request.num_samples));
  }
  for (const std::int64_t cycles : unit_cycles) functional_cycles_ += cycles;
  return out;
}

RunStats Accelerator::estimate(int bayes_layers, int num_samples) const {
  PerfConfig perf{config_.nne, config_.ddr};
  return estimate_mc(desc_, perf, bayes_layers, num_samples,
                     config_.use_intermediate_caching);
}

ResourceUsage Accelerator::resources(const FpgaDevice& device) const {
  return estimate_resources(config_.nne, desc_, device, config_.sampler_fifo_depth,
                            lfsrs_for_probability(network_->dropout_p));
}

}  // namespace bnn::core
