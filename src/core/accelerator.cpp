#include "core/accelerator.h"

#include <limits>
#include <memory>
#include <mutex>
#include <optional>

#include "nn/activations.h"
#include "runtime/thread_pool.h"
#include "util/check.h"
#include "util/rng.h"

namespace bnn::core {

namespace {

// Reusable per-worker storage for predict lanes — the quantized analogue of
// the float path's ReplayArena. Thread-local so lanes never contend: a lane
// keeps every layer output, the NNE scratch (sum plane, lowered windows,
// packed windows) and its Bernoulli sampler across (image, sample) pairs,
// predict calls and accelerator instances (a deterministic L = 0 lane draws
// no masks and leaves the sampler alone); the IC prefix layers an image's
// first lane runs use the same scratch. All buffers grow to the largest
// shapes seen and are fully overwritten per use, so steady-state lanes are
// allocation-free; grow_events counts the warmup growths (plus NneScratch's
// own counter).
struct LaneArena {
  NneScratch scratch;
  std::vector<quant::QTensor> outputs;  // indexed by TRUE layer index
  std::optional<BernoulliSampler> sampler;
  std::uint64_t grow_events = 0;
};

LaneArena& lane_arena() {
  thread_local LaneArena arena;
  return arena;
}

quant::QuantNetwork annotate(quant::QuantNetwork network) {
  quant::annotate_weight_tiers(network);
  return network;
}

}  // namespace

std::uint64_t Accelerator::lane_arena_grow_events() {
  const LaneArena& arena = lane_arena();
  return arena.grow_events + arena.scratch.grow_events;
}

Accelerator::Accelerator(quant::QuantNetwork network, AcceleratorConfig config)
    : Accelerator(std::make_shared<const quant::QuantNetwork>(annotate(std::move(network))),
                  config) {}

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

  // Per-image schedule resolved up front: the pair space is the union of
  // every image's sample range.
  struct ImagePlan {
    int samples = 1;            // 1 when L == 0 (deterministic single pass)
    int cut = 0;                // last prefix layer (IC boundary)
    int first_active_site = 0;  // sites >= this draw masks
    bool use_ic = false;
    std::int64_t pair_offset = 0;  // first flattened index of this image
  };
  std::vector<ImagePlan> plans(static_cast<std::size_t>(batch));
  std::int64_t total_pairs = 0;
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
    total_pairs += plan.samples;
  }
  std::vector<int> pair_image(static_cast<std::size_t>(total_pairs));
  for (int n = 0; n < batch; ++n) {
    const ImagePlan& plan = plans[static_cast<std::size_t>(n)];
    for (int s = 0; s < plan.samples; ++s)
      pair_image[static_cast<std::size_t>(plan.pair_offset + s)] = n;
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
  // logits into their row and softmax it in place (nn::softmax_row — the
  // exact per-row computation of nn::softmax_rows), so the per-sample path
  // allocates nothing.
  const int num_classes = network_->num_classes;
  nn::Tensor all_probs({static_cast<int>(total_pairs), num_classes});
  std::vector<std::int64_t> pair_cycles(static_cast<std::size_t>(total_pairs), 0);

  // Each (image, sample) lane runs on its own decorrelated sampler stream,
  // so a sample's masks never depend on which thread (or in which order)
  // the other samples ran. The lane arena's sampler is REUSED via reseed()
  // (bit-identical to a fresh sampler) whenever its structural knobs match.
  auto lane_sampler = [this](LaneArena& arena, std::uint64_t stream_id,
                             int sample) -> BernoulliSampler& {
    const std::uint64_t seed = sample_stream_seed(config_.sampler_seed, stream_id, sample);
    if (arena.sampler && arena.sampler->p() == network_->dropout_p &&
        arena.sampler->pf() == config_.nne.pf &&
        arena.sampler->fifo_depth() == config_.sampler_fifo_depth) {
      arena.sampler->reseed(seed);
    } else {
      BernoulliSamplerConfig sampler_config;
      sampler_config.p = network_->dropout_p;
      sampler_config.pf = config_.nne.pf;
      sampler_config.fifo_depth = config_.sampler_fifo_depth;
      sampler_config.seed = seed;
      arena.sampler.emplace(sampler_config);
      ++arena.grow_events;
    }
    return *arena.sampler;
  };

  // `stored(i)` resolves layer i's retained output in whatever storage the
  // calling lane uses (the arena's output slots, or shared prefix + arena
  // suffix slots). `out` must be the slot layer `index` retires into.
  auto run_layer = [this](int index, const auto& stored, const quant::QTensor& image,
                          bool site_active, nn::MaskSource* masks, std::int64_t& cycles,
                          NneScratch& scratch, quant::QTensor& out) {
    const quant::QLayer& layer = network_->layers[static_cast<std::size_t>(index)];
    const quant::QTensor& input =
        layer.input_source < 0 ? image : stored(layer.input_source);
    const quant::QTensor* shortcut =
        layer.geom.has_shortcut ? &stored(layer.shortcut_source) : nullptr;
    const NneLayerStats stats = nne_run_layer_into(
        layer, plan_->layer(index), input, shortcut, site_active, masks,
        network_->dropout_keep, config_.nne, config_.kernel_tier, scratch, out);
    cycles += stats.compute_cycles;
  };

  // Dequantized logits of the final layer into a preallocated row, then
  // softmax in place — same float operations as
  // softmax_rows(ref_logits(net, last)), without the temporaries.
  auto store_probs = [this, num_classes](const quant::QTensor& last, float* row) {
    util::require(last.numel() == num_classes, "accelerator: wrong final output size");
    for (int k = 0; k < num_classes; ++k)
      row[k] = last.params.scale *
               static_cast<float>(last.data[static_cast<std::size_t>(k)] -
                                  last.params.zero_point);
    nn::softmax_row(row, row, num_classes);
  };

  runtime::ThreadPool& pool = config_.pool ? *config_.pool : runtime::shared_pool();
  pool.parallel_for(
      total_pairs,
      [&](std::int64_t pair) {
        const int n = pair_image[static_cast<std::size_t>(pair)];
        const ImagePlan& plan = plans[static_cast<std::size_t>(n)];
        const ImageRequest& request = requests[static_cast<std::size_t>(n)];
        const int s = static_cast<int>(pair - plan.pair_offset);
        ImageState& state = states[static_cast<std::size_t>(n)];

        std::call_once(state.once, [&] {
          state.qimage = quant::quantize_image(images, n, network_->input);
          if (!plan.use_ic) return;
          // Prefix once, shared read-only across lanes: the cut layer's
          // pre-DU output is the on-chip boundary of the IC schedule. Only
          // the prefix outputs are call-local shared state; the layers run
          // on this lane's arena scratch, which every layer call overwrites.
          NneScratch& prefix_scratch = lane_arena().scratch;
          state.prefix.reserve(static_cast<std::size_t>(plan.cut + 1));
          const auto stored_prefix = [&state](int index) -> const quant::QTensor& {
            return state.prefix[static_cast<std::size_t>(index)];
          };
          for (int l = 0; l <= plan.cut; ++l) {
            // Shaped up front, so the layer call finds it big enough and the
            // arena's growth counter sees arena buffers only.
            const quant::QLayer& layer = network_->layers[static_cast<std::size_t>(l)];
            quant::QTensor out({layer.geom.out_c, layer.geom.out_h, layer.geom.out_w},
                               layer.out);
            run_layer(l, stored_prefix, state.qimage, /*site_active=*/false, nullptr,
                      state.prefix_cycles, prefix_scratch, out);
            state.prefix.push_back(std::move(out));
          }
        });

        LaneArena& arena = lane_arena();
        if (arena.outputs.size() < network_->layers.size()) {
          arena.outputs.resize(network_->layers.size());
          ++arena.grow_events;
        }
        // A deterministic (L = 0) lane draws nothing, so it gets no sampler.
        BernoulliSampler* sampler =
            request.bayes_layers > 0
                ? &lane_sampler(arena, request.stream_id, request.sample_offset + s)
                : nullptr;
        std::int64_t cycles = 0;
        float* prob_row = all_probs.data() + all_probs.index2(static_cast<int>(pair), 0);

        if (!plan.use_ic) {
          const auto stored = [&arena](int index) -> const quant::QTensor& {
            return arena.outputs[static_cast<std::size_t>(index)];
          };
          for (int l = 0; l < network_->num_layers(); ++l) {
            const quant::QLayer& layer = network_->layers[static_cast<std::size_t>(l)];
            const bool active = request.bayes_layers > 0 && layer.geom.is_bayes_site &&
                                layer.geom.site_index >= plan.first_active_site;
            run_layer(l, stored, state.qimage, active, sampler, cycles, arena.scratch,
                      arena.outputs[static_cast<std::size_t>(l)]);
          }
          store_probs(arena.outputs[static_cast<std::size_t>(network_->num_layers() - 1)],
                      prob_row);
        } else {
          const quant::QTensor& boundary = state.prefix.back();
          const int cut = plan.cut;

          // DU pass over the cached boundary with this sample's fresh mask,
          // into the cut layer's arena slot (copy-assign reuses capacity).
          quant::QTensor& masked = arena.outputs[static_cast<std::size_t>(cut)];
          if (boundary.data.size() > masked.data.capacity()) ++arena.grow_events;
          masked = boundary;
          apply_dropout_unit(masked, *sampler, network_->dropout_keep);

          // Suffix layers into the arena's true-index slots; inputs before
          // the cut resolve against the shared prefix, the cut itself to
          // this sample's masked boundary.
          const auto stored = [&state, &arena, cut](int index) -> const quant::QTensor& {
            return index < cut ? state.prefix[static_cast<std::size_t>(index)]
                               : arena.outputs[static_cast<std::size_t>(index)];
          };
          for (int l = cut + 1; l < network_->num_layers(); ++l) {
            const quant::QLayer& layer = network_->layers[static_cast<std::size_t>(l)];
            const bool active = layer.geom.is_bayes_site &&
                                layer.geom.site_index >= plan.first_active_site;
            run_layer(l, stored, state.qimage, active, sampler, cycles, arena.scratch,
                      arena.outputs[static_cast<std::size_t>(l)]);
          }
          store_probs(arena.outputs[static_cast<std::size_t>(network_->num_layers() - 1)],
                      prob_row);
        }
        pair_cycles[static_cast<std::size_t>(pair)] = cycles;
      },
      runtime::resolve_thread_count(config_.num_threads));

  // Fixed-order reduction per image: rows summed in ascending sample order
  // then scaled — the same per-element float operation sequence as the
  // historical add_/scale_ reduction, so results are bit-identical for
  // every thread count and every batch composition.
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
    for (int s = 0; s < plan.samples; ++s)
      functional_cycles_ += pair_cycles[static_cast<std::size_t>(plan.pair_offset + s)];
    out.stats.push_back(estimate(request.bayes_layers, request.num_samples));
  }
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
