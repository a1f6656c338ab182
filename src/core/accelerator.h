// Top-level accelerator simulator: ties the quantized network, the NNE
// datapath, the Bernoulli sampler and the IC schedule together.
//
// `predict` / `predict_batch` are the functional path — they execute every
// layer with the hardware tiling (bit-exact against quant/qops) while
// drawing Dropout-Unit masks from the simulated LFSR sampler, and report
// the modelled latency. `estimate` is the timing-only path for networks too
// large to execute.
#ifndef BNN_CORE_ACCELERATOR_H
#define BNN_CORE_ACCELERATOR_H

#include <memory>

#include "core/bernoulli_sampler.h"
#include "core/perf_model.h"
#include "core/resource_model.h"
#include "nn/gemm_kernels.h"
#include "quant/qnetwork.h"
#include "quant/qops.h"
#include "quant/qplan.h"

namespace bnn::runtime {
class ThreadPool;
}

namespace bnn::core {

struct AcceleratorConfig {
  NneConfig nne;  // paper final design: PC=64, PF=64, PV=1 @ 225 MHz
  DdrModel ddr;
  int sampler_fifo_depth = 16;
  std::uint64_t sampler_seed = 1;
  bool use_intermediate_caching = true;
  double board_power_watts = 45.0;  // paper's total board power
  /// Worker-lane cap for the (image, sample block) loop of predict()
  /// (0 = hardware concurrency). Output is bit-identical for every thread
  /// count: each (image, sample) pair consumes its own sampler stream
  /// seeded with sample_stream_seed(sampler_seed, stream_id, sample), and
  /// per-sample softmax outputs are reduced in ascending sample order.
  int num_threads = 1;
  /// Executor for the block loop (non-owning; must outlive the
  /// accelerator's predict calls). nullptr selects the process-wide
  /// runtime::shared_pool(); num_threads still caps how many of its lanes
  /// this accelerator uses. Supplying a pool lets a serving layer share one
  /// set of worker threads across many accelerators and requests.
  runtime::ThreadPool* pool = nullptr;
  /// Kernel-tier CAP for the NNE inner product (see nn/gemm_kernels.h).
  /// bitpack (the default) routes weights-binarizable layers with two-valued
  /// activations through the XNOR/popcount path and falls back to int8
  /// everywhere else; outputs are bit-identical for every setting, so this
  /// knob trades host simulation speed only.
  nn::kernels::Tier kernel_tier = nn::kernels::Tier::bitpack;
};

/// Simulated BNN accelerator. Thread-safety: a given Accelerator must be
/// driven from one thread at a time (predict mutates the functional cycle
/// counter); distinct Accelerators may run concurrently and may share one
/// runtime::ThreadPool.
///
/// Replication: the quantized network is held through a shared_ptr-const,
/// so COPYING an Accelerator shares the weights and layer schedule
/// read-only instead of duplicating them — a serving layer can stand up R
/// replicas of one accelerator at the cost of R config structs. Each copy
/// keeps its own functional cycle counter and executor knobs, and the
/// per-call IC prefix state of predict_batch is call-local, so replicas
/// never observe each other.
class Accelerator {
 public:
  /// Takes ownership of the network. Runs quant::annotate_weight_tiers on it
  /// first, so the timing/cost models see binarizable layers even for
  /// hand-assembled networks (quantize_model output is already annotated).
  Accelerator(quant::QuantNetwork network, AcceleratorConfig config);

  /// Shares an already-wrapped network (no copy). The network must not be
  /// mutated for the accelerator's lifetime. Callers wanting the binary
  /// cycle model should annotate before wrapping (quantize_model does).
  Accelerator(std::shared_ptr<const quant::QuantNetwork> network, AcceleratorConfig config);

  /// Shares both the network AND a prebuilt execution plan (which must be
  /// build_network_exec_plan(*network) or equivalent). The registry-serving
  /// path uses this to bind many (replica, model) accelerators without
  /// rebuilding per-layer plans each time.
  Accelerator(std::shared_ptr<const quant::QuantNetwork> network,
              std::shared_ptr<const quant::NetworkExecPlan> plan, AcceleratorConfig config);

  /// Per-image knobs of one batched prediction — the request-level unit of
  /// the serving layer. The paper's L (Bayesian depth) and S (MC samples)
  /// are free per image; `stream_id` names the sampler-lane family so a
  /// request's masks do not depend on where in a batch it lands.
  struct ImageRequest {
    int bayes_layers = 0;         ///< L: last-L sites active (0 = deterministic)
    int num_samples = 1;          ///< S: MC samples averaged for this image
    std::uint64_t stream_id = 0;  ///< lane family fed to sample_stream_seed
    /// First sample index of this request's lane range: sample s draws from
    /// sample_stream_seed(seed, stream_id, sample_offset + s). Lets a caller
    /// split one logical S-sample prediction across multiple requests with
    /// non-overlapping sample windows (the serving layer's escalation-reuse
    /// mode): {offset 0, S1 samples} followed by {offset S1, S - S1 samples}
    /// consumes exactly the mask streams a single {offset 0, S} request
    /// would. The AVERAGES then differ from the single-request result only
    /// in float summation order (each window is averaged before merging) —
    /// deterministic, but not bit-identical to the unsplit reduction.
    /// Must be >= 0, and sample_offset + num_samples must not exceed INT_MAX.
    int sample_offset = 0;
  };

  struct Prediction {
    nn::Tensor probs;  // (N, K) averaged predictive distribution
    RunStats stats;    // modelled latency/traffic for ONE image's S samples
  };

  /// Result of predict_batch: averaged predictive rows plus the modelled
  /// per-image hardware cost of each request's {L, S}.
  struct BatchPrediction {
    nn::Tensor probs;             ///< (N, K)
    std::vector<RunStats> stats;  ///< one entry per image/request
  };

  /// Runs Monte Carlo inference over a batch of float images (N, C, H, W)
  /// with the last `bayes_layers` sites active and `num_samples` samples
  /// per image. Functional output is bit-exact with the reference executor.
  /// Equivalent to predict_batch with uniform knobs and stream_id = image
  /// index.
  Prediction predict(const nn::Tensor& images, int bayes_layers, int num_samples);

  /// Batched prediction by blocks of samples: ONE parallel_for runs every
  /// (image, sample block) unit of the batch, a block holding up to
  /// kMaxBlockSamples (core/nne.h) samples of one image, which every layer
  /// past the IC prefix executes with one NNE call (nne_run_block_into) —
  /// one GEMM over B x positions, each weight row streamed once per block.
  /// An image's samples split into more blocks only while the pool has more
  /// lanes than blocks, so small-S / large-N serving workloads still fill
  /// every pool lane. Per-image deterministic prefixes (the IC cache) run
  /// one sample, computed lazily by whichever unit needs them first and
  /// shared read-only. `requests` carries one entry per image. Output row n
  /// is a pure function of (weights, image n, sampler_seed, requests[n]) —
  /// independent of batch composition, order, blocking and thread count.
  BatchPrediction predict_batch(const nn::Tensor& images,
                                const std::vector<ImageRequest>& requests);

  /// Timing-only estimate for one image's full MC inference.
  RunStats estimate(int bayes_layers, int num_samples) const;

  /// Resource footprint of this configuration on `device` for this network.
  ResourceUsage resources(const FpgaDevice& device) const;

  const quant::QuantNetwork& network() const { return *network_; }

  /// The shared network handle (for standing up further replicas).
  const std::shared_ptr<const quant::QuantNetwork>& shared_network() const {
    return network_;
  }

  /// The shared execution-plan handle (for binding further accelerators to
  /// the same model without a plan rebuild).
  const std::shared_ptr<const quant::NetworkExecPlan>& shared_plan() const { return plan_; }
  const AcceleratorConfig& config() const { return config_; }

  /// Replaces the executor used by subsequent predict calls (see
  /// AcceleratorConfig::pool). Non-owning; nullptr = process-wide pool.
  void set_thread_pool(runtime::ThreadPool* pool) { config_.pool = pool; }

  /// Adjusts the worker-lane cap of subsequent predict calls (see
  /// AcceleratorConfig::num_threads). Scheduling only — results are
  /// bit-identical for every value.
  void set_num_threads(int num_threads) { config_.num_threads = num_threads; }

  /// Functional compute-cycle total of the last predict() call, summed over
  /// all layer executions (used by the model-vs-simulation cycle tests).
  std::int64_t last_functional_compute_cycles() const { return functional_cycles_; }

  /// Cumulative allocation (capacity-growth) count of THIS THREAD's lane
  /// arena — the reusable per-worker storage (block layer outputs, NNE
  /// scratch, packed-activation buffers, samplers) that predict lanes run
  /// out of.
  /// After a warmup predict over a network's largest shapes, further
  /// predicts on the same thread leave it unchanged: steady-state lanes are
  /// allocation-free (pinned by tests). Thread-local by design — call it
  /// from the thread that ran the lanes (num_threads = 1 runs them on the
  /// caller).
  static std::uint64_t lane_arena_grow_events();

  /// Seed of the LFSR sampler stream that lane (stream_id, sample) consumes
  /// inside predict() — the software analogue of giving every concurrent
  /// sampling lane its own decorrelated LFSR bank. predict() uses the batch
  /// index as stream_id; predict_batch takes it from the ImageRequest.
  /// Exposed so reference executors and tests can reproduce the exact mask
  /// streams.
  static std::uint64_t sample_stream_seed(std::uint64_t base_seed, std::uint64_t stream_id,
                                          int sample);

 private:
  std::shared_ptr<const quant::QuantNetwork> network_;
  // Prebuilt kernel execution plans (index tables, packed weight masks),
  // one per layer — shared read-only by every lane and every replica copy.
  std::shared_ptr<const quant::NetworkExecPlan> plan_;
  AcceleratorConfig config_;
  nn::NetworkDesc desc_;
  std::int64_t functional_cycles_ = 0;
};

}  // namespace bnn::core

#endif  // BNN_CORE_ACCELERATOR_H
