// Request-level serving front end over the accelerator simulator.
//
// The paper frames the accelerator as a high-throughput service for streams
// of Monte Carlo inference requests (cf. VIBNN's request streams and the
// ROADMAP north star). serve::Server is that front end in software: clients
// submit single-image Requests with per-request knobs for S (MC samples)
// and L (Bayesian depth); R replica workers (`ServerConfig::num_replicas`)
// pull per-(model, shape) batch groups off one coalescing queue and run
// each group through a core::Accelerator bound to that group's model — the
// software analogue of FPGA BNN designs replicating processing engines to
// hide sampling and MC latency. Replicas share each quantized network
// read-only (one copy of the weights per model) and slice the shared
// runtime::ThreadPool between them, so each group's flattened
// (image, sample) pair loop fills its share of the pool lanes.
//
// Multi-tenancy: the server fronts a serve::ModelRegistry — a table of
// named, versioned quantized models. Request::model names the tenant
// (empty = ServerConfig::default_model); submit() resolves the name to an
// immutable ModelVersion snapshot, so a hot-swap (ModelRegistry::publish)
// never affects requests already admitted: in-flight work completes on the
// weights it resolved, bit-identically, while every later submit sees the
// new version. Replicas bind an accelerator per (replica, model version)
// lazily and cache a bounded LRU set of binds; a tenant whose exec-plan
// segments the registry's residency budget partially evicted still serves,
// but its resolve pays the non-overlapped remainder of the modelled DDR
// segment reloads (CostModel::streamed_reload_ms — layer k+1's burst hides
// behind layer k's compute) which inflates the request's
// dispatch/admission cost and is counted in ServerStats::cold_starts.
// Per-tenant quotas (ModelConfig::max_queued, read from the version a
// request resolved) bound how much of the queue one tenant may occupy;
// quota rejections throw QuotaExceededError and count in
// ServerStats::quota_rejected.
//
// Dispatch: by default the dispatcher is COST-AWARE — a serve::CostModel
// (the paper's own performance model re-used as a serving oracle) estimates
// each queued per-(model, shape) batch group's modelled latency from its
// requests' {L, S} knobs (per-tenant model descriptions, calibrated onto
// the wall clock so costs are cross-model comparable, cold reloads
// included), and an idle replica pulls the COSTLIEST group first
// (longest-processing-time-first across replicas). LPT balances modelled
// load between replicas and cuts tail latency under mixed cheap/expensive
// traffic; `DispatchMode::fifo` restores the greedy oldest-first pull.
// Routing only changes WHICH replica serves a group and WHEN — never what
// any request's response is (see Determinism below).
//
// Backpressure: `max_queue_depth` bounds the coalescing queue. When it is
// full, submit() either blocks the caller until a replica frees space
// (OverloadPolicy::block) or resolves the returned future immediately with
// a QueueFullError (OverloadPolicy::fail_fast). OverloadPolicy::adaptive
// instead sheds load by PREDICTED COST when the served-latency p99 drifts
// past `latency_target_ms`: eligible (router-enabled) requests are
// downgraded to screening-only first, and only requests whose modelled cost
// no longer fits the latency budget are rejected — the server degrades by
// shedding the costliest work instead of everything that arrives late.
//
// The uncertainty-threshold router implements the paper's Opt-Uncertainty
// serving mode: a cheap screening pass with few samples first; only inputs
// whose predictive entropy crosses the threshold are escalated to the full
// sample count. Low-uncertainty traffic therefore pays screening-pass
// latency only.
//
// Determinism: every request gets a stream id (a submission-order ticket,
// or a caller-chosen id), and the accelerator's sampler lanes are seeded
// per (stream id, sample). A request's response is therefore a pure
// function of (model version's weights, image, its options, its stream id,
// its shed-downgrade flag) — the same no matter how the dispatcher batched
// it, WHICH REPLICA ran it, WHICH DISPATCH MODE picked it, how many worker
// threads ran, whether its model was EVICTED AND RELOADED in between
// (plan rebuild is a pure function of the immutable weights), what other
// TENANTS were hot-swapped mid-flight, or what other traffic was in
// flight. An escalated response is bit-identical to what a direct full-S
// request would have returned; a shed-downgraded response is bit-identical
// to the screening pass a direct never-escalating request would have
// returned. Exception: with ServerConfig::reuse_screening_samples on, an
// escalated response merges the screening average with a second pass over
// only the NEW samples — still a pure function of the same inputs (the
// merged windows consume exactly the mask streams a direct full-S request
// would), but the float reduction order differs, so it is deterministic
// without being bit-identical to the direct full-S result. Across overload
// policies only ADMISSION decisions (reject / downgrade) may differ, and
// each adaptive decision is a pure function of its recorded inputs
// (adaptive_admission + AdmissionRecord), reproducible by a
// single-threaded replay.
#ifndef BNN_SERVE_SERVER_H
#define BNN_SERVE_SERVER_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/accelerator.h"
#include "nn/tensor.h"
#include "serve/cost_model.h"
#include "serve/model_registry.h"

namespace bnn::serve {

class TraceRecorder;  // serve/trace.h — journal behind ServerConfig::trace_path

/// Per-request inference knobs: the paper's {L, S} made request-level.
struct RequestOptions {
  /// S: Monte Carlo samples for the full-quality answer.
  int num_samples = 10;
  /// L: number of trailing Bayesian sites; -1 means every site (full BNN).
  int bayes_layers = -1;
  /// Route through the Opt-Uncertainty screening pass (see Server docs).
  bool use_uncertainty_router = false;
  /// Samples of the cheap screening pass (paper Opt-Uncertainty low-S).
  int screening_samples = 3;
  /// Escalate to the full num_samples when the screening pass's predictive
  /// entropy (nats) exceeds this. <= 0 escalates everything; >= ln(K)
  /// effectively nothing.
  double entropy_threshold_nats = 0.5;
  /// First sample index of this request's sampler-lane range (see
  /// core::Accelerator::ImageRequest::sample_offset): sample s draws from
  /// stream (stream_id, sample_offset + s). Lets a caller split one logical
  /// S-sample prediction across requests with non-overlapping windows; the
  /// router's escalation pass adds its own reuse offset ON TOP of this.
  /// Must be >= 0, and sample_offset + max(num_samples, screening_samples)
  /// must not exceed INT_MAX.
  int sample_offset = 0;
};

/// One inference request: a single image plus its knobs.
struct Request {
  nn::Tensor image;  ///< (C, H, W) or (1, C, H, W) float image
  RequestOptions options;
  /// Registry name of the model to serve this request (empty =
  /// ServerConfig::default_model). Resolved to an immutable version
  /// snapshot at submit — a concurrent hot-swap never retargets an
  /// admitted request. Unknown names throw std::invalid_argument.
  std::string model;
  /// Sampler stream family for this request. Defaults to a submission-order
  /// ticket; fix it explicitly to make a request's masks independent of
  /// when it was submitted (e.g. for replay / A-B comparisons).
  std::optional<std::uint64_t> stream_id;
};

/// The served prediction plus routing metadata.
struct Response {
  nn::Tensor probs;  ///< (1, K) averaged predictive distribution
  int predicted_class = -1;
  double entropy_nats = 0.0;  ///< predictive entropy of `probs`
  bool escalated = false;     ///< router promoted this input to full S
  /// Adaptive shedding answered this routed request from the screening
  /// pass regardless of its entropy (bit-identical to that pass).
  bool shed_downgraded = false;
  int samples_used = 0;  ///< S of the pass that produced `probs`
  int bayes_layers = 0;  ///< resolved L
  std::uint64_t stream_id = 0;
  /// Which registry tenant/version served this request.
  ModelKey model_key = 0;
  std::uint64_t model_version = 1;
  /// This request's resolve found its model evicted and paid the modelled
  /// DDR reload (the response itself is bit-identical either way).
  bool cold_start = false;
  /// Server-wide dispatch order: 1 for the first batch a replica pulled
  /// from the queue, 2 for the next, and so on. Every response of one batch
  /// (escalated ones included) carries that batch's number. It reflects
  /// replica timing, so traces neither journal nor checksum it.
  std::uint64_t dispatch_seq = 0;
  core::RunStats stats;  ///< modelled hardware cost of the producing pass
};

/// What submit() does when the server is overloaded.
enum class OverloadPolicy {
  /// Block the submitting thread on a full queue until a replica frees
  /// space (or the server shuts down, which throws ShutdownError to the
  /// submitter).
  block,
  /// On a full queue, resolve the returned future immediately with
  /// QueueFullError; the request never enters the queue and consumes no
  /// stream-id ticket.
  fail_fast,
  /// Latency-target shedding (requires ServerConfig::latency_target_ms
  /// > 0): while the served p99 exceeds the target, routed requests are
  /// admitted DOWNGRADED to screening-only, and non-routed requests are
  /// rejected with QueueFullError unless their modelled cost still fits
  /// the latency budget on top of the queue's modelled backlog. A full
  /// queue (max_queue_depth) still rejects outright. Decisions are a pure
  /// function of (queue contents, stats window, request) — see
  /// adaptive_admission.
  adaptive,
};

/// How an idle replica picks its next per-(model, shape) batch group.
enum class DispatchMode {
  /// Greedy FIFO: coalesce around the oldest queued request.
  fifo,
  /// Longest-processing-time-first: coalesce the per-(model, shape) group
  /// with the highest modelled cost (serve::CostModel over each request's
  /// first accelerator pass, calibrated wall milliseconds so costs are
  /// cross-model comparable, cold reloads included). Ties fall back to the
  /// oldest group. Default.
  cost_aware,
};

/// The distinct error a backpressure rejection carries: clients can tell
/// "the server is overloaded, retry later" apart from malformed-request
/// (std::invalid_argument) and shutdown (ShutdownError) failures. Thrown
/// into the future by fail_fast and by adaptive shedding.
class QueueFullError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A per-tenant quota rejection (ModelConfig::max_queued): THIS tenant has
/// its share of the queue, not the whole server. Derives from
/// QueueFullError so generic overload handling keeps working; counted in
/// ServerStats::quota_rejected. Applied under every overload policy — a
/// quota'd tenant is rejected, never blocked, so one tenant's burst cannot
/// capture submitter threads.
class QuotaExceededError : public QueueFullError {
 public:
  using QueueFullError::QueueFullError;
};

/// The distinct error shutdown delivers to submitters: thrown by submit()
/// after shutdown() and to submitters blocked on a full queue when
/// shutdown arrives — a woken submitter NEVER enqueues after the
/// dispatcher stopped. Derives from std::runtime_error, so pre-existing
/// catch sites keep working.
class ShutdownError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct ServerConfig {
  /// Most requests coalesced into one accelerator batch group.
  int max_batch = 8;
  /// How long an idle replica lingers for more requests after the first.
  std::chrono::microseconds batch_linger{200};
  /// Total worker-lane budget across all replicas (0 = hardware
  /// concurrency). Each replica's flattened pair loop is capped to
  /// max(1, budget / num_replicas) lanes of the shared pool, so R replicas
  /// partition the pool instead of oversubscribing it. Purely a scheduling
  /// knob; responses are bit-identical for every value.
  int num_threads = 0;
  /// Executor shared by every replica (non-owning; must outlive the
  /// server). nullptr selects the process-wide runtime::shared_pool().
  runtime::ThreadPool* pool = nullptr;
  /// R: accelerator replicas serving the queue concurrently. Replicas
  /// share each quantized network read-only; responses are bit-identical
  /// for every replica count (sampler lanes depend only on stream ids).
  int num_replicas = 1;
  /// Queue bound for backpressure; 0 = unbounded (no fixed admission
  /// bound; adaptive shedding still applies under ::adaptive).
  int max_queue_depth = 0;
  /// What submit() does under overload (see OverloadPolicy).
  OverloadPolicy overload_policy = OverloadPolicy::block;
  /// Group-selection strategy of idle replicas (see DispatchMode).
  /// Scheduling only — responses are bit-identical in both modes.
  DispatchMode dispatch_mode = DispatchMode::cost_aware;
  /// Cost-aware anti-starvation aging: each queued group's LPT score is its
  /// summed modelled first-pass cost PLUS aging_weight * (tickets issued
  /// since the group's oldest request was admitted). A cheap group's score
  /// therefore grows continuously with the traffic that passes it, so it
  /// is eventually picked no matter how costly the competition — the
  /// continuous replacement of the old hard "force the head after 4
  /// bypasses" guard. Units: calibrated wall milliseconds per ticket of
  /// age. Deterministic (ticket counts, no wall clock); scheduling only —
  /// responses are bit-identical for every value. 0 disables aging.
  double aging_weight = 0.01;
  /// Wall-clock p99 target (milliseconds) for OverloadPolicy::adaptive;
  /// must be > 0 under that policy, ignored otherwise.
  double latency_target_ms = 0.0;
  /// Under ::adaptive, measure one accelerator pass at construction and
  /// scale the cost model's modelled milliseconds onto the measured wall
  /// clock (core::PerfCalibration). Disable for tests that want modelled
  /// milliseconds compared against the target as-is.
  bool calibrate_cost_model = true;
  /// Ring capacity of the adaptive admission-decision log (0 = disabled).
  /// Tests and replay harnesses read it via Server::admission_log().
  int admission_log_capacity = 0;
  /// Escalation reuse: when a routed request escalates, rerun only the
  /// num_samples - screening_samples NEW samples (via
  /// core::Accelerator::ImageRequest::sample_offset) and merge the two
  /// sample-window averages, instead of recomputing the full S from
  /// scratch. Cuts the escalation pass's cost by the screening fraction and
  /// tightens the adaptive policy's admission bound to match
  /// (CostModel::admission_ms). The merged response is deterministic (same
  /// mask streams as a direct full-S request) but NOT bit-identical to one:
  /// each window is averaged before merging, so the float summation order
  /// differs. Default off to preserve the strict escalation bit-identity
  /// documented above.
  bool reuse_screening_samples = false;
  /// Registry name served when Request::model is empty. Must name a
  /// published model of the server's registry.
  std::string default_model;
  /// When non-empty, journal every submission to this trace file (see
  /// serve/trace.h): stimulus + golden response checksum per request, plus
  /// the adaptive admission log and the model table of every tenant the
  /// records reference. The recorder's ring is flushed by the replica
  /// workers between batches and finalized by shutdown(). Throws from the
  /// constructor when the file cannot be created.
  std::string trace_path;
  /// Workload id stamped into the trace header — names the weights fixture
  /// for standalone replay tools (see TraceMeta::workload_id). 0 falls
  /// back to the default model's ModelConfig::workload_id.
  std::uint32_t trace_workload_id = 0;
  /// Trace rotation threshold: when > 0 the recorder rolls to a new segment
  /// file (`<trace_path>.000`, `.001`, ...) whenever the current segment
  /// reaches this many bytes. Every segment is an independently valid,
  /// independently replayable trace (own header, own model table, own
  /// trailer). 0 writes one unrotated file at trace_path.
  std::uint64_t trace_max_bytes = 0;
};

/// Aggregate serving counters (monotonic since construction) plus latency
/// percentiles over a sliding window of recently served requests.
/// Invariants (once the queue is drained): requests + rejected ==
/// submitted; shed_downgraded <= requests; shed_rejected + quota_rejected
/// <= rejected — equivalently (requests - shed_downgraded) +
/// shed_downgraded + rejected == submitted (full-quality +
/// downgraded-then-served + rejected).
struct ServerStats {
  std::uint64_t submitted = 0;    ///< valid submissions (accepted + rejected)
  std::uint64_t requests = 0;     ///< responses produced
  std::uint64_t rejected = 0;     ///< backpressure rejections (all policies)
  std::uint64_t batches = 0;      ///< accelerator passes issued
  std::uint64_t screened = 0;     ///< requests that took the screening pass
  std::uint64_t escalations = 0;  ///< screened requests promoted to full S
  /// Served screening-only because adaptive shedding downgraded them.
  std::uint64_t shed_downgraded = 0;
  /// Rejections decided by adaptive shedding (subset of `rejected`).
  std::uint64_t shed_rejected = 0;
  /// Rejections by a tenant's ModelConfig::max_queued quota (subset of
  /// `rejected`, disjoint from shed_rejected).
  std::uint64_t quota_rejected = 0;
  /// Admissions whose registry resolve reloaded an evicted model (the
  /// modelled DDR reload was charged to their dispatch/admission cost).
  std::uint64_t cold_starts = 0;
  /// High-water mark of the coalescing queue length; never exceeds
  /// max_queue_depth when that bound is set.
  std::uint64_t peak_queue_depth = 0;
  /// How many served-request samples back the percentiles below (at most
  /// Server::kLatencyWindow).
  std::uint64_t latency_window_count = 0;
  /// End-to-end request latency (submit() to response ready, wall clock,
  /// milliseconds) over the last `Server::kLatencyWindow` served requests;
  /// 0 until the first response.
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
};

/// Per-tenant serving counters (Server::model_stats). A tenant appears
/// once it has been submitted to; `version` tracks the latest version any
/// of its submissions resolved.
struct ModelServeStats {
  std::string name;
  ModelKey key = 0;
  std::uint64_t version = 0;
  std::uint64_t submitted = 0;
  std::uint64_t served = 0;
  std::uint64_t rejected = 0;        ///< all rejections of this tenant
  std::uint64_t quota_rejected = 0;  ///< subset of `rejected`
  std::uint64_t cold_starts = 0;
};

/// Percentile with linear interpolation between closest ranks: pct in
/// [0, 100], pct=50 of {1,2,3,4} is 2.5. Sorts a copy; the input need not
/// be ordered. A single sample is every percentile of itself. Throws
/// std::invalid_argument on an empty sample set or an out-of-range (or
/// NaN) pct.
double latency_percentile(std::vector<double> samples, double pct);

/// What the adaptive policy decided for one submission.
enum class AdmissionAction { admit, downgrade, reject };

/// Everything an adaptive admission decision depends on. Snapshotting
/// these makes each decision a pure function — see adaptive_admission —
/// and hence replayable single-threadedly.
struct AdmissionInputs {
  bool queue_full = false;        ///< fixed max_queue_depth bound hit
  double p99_ms = 0.0;            ///< served-latency p99 over the stats window
  double latency_target_ms = 0.0; ///< configured target
  double backlog_ms = 0.0;        ///< calibrated modelled cost of the queue
  double request_ms = 0.0;        ///< calibrated worst-case cost of this request
  bool downgrade_eligible = false;///< routed and therefore screenable
};

/// The deterministic adaptive shedding rule (pure function):
///   1. full queue                         -> reject (hard bound),
///   2. p99 <= target (not overloaded)     -> admit,
///   3. eligible (router on)               -> downgrade to screening-only,
///   4. backlog + request fits the target  -> admit (cheap enough),
///   5. otherwise                          -> reject (the costly are shed).
AdmissionAction adaptive_admission(const AdmissionInputs& inputs);

/// One logged adaptive decision (submission order).
struct AdmissionRecord {
  std::uint64_t submit_seq = 0;  ///< value of ServerStats::submitted when decided
  AdmissionInputs inputs;
  AdmissionAction action = AdmissionAction::admit;
};

/// Batched-serving front end over R replica accelerators and a (possibly
/// shared) model registry. Thread-safe: any number of client threads may
/// submit concurrently; each replica worker thread owns its accelerator
/// binds. The destructor drains every accepted request before returning.
///
/// Batches are grouped per (model version, image shape): a replica only
/// coalesces queued requests whose model snapshot AND (C, H, W) match the
/// chosen group head and leaves the rest queued (for itself on its next
/// pull, or for a concurrently idle replica), so heterogeneous traffic
/// splits into homogeneous accelerator passes instead of faulting — and a
/// shape problem can only ever fail its own request, never a batch
/// neighbour or a replica worker. Version-pointer grouping also means a
/// hot-swap splits old-version and new-version requests into separate
/// batches automatically.
class Server {
 public:
  /// Serves every model of `registry` (which may keep gaining tenants and
  /// hot-swaps while the server runs — publish() is the linearization point
  /// for in-flight vs. new submissions). A single-model server is a
  /// one-entry registry. `accel_config` is the shared accelerator
  /// configuration every (replica, model) bind uses: sampler seed, NNE/DDR
  /// geometry; `config.pool`/`config.num_threads` override its
  /// executor knobs. `config.default_model` must already be published.
  /// Under OverloadPolicy::adaptive, `config.latency_target_ms` must be
  /// positive, and (unless calibrate_cost_model is off) one measured pass of
  /// the default model anchors the cost model's wall-clock scale before the
  /// replicas start.
  Server(std::shared_ptr<ModelRegistry> registry, core::AcceleratorConfig accel_config,
         ServerConfig config = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Enqueues a request; the future resolves when its batch completes.
  /// Throws std::invalid_argument on malformed options, an unknown model
  /// name, or an image shape that does not match the resolved model; and
  /// ShutdownError after shutdown() has been called (including to
  /// submitters blocked on a full queue when shutdown arrives — a woken
  /// submitter never enqueues). Under fail_fast or adaptive overload the
  /// returned future holds a QueueFullError instead of a value; a tenant
  /// over its ModelConfig::max_queued quota gets QuotaExceededError under
  /// every policy.
  std::future<Response> submit(Request request);

  /// Synchronous convenience: submit + wait.
  Response infer(Request request);

  /// Stops accepting new requests, serves everything already queued,
  /// releases submitters blocked on a full queue, and joins the replica
  /// workers. Idempotent; also run by the destructor.
  void shutdown();

  ServerStats stats() const;

  /// Per-tenant counters, one entry per model that has been submitted to,
  /// in first-submission order.
  std::vector<ModelServeStats> model_stats() const;

  /// The registry this server resolves models against (never null).
  const std::shared_ptr<ModelRegistry>& registry() const { return registry_; }

  /// The dispatcher's cost oracle; nullptr when neither cost-aware
  /// dispatch nor adaptive shedding is configured.
  const CostModel* cost_model() const { return cost_model_.get(); }

  /// The logged adaptive admission decisions, oldest first (at most
  /// `admission_log_capacity` retained). Empty unless the adaptive policy
  /// and a positive capacity are configured.
  std::vector<AdmissionRecord> admission_log() const;

  /// Latency-percentile window size (served requests retained for the
  /// ServerStats percentiles).
  static constexpr std::size_t kLatencyWindow = 1024;

  /// Accelerator binds a replica keeps alive at once (per-replica LRU
  /// cache over model versions; a bind is a config struct + shared
  /// pointers — the weights and plans live in the registry).
  static constexpr std::size_t kReplicaBindCache = 8;

 private:
  struct Pending {
    nn::Tensor image;  // (1, C, H, W)
    RequestOptions options;
    ModelRegistry::Bound bound;      // resolved model snapshot (immutable)
    std::uint64_t stream_id = 0;
    std::uint64_t ticket = 0;        // submission-order ticket (aging term)
    bool shed_downgrade = false;     // adaptive: answer from the screening pass
    double first_pass_ms = 0.0;      // calibrated dispatch cost (group ranking)
    double admission_ms = 0.0;       // calibrated worst-case cost (backlog)
    std::uint64_t trace_seq = 0;     // recorder slot, valid iff traced
    bool traced = false;
    std::promise<Response> promise;
    std::chrono::steady_clock::time_point submitted;
  };

  /// One cached (model version -> accelerator) bind of a replica.
  struct Bind {
    std::shared_ptr<const ModelVersion> version;
    std::unique_ptr<core::Accelerator> accelerator;
    std::uint64_t last_use = 0;
  };

  /// One replica worker thread and its accelerator-bind cache. The cache
  /// is only touched by the owning worker thread.
  struct Replica {
    std::vector<Bind> binds;
    std::uint64_t bind_tick = 0;
    std::thread thread;
  };

  /// The queued requests of one batch group — a (model version, image
  /// shape) pair — in admission (ticket) order.
  struct QueueGroup {
    const ModelVersion* version = nullptr;
    std::vector<int> shape;
    std::deque<Pending> members;
  };

  void replica_loop(Replica& replica);
  /// The replica's accelerator for this model version, binding (and LRU
  /// evicting) as needed. Worker-thread only.
  core::Accelerator& bind_replica(Replica& replica, const ModelRegistry::Bound& bound);
  void serve_batch(Replica& replica, std::vector<Pending> batch, std::uint64_t dispatch_seq);
  // Latency p99 over the current window; requires mutex_ held. Re-sorts
  // only when the window changed since the last call.
  double window_p99_locked() const;
  // Calibrated modelled backlog of the queue; requires mutex_ held.
  double queue_backlog_ms_locked() const;
  void record_admission_locked(const AdmissionInputs& inputs, AdmissionAction action);
  void append_latency_locked(double ms);
  // The per-tenant counter row for this version's tenant, growing the
  // table as tenants first appear; requires mutex_ held.
  ModelServeStats& model_stats_locked(const ModelVersion& version);

  ServerConfig config_;
  std::shared_ptr<ModelRegistry> registry_;
  core::AcceleratorConfig accel_config_;  // pool/threads resolved per replica
  std::unique_ptr<CostModel> cost_model_;  // set iff cost-aware or adaptive
  std::unique_ptr<TraceRecorder> recorder_;  // set iff trace_path configured
  std::vector<std::unique_ptr<Replica>> replicas_;

  mutable std::mutex mutex_;
  std::condition_variable queue_ready_;  // replicas wait for work
  std::condition_variable queue_space_;  // blocked submitters wait for room
  /// The coalescing queue: one FIFO per batch group, in no particular
  /// order (a group leaves when it empties), and the requests queued in
  /// all of them.
  std::deque<QueueGroup> queue_groups_;
  std::size_t queued_ = 0;
  /// Queued requests per tenant key (quota accounting), indexed by
  /// ModelKey; grows as tenants appear.
  std::vector<std::uint64_t> queued_by_key_;
  /// Per-tenant counters, in first-submission order.
  std::vector<ModelServeStats> model_stats_;
  std::uint64_t next_ticket_ = 0;
  std::uint64_t dispatched_batches_ = 0;  // Response::dispatch_seq source
  bool stopping_ = false;
  ServerStats stats_;
  std::vector<double> latency_window_;  // ring buffer, capacity kLatencyWindow
  std::size_t latency_next_ = 0;
  std::uint64_t window_version_ = 0;  // bumped per append (p99 cache key)
  mutable std::vector<double> sorted_window_;  // lazily re-sorted copy
  mutable std::uint64_t sorted_version_ = ~std::uint64_t{0};
  std::vector<AdmissionRecord> admission_log_;  // ring, capacity from config
  std::size_t admission_next_ = 0;
};

}  // namespace bnn::serve

#endif  // BNN_SERVE_SERVER_H
