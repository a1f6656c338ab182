#include "serve/server.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "metrics/metrics.h"
#include "runtime/thread_pool.h"
#include "serve/trace.h"
#include "util/check.h"

namespace bnn::serve {

namespace {

// `samples` must be non-empty and sorted ascending.
double percentile_sorted(const std::vector<double>& samples, double pct) {
  const double rank = (pct / 100.0) * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

}  // namespace

double latency_percentile(std::vector<double> samples, double pct) {
  util::require(!samples.empty(), "serve: percentile of an empty sample set");
  // Note: NaN pct fails both comparisons and is rejected here too.
  util::require(pct >= 0.0 && pct <= 100.0, "serve: percentile must be in [0, 100]");
  std::sort(samples.begin(), samples.end());
  return percentile_sorted(samples, pct);
}

AdmissionAction adaptive_admission(const AdmissionInputs& inputs) {
  if (inputs.queue_full) return AdmissionAction::reject;
  if (!(inputs.p99_ms > inputs.latency_target_ms)) return AdmissionAction::admit;
  if (inputs.downgrade_eligible) return AdmissionAction::downgrade;
  if (inputs.backlog_ms + inputs.request_ms <= inputs.latency_target_ms)
    return AdmissionAction::admit;
  return AdmissionAction::reject;
}

Server::Server(std::shared_ptr<ModelRegistry> registry, core::AcceleratorConfig accel_config,
               ServerConfig config)
    : config_(std::move(config)),
      registry_(std::move(registry)),
      accel_config_(accel_config) {
  util::require(registry_ != nullptr, "serve: null model registry");
  util::require(registry_->has(config_.default_model),
                "serve: default_model is not published in the registry");
  util::require(config_.max_batch >= 1, "serve: max_batch must be >= 1");
  util::require(config_.num_replicas >= 1, "serve: num_replicas must be >= 1");
  util::require(config_.max_queue_depth >= 0,
                "serve: max_queue_depth must be >= 0 (0 = unbounded)");
  util::require(config_.admission_log_capacity >= 0,
                "serve: admission_log_capacity must be >= 0 (0 = disabled)");
  const bool adaptive = config_.overload_policy == OverloadPolicy::adaptive;
  util::require(!adaptive || config_.latency_target_ms > 0.0,
                "serve: OverloadPolicy::adaptive requires latency_target_ms > 0");

  const std::shared_ptr<const ModelVersion> def = registry_->current(config_.default_model);

  // The dispatch/shedding oracle: the paper's performance model over the
  // shared NNE/DDR configuration. Tenants bind their network descriptions
  // lazily at submit; the default model binds here so the calibration pass
  // below has an entry to price.
  if (config_.dispatch_mode == DispatchMode::cost_aware || adaptive) {
    cost_model_ = std::make_unique<CostModel>(
        core::PerfConfig{accel_config_.nne, accel_config_.ddr},
        accel_config_.use_intermediate_caching);
    // The admission bound must price the escalation pass the server will
    // actually run: reuse reruns only the new samples.
    cost_model_->set_escalation_reuse(config_.reuse_screening_samples);
    cost_model_->bind_model(def->key, def->network->describe(), def->weight_bytes,
                            def.get(), def->segment_bytes);
  }

  // Partition the worker-lane budget: each replica's pair loop gets an
  // equal slice of the pool (at least one lane), so R replicas divide the
  // hardware between them instead of stacking R full-width jobs. With a
  // caller-supplied pool the default budget is that pool's actual size,
  // not the hardware concurrency. Every (replica, model) bind is created
  // from accel_config_, so the slice applies to all tenants alike.
  const int budget = config_.num_threads == 0 && config_.pool != nullptr
                         ? config_.pool->size()
                         : runtime::resolve_thread_count(config_.num_threads);
  const int per_replica = std::max(1, budget / config_.num_replicas);
  accel_config_.pool = config_.pool;
  accel_config_.num_threads = per_replica;

  // Calibrate the cost model once against a measured pass BEFORE any
  // replica starts: the adaptive policy compares modelled cost against a
  // wall-clock latency target, so modelled milliseconds must be mapped onto
  // this host's wall clock. One warmup + one measured pass over a zero
  // image at {L = num_sites, S = 2} on a replica-sized bind of the default
  // model. The scale is fixed afterwards — shedding decisions stay a pure
  // function of (queue contents, stats window) — and every tenant shares it.
  if (adaptive && config_.calibrate_cost_model) {
    const ModelRegistry::Bound bound = registry_->resolve(config_.default_model);
    core::Accelerator accelerator(bound.version->network, bound.plan, accel_config_);
    const quant::QuantNetwork& net = *bound.version->network;
    const nn::HwLayer& first = net.layers.front().geom;
    nn::Tensor probe(first.op == nn::HwLayer::Op::conv
                         ? std::vector<int>{1, first.in_c, first.in_h, first.in_w}
                         : std::vector<int>{1, static_cast<int>(first.in_elems()), 1, 1});
    const std::vector<core::Accelerator::ImageRequest> anchor{
        {net.num_sites, 2, /*stream_id=*/0}};
    (void)accelerator.predict_batch(probe, anchor);  // warmup (pool spin-up etc.)
    const auto started = std::chrono::steady_clock::now();
    (void)accelerator.predict_batch(probe, anchor);
    const double measured_ms = std::chrono::duration<double, std::milli>(
                                   std::chrono::steady_clock::now() - started)
                                   .count();
    const double modelled = cost_model_->modelled_ms(def->key, net.num_sites, 2);
    if (std::isfinite(measured_ms) && measured_ms > 0.0 && modelled > 0.0)
      cost_model_->set_calibration(core::calibrate_perf(measured_ms, modelled));
  }

  if (config_.admission_log_capacity > 0)
    admission_log_.reserve(static_cast<std::size_t>(config_.admission_log_capacity));

  // Request-trace journal (see serve/trace.h): the header pins everything a
  // replayer must match — the default model's fingerprint, the sampler
  // seed, and the escalation-reuse mode — before the first record lands.
  // Further tenants enter the model table as their records arrive.
  if (!config_.trace_path.empty()) {
    TraceMeta meta;
    meta.workload_id = config_.trace_workload_id != 0 ? config_.trace_workload_id
                                                      : def->config.workload_id;
    meta.sampler_seed = accel_config_.sampler_seed;
    meta.network_fingerprint = def->fingerprint;
    meta.reuse_screening_samples = config_.reuse_screening_samples;
    TraceModelInfo info;
    info.model_key = def->key;
    info.model_version = def->version;
    info.workload_id = def->config.workload_id;
    info.fingerprint = def->fingerprint;
    info.name = def->name;
    meta.models.push_back(std::move(info));
    recorder_ = std::make_unique<TraceRecorder>(config_.trace_path, meta,
                                                config_.trace_max_bytes);
  }

  replicas_.reserve(static_cast<std::size_t>(config_.num_replicas));
  for (int r = 0; r < config_.num_replicas; ++r)
    replicas_.push_back(std::make_unique<Replica>());
  try {
    for (auto& replica : replicas_) {
      Replica* r = replica.get();
      r->thread = std::thread([this, r] { replica_loop(*r); });
    }
  } catch (...) {
    // A later std::thread ctor can throw (e.g. std::system_error at the
    // process thread limit); join the replicas already running before the
    // unwinding destroys the state they reference — a joinable thread
    // member reaching ~thread() would std::terminate.
    shutdown();
    throw;
  }
}

Server::~Server() { shutdown(); }

void Server::shutdown() {
  // Claim the worker threads under the lock so concurrent shutdown() calls
  // (e.g. explicit shutdown racing the destructor) never double-join.
  std::vector<std::thread> claimed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    for (auto& replica : replicas_)
      if (replica->thread.joinable()) claimed.push_back(std::move(replica->thread));
  }
  queue_ready_.notify_all();
  queue_space_.notify_all();  // release submitters blocked on a full queue
  for (std::thread& thread : claimed) thread.join();
  // The workers have drained the queue: every begun record is completed, so
  // finalizing here writes the full journal and patches the header counts.
  if (recorder_) recorder_->finalize();
}

double Server::window_p99_locked() const {
  if (latency_window_.empty()) return 0.0;
  if (sorted_version_ != window_version_) {
    sorted_window_ = latency_window_;
    std::sort(sorted_window_.begin(), sorted_window_.end());
    sorted_version_ = window_version_;
  }
  return percentile_sorted(sorted_window_, 99.0);
}

double Server::queue_backlog_ms_locked() const {
  // Summed on demand (no incremental running total): exact, drift-free,
  // and run only on adaptive submissions while overloaded. Queued
  // admission costs are already calibrated wall milliseconds (per tenant),
  // so the backlog is a plain sum — in ticket order, merged across the
  // groups, so it is the same double whatever groups hold the requests.
  // The merge scans every group's front per request: O(queued * groups),
  // where groups counts the queued (model version, shape) pairs.
  std::vector<std::size_t> next(queue_groups_.size(), 0);
  double backlog = 0.0;
  for (std::size_t left = queued_; left > 0; --left) {
    std::size_t oldest = queue_groups_.size();
    for (std::size_t g = 0; g < queue_groups_.size(); ++g) {
      const std::deque<Pending>& members = queue_groups_[g].members;
      if (next[g] < members.size() &&
          (oldest == queue_groups_.size() ||
           members[next[g]].ticket < queue_groups_[oldest].members[next[oldest]].ticket))
        oldest = g;
    }
    backlog += queue_groups_[oldest].members[next[oldest]++].admission_ms;
  }
  return backlog;
}

void Server::record_admission_locked(const AdmissionInputs& inputs,
                                     AdmissionAction action) {
  if (config_.admission_log_capacity <= 0) return;
  AdmissionRecord record;
  record.submit_seq = stats_.submitted;  // pre-increment submission sequence
  record.inputs = inputs;
  record.action = action;
  const std::size_t capacity = static_cast<std::size_t>(config_.admission_log_capacity);
  if (admission_log_.size() < capacity) {
    admission_log_.push_back(record);
  } else {
    admission_log_[admission_next_] = record;
    admission_next_ = (admission_next_ + 1) % capacity;
  }
}

std::vector<AdmissionRecord> Server::admission_log() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<AdmissionRecord> log;
  log.reserve(admission_log_.size());
  // Unwrap the ring: oldest first.
  for (std::size_t i = 0; i < admission_log_.size(); ++i)
    log.push_back(admission_log_[(admission_next_ + i) % admission_log_.size()]);
  return log;
}

ModelServeStats& Server::model_stats_locked(const ModelVersion& version) {
  for (ModelServeStats& row : model_stats_) {
    if (row.key == version.key) {
      if (version.version > row.version) row.version = version.version;
      return row;
    }
  }
  ModelServeStats row;
  row.name = version.name;
  row.key = version.key;
  row.version = version.version;
  model_stats_.push_back(std::move(row));
  return model_stats_.back();
}

std::vector<ModelServeStats> Server::model_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return model_stats_;
}

std::future<Response> Server::submit(Request request) {
  const RequestOptions& options = request.options;
  util::require(options.num_samples >= 1, "serve: num_samples must be >= 1");
  util::require(options.screening_samples >= 1, "serve: screening_samples must be >= 1");
  util::require(options.sample_offset >= 0, "serve: sample_offset must be >= 0");
  util::require(options.sample_offset <= std::numeric_limits<int>::max() -
                                             std::max(options.num_samples,
                                                      options.screening_samples),
                "serve: sample_offset + samples overflows int");

  // Resolve the tenant FIRST: the returned snapshot fixes which weights
  // serve this request (registry publish is the hot-swap linearization
  // point), and all shape validation below is against the resolved
  // network. Unknown names throw std::invalid_argument from the registry.
  const std::string& model_name =
      request.model.empty() ? config_.default_model : request.model;
  ModelRegistry::Bound bound = registry_->resolve(model_name);
  const quant::QuantNetwork& net = *bound.version->network;

  util::require(options.bayes_layers >= -1 && options.bayes_layers <= net.num_sites,
                "serve: bayes_layers out of range (-1 = all sites)");
  util::require(request.image.dim() == 3 ||
                    (request.image.dim() == 4 && request.image.size(0) == 1),
                "serve: request image must be (C,H,W) or (1,C,H,W)");
  const nn::HwLayer& first = net.layers.front().geom;
  if (first.op == nn::HwLayer::Op::conv) {
    // A conv input has real geometry: an element-count check alone would
    // silently accept transposed/HWC layouts and serve garbage.
    util::require(request.image.size(-3) == first.in_c &&
                      request.image.size(-2) == first.in_h &&
                      request.image.size(-1) == first.in_w,
                  "serve: image (C,H,W) does not match the network input geometry");
  } else {
    // Linear-first networks flatten the input; only the count is meaningful.
    util::require(request.image.numel() == first.in_elems(),
                  "serve: image element count does not match the network input");
  }

  Pending pending;
  pending.submitted = std::chrono::steady_clock::now();
  pending.image = request.image.dim() == 3
                      ? request.image.reshaped({1, request.image.size(0),
                                                request.image.size(1),
                                                request.image.size(2)})
                      : std::move(request.image);
  pending.options = options;
  pending.bound = std::move(bound);
  const ModelKey key = pending.bound.version->key;
  if (cost_model_) {
    // Modelled costs are computed OUTSIDE the queue lock (the cost model
    // has its own) — pure functions of (tenant, options), so precomputing
    // them here keeps the admission decision itself O(queue). The tenant's
    // description binds lazily, re-binding only when the version snapshot
    // changed (hot-swap); a cold resolve charges the modelled DDR weight
    // reload on top of both the dispatch and the admission cost. Stored
    // values are CALIBRATED wall milliseconds, the unit of the latency
    // target.
    if (cost_model_->bound_tag(key) !=
        static_cast<const void*>(pending.bound.version.get()))
      cost_model_->bind_model(key, net.describe(), pending.bound.version->weight_bytes,
                              pending.bound.version.get(),
                              pending.bound.version->segment_bytes);
    pending.first_pass_ms = cost_model_->wall_ms(cost_model_->first_pass_ms(key, options));
    pending.admission_ms = cost_model_->wall_ms(cost_model_->admission_ms(key, options));
    if (pending.bound.cold_start) {
      // Charge only the NON-OVERLAPPED remainder of reloading the segments
      // this resolve actually found missing: double-buffered prefetch hides
      // each layer's burst behind the previous layer's compute, so a
      // partially-resident tenant prices in far below a flat whole-plan
      // reload (streamed_reload_ms <= cold_reload_ms always).
      const double reload =
          cost_model_->wall_ms(cost_model_->streamed_reload_ms(key, pending.bound.missing));
      pending.first_pass_ms += reload;
      pending.admission_ms += reload;
    }
  }
  std::future<Response> future = pending.promise.get_future();

  // The journal slot is prepared OUTSIDE the queue lock (the image copy is
  // the expensive part); only the O(1) begin() happens under it, so tracing
  // adds no meaningful hold time to the submission path.
  TraceRecord trace_record;
  if (recorder_) {
    trace_record.options = pending.options;
    trace_record.model_key = key;
    trace_record.model_version = pending.bound.version->version;
    trace_record.image_c = pending.image.size(1);
    trace_record.image_h = pending.image.size(2);
    trace_record.image_w = pending.image.size(3);
    trace_record.image.assign(pending.image.data(),
                              pending.image.data() + pending.image.numel());
    TraceModelInfo info;
    info.model_key = key;
    info.model_version = pending.bound.version->version;
    info.workload_id = pending.bound.version->config.workload_id;
    info.fingerprint = pending.bound.version->fingerprint;
    info.name = pending.bound.version->name;
    recorder_->ensure_model(info);
  }

  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (stopping_) throw ShutdownError("serve: server is shut down");
    const auto journal_rejection = [&] {
      if (recorder_) {
        // A rejection consumes no stream ticket; journal the id the
        // request WOULD have served under (pinned or the current ticket).
        trace_record.stream_id = request.stream_id.value_or(next_ticket_);
        recorder_->complete(recorder_->begin(std::move(trace_record)),
                            TraceOutcome::rejected, nullptr);
      }
    };
    const auto reject_with = [&](const char* reason) {
      ++stats_.submitted;
      ++stats_.rejected;
      ModelServeStats& row = model_stats_locked(*pending.bound.version);
      ++row.submitted;
      ++row.rejected;
      journal_rejection();
      pending.promise.set_exception(std::make_exception_ptr(QueueFullError(reason)));
    };
    // Per-tenant quota, ahead of every overload policy: a tenant over its
    // share is rejected, never blocked, so one tenant's burst cannot
    // capture submitter threads or the whole queue. The quota comes from
    // the version this request resolved, so a concurrent hot-swap cannot
    // apply another version's limit to it.
    const int max_queued = pending.bound.version->config.max_queued;
    const std::uint64_t tenant_queued =
        key < queued_by_key_.size() ? queued_by_key_[key] : 0;
    if (max_queued > 0 && tenant_queued >= static_cast<std::uint64_t>(max_queued)) {
      ++stats_.submitted;
      ++stats_.rejected;
      ++stats_.quota_rejected;
      ModelServeStats& row = model_stats_locked(*pending.bound.version);
      ++row.submitted;
      ++row.rejected;
      ++row.quota_rejected;
      journal_rejection();
      pending.promise.set_exception(std::make_exception_ptr(
          QuotaExceededError("serve: tenant queue quota exceeded (max_queued)")));
      return future;
    }
    const bool queue_full =
        config_.max_queue_depth > 0 &&
        queued_ >= static_cast<std::size_t>(config_.max_queue_depth);
    switch (config_.overload_policy) {
      case OverloadPolicy::fail_fast:
        if (queue_full) {
          // The request never enters the queue and consumes no ticket, so a
          // rejection cannot shift later requests' default stream ids.
          reject_with("serve: queue full, request rejected (fail_fast)");
          return future;
        }
        break;
      case OverloadPolicy::block:
        if (queue_full) {
          // Wait for a replica to pull a batch group. A submitter woken by
          // shutdown() fails deterministically and NEVER enqueues after
          // the dispatcher stopped (checked before any push below).
          queue_space_.wait(lock, [this] {
            return stopping_ ||
                   queued_ < static_cast<std::size_t>(config_.max_queue_depth);
          });
          if (stopping_) throw ShutdownError("serve: server shut down while blocked");
        }
        break;
      case OverloadPolicy::adaptive: {
        AdmissionInputs inputs;
        inputs.queue_full = queue_full;
        inputs.p99_ms = window_p99_locked();
        inputs.latency_target_ms = config_.latency_target_ms;
        inputs.downgrade_eligible = options.use_uncertainty_router;
        // Backlog/request costs only matter past the overload gate; skip
        // the queue walk when the window is within target.
        if (!inputs.queue_full && inputs.p99_ms > inputs.latency_target_ms) {
          inputs.backlog_ms = queue_backlog_ms_locked();
          inputs.request_ms = pending.admission_ms;  // already calibrated
        }
        const AdmissionAction action = adaptive_admission(inputs);
        record_admission_locked(inputs, action);
        // The trace trailer keeps EVERY decision (the in-memory log is a
        // bounded ring) so a replay can re-derive the whole sequence.
        if (recorder_)
          recorder_->record_admission(AdmissionRecord{stats_.submitted, inputs, action});
        if (action == AdmissionAction::reject) {
          ++stats_.shed_rejected;
          reject_with(inputs.queue_full
                          ? "serve: queue full, request rejected (adaptive)"
                          : "serve: latency target exceeded, request shed by "
                            "predicted cost (adaptive)");
          return future;
        }
        if (action == AdmissionAction::downgrade) {
          pending.shed_downgrade = true;
          // The queue backlog must reflect what will actually run: a
          // downgraded request never escalates, so its modelled cost drops
          // to the screening pass — otherwise every queued downgrade would
          // inflate backlog_ms by its never-to-run escalation pass and
          // over-shed later arrivals.
          pending.admission_ms = cost_model_->wall_ms(cost_model_->downgraded_ms(key, options));
        }
        break;
      }
    }
    ++stats_.submitted;
    {
      ModelServeStats& row = model_stats_locked(*pending.bound.version);
      ++row.submitted;
      if (pending.bound.cold_start) {
        ++row.cold_starts;
        ++stats_.cold_starts;
      }
    }
    // Submission-order ticket; a caller-pinned stream id skips the default
    // but still consumes a ticket so later defaults stay order-stable. The
    // ticket itself also feeds the dispatcher's aging term.
    pending.ticket = next_ticket_;
    pending.stream_id = request.stream_id.value_or(next_ticket_);
    ++next_ticket_;
    if (recorder_) {
      trace_record.stream_id = pending.stream_id;
      pending.trace_seq = recorder_->begin(std::move(trace_record));
      pending.traced = true;
    }
    if (queued_by_key_.size() <= key)
      queued_by_key_.resize(static_cast<std::size_t>(key) + 1, 0);
    ++queued_by_key_[key];
    const ModelVersion* version = pending.bound.version.get();
    auto group = std::find_if(queue_groups_.begin(), queue_groups_.end(),
                              [&](const QueueGroup& g) {
                                return g.version == version && g.shape == pending.image.shape();
                              });
    if (group == queue_groups_.end()) {
      queue_groups_.push_back({version, pending.image.shape(), {}});
      group = queue_groups_.end() - 1;
    }
    group->members.push_back(std::move(pending));
    ++queued_;
    stats_.peak_queue_depth = std::max<std::uint64_t>(stats_.peak_queue_depth, queued_);
  }
  // notify_all, not notify_one: with R replicas on one condition variable,
  // a single notify can be absorbed by a replica sitting in its
  // batch-linger wait (predicate still false) while a genuinely idle
  // replica sleeps on. R is small, so waking them all is cheap.
  queue_ready_.notify_all();
  return future;
}

Response Server::infer(Request request) { return submit(std::move(request)).get(); }

ServerStats Server::stats() const {
  ServerStats stats;
  std::vector<double> window;
  {
    // One mutex hold snapshots the counters AND the latency ring together,
    // so a poller never sees counters from one instant paired with a
    // window from another; the sort runs after release so a polling
    // monitor cannot stall submit() or the replicas.
    std::lock_guard<std::mutex> lock(mutex_);
    stats = stats_;
    window = latency_window_;
  }
  stats.latency_window_count = static_cast<std::uint64_t>(window.size());
  if (!window.empty()) {
    std::sort(window.begin(), window.end());
    stats.latency_p50_ms = percentile_sorted(window, 50.0);
    stats.latency_p95_ms = percentile_sorted(window, 95.0);
    stats.latency_p99_ms = percentile_sorted(window, 99.0);
  }
  return stats;
}

void Server::replica_loop(Replica& replica) {
  for (;;) {
    std::vector<Pending> batch;
    std::uint64_t dispatch_seq = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_ready_.wait(lock, [this] { return stopping_ || queued_ > 0; });
      if (queued_ == 0) return;  // stopping and drained
      // Linger briefly for a fuller batch — the blocked lane loop works
      // best when a batch carries many (image, sample) lanes. A bounded
      // queue can never hold more than max_queue_depth requests, so cap
      // the linger target there or the wait would always run out its
      // timeout when max_queue_depth < max_batch.
      const int linger_target =
          config_.max_queue_depth > 0
              ? std::min(config_.max_batch, config_.max_queue_depth)
              : config_.max_batch;
      if (static_cast<int>(queued_) < linger_target && !stopping_) {
        queue_ready_.wait_for(lock, config_.batch_linger, [this, linger_target] {
          return stopping_ || static_cast<int>(queued_) >= linger_target;
        });
      }
      // The linger releases the lock, so a concurrently idle replica may
      // have drained the queue in the meantime.
      if (queued_ == 0) continue;
      // Pick this pull's batch group — a (model version, image shape)
      // pair: an accelerator pass runs one model over one homogeneous
      // shape, and version-pointer identity keeps pre- and post-hot-swap
      // requests of the same tenant in separate groups. FIFO coalesces
      // around the oldest request: the group whose front ticket is oldest.
      // Cost-aware ranks every queued group (its first max_batch members)
      // by their summed modelled first-pass cost — calibrated wall ms, cold
      // reloads included, so costs compare across tenants — and takes the
      // costliest: idle replicas run longest-processing-time-first,
      // balancing modelled load across replicas; ties keep the group with
      // the older member, and within a group requests always leave in
      // queue order. A pull reads O(groups * max_batch) requests, never the
      // whole queue. Selection only decides WHERE and WHEN a request runs —
      // responses are pure functions of (model version, request, stream
      // id), so both modes serve bit-identical responses.
      const auto front_ticket = [this](std::size_t g) {
        return queue_groups_[g].members.front().ticket;
      };
      std::size_t pick = 0;
      for (std::size_t g = 1; g < queue_groups_.size(); ++g)
        if (front_ticket(g) < front_ticket(pick)) pick = g;
      const std::size_t max_batch = static_cast<std::size_t>(config_.max_batch);
      if (config_.dispatch_mode == DispatchMode::cost_aware && cost_model_) {
        // Anti-starvation aging: a group's score grows with every ticket
        // issued since its oldest member was admitted, so a cheap group
        // passed over by costlier traffic is eventually the maximum —
        // continuously, with no hard bypass cliff. Deterministic in the
        // (queue contents, next_ticket_) state; no wall clock involved.
        const auto score = [&](std::size_t g) {
          const std::deque<Pending>& members = queue_groups_[g].members;
          double cost = 0.0;
          for (std::size_t i = 0; i < std::min(members.size(), max_batch); ++i)
            cost += members[i].first_pass_ms;
          return cost + config_.aging_weight * static_cast<double>(next_ticket_ - front_ticket(g));
        };
        double best = score(pick);
        for (std::size_t g = 0; g < queue_groups_.size(); ++g) {
          if (g == pick) continue;
          const double s = score(g);
          if (s > best || (s == best && front_ticket(g) < front_ticket(pick))) {
            best = s;
            pick = g;
          }
        }
      }
      std::deque<Pending>& members = queue_groups_[pick].members;
      const std::size_t take = std::min(members.size(), max_batch);
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        const ModelKey key = members.front().bound.version->key;
        if (key < queued_by_key_.size() && queued_by_key_[key] > 0) --queued_by_key_[key];
        batch.push_back(std::move(members.front()));
        members.pop_front();
      }
      queued_ -= take;
      if (members.empty())
        queue_groups_.erase(queue_groups_.begin() + static_cast<std::ptrdiff_t>(pick));
      dispatch_seq = ++dispatched_batches_;
    }
    queue_space_.notify_all();  // backpressured submitters may proceed
    serve_batch(replica, std::move(batch), dispatch_seq);
    // Journal I/O runs on the replica thread between batches — submitters
    // never pay for the disk write.
    if (recorder_) recorder_->flush();
  }
}

void Server::append_latency_locked(double ms) {
  if (latency_window_.size() < kLatencyWindow) {
    latency_window_.push_back(ms);
  } else {
    latency_window_[latency_next_] = ms;
    latency_next_ = (latency_next_ + 1) % kLatencyWindow;
  }
  ++window_version_;  // invalidates the lazily-sorted p99 copy
}

core::Accelerator& Server::bind_replica(Replica& replica,
                                        const ModelRegistry::Bound& bound) {
  for (Bind& bind : replica.binds) {
    if (bind.version == bound.version) {
      bind.last_use = ++replica.bind_tick;
      return *bind.accelerator;
    }
  }
  if (replica.binds.size() >= kReplicaBindCache) {
    std::size_t victim = 0;
    for (std::size_t i = 1; i < replica.binds.size(); ++i)
      if (replica.binds[i].last_use < replica.binds[victim].last_use) victim = i;
    replica.binds.erase(replica.binds.begin() + static_cast<std::ptrdiff_t>(victim));
  }
  // The bind holds the request's OWN plan handle: even if the registry
  // evicted this tenant right after the batch was pulled, the plan (or
  // segment table) the requests resolved stays alive, and a later
  // re-resolve's rebuilt segments are pure functions of the same immutable
  // weights — bit-identical.
  Bind bind;
  bind.version = bound.version;
  bind.accelerator =
      std::make_unique<core::Accelerator>(bound.version->network, bound.plan, accel_config_);
  bind.last_use = ++replica.bind_tick;
  replica.binds.push_back(std::move(bind));
  return *replica.binds.back().accelerator;
}

void Server::serve_batch(Replica& replica, std::vector<Pending> batch,
                         std::uint64_t dispatch_seq) {
  // Defensive backstop (structurally unreachable after per-(model, shape)
  // batch grouping in replica_loop): a request whose shape or model
  // differs from the batch head fails alone with set_exception; its
  // neighbours and the replica worker itself are untouched.
  const std::vector<int> shape = batch.front().image.shape();
  const ModelVersion* head_version = batch.front().bound.version.get();
  std::size_t keep = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].image.shape() == shape && batch[i].bound.version.get() == head_version) {
      if (keep != i) batch[keep] = std::move(batch[i]);
      ++keep;
    } else {
      if (batch[i].traced)
        recorder_->complete(batch[i].trace_seq, TraceOutcome::failed, nullptr);
      batch[i].promise.set_exception(std::make_exception_ptr(
          std::invalid_argument("serve: request differs from its batch group")));
    }
  }
  batch.resize(keep);

  const int count = static_cast<int>(batch.size());
  const int num_sites = batch.front().bound.version->network->num_sites;
  const auto resolve_layers = [num_sites](const RequestOptions& options) {
    return options.bayes_layers < 0 ? num_sites : options.bayes_layers;
  };

  try {
    // Inside the try: a bind that throws fails this batch's futures instead
    // of escaping the replica thread.
    core::Accelerator& accelerator = bind_replica(replica, batch.front().bound);

    // Pass 1: full quality for direct requests, the cheap screening S for
    // routed ones — one coalesced accelerator batch either way. A
    // shed-downgraded request IS a routed request here; the downgrade only
    // suppresses its escalation below.
    nn::Tensor images({count, batch.front().image.size(1), batch.front().image.size(2),
                       batch.front().image.size(3)});
    std::vector<core::Accelerator::ImageRequest> pass(static_cast<std::size_t>(count));
    for (int n = 0; n < count; ++n) {
      const Pending& pending = batch[static_cast<std::size_t>(n)];
      std::copy(pending.image.data(), pending.image.data() + pending.image.numel(),
                images.data() + static_cast<std::int64_t>(n) * pending.image.numel());
      pass[static_cast<std::size_t>(n)] = core::Accelerator::ImageRequest{
          resolve_layers(pending.options),
          pending.options.use_uncertainty_router ? pending.options.screening_samples
                                                 : pending.options.num_samples,
          pending.stream_id, pending.options.sample_offset};
    }
    core::Accelerator::BatchPrediction first = accelerator.predict_batch(images, pass);

    // Route: responses for settled requests, an escalation list for inputs
    // whose screening entropy crossed the threshold (Opt-Uncertainty). A
    // shed-downgraded request never escalates — its response is the
    // screening pass verbatim, which is exactly what a direct
    // never-escalating routed request with the same stream id would get
    // (bit-identity of the downgrade).
    std::vector<Response> responses(static_cast<std::size_t>(count));
    std::vector<int> escalate;
    std::uint64_t screened = 0;
    std::uint64_t downgraded = 0;
    for (int n = 0; n < count; ++n) {
      const Pending& pending = batch[static_cast<std::size_t>(n)];
      Response& response = responses[static_cast<std::size_t>(n)];
      response.probs = first.probs.batch_row(n);
      response.entropy_nats = metrics::average_predictive_entropy(response.probs);
      response.bayes_layers = pass[static_cast<std::size_t>(n)].bayes_layers;
      response.samples_used = pass[static_cast<std::size_t>(n)].num_samples;
      response.stream_id = pending.stream_id;
      response.model_key = pending.bound.version->key;
      response.model_version = pending.bound.version->version;
      response.cold_start = pending.bound.cold_start;
      response.dispatch_seq = dispatch_seq;
      response.stats = first.stats[static_cast<std::size_t>(n)];
      if (pending.options.use_uncertainty_router) {
        ++screened;
        if (pending.shed_downgrade) {
          response.shed_downgraded = true;
          ++downgraded;
        } else if (response.entropy_nats > pending.options.entropy_threshold_nats) {
          escalate.push_back(n);
          continue;
        }
      }
      response.predicted_class = metrics::argmax_rows(response.probs).front();
    }

    // Pass 2: the escalated subset, same stream ids. Classic mode reruns
    // the full S from scratch — the response is bit-identical to a direct
    // full-S request (the screening samples are the same deterministic
    // lanes, simply recomputed). With reuse_screening_samples on, a
    // promoted request whose full S exceeds its screening S instead reruns
    // ONLY the new samples (sample_offset = screening S picks up exactly
    // where the screening window stopped) and the two window averages are
    // merged by sample count — deterministic, but a different float
    // reduction order than the direct full-S pass (see ServerConfig).
    std::uint64_t extra_batches = 0;
    if (!escalate.empty()) {
      extra_batches = 1;
      const int promoted = static_cast<int>(escalate.size());
      nn::Tensor subset(
          {promoted, images.size(1), images.size(2), images.size(3)});
      std::vector<core::Accelerator::ImageRequest> full(
          static_cast<std::size_t>(promoted));
      const std::int64_t elems = images.numel() / count;
      for (int i = 0; i < promoted; ++i) {
        const Pending& pending = batch[static_cast<std::size_t>(escalate[i])];
        std::copy(pending.image.data(), pending.image.data() + elems,
                  subset.data() + static_cast<std::int64_t>(i) * elems);
        const int screen = pass[static_cast<std::size_t>(escalate[i])].num_samples;
        const bool reuse =
            config_.reuse_screening_samples && pending.options.num_samples > screen;
        // The request's own window offset composes with the reuse offset:
        // the escalation pass continues where the screening window stopped
        // INSIDE the caller-chosen window.
        full[static_cast<std::size_t>(i)] = core::Accelerator::ImageRequest{
            resolve_layers(pending.options),
            reuse ? pending.options.num_samples - screen : pending.options.num_samples,
            pending.stream_id,
            pending.options.sample_offset + (reuse ? screen : 0)};
      }
      core::Accelerator::BatchPrediction second = accelerator.predict_batch(subset, full);
      for (int i = 0; i < promoted; ++i) {
        Response& response = responses[static_cast<std::size_t>(escalate[i])];
        const core::Accelerator::ImageRequest& request =
            full[static_cast<std::size_t>(i)];
        const Pending& pending = batch[static_cast<std::size_t>(escalate[i])];
        const int screen = pass[static_cast<std::size_t>(escalate[i])].num_samples;
        const bool reused =
            config_.reuse_screening_samples && pending.options.num_samples > screen;
        if (reused) {
          // Merge the screening average (already in response.probs) with
          // the new-sample average, weighted by window size, and charge the
          // request the modelled cost of BOTH passes it consumed.
          const int total = pending.options.num_samples;
          const float screen_weight =
              static_cast<float>(screen) / static_cast<float>(total);
          const float second_weight =
              static_cast<float>(request.num_samples) / static_cast<float>(total);
          const nn::Tensor second_row = second.probs.batch_row(i);
          for (std::int64_t k = 0; k < response.probs.numel(); ++k) {
            response.probs.data()[k] = response.probs.data()[k] * screen_weight +
                                       second_row.data()[k] * second_weight;
          }
          const core::RunStats& extra = second.stats[static_cast<std::size_t>(i)];
          response.stats.total_cycles += extra.total_cycles;
          response.stats.latency_ms += extra.latency_ms;
          response.stats.macs += extra.macs;
          response.stats.ddr_bytes += extra.ddr_bytes;
          response.stats.mask_bits += extra.mask_bits;
        } else {
          response.probs = second.probs.batch_row(i);
          response.stats = second.stats[static_cast<std::size_t>(i)];
        }
        response.entropy_nats = metrics::average_predictive_entropy(response.probs);
        response.predicted_class = metrics::argmax_rows(response.probs).front();
        response.escalated = true;
        response.bayes_layers = request.bayes_layers;
        response.samples_used = pending.options.num_samples;
      }
    }

    // Counters land before any promise resolves, so a client that just got
    // its response reads stats() consistent with it. Latencies cover
    // submit() to response-ready and enter a fixed ring so the percentile
    // window tracks recent traffic at bounded memory.
    const auto completed = std::chrono::steady_clock::now();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stats_.requests += static_cast<std::uint64_t>(count);
      stats_.batches += 1 + extra_batches;
      stats_.screened += screened;
      stats_.escalations += static_cast<std::uint64_t>(escalate.size());
      stats_.shed_downgraded += downgraded;
      for (const Pending& pending : batch) {
        ++model_stats_locked(*pending.bound.version).served;
        append_latency_locked(std::chrono::duration<double, std::milli>(
                                  completed - pending.submitted)
                                  .count());
      }
    }
    // Journal outcomes BEFORE resolving promises: once a client holds its
    // response, its trace record is already completed (the dispatcher may
    // flush it at any time after).
    if (recorder_) {
      for (int n = 0; n < count; ++n) {
        const Pending& pending = batch[static_cast<std::size_t>(n)];
        if (!pending.traced) continue;
        const Response& response = responses[static_cast<std::size_t>(n)];
        recorder_->complete(pending.trace_seq,
                            response.shed_downgraded ? TraceOutcome::downgraded
                                                     : TraceOutcome::served,
                            &response);
      }
    }
    for (int n = 0; n < count; ++n)
      batch[static_cast<std::size_t>(n)].promise.set_value(
          std::move(responses[static_cast<std::size_t>(n)]));
  } catch (...) {
    for (Pending& pending : batch) {
      // complete() is idempotent, so a record journaled as served above
      // keeps its outcome even if a later promise resolution threw.
      if (pending.traced)
        recorder_->complete(pending.trace_seq, TraceOutcome::failed, nullptr);
      try {
        pending.promise.set_exception(std::current_exception());
      } catch (const std::future_error&) {
        // promise already satisfied before the failure — nothing to do
      }
    }
  }
}

}  // namespace bnn::serve
