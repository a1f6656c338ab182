// Serving cost oracle: the paper's performance model re-used as the
// dispatcher's estimate of what a request will cost.
//
// The headline result of the source paper (Fan et al., DAC 2021) is a
// cycle model — layer_cycles = max(compute, memory) + fill, composed over
// the IC schedule by core::estimate_mc — accurate enough to drive
// design-space exploration. serve::CostModel wraps exactly that model as a
// per-request latency estimate keyed by the request's {L, S} knobs: the
// dispatcher ranks queued batch groups by modelled cost
// (longest-processing-time-first across replicas), and the adaptive
// overload policy sheds load by predicted cost against a wall-clock
// latency target.
//
// Multi-tenancy: the model is KEYED PER MODEL (serve::ModelKey). Each bound
// tenant carries its own NetworkDesc, (L, S) cache, and weight footprint;
// bind_model() replaces an entry on hot-swap (the `tag` lets callers detect
// staleness by version-pointer identity). cold_reload_ms() prices streaming
// an evicted tenant's weights back from DDR (core::DdrModel at the
// accelerator clock), which is how dispatch and admission learn that a cold
// model is costlier than a hot one.
//
// Modelled milliseconds are accelerator-clock milliseconds; one global
// calibration scale (core::PerfCalibration) maps them onto measured wall
// milliseconds of the software simulator that actually serves the request.
// Relative costs — all the LPT dispatcher needs — are calibration-free; only
// the adaptive policy's comparison against `latency_target_ms` needs the
// calibrated scale (serve::Server measures one calibration pass at startup).
//
// Determinism: modelled costs are a pure function of (network description,
// NNE/DDR config, L, S) and the calibration scale is fixed after startup,
// so every decision derived from CostModel is reproducible given the same
// queue contents and stats window.
#ifndef BNN_SERVE_COST_MODEL_H
#define BNN_SERVE_COST_MODEL_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/perf_model.h"
#include "nn/netdesc.h"

namespace bnn::serve {

struct RequestOptions;
using ModelKey = std::uint32_t;

class CostModel {
 public:
  // Empty model over one NNE/DDR configuration: bind tenants with
  // bind_model().
  CostModel(core::PerfConfig config, bool use_intermediate_caching);

  // Registers (or on hot-swap replaces) tenant `key`: its description, its
  // resident weight footprint (the DDR reload payload), and an opaque
  // identity tag (typically the ModelVersion pointer) readable back via
  // bound_tag. `segment_bytes` carries the per-layer weight footprint
  // (ModelVersion::segment_bytes) that streamed_reload_ms prices; empty
  // degrades that method to the flat cold_reload_ms. Replacing clears the
  // (L, S) cache. Thread-safe.
  void bind_model(ModelKey key, nn::NetworkDesc desc, std::uint64_t weight_bytes,
                  const void* tag = nullptr, std::vector<std::uint64_t> segment_bytes = {});
  // Tag of the bound entry; nullptr when `key` is unbound (or bound tagless).
  const void* bound_tag(ModelKey key) const;

  // Modelled milliseconds of one image's MC inference at {L, S} on tenant
  // `key` — cached per (L, S) pair; thread-safe.
  double modelled_ms(ModelKey key, int bayes_layers, int num_samples) const;

  // Modelled cost of the FIRST accelerator pass a request triggers: the
  // screening pass for routed requests, the full-S pass otherwise. This is
  // the dispatcher's group-ranking unit (the escalation second pass is not
  // known at dispatch time).
  double first_pass_ms(ModelKey key, const RequestOptions& options) const;

  // Worst-case modelled total: first pass plus the escalation pass for
  // routed requests. The adaptive policy's admission unit — overload
  // decisions assume a routed request may escalate. With escalation reuse
  // enabled (ServerConfig::reuse_screening_samples) the second pass runs
  // only the num_samples - screening_samples NEW samples, and the admission
  // bound tightens accordingly.
  double admission_ms(ModelKey key, const RequestOptions& options) const;

  // Mirrors ServerConfig::reuse_screening_samples into admission_ms. Set
  // once at startup, before concurrent readers exist.
  void set_escalation_reuse(bool reuse) { escalation_reuse_ = reuse; }

  // Modelled cost after a shedding downgrade: screening pass only for
  // routed requests (the downgrade's saving), the full pass otherwise.
  double downgraded_ms(ModelKey key, const RequestOptions& options) const;

  // Modelled milliseconds of streaming tenant `key`'s weights back from DDR
  // after an eviction (core::DdrModel transfer at the NNE clock). Charged
  // on top of the first pass / admission cost of the request whose resolve
  // paid the reload. This is the WHOLE-PLAN price: every segment's transfer
  // serializes ahead of the first pass.
  double cold_reload_ms(ModelKey key) const;

  // Modelled milliseconds the first pass actually STALLS for when only
  // `missing` segments (ascending layer indices) reload, double-buffered
  // behind compute: layer i's transfer overlaps layer i-1's compute, so
  // each missing segment past the first resident prefix charges only
  // max(0, transfer_cycles(i) - compute_cycles(i-1)) — the non-overlapped
  // remainder. A missing FIRST layer has nothing to hide behind and charges
  // in full. Always <= cold_reload_ms for the full missing set; equals it
  // when compute can hide nothing. Requires segment_bytes at bind;
  // falls back to cold_reload_ms when absent.
  double streamed_reload_ms(ModelKey key, const std::vector<int>& missing) const;

  // Calibration scale onto measured wall milliseconds (default identity),
  // shared by every tenant: it corrects for simulator-vs-model skew of the
  // HOST, not of one weight set. Set once at startup, before concurrent
  // readers exist.
  void set_calibration(core::PerfCalibration calibration) { calibration_ = calibration; }
  const core::PerfCalibration& calibration() const { return calibration_; }

  // Modelled milliseconds mapped onto the calibrated wall clock.
  double wall_ms(double modelled) const {
    return modelled * calibration_.wall_ms_per_modelled_ms;
  }

 private:
  struct Entry {
    nn::NetworkDesc desc;
    int num_sites = 0;
    std::uint64_t weight_bytes = 0;
    std::vector<std::uint64_t> segment_bytes;  // per-layer reload payloads
    // Per-layer deterministic (L=0) pass cycles — the compute a prefetch
    // can hide behind. Filled lazily on first streamed_reload_ms call.
    std::vector<double> layer_cycles;
    const void* tag = nullptr;
    std::map<std::pair<int, int>, double> cache;
  };

  Entry& entry_locked(ModelKey key) const;
  double modelled_ms_locked(Entry& entry, int bayes_layers, int num_samples) const;

  core::PerfConfig config_;
  bool use_intermediate_caching_;
  bool escalation_reuse_ = false;
  core::PerfCalibration calibration_;
  mutable std::mutex mutex_;
  // unique_ptr so entries stay put as tenants bind (indexed by ModelKey).
  mutable std::vector<std::unique_ptr<Entry>> entries_;
};

}  // namespace bnn::serve

#endif  // BNN_SERVE_COST_MODEL_H
