#include "serve/cost_model.h"

#include <algorithm>

#include "serve/server.h"
#include "util/check.h"

namespace bnn::serve {

CostModel::CostModel(core::PerfConfig config, bool use_intermediate_caching)
    : config_(config), use_intermediate_caching_(use_intermediate_caching) {}

void CostModel::bind_model(ModelKey key, nn::NetworkDesc desc, std::uint64_t weight_bytes,
                           const void* tag, std::vector<std::uint64_t> segment_bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (entries_.size() <= key) entries_.resize(static_cast<std::size_t>(key) + 1);
  auto entry = std::make_unique<Entry>();
  entry->num_sites = desc.num_sites();
  entry->desc = std::move(desc);
  entry->weight_bytes = weight_bytes;
  entry->segment_bytes = std::move(segment_bytes);
  entry->tag = tag;
  entries_[key] = std::move(entry);
}

const void* CostModel::bound_tag(ModelKey key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (key >= entries_.size() || entries_[key] == nullptr) return nullptr;
  return entries_[key]->tag;
}

CostModel::Entry& CostModel::entry_locked(ModelKey key) const {
  util::require(key < entries_.size() && entries_[key] != nullptr,
                "cost model: unbound model key");
  return *entries_[key];
}

double CostModel::modelled_ms_locked(Entry& entry, int bayes_layers, int num_samples) const {
  const int layers = bayes_layers < 0 ? entry.num_sites : bayes_layers;
  const auto key = std::make_pair(layers, num_samples);
  const auto hit = entry.cache.find(key);
  if (hit != entry.cache.end()) return hit->second;
  const double ms =
      core::estimate_mc(entry.desc, config_, layers, num_samples, use_intermediate_caching_)
          .latency_ms;
  entry.cache.emplace(key, ms);
  return ms;
}

double CostModel::modelled_ms(ModelKey key, int bayes_layers, int num_samples) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return modelled_ms_locked(entry_locked(key), bayes_layers, num_samples);
}

double CostModel::first_pass_ms(ModelKey key, const RequestOptions& options) const {
  const int samples = options.use_uncertainty_router ? options.screening_samples
                                                     : options.num_samples;
  return modelled_ms(key, options.bayes_layers, samples);
}

double CostModel::admission_ms(ModelKey key, const RequestOptions& options) const {
  double ms = first_pass_ms(key, options);
  if (options.use_uncertainty_router) {
    // Escalation-reuse servers rerun only the samples the screening pass
    // did not already draw (when there are any); classic servers recompute
    // the full S from scratch.
    const int second_pass =
        escalation_reuse_ ? options.num_samples - options.screening_samples
                          : options.num_samples;
    if (second_pass > 0) ms += modelled_ms(key, options.bayes_layers, second_pass);
  }
  return ms;
}

double CostModel::downgraded_ms(ModelKey key, const RequestOptions& options) const {
  return first_pass_ms(key, options);
}

double CostModel::cold_reload_ms(ModelKey key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Entry& entry = entry_locked(key);
  const double cycles = config_.ddr.transfer_cycles(
      static_cast<std::int64_t>(entry.weight_bytes), config_.nne.clock_mhz);
  // cycles / (MHz * 1e6) seconds -> * 1e3 ms.
  return cycles / (config_.nne.clock_mhz * 1e3);
}

double CostModel::streamed_reload_ms(ModelKey key, const std::vector<int>& missing) const {
  if (missing.empty()) return 0.0;
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = entry_locked(key);
  const int num_layers = static_cast<int>(entry.segment_bytes.size());
  if (num_layers == 0) {
    // No per-layer payload info bound: flat whole-plan price.
    const double cycles = config_.ddr.transfer_cycles(
        static_cast<std::int64_t>(entry.weight_bytes), config_.nne.clock_mhz);
    return cycles / (config_.nne.clock_mhz * 1e3);
  }
  if (entry.layer_cycles.empty()) {
    // The deterministic pass's per-layer durations — the compute windows a
    // double-buffered prefetch hides transfers behind. Cached per bind.
    const core::RunStats pass = core::estimate_pass(
        entry.desc, config_, 0, static_cast<int>(entry.desc.layers.size()) - 1,
        /*input_from_chip=*/false, /*keep_last_on_chip=*/false);
    entry.layer_cycles.reserve(pass.per_layer.size());
    for (const core::LayerTiming& timing : pass.per_layer)
      entry.layer_cycles.push_back(timing.cycles);
  }
  double stall_cycles = 0.0;
  for (const int index : missing) {
    util::require(index >= 0 && index < num_layers,
                  "cost model: missing segment index out of range");
    const double transfer = config_.ddr.transfer_cycles(
        static_cast<std::int64_t>(entry.segment_bytes[static_cast<std::size_t>(index)]),
        config_.nne.clock_mhz);
    if (index == 0) {
      // Nothing computes ahead of layer 0 — its reload charges in full.
      stall_cycles += transfer;
    } else {
      // Layer index's burst rides behind layer index-1's compute; only the
      // non-overlapped remainder stalls the pipeline.
      const double window =
          entry.layer_cycles[static_cast<std::size_t>(index) - 1];
      stall_cycles += std::max(0.0, transfer - window);
    }
  }
  return stall_cycles / (config_.nne.clock_mhz * 1e3);
}

}  // namespace bnn::serve
