#include "serve/model_registry.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/bernoulli_sampler.h"
#include "serve/trace.h"
#include "util/check.h"

namespace bnn::serve {

SegmentTable::SegmentTable(std::shared_ptr<const quant::QuantNetwork> network,
                           std::shared_ptr<std::atomic<std::uint64_t>> clock,
                           std::shared_ptr<std::atomic<std::uint64_t>> builds)
    : network_(std::move(network)), clock_(std::move(clock)), builds_(std::move(builds)) {
  util::require(network_ != nullptr, "segment table: null network");
  slots_.resize(network_->layers.size());
}

quant::PlanSegment SegmentTable::acquire(int index) {
  util::require(index >= 0 && index < num_layers(), "segment table: index out of range");
  Slot& slot = slots_[static_cast<std::size_t>(index)];
  std::shared_future<quant::PlanSegment> pending;
  std::promise<quant::PlanSegment> promise;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (slot.segment != nullptr) {
      slot.last_use = ++*clock_;
      return slot.segment;
    }
    if (slot.building.valid()) {
      pending = slot.building;  // someone else is building — wait, don't redo
    } else {
      slot.building = promise.get_future().share();
    }
  }
  if (pending.valid()) return pending.get();

  // This caller won the build. build_plan_segment is a pure function of the
  // immutable network, so the rebuilt segment is bit-identical to the one
  // that was evicted (and to the publish-time build).
  quant::PlanSegment built;
  try {
    built = quant::build_plan_segment(network_->layers[static_cast<std::size_t>(index)]);
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      slot.building = {};
    }
    promise.set_exception(std::current_exception());
    throw;
  }
  ++*builds_;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    slot.segment = built;
    slot.last_use = ++*clock_;
    slot.building = {};
  }
  promise.set_value(built);
  return built;
}

void SegmentTable::install(int index, quant::PlanSegment segment) {
  util::require(index >= 0 && index < num_layers(), "segment table: index out of range");
  util::require(segment != nullptr, "segment table: null segment");
  std::lock_guard<std::mutex> lock(mutex_);
  Slot& slot = slots_[static_cast<std::size_t>(index)];
  slot.segment = std::move(segment);
  slot.last_use = ++*clock_;
}

bool SegmentTable::evict(int index) {
  util::require(index >= 0 && index < num_layers(), "segment table: index out of range");
  std::lock_guard<std::mutex> lock(mutex_);
  Slot& slot = slots_[static_cast<std::size_t>(index)];
  if (slot.segment == nullptr) return false;
  slot.segment = nullptr;
  return true;
}

int SegmentTable::coldest(std::uint64_t* stamp_out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  int index = -1;
  std::uint64_t stamp = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& slot = slots_[i];
    if (slot.segment == nullptr) continue;
    if (index < 0 || slot.last_use < stamp) {
      index = static_cast<int>(i);
      stamp = slot.last_use;
    }
  }
  if (stamp_out != nullptr) *stamp_out = stamp;
  return index;
}

void SegmentTable::touch_all() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Slot& slot : slots_)
    if (slot.segment != nullptr) slot.last_use = ++*clock_;
}

bool SegmentTable::fully_resident() const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Slot& slot : slots_)
    if (slot.segment == nullptr) return false;
  return true;
}

std::uint64_t SegmentTable::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const Slot& slot : slots_)
    if (slot.segment != nullptr) total += slot.segment->weight_bytes;
  return total;
}

int SegmentTable::resident_segments() const {
  std::lock_guard<std::mutex> lock(mutex_);
  int count = 0;
  for (const Slot& slot : slots_)
    if (slot.segment != nullptr) ++count;
  return count;
}

std::vector<int> SegmentTable::missing_indices() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<int> missing;
  for (std::size_t i = 0; i < slots_.size(); ++i)
    if (slots_[i].segment == nullptr) missing.push_back(static_cast<int>(i));
  return missing;
}

ModelRegistry::ModelRegistry(RegistryConfig config) : config_(config) {}

ModelRegistry::Entry& ModelRegistry::entry_for(const std::string& name) {
  for (std::size_t i = 0; i < order_.size(); ++i)
    if (order_[i] == name) return entries_[i];
  throw std::invalid_argument("model registry: unknown model '" + name + "'");
}

const ModelRegistry::Entry& ModelRegistry::entry_for(const std::string& name) const {
  for (std::size_t i = 0; i < order_.size(); ++i)
    if (order_[i] == name) return entries_[i];
  throw std::invalid_argument("model registry: unknown model '" + name + "'");
}

std::uint64_t ModelRegistry::resident_bytes_locked() const {
  std::uint64_t total = 0;
  for (const Entry& entry : entries_)
    if (entry.table != nullptr) total += entry.table->resident_bytes();
  return total;
}

void ModelRegistry::enforce_budget_locked(const Entry* keep) {
  if (config_.residency_budget_bytes == 0) return;
  while (resident_bytes_locked() > config_.residency_budget_bytes) {
    // Globally coldest resident segment across every tenant (except
    // `keep`): a warm tenant sheds its coldest LAYERS before a hot tenant
    // sheds anything — residency is a continuum, not a binary.
    Entry* victim = nullptr;
    int victim_index = -1;
    std::uint64_t victim_stamp = 0;
    for (Entry& entry : entries_) {
      if (&entry == keep || entry.table == nullptr) continue;
      std::uint64_t stamp = 0;
      const int index = entry.table->coldest(&stamp);
      if (index < 0) continue;
      if (victim == nullptr || stamp < victim_stamp) {
        victim = &entry;
        victim_index = index;
        victim_stamp = stamp;
      }
    }
    if (victim == nullptr) return;  // only `keep` holds residency — it stays
    const bool was_full = victim->table->fully_resident();
    if (!victim->table->evict(victim_index)) return;
    victim->plan = nullptr;  // cached assembly no longer reflects the table
    ++stats_.segment_evictions;
    if (was_full) ++stats_.evictions;
  }
}

std::shared_ptr<const quant::NetworkExecPlan> ModelRegistry::assembled_plan_locked(
    Entry& entry) {
  if (entry.plan != nullptr) return entry.plan;
  auto plan = std::make_shared<quant::NetworkExecPlan>();
  plan->layers.reserve(static_cast<std::size_t>(entry.table->num_layers()));
  for (int i = 0; i < entry.table->num_layers(); ++i)
    plan->layers.push_back(entry.table->acquire(i));
  entry.plan = std::move(plan);
  return entry.plan;
}

std::shared_ptr<const ModelVersion> ModelRegistry::publish(const std::string& name,
                                                           quant::QuantNetwork network,
                                                           ModelConfig config) {
  return publish(name, std::make_shared<const quant::QuantNetwork>(std::move(network)),
                 config);
}

std::shared_ptr<const ModelVersion> ModelRegistry::publish(
    const std::string& name, std::shared_ptr<const quant::QuantNetwork> network,
    ModelConfig config) {
  util::require(network != nullptr, "model registry: null network");
  util::require(!network->layers.empty(), "model registry: empty network");
  // Reject here, not at the first replica bind: a rate the sampler cannot
  // realize would otherwise throw from inside a replica worker.
  (void)core::lfsrs_for_probability(network->dropout_p);

  // Everything expensive — segment builds, fingerprint — happens before the
  // mutex; the flip below is a pointer swap.
  auto plan = std::make_shared<const quant::NetworkExecPlan>(
      quant::build_network_exec_plan(*network));
  const std::uint64_t fingerprint = network_fingerprint(*network);
  const std::uint64_t weight_bytes = plan->weight_bytes();
  std::vector<std::uint64_t> segment_bytes;
  segment_bytes.reserve(plan->layers.size());
  for (const quant::PlanSegment& segment : plan->layers)
    segment_bytes.push_back(segment->weight_bytes);
  auto table = std::make_shared<SegmentTable>(network, segment_clock_, segment_builds_);
  for (int i = 0; i < plan->num_layers(); ++i)
    table->install(i, plan->layers[static_cast<std::size_t>(i)]);
  *segment_builds_ += static_cast<std::uint64_t>(plan->layers.size());

  std::lock_guard<std::mutex> lock(mutex_);
  Entry* entry = nullptr;
  std::uint64_t version = 1;
  ModelKey key = 0;
  for (std::size_t i = 0; i < order_.size(); ++i) {
    if (order_[i] == name) {
      entry = &entries_[i];
      key = static_cast<ModelKey>(i);
      version = entry->current->version + 1;
      ++stats_.swaps;
      break;
    }
  }
  if (entry == nullptr) {
    key = static_cast<ModelKey>(entries_.size());
    order_.push_back(name);
    entries_.emplace_back();
    entry = &entries_.back();
    ++stats_.models;
  }

  auto snapshot = std::make_shared<ModelVersion>();
  snapshot->name = name;
  snapshot->version = version;
  snapshot->key = key;
  snapshot->config = config;
  snapshot->network = std::move(network);
  snapshot->fingerprint = fingerprint;
  snapshot->weight_bytes = weight_bytes;
  snapshot->segment_bytes = std::move(segment_bytes);

  entry->current = std::move(snapshot);
  entry->table = std::move(table);  // publishing makes (or keeps) the tenant resident
  entry->plan = std::move(plan);
  entry->last_use = ++tick_;
  enforce_budget_locked(entry);
  return entry->current;
}

ModelRegistry::Bound ModelRegistry::resolve(const std::string& name) {
  std::shared_ptr<SegmentTable> table;
  Bound bound;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Entry& entry = entry_for(name);
    entry.last_use = ++tick_;
    bound.version = entry.current;
    bound.missing = entry.table->missing_indices();
    if (bound.missing.empty()) {
      // Warm: hand out the cached whole-plan assembly and refresh every
      // segment's LRU stamp — a warm tenant's layers are the HOTTEST.
      bound.plan = assembled_plan_locked(entry);
      entry.table->touch_all();
      enforce_budget_locked(&entry);
      return bound;
    }
    // Segments missing: this resolve pays the (modelled) DDR reload.
    ++stats_.reloads;
    bound.cold_start = true;
    table = entry.table;
  }

  // Materialize every missing segment before returning. Builds run OUTSIDE
  // the registry mutex and are deduplicated per slot, so N replicas
  // resolving one cold tenant concurrently build each segment exactly once
  // while other tenants keep resolving.
  for (const int index : bound.missing) (void)table->acquire(index);
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = entry_for(name);
  if (entry.table == table) {
    bound.plan = assembled_plan_locked(entry);
    enforce_budget_locked(&entry);
  } else {
    // Hot-swapped mid-resolve: assemble from the snapshot table so the
    // caller still gets the version it resolved.
    auto plan = std::make_shared<quant::NetworkExecPlan>();
    plan->layers.reserve(static_cast<std::size_t>(table->num_layers()));
    for (int i = 0; i < table->num_layers(); ++i) plan->layers.push_back(table->acquire(i));
    bound.plan = std::move(plan);
    enforce_budget_locked(nullptr);
  }
  return bound;
}

bool ModelRegistry::has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const std::string& existing : order_)
    if (existing == name) return true;
  return false;
}

std::vector<std::string> ModelRegistry::names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return order_;
}

bool ModelRegistry::hot(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Entry& entry = entry_for(name);
  return entry.table != nullptr && entry.table->fully_resident();
}

std::shared_ptr<const ModelVersion> ModelRegistry::current(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entry_for(name).current;
}

int ModelRegistry::evict_segments(const std::string& name, int keep_first) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = entry_for(name);
  const bool was_full = entry.table->fully_resident();
  int dropped = 0;
  for (int i = std::max(keep_first, 0); i < entry.table->num_layers(); ++i)
    if (entry.table->evict(i)) ++dropped;
  if (dropped > 0) {
    entry.plan = nullptr;
    stats_.segment_evictions += static_cast<std::uint64_t>(dropped);
    if (was_full) ++stats_.evictions;
  }
  return dropped;
}

RegistryStats ModelRegistry::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  RegistryStats stats = stats_;
  stats.resident_bytes = resident_bytes_locked();
  stats.hot_models = 0;
  stats.resident_segments = 0;
  for (const Entry& entry : entries_) {
    if (entry.table == nullptr) continue;
    if (entry.table->fully_resident()) ++stats.hot_models;
    stats.resident_segments += static_cast<std::uint64_t>(entry.table->resident_segments());
  }
  stats.segment_builds = segment_builds_->load();
  return stats;
}

}  // namespace bnn::serve
