// Multi-tenant model registry: the named, versioned model table behind a
// serve::Server — breaks the one-model-per-server assumption.
//
// Each tenant ("model name") maps to an immutable ModelVersion snapshot: a
// shared_ptr-const QuantNetwork plus a table of per-layer exec-plan
// SEGMENTS every replica binds lazily. publish() registers a new tenant or
// HOT-SWAPS an existing one: segment builds and the fingerprint happen before
// the registry mutex is taken, the flip itself is one pointer swap, and
// in-flight requests keep their old ModelVersion handle (and its segment
// table) alive through shared_ptr, so they complete on the old weights
// bit-identically while every submit that starts after publish() returns
// resolves the new version — the swap is a linearization point because
// submit() resolves under the same mutex.
//
// Residency state machine (per tenant):
//
//     RESIDENT  --evict coldest segment-->  PARTIAL  --evict all-->  COLD
//        ^                                     |  ^                    |
//        +------- resolve/acquire builds ------+  +---- acquire -------+
//
// Weights on a real board live in DDR and only a budget's worth stays on
// chip (streamed/double-buffered burst loads, as in the FPGA-accelerator
// survey literature). The registry models that at LAYER granularity:
// RegistryConfig::residency_budget_bytes is enforced in segment bytes, and
// when the resident set exceeds it the GLOBALLY coldest segments (LRU by a
// registry-wide clock) drop first — a warm tenant sheds its coldest layers
// before a hot tenant sheds anything. A partially-resident tenant still
// serves: resolve() rebuilds exactly the missing segments (each a pure
// function of the immutable network, so responses are bit-identical across
// every residency state), flags the resolve cold_start, and reports WHICH
// segments were missing so the serving layer can charge the non-overlapped
// DDR reload remainder (CostModel::streamed_reload_ms — on the board,
// layer k+1's burst hides behind layer k's compute) instead of a flat
// whole-plan reload. Either way resolve() returns a fully-resident plan:
// the rebuild itself is host work, and only its modelled cost differs.
#ifndef BNN_SERVE_MODEL_REGISTRY_H
#define BNN_SERVE_MODEL_REGISTRY_H

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "quant/qnetwork.h"
#include "quant/qplan.h"

namespace bnn::serve {

/// Dense per-tenant slot id, stable for the registry's lifetime (survives
/// hot-swaps; version changes, key does not). Keys index cost-model entries
/// and per-tenant counters cheaply.
using ModelKey = std::uint32_t;

/// Per-tenant knobs fixed at publish time.
struct ModelConfig {
  /// Fixture hint stamped into traces (bench/serve_fixture.h ids; 0 = none).
  std::uint32_t workload_id = 0;
  /// Per-tenant quota: max requests of this model queued in the server at
  /// once (0 = unlimited). Excess submits are rejected with
  /// QuotaExceededError and counted in ServerStats::quota_rejected.
  int max_queued = 0;
};

/// Immutable snapshot of one published model version. Requests hold one via
/// shared_ptr for their whole flight, which is what makes hot-swap draining
/// safe: the old weights outlive the flip for exactly as long as someone
/// still computes on them.
struct ModelVersion {
  std::string name;
  std::uint64_t version = 1;  ///< monotonic per tenant, starts at 1
  ModelKey key = 0;
  /// The publish-time knobs of THIS version: a request reads its quota from
  /// the version it resolved, so a concurrent hot-swap cannot retarget it.
  ModelConfig config;
  std::shared_ptr<const quant::QuantNetwork> network;
  std::uint64_t fingerprint = 0;    ///< serve::network_fingerprint
  /// Resident weight footprint (all layers): each plan segment's
  /// LayerExecPlan::weight_bytes, so a small-map conv layer's K-major copy
  /// counts too.
  std::uint64_t weight_bytes = 0;
  /// Per-layer resident weight bytes — the segment-granular residency and
  /// reload-cost currency (sums to weight_bytes).
  std::vector<std::uint64_t> segment_bytes;
};

struct RegistryConfig {
  /// Resident-segment weight budget in bytes; past it the globally coldest
  /// segments evict (reload charged on next use). 0 = unlimited.
  std::uint64_t residency_budget_bytes = 0;
};

struct RegistryStats {
  std::uint64_t models = 0;
  std::uint64_t hot_models = 0;         ///< fully-resident tenants
  std::uint64_t resident_bytes = 0;     ///< weight bytes of resident segments
  std::uint64_t resident_segments = 0;  ///< resident segment count
  std::uint64_t evictions = 0;   ///< fully-resident -> partial/cold transitions
  std::uint64_t reloads = 0;     ///< resolves that found segments missing
  std::uint64_t swaps = 0;       ///< hot-swaps of an existing tenant
  std::uint64_t segment_evictions = 0;  ///< individual segments dropped
  std::uint64_t segment_builds = 0;     ///< individual segments built (publish + reload)
};

/// Per-tenant-version segment table: the residency ground truth. Slot i
/// holds layer i's PlanSegment when resident (null when evicted) plus an
/// LRU stamp from the registry-wide clock. acquire() is the single build
/// path and is EXACTLY-ONCE under concurrency: the first caller to find a
/// slot empty installs an in-flight marker and builds outside the table
/// lock; concurrent callers for the same slot block on the shared future
/// instead of building again. Tables are immutable in shape (one slot per
/// layer, network fixed) and shared: the registry and any resolve still
/// rebuilding hold them via shared_ptr, so eviction of a segment never
/// invalidates a segment handle someone already acquired.
class SegmentTable {
 public:
  SegmentTable(std::shared_ptr<const quant::QuantNetwork> network,
               std::shared_ptr<std::atomic<std::uint64_t>> clock,
               std::shared_ptr<std::atomic<std::uint64_t>> builds);

  int num_layers() const { return static_cast<int>(slots_.size()); }
  const std::shared_ptr<const quant::QuantNetwork>& network() const { return network_; }

  /// Layer `index`'s segment, building it if evicted (exactly once across
  /// concurrent callers) and bumping its LRU stamp. Never returns null.
  quant::PlanSegment acquire(int index);

  /// Installs an already-built segment (publish installs the whole-plan
  /// build this way, without counting a rebuild).
  void install(int index, quant::PlanSegment segment);

  /// Drops layer `index`'s segment; returns true when a resident segment
  /// was actually dropped (false for an already-empty slot).
  bool evict(int index);

  /// Coldest resident slot, or -1 when nothing is resident. `stamp_out`
  /// receives its LRU stamp (for cross-table comparison).
  int coldest(std::uint64_t* stamp_out) const;

  /// Refreshes every resident slot's LRU stamp (a warm resolve touches the
  /// whole tenant).
  void touch_all();

  bool fully_resident() const;
  std::uint64_t resident_bytes() const;
  int resident_segments() const;
  /// Indices of currently evicted slots, ascending.
  std::vector<int> missing_indices() const;

 private:
  struct Slot {
    quant::PlanSegment segment;  // null = evicted
    std::shared_future<quant::PlanSegment> building;  // valid = build in flight
    std::uint64_t last_use = 0;
  };

  std::shared_ptr<const quant::QuantNetwork> network_;
  std::shared_ptr<std::atomic<std::uint64_t>> clock_;   // registry-wide LRU clock
  std::shared_ptr<std::atomic<std::uint64_t>> builds_;  // registry-wide build counter
  mutable std::mutex mutex_;
  std::vector<Slot> slots_;
};

/// Thread-safe table of named, versioned quantized models. See the header
/// comment for swap and residency semantics.
class ModelRegistry {
 public:
  explicit ModelRegistry(RegistryConfig config = {});

  /// What a request (or a replica bind) holds while in flight.
  struct Bound {
    std::shared_ptr<const ModelVersion> version;
    /// The fully-materialized plan (never null): every segment this resolve
    /// found missing was rebuilt before it returned.
    std::shared_ptr<const quant::NetworkExecPlan> plan;
    /// True when THIS resolve found segments missing (the request it admits
    /// should carry the DDR reload cost).
    bool cold_start = false;
    /// The segment indices missing at resolve time (empty when warm) — what
    /// CostModel::streamed_reload_ms prices.
    std::vector<int> missing;
  };

  /// Registers `name`, or hot-swaps it when already present (version + 1).
  /// The published network is immutable afterwards. Returns the new version
  /// snapshot. Throws std::invalid_argument for a network whose dropout
  /// rate the sampler cannot realize (see core::lfsrs_for_probability) — it
  /// could never serve a request.
  std::shared_ptr<const ModelVersion> publish(const std::string& name,
                                              quant::QuantNetwork network,
                                              ModelConfig config = {});

  /// Same, for an already-wrapped immutable network (no copy).
  std::shared_ptr<const ModelVersion> publish(
      const std::string& name, std::shared_ptr<const quant::QuantNetwork> network,
      ModelConfig config = {});

  /// Resolves `name` to its current version + exec plan, rebuilding missing
  /// segments (Bound::cold_start / Bound::missing report that) and bumping
  /// its LRU stamps. Segment builds run OUTSIDE the registry mutex and are
  /// deduplicated per slot, so concurrent resolves of one cold tenant build
  /// its segment set exactly once. Throws std::invalid_argument for an
  /// unknown name.
  Bound resolve(const std::string& name);

  bool has(const std::string& name) const;
  /// Tenant names in registration order.
  std::vector<std::string> names() const;
  /// True when every segment of the tenant's current version is resident.
  /// Throws std::invalid_argument for an unknown name.
  bool hot(const std::string& name) const;
  /// Current version snapshot (no LRU bump, no reload). Throws
  /// std::invalid_argument for an unknown name.
  std::shared_ptr<const ModelVersion> current(const std::string& name) const;

  /// Force-evicts the tenant's segments with layer index >= keep_first —
  /// the test/bench hook for pinning a specific partial-residency state.
  /// Returns the number of segments dropped. Throws on unknown name.
  int evict_segments(const std::string& name, int keep_first = 0);

  RegistryStats stats() const;
  const RegistryConfig& config() const { return config_; }

 private:
  struct Entry {
    std::shared_ptr<const ModelVersion> current;
    std::shared_ptr<SegmentTable> table;  // residency ground truth
    // Cached whole-plan assembly over `table` (pointer-stable for replica
    // bind caches). Non-null only while it reflects a fully-resident table;
    // any eviction invalidates it.
    std::shared_ptr<const quant::NetworkExecPlan> plan;
    std::uint64_t last_use = 0;  // LRU stamp (resolve ticks)
  };

  Entry& entry_for(const std::string& name);
  const Entry& entry_for(const std::string& name) const;
  // Drops globally-coldest segments until the resident set fits the budget;
  // `keep` is never evicted (the entry just published or resolved).
  void enforce_budget_locked(const Entry* keep);
  std::uint64_t resident_bytes_locked() const;
  // Assembles (and caches) the whole plan of a fully-resident entry.
  std::shared_ptr<const quant::NetworkExecPlan> assembled_plan_locked(Entry& entry);

  RegistryConfig config_;
  mutable std::mutex mutex_;
  std::vector<std::string> order_;  // registration order of names
  std::vector<Entry> entries_;      // indexed by ModelKey
  std::uint64_t tick_ = 0;
  RegistryStats stats_;
  // Registry-wide segment LRU clock and build counter, shared into every
  // SegmentTable so stamps compare across tenants and builds aggregate even
  // for tables a hot-swap already replaced.
  std::shared_ptr<std::atomic<std::uint64_t>> segment_clock_ =
      std::make_shared<std::atomic<std::uint64_t>>(0);
  std::shared_ptr<std::atomic<std::uint64_t>> segment_builds_ =
      std::make_shared<std::atomic<std::uint64_t>>(0);
};

}  // namespace bnn::serve

#endif  // BNN_SERVE_MODEL_REGISTRY_H
