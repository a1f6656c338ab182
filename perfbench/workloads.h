// The benchmark's workloads: which networks are served under which tenant
// names, which {L, S} request classes they receive, the fixed open-loop
// rates and latency limit, and the seeded request streams.
//
// Every constant here is fixed in source, never derived at run time from the
// program's own speed: a later change must be judged at the same rates and
// against the same limit as its parent.
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/accelerator.h"
#include "data/dataset.h"
#include "nn/models.h"
#include "serve/server.h"
#include "util/rng.h"

namespace perfbench {

/// One {L, S} request class of a tenant.
struct RequestClass {
  std::string label;
  int bayes_layers = 1;  ///< resolved L (>= 1)
  int num_samples = 1;   ///< S of the full-quality pass
  /// Opt-Uncertainty routing: screen with `screening_samples`, escalate to
  /// `num_samples` when the screening entropy exceeds the threshold.
  bool routed = false;
  int screening_samples = 0;
  double entropy_threshold_nats = 0.0;
  /// Share of its tenant's requests, relative to the tenant's other classes.
  double weight = 1.0;
};

/// One distinct float network and its stimulus / calibration images.
struct Network {
  std::string name;
  bnn::nn::Model model;
  bnn::data::Dataset images;
  bnn::core::AcceleratorConfig accel;
};

/// A registry tenant: a name serving one of the workload's networks.
struct Tenant {
  std::string name;
  int network = 0;
  double popularity = 1.0;
  std::vector<RequestClass> classes;
  /// Requests alternate the flat (F,1,1) and square (1,H,W) views of a
  /// linear-first network's input: two shape groups for one tenant.
  bool square_view = false;
};

struct Workload {
  std::string name;
  double lo_rps = 0.0;       ///< fixed open-loop rate `lo`
  double hi_rps = 0.0;       ///< fixed open-loop rate `hi`
  double limit_ms = 0.0;     ///< p99 latency limit behind slo_rps
  /// Offline-drain requests per second of --seconds (fixes the drain
  /// list's length; not a rate the drain is held to).
  double drain_per_second = 0.0;
  /// Mean requests per burst; 1 = plain Poisson arrivals.
  double burst_mean = 1.0;
  int replicas = 1;
  int lanes_per_replica = 1;
  std::vector<Network> networks;
  std::vector<Tenant> tenants;

  int total_lanes() const { return replicas * lanes_per_replica; }
};

/// Names of every workload, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Builds a workload's networks (untrained paper nets at their pinned
/// seeds, or the pinned-seed serving fixtures) and constants. Throws
/// std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name);

/// The six networks whose layers the traced run times one by one: the
/// paper's three and the three serving fixtures.
std::vector<Network> all_networks();

/// One request of a generated stream.
struct Arrival {
  double due_s = 0.0;  ///< offset from the phase start
  int tenant = 0;
  int cls = 0;
  int image = 0;  ///< index into the tenant network's images
  bool square = false;
  std::uint64_t stream_id = 0;  ///< request index across the run
};

/// Open-loop stream of `count` requests at `rps` (Poisson, or compound
/// Poisson bursts when burst_mean > 1). Stream ids start at `first_stream`.
std::vector<Arrival> open_loop_stream(const Workload& workload, double rps, std::size_t count,
                                      bnn::util::Rng& rng, std::uint64_t first_stream);

/// `count` requests all due at once (offline drain).
std::vector<Arrival> drain_stream(const Workload& workload, int count, bnn::util::Rng& rng,
                                  std::uint64_t first_stream);

/// The request a stream entry stands for.
bnn::serve::Request make_request(const Workload& workload, const Arrival& arrival);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H
