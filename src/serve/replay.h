// Trace replay: re-serve a recorded request trace under an arbitrary
// serving configuration and hard-fail on checksum divergence.
//
// replay_trace stands up a fresh serve::Server over a registry holding the
// trace's models (replica/thread/dispatch knobs from ReplayConfig),
// re-submits every served/downgraded record to its recorded tenant at its
// recorded stream id — downgraded records as never-escalating routed
// requests, the transform the bit-identity invariant guarantees is
// equivalent — and compares each replayed Response's FNV-1a checksum
// against the recorded golden value. It then re-evaluates the recorded
// adaptive admission log through the pure adaptive_admission function,
// decision by decision. A trace recorded at
// R=1/threads=1 must therefore replay clean at ANY R × threads × dispatch
// mode; any divergence names the exact request.
#ifndef BNN_SERVE_REPLAY_H
#define BNN_SERVE_REPLAY_H

#include <cstdint>
#include <string>
#include <vector>

#include "serve/server.h"
#include "serve/trace.h"

namespace bnn::serve {

/// Serving configuration to replay under. Defaults differ from the usual
/// recording configuration on purpose (cost-aware dispatch, as fast as
/// possible): a replay is a cross-configuration check, not a re-run.
struct ReplayConfig {
  int num_replicas = 1;
  int num_threads = 1;
  int max_batch = 8;
  DispatchMode dispatch_mode = DispatchMode::cost_aware;
  /// false: pace submissions to the recorded arrival_us offsets (original
  /// timing); true: submit back-to-back.
  bool as_fast_as_possible = true;
  /// Require every referenced tenant's fingerprint and the sampler seed to
  /// match the trace before submitting anything — a replay against the
  /// wrong weights fails fast with one clear error instead of reporting
  /// every checksum as divergent. Disable only for tests that hand-build
  /// fixtures without recording metadata.
  bool verify_fingerprint = true;
};

/// One checksum mismatch: the replayed Response of record `seq` hashed to
/// `actual` instead of the recorded `expected`.
struct ReplayDivergence {
  std::uint64_t seq = 0;
  std::uint64_t stream_id = 0;
  std::uint64_t expected = 0;
  std::uint64_t actual = 0;
};

struct ReplayReport {
  std::uint64_t replayed = 0;  ///< records re-submitted (served + downgraded)
  std::uint64_t matched = 0;   ///< replayed records whose checksum matched
  std::uint64_t skipped = 0;   ///< rejected/failed records (nothing to check)
  std::vector<ReplayDivergence> divergences;
  std::uint64_t admission_records = 0;  ///< recorded adaptive decisions checked
  /// Recorded decisions where adaptive_admission(inputs) != recorded action
  /// (would indicate the admission rule changed since the recording).
  std::uint64_t admission_mismatches = 0;

  bool ok() const { return divergences.empty() && admission_mismatches == 0; }
};

/// Re-serves `trace` on a fresh Server over `registry`, routing every
/// record to the registry tenant its model-table entry names (so a trace
/// recorded against a 3-tenant server replays against 3 tenants; a
/// single-model trace's one-entry table names the empty default tenant).
/// With verify_fingerprint on, the sampler seed must match and every
/// referenced tenant must be published with its CURRENT version's
/// fingerprint matching the table entry — per-model, so one stale tenant
/// fails fast by name (std::runtime_error). Throws std::invalid_argument on
/// malformed records, and when the table lists two versions of one model
/// key: a trace spanning a mid-run hot-swap pins two weight sets per name
/// and is not replayable against a single registry state.
ReplayReport replay_trace(const Trace& trace, std::shared_ptr<ModelRegistry> registry,
                          const core::AcceleratorConfig& accel_config,
                          const ReplayConfig& config = {});

/// Human-readable one-line summary ("replayed 48, matched 48, ...").
std::string replay_summary(const ReplayReport& report);

/// Result of diffing two recorded traces record-by-record (by position:
/// record i of A against record i of B — both sides of an A/B comparison
/// should be recorded from the same stimulus sequence).
struct TraceDiff {
  bool meta_matches = true;  ///< sampler seed, reuse flag, model table agree
  std::uint64_t compared = 0;     ///< record pairs examined
  std::uint64_t equal = 0;        ///< pairs with identical outcome + checksum
  std::uint64_t extra_a = 0;      ///< unpaired trailing records of A
  std::uint64_t extra_b = 0;      ///< unpaired trailing records of B
  /// seq of the first divergent pair (record count of the shorter trace
  /// when one is a prefix of the other); ~0 when the traces match.
  std::uint64_t first_divergent_seq = ~std::uint64_t{0};
  /// What diverged there ("checksum", "outcome", ...); empty when equal.
  std::string first_divergence;

  bool identical() const {
    return meta_matches && compared == equal && extra_a == 0 && extra_b == 0;
  }
};

/// Compares two recorded traces: metadata, then record-by-record outcome +
/// golden checksum, naming the first divergent seq. Pure function of the
/// two traces — no serving involved.
TraceDiff diff_traces(const Trace& a, const Trace& b);

/// Human-readable one-line summary of a diff.
std::string diff_summary(const TraceDiff& diff);

}  // namespace bnn::serve

#endif  // BNN_SERVE_REPLAY_H
