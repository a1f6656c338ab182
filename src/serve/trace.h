// Fleet-scale record/replay: the versioned binary request-trace format and
// the in-server TraceRecorder.
//
// The repo's core invariant — a Response is a pure function of (weights,
// image, options, stream id) for ANY thread count, replica count, dispatch
// mode, and kernel tier — is promoted here from hand-written unit fixtures
// to a fleet-level regression gate: every request a serve::Server handles
// can be journaled to a trace file together with a golden FNV-1a checksum
// of its Response, and serve::replay_trace (replay.h) re-submits the trace
// under ANY serving configuration and hard-fails on the first divergent
// checksum. This mirrors how FPGA-accelerator work validates against fixed
// stimulus streams (Fan et al., DAC 2021): a recorded trace is a permanent
// cross-configuration regression asset.
//
// Format (version 2, all integers little-endian, written byte-by-byte so
// the file is identical on every host):
//
//   header  : magic u64 ("BNTRACE1"), version u32, flags u32 (bit 0 =
//             reuse_screening_samples of the recording server), workload id
//             u32 (fixture hint for standalone replay tools; the DEFAULT
//             model's workload in a multi-model trace), sampler seed
//             u64, network fingerprint u64 (FNV-1a over the default model's
//             quantized weights), record count u64, admission-record count
//             u64, model-table count u32. The three counts are patched in
//             by TraceRecorder::finalize.
//   record  : seq u64 (submission order), arrival us u64 (offset from
//             recorder construction), stream id u64, model key u32 + model
//             version u64 (which registry tenant served it), the full
//             RequestOptions (S, L, screening S, sample offset, router
//             flag, entropy threshold as f64 bits), the image ((C, H, W)
//             u32 each + C*H*W f32 bit patterns — traces are self-contained
//             stimulus streams), the outcome (served / downgraded /
//             rejected / failed), escalated flag, samples used, predicted
//             class, and the golden Response checksum (0 when no response
//             was produced).
//   trailer : the recorded AdmissionRecords (adaptive policy decisions),
//             each {submit seq u64, queue_full u8, downgrade_eligible u8,
//             action u8, p99 / target / backlog / request cost as f64 bits},
//             then the model table: one {key u32, workload id u32, version
//             u64, fingerprint u64, name length u32 + bytes} per distinct
//             (model key, model version) the records reference.
//
// A file with an empty model table (a recorder that never finalized) reads
// as single-model: the reader synthesizes a one-entry table from the
// header's workload id and fingerprint, and every record maps to it.
//
// Checksum coverage: response_checksum hashes the probability row (shape +
// exact float bits), predicted class, entropy, escalated flag, samples
// used, resolved L, and the modelled RunStats. It deliberately EXCLUDES
// stream_id (implicit in the record) and shed_downgraded: a downgraded
// response is bit-identical to the screening pass of a direct
// never-escalating request at the same stream id, and the replayer uses
// exactly that transform to re-serve downgraded records, so the checksum
// must not distinguish the two.
#ifndef BNN_SERVE_TRACE_H
#define BNN_SERVE_TRACE_H

#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/server.h"

namespace bnn::quant {
struct QuantNetwork;
}

namespace bnn::serve {

/// "BNTRACE1" as a little-endian u64.
inline constexpr std::uint64_t kTraceMagic = 0x3145434152544E42ull;
inline constexpr std::uint32_t kTraceVersion = 2;

/// Malformed trace file: wrong magic, unsupported version, truncation, or
/// an out-of-range field. Distinct from I/O failures (std::runtime_error
/// with an errno message) so tests can pin the corruption paths.
class TraceFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// What happened to a recorded request.
enum class TraceOutcome : std::uint8_t {
  served = 0,      ///< full-quality response (escalated or not)
  downgraded = 1,  ///< adaptive shedding answered from the screening pass
  rejected = 2,    ///< backpressure / shedding rejection (no response)
  failed = 3,      ///< the request's promise received an exception
};

/// One model-table entry: a (registry key, version) the records reference.
struct TraceModelInfo {
  std::uint32_t model_key = 0;
  std::uint64_t model_version = 1;
  /// Fixture hint for standalone tools (bench/serve_fixture.h ids).
  std::uint32_t workload_id = 0;
  /// network_fingerprint of this tenant's weights.
  std::uint64_t fingerprint = 0;
  /// Registry name ("" = the recording server's default model).
  std::string name;
};

/// Recording-time facts a replayer needs to reproduce the responses.
struct TraceMeta {
  /// Which weights fixture the trace was recorded against — an opaque id
  /// for standalone tools (bench/serve_fixture.h names 1 = tiny CNN 12x12,
  /// 2 = MLP-49); 0 means "caller supplies the accelerator".
  std::uint32_t workload_id = 0;
  /// AcceleratorConfig::sampler_seed of the recording server. The only
  /// accelerator knob that changes functional output (tiling, kernel tier,
  /// and thread counts are all bit-identical), so the replayer must match it.
  std::uint64_t sampler_seed = 1;
  /// FNV-1a fingerprint of the quantized network (network_fingerprint).
  std::uint64_t network_fingerprint = 0;
  /// ServerConfig::reuse_screening_samples of the recording server —
  /// escalated responses depend on it, so the replayer mirrors it.
  bool reuse_screening_samples = false;
  /// The distinct (model key, model version) tenants the records reference.
  /// Always at least one entry after read_trace (an empty table reads as
  /// a single entry synthesized from the header fields).
  std::vector<TraceModelInfo> models;
};

/// One journaled request: the stimulus (image + options + stream id +
/// arrival time) and the golden outcome.
struct TraceRecord {
  std::uint64_t seq = 0;         ///< submission order, 0-based
  std::uint64_t arrival_us = 0;  ///< microseconds since recorder construction
  std::uint64_t stream_id = 0;
  std::uint32_t model_key = 0;      ///< registry tenant (0 = default model)
  std::uint64_t model_version = 1;  ///< tenant version that served it
  RequestOptions options;
  int image_c = 0, image_h = 0, image_w = 0;
  std::vector<float> image;  ///< C*H*W floats, exact bits
  TraceOutcome outcome = TraceOutcome::served;
  bool escalated = false;
  int samples_used = 0;
  int predicted_class = -1;
  std::uint64_t checksum = 0;  ///< response_checksum; 0 for rejected/failed
};

/// A whole trace in memory.
struct Trace {
  TraceMeta meta;
  std::vector<TraceRecord> records;
  std::vector<AdmissionRecord> admission;  ///< adaptive decisions, oldest first
};

/// Incremental 64-bit FNV-1a over explicitly little-endian value encodings
/// (hashes VALUES, not host memory, so digests are endian-portable).
struct Fnv1a64 {
  std::uint64_t state = 0xcbf29ce484222325ull;

  void byte(std::uint8_t value) {
    state ^= value;
    state *= 0x100000001b3ull;
  }
  void bytes(const void* data, std::size_t count) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < count; ++i) byte(p[i]);
  }
  void u32(std::uint32_t value) {
    for (int i = 0; i < 4; ++i) byte(static_cast<std::uint8_t>(value >> (8 * i)));
  }
  void u64(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(value >> (8 * i)));
  }
  void i32(std::int32_t value) { u32(static_cast<std::uint32_t>(value)); }
  void i64(std::int64_t value) { u64(static_cast<std::uint64_t>(value)); }
  void f32(float value) { u32(std::bit_cast<std::uint32_t>(value)); }
  void f64(double value) { u64(std::bit_cast<std::uint64_t>(value)); }

  std::uint64_t digest() const { return state; }
};

/// The golden checksum of one Response (see the coverage note above).
std::uint64_t response_checksum(const Response& response);

/// FNV-1a fingerprint of the quantized network a trace was recorded
/// against: weights, scales, biases, requantization constants, and layer
/// geometry. Two networks with the same fingerprint serve the same
/// responses; a replay against different weights fails fast instead of
/// reporting every checksum as divergent.
std::uint64_t network_fingerprint(const quant::QuantNetwork& network);

/// Writes a whole in-memory trace (header + records + admission trailer).
/// Throws std::runtime_error when the file cannot be opened/written.
void write_trace(const std::string& path, const Trace& trace);

/// Reads and validates a trace file. Throws TraceFormatError on a bad
/// magic, an unsupported version, truncation, trailing bytes, or an
/// out-of-range field; std::runtime_error when the file cannot be opened.
Trace read_trace(const std::string& path);

/// The in-server journal: submit() begins a record (cheap O(1) slot push —
/// the image copy happens before the server queue lock), the worker that
/// produced a Response completes it, and the dispatcher flushes the
/// contiguous completed prefix to disk between batches (records therefore
/// land in submission order even though batches complete out of order).
/// finalize() — run by Server::shutdown — drains the ring, appends the
/// admission trailer, and patches the header counts.
///
/// Thread-safety: all methods lock the recorder's own mutex (never the
/// server's), so begin/complete are safe from any thread and flush never
/// blocks submitters for the duration of the file I/O it replaces.
/// Rotation: constructed with max_bytes > 0 the recorder journals into
/// size-bounded SEGMENT files named `<path>.000`, `<path>.001`, ... instead
/// of one unbounded file. Whenever a flush pushes the current segment past
/// max_bytes, the segment is closed out as a complete, independently valid
/// trace — its own header (counts patched), the admission decisions
/// recorded since the previous roll, and the FULL cumulative model table,
/// so every record key in the segment resolves without any other segment —
/// and the next segment opens. Record seq numbers and the arrival clock
/// continue across segments, so concatenated segments reconstruct the
/// unrotated journal; each segment alone read_traces and replays cleanly.
class TraceRecorder {
 public:
  /// Opens `path` (or `path.000` when max_bytes > 0) and writes the header
  /// (counts zero until finalize/rotation patches them). Throws
  /// std::runtime_error when the file cannot be created.
  TraceRecorder(std::string path, TraceMeta meta, std::uint64_t max_bytes = 0);
  ~TraceRecorder();  ///< finalizes if finalize() was not called explicitly

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Microseconds since construction (the record arrival clock).
  std::uint64_t arrival_now_us() const;

  /// Journals a submission: `record` carries stream_id/options/image
  /// (pre-filled by the caller, typically outside any hot lock); the
  /// recorder assigns seq and arrival_us. Returns the seq.
  std::uint64_t begin(TraceRecord record);

  /// Completes record `seq`. `response` may be nullptr (rejected/failed);
  /// otherwise outcome metadata and the golden checksum are captured from
  /// it. Idempotent: only the first completion of a seq sticks.
  void complete(std::uint64_t seq, TraceOutcome outcome, const Response* response);

  /// Appends one adaptive admission decision to the trailer.
  void record_admission(const AdmissionRecord& record);

  /// Registers a (model key, model version) in the model table (written at
  /// finalize). Idempotent per (key, version); safe from any thread.
  void ensure_model(const TraceModelInfo& info);

  /// Writes the contiguous completed prefix of the ring to disk.
  void flush();

  /// Flushes everything (never-completed slots are journaled as `failed`),
  /// writes the admission trailer, patches the header counts, and closes
  /// the file. Idempotent.
  void finalize();

  /// Records begun so far (tests / tools).
  std::uint64_t begun() const;

  /// Segment files completed or in progress (1 while unrotated).
  int segments() const;

 private:
  struct Slot {
    TraceRecord record;
    bool completed = false;
  };

  void flush_locked();
  // Closes the current segment as a complete trace (trailer + patched
  // counts) and opens the next one. Rotation mode only.
  void roll_segment_locked();
  // Writes the current segment's trailer and patches its header counts.
  void close_segment_locked();
  void open_segment_locked();
  std::string segment_path(int index) const;

  std::string path_;
  TraceMeta meta_;
  std::uint64_t max_bytes_ = 0;  // 0 = no rotation
  std::FILE* file_ = nullptr;
  std::chrono::steady_clock::time_point start_;

  mutable std::mutex mutex_;
  std::deque<Slot> slots_;      // slots_[i] holds seq base_seq_ + i
  std::uint64_t base_seq_ = 0;  // seq of slots_.front()
  std::uint64_t next_seq_ = 0;
  std::uint64_t written_ = 0;   // records written, all segments
  std::vector<AdmissionRecord> admission_;
  std::vector<TraceModelInfo> models_;
  bool finalized_ = false;
  // Rotation state: the open segment's path/index, how many records it
  // holds, and how many admission records earlier segments already took.
  std::string segment_path_;
  int segment_index_ = 0;
  std::uint64_t segment_written_ = 0;
  std::size_t admission_flushed_ = 0;
};

}  // namespace bnn::serve

#endif  // BNN_SERVE_TRACE_H
