#include "serve/trace.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "quant/qnetwork.h"
#include "util/check.h"

namespace bnn::serve {

namespace {

// ---- little-endian byte I/O -------------------------------------------------
// Values are encoded byte-by-byte so a trace file carries identical bits on
// every host; fread/fwrite of whole structs would bake in padding and
// endianness.

void put_u8(std::FILE* file, std::uint8_t value) {
  if (std::fputc(value, file) == EOF)
    throw std::runtime_error("trace: write failed: " + std::string(std::strerror(errno)));
}

void put_u32(std::FILE* file, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) put_u8(file, static_cast<std::uint8_t>(value >> (8 * i)));
}

void put_u64(std::FILE* file, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) put_u8(file, static_cast<std::uint8_t>(value >> (8 * i)));
}

void put_i32(std::FILE* file, std::int32_t value) {
  put_u32(file, static_cast<std::uint32_t>(value));
}

void put_f32(std::FILE* file, float value) {
  put_u32(file, std::bit_cast<std::uint32_t>(value));
}

void put_f64(std::FILE* file, double value) {
  put_u64(file, std::bit_cast<std::uint64_t>(value));
}

std::uint8_t get_u8(std::FILE* file, const char* what) {
  const int c = std::fgetc(file);
  if (c == EOF)
    throw TraceFormatError(std::string("trace: truncated file (while reading ") + what +
                           ")");
  return static_cast<std::uint8_t>(c);
}

std::uint32_t get_u32(std::FILE* file, const char* what) {
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i)
    value |= static_cast<std::uint32_t>(get_u8(file, what)) << (8 * i);
  return value;
}

std::uint64_t get_u64(std::FILE* file, const char* what) {
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i)
    value |= static_cast<std::uint64_t>(get_u8(file, what)) << (8 * i);
  return value;
}

std::int32_t get_i32(std::FILE* file, const char* what) {
  return static_cast<std::int32_t>(get_u32(file, what));
}

float get_f32(std::FILE* file, const char* what) {
  return std::bit_cast<float>(get_u32(file, what));
}

double get_f64(std::FILE* file, const char* what) {
  return std::bit_cast<double>(get_u64(file, what));
}

// ---- section writers/readers ------------------------------------------------

// magic(8) version(4) flags(4) workload(4) sampler_seed(8) fingerprint(8)
// record_count(8) admission_count(8) model_count(4); the three counts sit
// at a fixed offset so finalize can patch them in place.
constexpr long kCountsOffset = 8 + 4 + 4 + 4 + 8 + 8;

constexpr std::uint32_t kFlagReuseScreeningSamples = 1u << 0;

void write_header(std::FILE* file, const TraceMeta& meta, std::uint64_t record_count,
                  std::uint64_t admission_count, std::uint32_t model_count) {
  put_u64(file, kTraceMagic);
  put_u32(file, kTraceVersion);
  std::uint32_t flags = 0;
  if (meta.reuse_screening_samples) flags |= kFlagReuseScreeningSamples;
  put_u32(file, flags);
  put_u32(file, meta.workload_id);
  put_u64(file, meta.sampler_seed);
  put_u64(file, meta.network_fingerprint);
  put_u64(file, record_count);
  put_u64(file, admission_count);
  put_u32(file, model_count);
}

void write_record(std::FILE* file, const TraceRecord& record) {
  util::ensure(static_cast<std::int64_t>(record.image.size()) ==
                   static_cast<std::int64_t>(record.image_c) * record.image_h *
                       record.image_w,
               "trace: record image payload does not match its (C, H, W)");
  put_u64(file, record.seq);
  put_u64(file, record.arrival_us);
  put_u64(file, record.stream_id);
  put_u32(file, record.model_key);
  put_u64(file, record.model_version);
  put_i32(file, record.options.num_samples);
  put_i32(file, record.options.bayes_layers);
  put_i32(file, record.options.screening_samples);
  put_i32(file, record.options.sample_offset);
  put_u8(file, record.options.use_uncertainty_router ? 1 : 0);
  put_f64(file, record.options.entropy_threshold_nats);
  put_u32(file, static_cast<std::uint32_t>(record.image_c));
  put_u32(file, static_cast<std::uint32_t>(record.image_h));
  put_u32(file, static_cast<std::uint32_t>(record.image_w));
  for (const float value : record.image) put_f32(file, value);
  put_u8(file, static_cast<std::uint8_t>(record.outcome));
  put_u8(file, record.escalated ? 1 : 0);
  put_i32(file, record.samples_used);
  put_i32(file, record.predicted_class);
  put_u64(file, record.checksum);
}

void write_admission(std::FILE* file, const AdmissionRecord& record) {
  put_u64(file, record.submit_seq);
  put_u8(file, record.inputs.queue_full ? 1 : 0);
  put_u8(file, record.inputs.downgrade_eligible ? 1 : 0);
  put_u8(file, static_cast<std::uint8_t>(record.action));
  put_f64(file, record.inputs.p99_ms);
  put_f64(file, record.inputs.latency_target_ms);
  put_f64(file, record.inputs.backlog_ms);
  put_f64(file, record.inputs.request_ms);
}

void write_model_info(std::FILE* file, const TraceModelInfo& info) {
  put_u32(file, info.model_key);
  put_u32(file, info.workload_id);
  put_u64(file, info.model_version);
  put_u64(file, info.fingerprint);
  put_u32(file, static_cast<std::uint32_t>(info.name.size()));
  for (const char c : info.name) put_u8(file, static_cast<std::uint8_t>(c));
}

TraceModelInfo read_model_info(std::FILE* file) {
  TraceModelInfo info;
  info.model_key = get_u32(file, "model table key");
  info.workload_id = get_u32(file, "model table workload");
  info.model_version = get_u64(file, "model table version");
  info.fingerprint = get_u64(file, "model table fingerprint");
  const std::uint32_t len = get_u32(file, "model table name length");
  constexpr std::uint32_t kMaxNameLen = 1u << 12;
  if (len > kMaxNameLen)
    throw TraceFormatError("trace: corrupted model table (absurd name length)");
  info.name.resize(len);
  for (char& c : info.name)
    c = static_cast<char>(get_u8(file, "model table name"));
  return info;
}

TraceRecord read_record(std::FILE* file) {
  TraceRecord record;
  record.seq = get_u64(file, "record seq");
  record.arrival_us = get_u64(file, "record arrival");
  record.stream_id = get_u64(file, "record stream id");
  record.model_key = get_u32(file, "record model key");
  record.model_version = get_u64(file, "record model version");
  record.options.num_samples = get_i32(file, "record num_samples");
  record.options.bayes_layers = get_i32(file, "record bayes_layers");
  record.options.screening_samples = get_i32(file, "record screening_samples");
  record.options.sample_offset = get_i32(file, "record sample_offset");
  record.options.use_uncertainty_router = get_u8(file, "record router flag") != 0;
  record.options.entropy_threshold_nats = get_f64(file, "record entropy threshold");
  const std::uint32_t c = get_u32(file, "record image C");
  const std::uint32_t h = get_u32(file, "record image H");
  const std::uint32_t w = get_u32(file, "record image W");
  // Dimension sanity bounds the allocation below: a corrupted length field
  // must produce a format error, not a multi-gigabyte bad_alloc.
  constexpr std::uint32_t kMaxDim = 1u << 16;
  constexpr std::uint64_t kMaxElems = 1ull << 26;
  if (c == 0 || h == 0 || w == 0 || c > kMaxDim || h > kMaxDim || w > kMaxDim ||
      static_cast<std::uint64_t>(c) * h * w > kMaxElems) {
    throw TraceFormatError("trace: corrupted record (image dimensions out of range)");
  }
  record.image_c = static_cast<int>(c);
  record.image_h = static_cast<int>(h);
  record.image_w = static_cast<int>(w);
  record.image.resize(static_cast<std::size_t>(c) * h * w);
  for (float& value : record.image) value = get_f32(file, "record image payload");
  const std::uint8_t outcome = get_u8(file, "record outcome");
  if (outcome > static_cast<std::uint8_t>(TraceOutcome::failed))
    throw TraceFormatError("trace: corrupted record (unknown outcome)");
  record.outcome = static_cast<TraceOutcome>(outcome);
  record.escalated = get_u8(file, "record escalated flag") != 0;
  record.samples_used = get_i32(file, "record samples_used");
  record.predicted_class = get_i32(file, "record predicted_class");
  record.checksum = get_u64(file, "record checksum");
  return record;
}

AdmissionRecord read_admission(std::FILE* file) {
  AdmissionRecord record;
  record.submit_seq = get_u64(file, "admission seq");
  record.inputs.queue_full = get_u8(file, "admission queue_full") != 0;
  record.inputs.downgrade_eligible = get_u8(file, "admission eligibility") != 0;
  const std::uint8_t action = get_u8(file, "admission action");
  if (action > static_cast<std::uint8_t>(AdmissionAction::reject))
    throw TraceFormatError("trace: corrupted admission record (unknown action)");
  record.action = static_cast<AdmissionAction>(action);
  record.inputs.p99_ms = get_f64(file, "admission p99");
  record.inputs.latency_target_ms = get_f64(file, "admission target");
  record.inputs.backlog_ms = get_f64(file, "admission backlog");
  record.inputs.request_ms = get_f64(file, "admission request cost");
  return record;
}

struct FileCloser {
  void operator()(std::FILE* file) const {
    if (file != nullptr) std::fclose(file);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

}  // namespace

// ---- checksums --------------------------------------------------------------

std::uint64_t response_checksum(const Response& response) {
  Fnv1a64 hash;
  hash.u32(static_cast<std::uint32_t>(response.probs.dim()));
  for (int axis = 0; axis < response.probs.dim(); ++axis)
    hash.u32(static_cast<std::uint32_t>(response.probs.size(axis)));
  for (std::int64_t i = 0; i < response.probs.numel(); ++i)
    hash.f32(response.probs.data()[i]);
  hash.i32(response.predicted_class);
  hash.f64(response.entropy_nats);
  hash.byte(response.escalated ? 1 : 0);
  hash.i32(response.samples_used);
  hash.i32(response.bayes_layers);
  hash.f64(response.stats.total_cycles);
  hash.f64(response.stats.latency_ms);
  hash.i64(response.stats.macs);
  hash.i64(response.stats.ddr_bytes);
  hash.i64(response.stats.mask_bits);
  // stream_id and shed_downgraded are deliberately NOT hashed — see trace.h.
  return hash.digest();
}

std::uint64_t network_fingerprint(const quant::QuantNetwork& network) {
  Fnv1a64 hash;
  hash.i32(network.num_classes);
  hash.i32(network.num_sites);
  hash.f64(network.dropout_p);
  hash.i32(network.dropout_keep.mult);
  hash.i32(network.dropout_keep.shift);
  hash.f32(network.input.scale);
  hash.i32(network.input.zero_point);
  hash.u32(static_cast<std::uint32_t>(network.layers.size()));
  for (const quant::QLayer& layer : network.layers) {
    const nn::HwLayer& geom = layer.geom;
    hash.i32(geom.op == nn::HwLayer::Op::conv ? 0 : 1);
    hash.i32(geom.in_c);
    hash.i32(geom.in_h);
    hash.i32(geom.in_w);
    hash.i32(geom.out_c);
    hash.i32(geom.kernel);
    hash.i32(geom.stride);
    hash.i32(geom.pad);
    hash.i32(geom.pool_kernel);
    hash.i32(geom.pool_stride);
    hash.byte(geom.pool_is_global ? 1 : 0);
    hash.byte(geom.pool_is_max ? 1 : 0);
    hash.byte(geom.has_relu ? 1 : 0);
    hash.byte(geom.has_bn ? 1 : 0);
    hash.byte(geom.has_shortcut ? 1 : 0);
    hash.byte(geom.is_bayes_site ? 1 : 0);
    hash.i32(layer.input_source);
    hash.i32(layer.shortcut_source);
    hash.f32(layer.in.scale);
    hash.i32(layer.in.zero_point);
    hash.f32(layer.out.scale);
    hash.i32(layer.out.zero_point);
    // Weight bytes are hashed in materialized row-major form so packed and
    // unpacked storage of the same weights share one fingerprint (and
    // unpacked nets keep the exact digest of the pre-packing format:
    // rows are contiguous, so this is the same byte stream).
    const std::size_t row_terms = static_cast<std::size_t>(geom.in_c) *
                                  geom.kernel * geom.kernel;
    if (!layer.weights_packed) {
      hash.u64(layer.weights.size());
      hash.bytes(layer.weights.data(), layer.weights.size());
    } else {
      hash.u64(static_cast<std::uint64_t>(geom.out_c) * row_terms);
      std::vector<std::int8_t> wrow(row_terms);
      for (int f = 0; f < geom.out_c; ++f) {
        layer.materialize_weight_row(f, wrow.data());
        hash.bytes(wrow.data(), row_terms);
      }
    }
    for (const float scale : layer.weight_scales) hash.f32(scale);
    for (const std::int32_t bias : layer.bias) hash.i32(bias);
    for (const quant::FixedMultiplier& requant : layer.requant) {
      hash.i32(requant.mult);
      hash.i32(requant.shift);
    }
    for (const std::int32_t post : layer.post_add) hash.i32(post);
    hash.i32(layer.shortcut_rescale.mult);
    hash.i32(layer.shortcut_rescale.shift);
  }
  return hash.digest();
}

// ---- whole-trace I/O --------------------------------------------------------

void write_trace(const std::string& path, const Trace& trace) {
  FilePtr file(std::fopen(path.c_str(), "wb"));
  if (file == nullptr)
    throw std::runtime_error("trace: cannot open '" + path +
                             "' for writing: " + std::strerror(errno));
  // An empty model table gets the same single-model entry read_trace would
  // synthesize, so write -> read -> write is byte-stable.
  std::vector<TraceModelInfo> models = trace.meta.models;
  if (models.empty()) {
    TraceModelInfo info;
    info.model_key = 0;
    info.model_version = 1;
    info.workload_id = trace.meta.workload_id;
    info.fingerprint = trace.meta.network_fingerprint;
    models.push_back(std::move(info));
  }
  write_header(file.get(), trace.meta, trace.records.size(), trace.admission.size(),
               static_cast<std::uint32_t>(models.size()));
  for (const TraceRecord& record : trace.records) write_record(file.get(), record);
  for (const AdmissionRecord& record : trace.admission)
    write_admission(file.get(), record);
  for (const TraceModelInfo& info : models) write_model_info(file.get(), info);
  if (std::fflush(file.get()) != 0)
    throw std::runtime_error("trace: flush of '" + path +
                             "' failed: " + std::strerror(errno));
}

Trace read_trace(const std::string& path) {
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr)
    throw std::runtime_error("trace: cannot open '" + path +
                             "' for reading: " + std::strerror(errno));

  if (get_u64(file.get(), "magic") != kTraceMagic)
    throw TraceFormatError("trace: '" + path + "' is not a BNTRACE file (bad magic)");
  const std::uint32_t version = get_u32(file.get(), "version");
  if (version != kTraceVersion)
    throw TraceFormatError("trace: version mismatch in '" + path + "': file v" +
                           std::to_string(version) + ", reader v" +
                           std::to_string(kTraceVersion));

  Trace trace;
  const std::uint32_t flags = get_u32(file.get(), "flags");
  trace.meta.reuse_screening_samples = (flags & kFlagReuseScreeningSamples) != 0;
  trace.meta.workload_id = get_u32(file.get(), "workload id");
  trace.meta.sampler_seed = get_u64(file.get(), "sampler seed");
  trace.meta.network_fingerprint = get_u64(file.get(), "network fingerprint");
  const std::uint64_t record_count = get_u64(file.get(), "record count");
  const std::uint64_t admission_count = get_u64(file.get(), "admission count");
  const std::uint64_t model_count = get_u32(file.get(), "model count");
  constexpr std::uint64_t kMaxRecords = 1ull << 24;
  if (record_count > kMaxRecords || admission_count > kMaxRecords ||
      model_count > kMaxRecords)
    throw TraceFormatError("trace: corrupted header (absurd record count)");

  trace.records.reserve(static_cast<std::size_t>(record_count));
  for (std::uint64_t i = 0; i < record_count; ++i)
    trace.records.push_back(read_record(file.get()));
  trace.admission.reserve(static_cast<std::size_t>(admission_count));
  for (std::uint64_t i = 0; i < admission_count; ++i)
    trace.admission.push_back(read_admission(file.get()));
  for (std::uint64_t i = 0; i < model_count; ++i)
    trace.meta.models.push_back(read_model_info(file.get()));
  if (trace.meta.models.empty()) {
    // An unfinalized file's header has an empty model table. Such a file
    // is single-model by construction: synthesize the table entry every
    // record implicitly references.
    TraceModelInfo info;
    info.model_key = 0;
    info.model_version = 1;
    info.workload_id = trace.meta.workload_id;
    info.fingerprint = trace.meta.network_fingerprint;
    trace.meta.models.push_back(std::move(info));
  }

  if (std::fgetc(file.get()) != EOF)
    throw TraceFormatError("trace: trailing bytes after the admission trailer in '" +
                           path + "'");
  return trace;
}

// ---- TraceRecorder ----------------------------------------------------------

std::string TraceRecorder::segment_path(int index) const {
  if (max_bytes_ == 0) return path_;
  char suffix[16];
  std::snprintf(suffix, sizeof(suffix), ".%03d", index);
  return path_ + suffix;
}

void TraceRecorder::open_segment_locked() {
  segment_path_ = segment_path(segment_index_);
  file_ = std::fopen(segment_path_.c_str(), "wb");
  if (file_ == nullptr)
    throw std::runtime_error("trace: cannot open '" + segment_path_ +
                             "' for recording: " + std::strerror(errno));
  // Counts are zero until finalize/rotation patches them; a reader of an
  // unfinalized file sees a valid-but-empty trace instead of garbage —
  // which requires the header to actually be on disk, not in the stdio
  // buffer.
  write_header(file_, meta_, 0, 0, 0);
  if (std::fflush(file_) != 0)
    throw std::runtime_error("trace: flush of '" + segment_path_ +
                             "' failed: " + std::strerror(errno));
  segment_written_ = 0;
}

TraceRecorder::TraceRecorder(std::string path, TraceMeta meta, std::uint64_t max_bytes)
    : path_(std::move(path)),
      meta_(meta),
      max_bytes_(max_bytes),
      start_(std::chrono::steady_clock::now()) {
  models_ = meta_.models;
  open_segment_locked();  // no lock needed: no concurrent access yet
}

TraceRecorder::~TraceRecorder() {
  try {
    finalize();
  } catch (...) {
    // Destructor must not throw; a failed final write leaves a truncated
    // file that read_trace rejects loudly.
  }
}

std::uint64_t TraceRecorder::arrival_now_us() const {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                        std::chrono::steady_clock::now() - start_)
                                        .count());
}

std::uint64_t TraceRecorder::begin(TraceRecord record) {
  std::lock_guard<std::mutex> lock(mutex_);
  util::ensure(!finalized_, "trace: begin() after finalize()");
  record.seq = next_seq_++;
  record.arrival_us = arrival_now_us();
  slots_.push_back(Slot{std::move(record), false});
  return slots_.back().record.seq;
}

void TraceRecorder::complete(std::uint64_t seq, TraceOutcome outcome,
                             const Response* response) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (finalized_ || seq < base_seq_) return;
  const std::uint64_t index = seq - base_seq_;
  if (index >= slots_.size()) return;
  Slot& slot = slots_[static_cast<std::size_t>(index)];
  if (slot.completed) return;  // first completion sticks
  slot.record.outcome = outcome;
  if (response != nullptr) {
    slot.record.escalated = response->escalated;
    slot.record.samples_used = response->samples_used;
    slot.record.predicted_class = response->predicted_class;
    slot.record.checksum = response_checksum(*response);
  }
  slot.completed = true;
}

void TraceRecorder::record_admission(const AdmissionRecord& record) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (finalized_) return;
  admission_.push_back(record);
}

void TraceRecorder::ensure_model(const TraceModelInfo& info) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (finalized_) return;
  for (const TraceModelInfo& existing : models_)
    if (existing.model_key == info.model_key &&
        existing.model_version == info.model_version)
      return;
  models_.push_back(info);
}

void TraceRecorder::close_segment_locked() {
  // The segment's trailer: the admission decisions no earlier segment took,
  // plus the FULL cumulative model table (cheap, and it makes every record
  // key in the segment resolvable without any other segment).
  const std::size_t admission_here = admission_.size() - admission_flushed_;
  for (std::size_t i = admission_flushed_; i < admission_.size(); ++i)
    write_admission(file_, admission_[i]);
  admission_flushed_ = admission_.size();
  for (const TraceModelInfo& info : models_) write_model_info(file_, info);
  // Patch the header counts now that the segment's totals are known.
  if (std::fseek(file_, kCountsOffset, SEEK_SET) == 0) {
    put_u64(file_, segment_written_);
    put_u64(file_, admission_here);
    put_u32(file_, static_cast<std::uint32_t>(models_.size()));
  }
}

void TraceRecorder::roll_segment_locked() {
  close_segment_locked();
  const int rc = std::fclose(file_);
  file_ = nullptr;
  if (rc != 0)
    throw std::runtime_error("trace: closing '" + segment_path_ +
                             "' failed: " + std::strerror(errno));
  ++segment_index_;
  open_segment_locked();
}

void TraceRecorder::flush_locked() {
  bool wrote = false;
  while (!slots_.empty() && slots_.front().completed) {
    write_record(file_, slots_.front().record);
    slots_.pop_front();
    ++base_seq_;
    ++written_;
    ++segment_written_;
    wrote = true;
    // Size-based rotation: once the current segment reaches the threshold,
    // close it out as a complete trace and continue in the next file. The
    // check runs after each record, so every segment holds at least one.
    if (max_bytes_ > 0) {
      const long size = std::ftell(file_);
      if (size >= 0 && static_cast<std::uint64_t>(size) >= max_bytes_) {
        roll_segment_locked();
        wrote = false;  // the fresh segment's header is already flushed
      }
    }
  }
  // Push the records out of the stdio buffer so a crash (or a concurrent
  // reader) loses at most the still-pending suffix.
  if (wrote && std::fflush(file_) != 0)
    throw std::runtime_error("trace: flush of '" + segment_path_ +
                             "' failed: " + std::strerror(errno));
}

void TraceRecorder::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (finalized_) return;
  flush_locked();
}

void TraceRecorder::finalize() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (finalized_) return;
  // Defensive: a request whose promise vanished without completion (should
  // be unreachable — the server drains before finalize) is journaled as
  // failed rather than stalling the flush forever.
  for (Slot& slot : slots_) {
    if (!slot.completed) {
      slot.record.outcome = TraceOutcome::failed;
      slot.completed = true;
    }
  }
  flush_locked();
  close_segment_locked();
  const int rc = std::fclose(file_);
  file_ = nullptr;
  finalized_ = true;
  if (rc != 0)
    throw std::runtime_error("trace: closing '" + segment_path_ +
                             "' failed: " + std::strerror(errno));
}

std::uint64_t TraceRecorder::begun() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_seq_;
}

int TraceRecorder::segments() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return segment_index_ + 1;
}

}  // namespace bnn::serve
