// The request-trace format (serve/trace.h):
//   - FNV-1a matches the published test vectors and hashes VALUES (explicit
//     little-endian encodings), so digests are stable across hosts,
//   - write_trace/read_trace round-trip a trace bit-exactly and the written
//     bytes are a pure function of the in-memory trace,
//   - a reader rejects bad magic, unsupported versions, truncation at every
//     prefix, trailing bytes, and out-of-range fields with TraceFormatError,
//   - TraceRecorder journals out-of-order completions in submission order,
//     completes idempotently, marks stragglers failed, and leaves a
//     valid-but-empty file until the first flush,
//   - network_fingerprint pins the quantized weights: any flipped constant
//     changes the digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "bench/serve_fixture.h"
#include "nn/tensor.h"
#include "serve/server.h"
#include "serve/trace.h"

namespace bnn {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::vector<unsigned char> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// A trace exercising every field: routed + direct options, an infinite
// entropy threshold, a nonzero sample offset, a record with no response
// (rejected, checksum 0), and an admission trailer.
serve::Trace sample_trace() {
  serve::Trace trace;
  trace.meta.workload_id = 7;
  trace.meta.sampler_seed = 99;
  trace.meta.network_fingerprint = 0x1234abcd5678ef01ull;
  trace.meta.reuse_screening_samples = true;

  serve::TraceRecord served;
  served.seq = 0;
  served.arrival_us = 17;
  served.stream_id = 1000;
  served.options.num_samples = 10;
  served.options.bayes_layers = 2;
  served.options.use_uncertainty_router = true;
  served.options.screening_samples = 2;
  served.options.entropy_threshold_nats = std::numeric_limits<double>::infinity();
  served.options.sample_offset = 4;
  served.image_c = 1;
  served.image_h = 2;
  served.image_w = 3;
  served.image = {0.0f, -1.5f, 2.25f, 3.0f, -0.0f, 1e-7f};
  served.outcome = serve::TraceOutcome::served;
  served.escalated = true;
  served.samples_used = 10;
  served.predicted_class = 3;
  served.checksum = 0xfeedface12345678ull;
  trace.records.push_back(served);

  serve::TraceRecord rejected;
  rejected.seq = 1;
  rejected.arrival_us = 42;
  rejected.stream_id = 1001;
  rejected.options.num_samples = 1;
  rejected.options.bayes_layers = -1;
  rejected.image_c = 2;
  rejected.image_h = 1;
  rejected.image_w = 2;
  rejected.image = {5.0f, 6.0f, 7.0f, 8.0f};
  rejected.outcome = serve::TraceOutcome::rejected;
  rejected.predicted_class = -1;
  rejected.checksum = 0;
  trace.records.push_back(rejected);

  serve::AdmissionRecord decision;
  decision.submit_seq = 2;
  decision.inputs.queue_full = false;
  decision.inputs.p99_ms = 3.5;
  decision.inputs.latency_target_ms = 1.0;
  decision.inputs.backlog_ms = 0.25;
  decision.inputs.request_ms = 9.75;
  decision.inputs.downgrade_eligible = true;
  decision.action = serve::AdmissionAction::downgrade;
  trace.admission.push_back(decision);
  return trace;
}

void expect_traces_equal(const serve::Trace& a, const serve::Trace& b) {
  EXPECT_EQ(a.meta.workload_id, b.meta.workload_id);
  EXPECT_EQ(a.meta.sampler_seed, b.meta.sampler_seed);
  EXPECT_EQ(a.meta.network_fingerprint, b.meta.network_fingerprint);
  EXPECT_EQ(a.meta.reuse_screening_samples, b.meta.reuse_screening_samples);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const serve::TraceRecord& x = a.records[i];
    const serve::TraceRecord& y = b.records[i];
    EXPECT_EQ(x.seq, y.seq);
    EXPECT_EQ(x.arrival_us, y.arrival_us);
    EXPECT_EQ(x.stream_id, y.stream_id);
    EXPECT_EQ(x.options.num_samples, y.options.num_samples);
    EXPECT_EQ(x.options.bayes_layers, y.options.bayes_layers);
    EXPECT_EQ(x.options.use_uncertainty_router, y.options.use_uncertainty_router);
    EXPECT_EQ(x.options.screening_samples, y.options.screening_samples);
    // Bitwise (not value) equality: +inf and NaN thresholds must survive.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x.options.entropy_threshold_nats),
              std::bit_cast<std::uint64_t>(y.options.entropy_threshold_nats));
    EXPECT_EQ(x.options.sample_offset, y.options.sample_offset);
    EXPECT_EQ(x.image_c, y.image_c);
    EXPECT_EQ(x.image_h, y.image_h);
    EXPECT_EQ(x.image_w, y.image_w);
    ASSERT_EQ(x.image.size(), y.image.size());
    for (std::size_t j = 0; j < x.image.size(); ++j)
      EXPECT_EQ(std::bit_cast<std::uint32_t>(x.image[j]),
                std::bit_cast<std::uint32_t>(y.image[j]));
    EXPECT_EQ(x.outcome, y.outcome);
    EXPECT_EQ(x.escalated, y.escalated);
    EXPECT_EQ(x.samples_used, y.samples_used);
    EXPECT_EQ(x.predicted_class, y.predicted_class);
    EXPECT_EQ(x.checksum, y.checksum);
  }
  ASSERT_EQ(a.admission.size(), b.admission.size());
  for (std::size_t i = 0; i < a.admission.size(); ++i) {
    const serve::AdmissionRecord& x = a.admission[i];
    const serve::AdmissionRecord& y = b.admission[i];
    EXPECT_EQ(x.submit_seq, y.submit_seq);
    EXPECT_EQ(x.inputs.queue_full, y.inputs.queue_full);
    EXPECT_DOUBLE_EQ(x.inputs.p99_ms, y.inputs.p99_ms);
    EXPECT_DOUBLE_EQ(x.inputs.latency_target_ms, y.inputs.latency_target_ms);
    EXPECT_DOUBLE_EQ(x.inputs.backlog_ms, y.inputs.backlog_ms);
    EXPECT_DOUBLE_EQ(x.inputs.request_ms, y.inputs.request_ms);
    EXPECT_EQ(x.inputs.downgrade_eligible, y.inputs.downgrade_eligible);
    EXPECT_EQ(x.action, y.action);
  }
}

// --- FNV-1a ------------------------------------------------------------------

TEST(Fnv1a64, MatchesPublishedTestVectors) {
  serve::Fnv1a64 empty;
  EXPECT_EQ(empty.digest(), 0xcbf29ce484222325ull);  // offset basis

  serve::Fnv1a64 a;
  a.bytes("a", 1);
  EXPECT_EQ(a.digest(), 0xaf63dc4c8601ec8cull);

  serve::Fnv1a64 foobar;
  foobar.bytes("foobar", 6);
  EXPECT_EQ(foobar.digest(), 0x85944171f73967e8ull);
}

TEST(Fnv1a64, ValueHelpersEncodeLittleEndian) {
  // u32/u64/f32/f64 must hash exactly their little-endian byte sequence —
  // the property that makes digests host-independent.
  serve::Fnv1a64 via_value;
  via_value.u32(0x01020304u);
  serve::Fnv1a64 via_bytes;
  for (const std::uint8_t byte : {0x04, 0x03, 0x02, 0x01})
    via_bytes.byte(byte);
  EXPECT_EQ(via_value.digest(), via_bytes.digest());

  serve::Fnv1a64 f;
  f.f32(1.0f);  // 0x3f800000
  serve::Fnv1a64 f_bytes;
  for (const std::uint8_t byte : {0x00, 0x00, 0x80, 0x3f})
    f_bytes.byte(byte);
  EXPECT_EQ(f.digest(), f_bytes.digest());

  serve::Fnv1a64 i;
  i.i32(-1);
  serve::Fnv1a64 i_bytes;
  for (int k = 0; k < 4; ++k) i_bytes.byte(0xff);
  EXPECT_EQ(i.digest(), i_bytes.digest());
}

// --- round trip --------------------------------------------------------------

TEST(TraceFormat, RoundTripsBitExactly) {
  const std::string path = temp_path("roundtrip.trace");
  const serve::Trace original = sample_trace();
  serve::write_trace(path, original);
  const serve::Trace loaded = serve::read_trace(path);
  expect_traces_equal(original, loaded);
}

TEST(TraceFormat, WrittenBytesAreAPureFunctionOfTheTrace) {
  const std::string path_a = temp_path("stable_a.trace");
  const std::string path_b = temp_path("stable_b.trace");
  const serve::Trace trace = sample_trace();
  serve::write_trace(path_a, trace);
  serve::write_trace(path_b, trace);
  EXPECT_EQ(file_bytes(path_a), file_bytes(path_b));
  // And a read-then-rewrite reproduces the identical file.
  const std::string path_c = temp_path("stable_c.trace");
  serve::write_trace(path_c, serve::read_trace(path_a));
  EXPECT_EQ(file_bytes(path_a), file_bytes(path_c));
}

TEST(TraceFormat, EmptyTraceRoundTrips) {
  const std::string path = temp_path("empty.trace");
  serve::write_trace(path, serve::Trace{});
  const serve::Trace loaded = serve::read_trace(path);
  EXPECT_TRUE(loaded.records.empty());
  EXPECT_TRUE(loaded.admission.empty());
}

// --- error paths -------------------------------------------------------------

TEST(TraceFormat, MissingFileIsAnIoErrorNotAFormatError) {
  EXPECT_THROW(serve::read_trace(temp_path("does_not_exist.trace")),
               std::runtime_error);
}

TEST(TraceFormat, RejectsBadMagic) {
  const std::string path = temp_path("bad_magic.trace");
  serve::write_trace(path, sample_trace());
  std::vector<unsigned char> bytes = file_bytes(path);
  bytes[0] ^= 0xff;
  write_bytes(path, bytes);
  EXPECT_THROW(serve::read_trace(path), serve::TraceFormatError);
}

TEST(TraceFormat, RejectsUnsupportedVersion) {
  const std::string path = temp_path("bad_version.trace");
  // Version 1 (single-model records, no model fields) is no longer read.
  for (const std::uint32_t version : {1u, serve::kTraceVersion + 1}) {
    serve::write_trace(path, sample_trace());
    std::vector<unsigned char> bytes = file_bytes(path);
    bytes[8] = static_cast<unsigned char>(version);  // version u32 at 8
    write_bytes(path, bytes);
    try {
      serve::read_trace(path);
      FAIL() << "version " << version << " not rejected";
    } catch (const serve::TraceFormatError& error) {
      EXPECT_NE(std::string(error.what()).find("version"), std::string::npos);
    }
  }
}

TEST(TraceFormat, RejectsTruncationAtEveryPrefix) {
  const std::string path = temp_path("full.trace");
  serve::write_trace(path, sample_trace());
  const std::vector<unsigned char> bytes = file_bytes(path);
  // Every strict prefix is either a header cut (truncated) or a record cut
  // (truncated): never a crash, never a silent success.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, std::size_t{12}, std::size_t{51},
        bytes.size() / 2, bytes.size() - 1}) {
    ASSERT_LT(keep, bytes.size());
    const std::string cut = temp_path("truncated.trace");
    write_bytes(cut, std::vector<unsigned char>(bytes.begin(),
                                                bytes.begin() + static_cast<long>(keep)));
    EXPECT_THROW(serve::read_trace(cut), serve::TraceFormatError) << "keep=" << keep;
  }
}

TEST(TraceFormat, RejectsTrailingBytes) {
  const std::string path = temp_path("trailing.trace");
  serve::write_trace(path, sample_trace());
  std::vector<unsigned char> bytes = file_bytes(path);
  bytes.push_back(0x00);
  write_bytes(path, bytes);
  EXPECT_THROW(serve::read_trace(path), serve::TraceFormatError);
}

TEST(TraceFormat, RejectsOutOfRangeOutcomeAndAbsurdDimensions) {
  // Corrupt the outcome byte of the first record: locate it by rewriting
  // the record with a known-bad value through the in-memory struct. The
  // writer trusts its caller, so smuggle the corruption in via raw bytes:
  // write a minimal one-record trace and patch the outcome field, which
  // sits 3 bytes before the end of (escalated u8, samples u32, class i32,
  // checksum u64) ... simpler and robust to layout drift: binary-search the
  // byte whose corruption triggers the outcome check.
  const std::string path = temp_path("bad_outcome.trace");
  serve::Trace trace;
  serve::TraceRecord record = sample_trace().records[0];
  trace.records.push_back(record);
  serve::write_trace(path, trace);
  const std::vector<unsigned char> good = file_bytes(path);

  // Patch every byte to 0xee in turn; at least one position must trip the
  // "bad outcome" / dimension-sanity validation (TraceFormatError), and NO
  // position may crash or be accepted with different record content
  // silently... we only assert the absence of crashes plus at least one
  // format rejection: content changes are legitimate for image bytes.
  int format_rejections = 0;
  for (std::size_t i = 52; i < good.size(); ++i) {  // past the header
    std::vector<unsigned char> bad = good;
    bad[i] = 0xee;
    write_bytes(path, bad);
    try {
      (void)serve::read_trace(path);
    } catch (const serve::TraceFormatError&) {
      ++format_rejections;
    }
  }
  EXPECT_GT(format_rejections, 0);

  // Absurd dimensions specifically: image_c lives right after the options
  // block; setting all four of its bytes drives C*H*W past the sanity
  // bound. Find it deterministically by writing a record with a unique
  // (C, H, W) = (1, 2, 3) and flipping the u32 equal to 2 into 0xffffffff.
  std::vector<unsigned char> bad = good;
  bool patched = false;
  for (std::size_t i = 52; i + 12 < bad.size() && !patched; ++i) {
    const auto u32_at = [&](std::size_t at) {
      return static_cast<std::uint32_t>(bad[at]) |
             static_cast<std::uint32_t>(bad[at + 1]) << 8 |
             static_cast<std::uint32_t>(bad[at + 2]) << 16 |
             static_cast<std::uint32_t>(bad[at + 3]) << 24;
    };
    if (u32_at(i) == 1 && u32_at(i + 4) == 2 && u32_at(i + 8) == 3) {
      bad[i + 4] = bad[i + 5] = bad[i + 6] = bad[i + 7] = 0xff;
      patched = true;
    }
  }
  ASSERT_TRUE(patched) << "could not locate the (C, H, W) field";
  write_bytes(path, bad);
  EXPECT_THROW(serve::read_trace(path), serve::TraceFormatError);
}

// --- TraceRecorder -----------------------------------------------------------

serve::Response synthetic_response(int predicted_class) {
  serve::Response response;
  response.probs = nn::Tensor::from_values(
      {1, 4}, {0.1f, 0.2f, 0.3f, 0.4f});
  response.predicted_class = predicted_class;
  response.entropy_nats = 1.25;
  response.escalated = predicted_class % 2 == 0;
  response.samples_used = 6;
  response.bayes_layers = 2;
  return response;
}

TEST(TraceRecorder, UnfinalizedFileReadsAsAValidEmptyTrace) {
  const std::string path = temp_path("unfinalized.trace");
  serve::TraceMeta meta;
  meta.workload_id = 3;
  serve::TraceRecorder recorder(path, meta);
  serve::TraceRecord record;
  record.image_c = record.image_h = record.image_w = 1;
  record.image = {1.0f};
  (void)recorder.begin(std::move(record));
  // Header counts are still zero: a concurrent reader sees a valid trace
  // with the right meta and no records yet.
  const serve::Trace snapshot = serve::read_trace(path);
  EXPECT_EQ(snapshot.meta.workload_id, 3u);
  EXPECT_TRUE(snapshot.records.empty());
  recorder.finalize();
}

TEST(TraceRecorder, JournalsOutOfOrderCompletionsInSubmissionOrder) {
  const std::string path = temp_path("out_of_order.trace");
  serve::TraceRecorder recorder(path, serve::TraceMeta{});
  std::vector<std::uint64_t> seqs;
  for (int i = 0; i < 3; ++i) {
    serve::TraceRecord record;
    record.stream_id = static_cast<std::uint64_t>(100 + i);
    record.image_c = record.image_h = record.image_w = 1;
    record.image = {static_cast<float>(i)};
    seqs.push_back(recorder.begin(std::move(record)));
  }
  EXPECT_EQ(recorder.begun(), 3u);

  // Complete 2, then 0, then 1 — the flushes in between may only ever emit
  // the contiguous completed prefix, so the file stays in seq order.
  const serve::Response response = synthetic_response(1);
  recorder.complete(seqs[2], serve::TraceOutcome::served, &response);
  recorder.flush();
  EXPECT_TRUE(serve::read_trace(path).records.empty());  // 0 still pending
  recorder.complete(seqs[0], serve::TraceOutcome::served, &response);
  recorder.flush();
  // Record 0 is flushed now but the header counts still read zero: the
  // file is visibly in-progress (trailing bytes) until finalize patches
  // them — a half-written trace can never masquerade as a complete one.
  EXPECT_THROW((void)serve::read_trace(path), serve::TraceFormatError);
  recorder.complete(seqs[1], serve::TraceOutcome::downgraded, &response);
  recorder.finalize();

  const serve::Trace trace = serve::read_trace(path);
  ASSERT_EQ(trace.records.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(trace.records[i].seq, seqs[i]);
    EXPECT_EQ(trace.records[i].stream_id, 100 + i);
    EXPECT_EQ(trace.records[i].checksum, serve::response_checksum(response));
  }
  EXPECT_EQ(trace.records[1].outcome, serve::TraceOutcome::downgraded);
}

TEST(TraceRecorder, FirstCompletionSticksAndStragglersFail) {
  const std::string path = temp_path("idempotent.trace");
  serve::TraceRecorder recorder(path, serve::TraceMeta{});
  serve::TraceRecord a;
  a.image_c = a.image_h = a.image_w = 1;
  a.image = {1.0f};
  serve::TraceRecord b = a;
  const std::uint64_t seq_a = recorder.begin(std::move(a));
  const std::uint64_t seq_b = recorder.begin(std::move(b));

  const serve::Response response = synthetic_response(2);
  recorder.complete(seq_a, serve::TraceOutcome::served, &response);
  // A second completion of the same seq (e.g. the catch-all failure path
  // racing the success path) must not overwrite the first.
  recorder.complete(seq_a, serve::TraceOutcome::failed, nullptr);
  // seq_b is never completed: finalize journals it as failed.
  (void)seq_b;
  recorder.finalize();
  recorder.finalize();  // idempotent

  const serve::Trace trace = serve::read_trace(path);
  ASSERT_EQ(trace.records.size(), 2u);
  EXPECT_EQ(trace.records[0].outcome, serve::TraceOutcome::served);
  EXPECT_EQ(trace.records[0].checksum, serve::response_checksum(response));
  EXPECT_EQ(trace.records[1].outcome, serve::TraceOutcome::failed);
  EXPECT_EQ(trace.records[1].checksum, 0u);
}

TEST(TraceRecorder, AdmissionTrailerSurvivesTheRoundTrip) {
  const std::string path = temp_path("admission.trace");
  {
    serve::TraceRecorder recorder(path, serve::TraceMeta{});
    serve::AdmissionRecord decision;
    decision.submit_seq = 5;
    decision.inputs.p99_ms = 2.0;
    decision.inputs.latency_target_ms = 1.0;
    decision.inputs.downgrade_eligible = true;
    decision.action = serve::AdmissionAction::downgrade;
    recorder.record_admission(decision);
    // Destructor finalizes.
  }
  const serve::Trace trace = serve::read_trace(path);
  EXPECT_TRUE(trace.records.empty());
  ASSERT_EQ(trace.admission.size(), 1u);
  EXPECT_EQ(trace.admission[0].submit_seq, 5u);
  EXPECT_EQ(trace.admission[0].action, serve::AdmissionAction::downgrade);
}

// --- checksums and fingerprints ----------------------------------------------

TEST(ResponseChecksum, IsAFunctionOfTheResponseValuesOnly) {
  const serve::Response a = synthetic_response(1);
  serve::Response b = synthetic_response(1);
  EXPECT_EQ(serve::response_checksum(a), serve::response_checksum(b));

  // stream_id and shed_downgraded are deliberately EXCLUDED: the replayer
  // re-serves a downgraded record as a plain never-escalating request, so
  // the checksum must not distinguish the two.
  b.stream_id = 777;
  b.shed_downgraded = true;
  EXPECT_EQ(serve::response_checksum(a), serve::response_checksum(b));

  // Every covered field moves the digest.
  serve::Response flipped = a;
  flipped.predicted_class = 2;
  EXPECT_NE(serve::response_checksum(a), serve::response_checksum(flipped));
  flipped = a;
  flipped.probs = nn::Tensor::from_values({1, 4}, {0.1f, 0.2f, 0.3f, 0.41f});
  EXPECT_NE(serve::response_checksum(a), serve::response_checksum(flipped));
  flipped = a;
  flipped.escalated = !flipped.escalated;
  EXPECT_NE(serve::response_checksum(a), serve::response_checksum(flipped));
  flipped = a;
  flipped.samples_used += 1;
  EXPECT_NE(serve::response_checksum(a), serve::response_checksum(flipped));
}

TEST(NetworkFingerprint, PinsTheQuantizedConstants) {
  const bench::ServeFixture& fixture = bench::shared_cnn12_fixture();
  const std::uint64_t base = serve::network_fingerprint(fixture.qnet);
  EXPECT_EQ(base, serve::network_fingerprint(fixture.qnet));  // deterministic

  quant::QuantNetwork flipped_weight = fixture.qnet;
  flipped_weight.layers[0].weights[0] ^= 1;
  EXPECT_NE(base, serve::network_fingerprint(flipped_weight));

  quant::QuantNetwork flipped_bias = fixture.qnet;
  flipped_bias.layers.back().bias[0] += 1;
  EXPECT_NE(base, serve::network_fingerprint(flipped_bias));

  quant::QuantNetwork flipped_scale = fixture.qnet;
  flipped_scale.input.scale *= 1.0000001f;
  EXPECT_NE(base, serve::network_fingerprint(flipped_scale));
}

// Recording the same deterministic workload through two separate servers
// yields identical golden checksums — the stability that makes a committed
// trace a cross-process, cross-run regression asset (arrival timestamps are
// wall clock and excluded from the comparison).
TEST(TraceRecorder, RecordedChecksumsAreStableAcrossServerInstances) {
  const bench::ServeFixture& fixture = bench::shared_cnn12_fixture();
  const auto record_once = [&](const std::string& path) {
    serve::ServerConfig config;
    config.max_batch = 2;
    config.num_threads = 1;
    config.trace_path = path;
    config.trace_workload_id = fixture.workload_id;
    serve::Server server(bench::single_model_registry(fixture.qnet),
                         bench::serve_accel_config(), config);
    std::vector<std::future<serve::Response>> futures;
    for (int i = 0; i < 4; ++i) {
      serve::Request request;
      request.image = fixture.dataset.images().batch_row(i);
      request.options.num_samples = 3;
      request.options.bayes_layers = 1;
      request.stream_id = static_cast<std::uint64_t>(i);
      futures.push_back(server.submit(std::move(request)));
    }
    for (auto& future : futures) (void)future.get();
    server.shutdown();
    return serve::read_trace(path);
  };

  const serve::Trace first = record_once(temp_path("stable_run_a.trace"));
  const serve::Trace second = record_once(temp_path("stable_run_b.trace"));
  ASSERT_EQ(first.records.size(), 4u);
  ASSERT_EQ(second.records.size(), 4u);
  EXPECT_EQ(first.meta.network_fingerprint, second.meta.network_fingerprint);
  EXPECT_NE(first.meta.network_fingerprint, 0u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(first.records[i].seq, second.records[i].seq);
    EXPECT_EQ(first.records[i].stream_id, second.records[i].stream_id);
    EXPECT_EQ(first.records[i].outcome, serve::TraceOutcome::served);
    EXPECT_NE(first.records[i].checksum, 0u);
    EXPECT_EQ(first.records[i].checksum, second.records[i].checksum);
  }
}

}  // namespace
}  // namespace bnn
