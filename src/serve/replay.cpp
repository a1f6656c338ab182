#include "serve/replay.h"

#include <future>
#include <limits>
#include <map>
#include <sstream>
#include <thread>
#include <utility>

#include "util/check.h"

namespace bnn::serve {

namespace {

/// The replay transform for one record: served records go back exactly as
/// recorded; downgraded records are re-submitted as never-escalating routed
/// requests — the screening-pass-only request the bit-identity invariant
/// documents as equivalent to a shed-downgraded response. `model` routes
/// the record to its registry tenant.
Request request_for(const TraceRecord& record, const std::string& model) {
  Request request;
  request.image = nn::Tensor::from_values(
      {1, record.image_c, record.image_h, record.image_w}, record.image);
  request.options = record.options;
  request.model = model;
  request.stream_id = record.stream_id;
  if (record.outcome == TraceOutcome::downgraded) {
    request.options.use_uncertainty_router = true;
    request.options.entropy_threshold_nats = std::numeric_limits<double>::infinity();
  }
  return request;
}

/// The model table keyed for record lookup; throws on a table that lists
/// two versions of one key (a mid-swap trace pins two weight sets per
/// name — not replayable against a single registry state).
std::map<std::uint32_t, const TraceModelInfo*> models_by_key(const Trace& trace) {
  std::map<std::uint32_t, const TraceModelInfo*> by_key;
  for (const TraceModelInfo& info : trace.meta.models) {
    const auto [it, inserted] = by_key.emplace(info.model_key, &info);
    if (!inserted && it->second->model_version != info.model_version)
      throw std::invalid_argument(
          "replay: trace spans a hot-swap (model key " +
          std::to_string(info.model_key) + " appears as versions " +
          std::to_string(it->second->model_version) + " and " +
          std::to_string(info.model_version) +
          ") — record the post-swap traffic separately to replay it");
  }
  return by_key;
}

/// The submit/collect loop: re-serves every served/downgraded record on
/// `server`, routing each to its model-table tenant, and checks the golden
/// checksums plus the recorded admission decisions.
ReplayReport run_replay(Server& server, const Trace& trace, const ReplayConfig& config,
                        const std::map<std::uint32_t, const TraceModelInfo*>& by_key) {
  ReplayReport report;
  struct InFlight {
    const TraceRecord* record;
    std::future<Response> future;
  };
  std::vector<InFlight> in_flight;
  in_flight.reserve(trace.records.size());

  const auto start = std::chrono::steady_clock::now();
  for (const TraceRecord& record : trace.records) {
    if (record.outcome == TraceOutcome::rejected ||
        record.outcome == TraceOutcome::failed) {
      ++report.skipped;
      continue;
    }
    const auto hit = by_key.find(record.model_key);
    if (hit == by_key.end())
      throw std::invalid_argument("replay: record " + std::to_string(record.seq) +
                                  " references model key " +
                                  std::to_string(record.model_key) +
                                  " absent from the trace model table");
    if (!config.as_fast_as_possible) {
      const auto due = start + std::chrono::microseconds(record.arrival_us);
      std::this_thread::sleep_until(due);
    }
    in_flight.push_back(
        InFlight{&record, server.submit(request_for(record, hit->second->name))});
  }
  for (InFlight& flight : in_flight) {
    const TraceRecord& record = *flight.record;
    const Response response = flight.future.get();
    const std::uint64_t actual = response_checksum(response);
    ++report.replayed;
    if (actual == record.checksum) {
      ++report.matched;
    } else {
      report.divergences.push_back(
          ReplayDivergence{record.seq, record.stream_id, record.checksum, actual});
    }
  }

  for (const AdmissionRecord& record : trace.admission) {
    ++report.admission_records;
    if (adaptive_admission(record.inputs) != record.action) ++report.admission_mismatches;
  }
  return report;
}

}  // namespace

ReplayReport replay_trace(const Trace& trace, std::shared_ptr<ModelRegistry> registry,
                          const core::AcceleratorConfig& accel_config,
                          const ReplayConfig& config) {
  util::require(registry != nullptr, "replay: null model registry");
  util::require(config.num_replicas >= 1, "replay: num_replicas must be >= 1");
  util::require(config.max_batch >= 1, "replay: max_batch must be >= 1");

  const auto by_key = models_by_key(trace);
  util::require(!by_key.empty(), "replay: trace has an empty model table");

  if (config.verify_fingerprint) {
    if (accel_config.sampler_seed != trace.meta.sampler_seed) {
      throw std::runtime_error(
          "replay: sampler_seed mismatch: trace was recorded with seed " +
          std::to_string(trace.meta.sampler_seed) + " but the configuration uses " +
          std::to_string(accel_config.sampler_seed) + " — mask streams would differ");
    }
    // Per-model fingerprints: one stale or missing tenant fails fast BY
    // NAME instead of as a wall of divergent checksums.
    for (const auto& [key, info] : by_key) {
      if (!registry->has(info->name))
        throw std::runtime_error("replay: trace references model '" + info->name +
                                 "' (key " + std::to_string(key) +
                                 ") which is not published in the registry");
      const std::uint64_t fingerprint = registry->current(info->name)->fingerprint;
      if (info->fingerprint != 0 && fingerprint != info->fingerprint) {
        std::ostringstream message;
        message << "replay: fingerprint mismatch for model '" << info->name
                << "': trace was recorded against " << std::hex << info->fingerprint
                << " but the registry currently serves " << fingerprint
                << " — wrong weights, every checksum of this tenant would diverge";
        throw std::runtime_error(message.str());
      }
    }
  }

  ServerConfig server_config;
  server_config.max_batch = config.max_batch;
  server_config.num_threads = config.num_threads;
  server_config.num_replicas = config.num_replicas;
  server_config.dispatch_mode = config.dispatch_mode;
  server_config.overload_policy = OverloadPolicy::block;  // replay sheds nothing
  server_config.reuse_screening_samples = trace.meta.reuse_screening_samples;
  // The server needs SOME valid default tenant; route every record
  // explicitly by its table name, so any referenced tenant works.
  server_config.default_model = by_key.begin()->second->name;
  Server server(std::move(registry), accel_config, server_config);
  return run_replay(server, trace, config, by_key);
}

std::string replay_summary(const ReplayReport& report) {
  std::ostringstream out;
  out << "replayed " << report.replayed << ", matched " << report.matched
      << ", skipped " << report.skipped << ", divergent " << report.divergences.size()
      << "; admission " << report.admission_records << " checked, "
      << report.admission_mismatches << " mismatched";
  return out.str();
}

TraceDiff diff_traces(const Trace& a, const Trace& b) {
  TraceDiff diff;
  // Meta: the knobs that change functional output, plus the model tables
  // (order-insensitive would be overkill — recorders emit them in
  // first-reference order, which an A/B pair shares).
  diff.meta_matches = a.meta.sampler_seed == b.meta.sampler_seed &&
                      a.meta.reuse_screening_samples == b.meta.reuse_screening_samples &&
                      a.meta.models.size() == b.meta.models.size();
  if (diff.meta_matches) {
    for (std::size_t i = 0; i < a.meta.models.size(); ++i) {
      const TraceModelInfo& ma = a.meta.models[i];
      const TraceModelInfo& mb = b.meta.models[i];
      if (ma.model_key != mb.model_key || ma.model_version != mb.model_version ||
          ma.fingerprint != mb.fingerprint || ma.name != mb.name) {
        diff.meta_matches = false;
        break;
      }
    }
  }

  const std::size_t common = std::min(a.records.size(), b.records.size());
  const auto note_divergence = [&](std::uint64_t seq, const char* what) {
    if (diff.first_divergent_seq != ~std::uint64_t{0}) return;
    diff.first_divergent_seq = seq;
    diff.first_divergence = what;
  };
  for (std::size_t i = 0; i < common; ++i) {
    const TraceRecord& ra = a.records[i];
    const TraceRecord& rb = b.records[i];
    ++diff.compared;
    if (ra.outcome != rb.outcome) {
      note_divergence(ra.seq, "outcome");
    } else if (ra.model_key != rb.model_key || ra.model_version != rb.model_version) {
      note_divergence(ra.seq, "model");
    } else if (ra.stream_id != rb.stream_id) {
      note_divergence(ra.seq, "stream id");
    } else if (ra.checksum != rb.checksum) {
      note_divergence(ra.seq, "checksum");
    } else {
      ++diff.equal;
    }
  }
  diff.extra_a = static_cast<std::uint64_t>(a.records.size() - common);
  diff.extra_b = static_cast<std::uint64_t>(b.records.size() - common);
  if (diff.extra_a != 0 || diff.extra_b != 0)
    note_divergence(static_cast<std::uint64_t>(common), "record count");
  return diff;
}

std::string diff_summary(const TraceDiff& diff) {
  std::ostringstream out;
  if (diff.identical()) {
    out << "traces identical: " << diff.compared << " records, checksums equal";
    return out.str();
  }
  out << "traces differ: " << diff.equal << "/" << diff.compared << " records equal";
  if (!diff.meta_matches) out << ", metadata differs";
  if (diff.extra_a != 0) out << ", A has " << diff.extra_a << " extra records";
  if (diff.extra_b != 0) out << ", B has " << diff.extra_b << " extra records";
  if (diff.first_divergent_seq != ~std::uint64_t{0})
    out << "; first divergence at seq " << diff.first_divergent_seq << " ("
        << diff.first_divergence << ")";
  return out.str();
}

}  // namespace bnn::serve
