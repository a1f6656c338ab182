// Trace replayer CLI: re-serves a recorded request trace (bench/scenario_gen
// or any ServerConfig::trace_path journal over the shared bench fixtures)
// under an arbitrary serving configuration and exits non-zero on the first
// checksum divergence, naming the divergent request.
//
//   ./build/tools/trace_replay --trace PATH_OR_GLOB
//       [--replicas R] [--threads T] [--max-batch B] [--dispatch fifo|cost]
//       [--timed] [--no-verify] [--matrix]
//   ./build/tools/trace_replay --diff PATH_A PATH_B
//
// --trace also accepts a shell glob (quote it!) matching the size-rotated
// segment files a ServerConfig::trace_max_bytes recorder emits
// (foo.trace.000, foo.trace.001, ...). Each segment is a complete,
// independently valid trace — every matching file is replayed on its own
// (sorted by name, i.e. in rotation order) and the process exits non-zero
// if ANY segment diverges.
//
// --timed paces submissions to the recorded arrival offsets instead of
// replaying as fast as possible. --matrix runs the full acceptance grid —
// R in {1,2,4} x threads in {1,2,8} x both dispatch modes (18 replays) —
// the gate that a trace recorded at R=1/threads=1 replays checksum-clean
// under every serving configuration. Every trace is replayed through a
// ModelRegistry rebuilt from its model table: each table entry's workload
// id names a shared bench fixture, published under the recorded tenant
// name, and every record routes back to its recorded tenant.
//
// --diff compares two recorded traces record-by-record (outcome, model,
// stream id, golden checksum) without serving anything, and names the
// first divergent seq — the A/B tool for "did this change alter any
// response bit?".
#include <glob.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/serve_fixture.h"
#include "serve/replay.h"
#include "serve/trace.h"

namespace {

using namespace bnn;

const char* dispatch_name(serve::DispatchMode mode) {
  return mode == serve::DispatchMode::fifo ? "fifo" : "cost";
}

int report_result(const serve::ReplayReport& report, const serve::ReplayConfig& config) {
  std::printf("R=%d threads=%d dispatch=%-4s : %s\n", config.num_replicas,
              config.num_threads, dispatch_name(config.dispatch_mode),
              serve::replay_summary(report).c_str());
  for (const serve::ReplayDivergence& divergence : report.divergences) {
    std::fprintf(stderr,
                 "DIVERGENT: request seq=%llu stream=%llu expected=%016llx "
                 "actual=%016llx\n",
                 static_cast<unsigned long long>(divergence.seq),
                 static_cast<unsigned long long>(divergence.stream_id),
                 static_cast<unsigned long long>(divergence.expected),
                 static_cast<unsigned long long>(divergence.actual));
  }
  if (report.admission_mismatches > 0)
    std::fprintf(stderr, "ADMISSION MISMATCH: %llu of %llu recorded decisions\n",
                 static_cast<unsigned long long>(report.admission_mismatches),
                 static_cast<unsigned long long>(report.admission_records));
  return report.ok() ? 0 : 1;
}

// Expands a --trace argument: a literal path maps to itself; a pattern
// holding glob metacharacters (* ? [) expands via glob(3), sorted — the
// natural order for zero-padded rotation suffixes. Throws when a pattern
// matches nothing (a silent empty replay would read as success).
std::vector<std::string> expand_trace_paths(const std::string& pattern) {
  if (pattern.find_first_of("*?[") == std::string::npos) return {pattern};
  glob_t matches;
  const int rc = ::glob(pattern.c_str(), GLOB_ERR, nullptr, &matches);
  std::vector<std::string> paths;
  if (rc == 0) {
    paths.reserve(matches.gl_pathc);
    for (std::size_t i = 0; i < matches.gl_pathc; ++i)
      paths.emplace_back(matches.gl_pathv[i]);
  }
  ::globfree(&matches);
  if (paths.empty())
    throw std::runtime_error("--trace glob matched no files: " + pattern);
  return paths;
}

int replay_one_trace(const std::string& trace_path, const serve::ReplayConfig& config,
                     bool matrix) {
  const serve::Trace trace = serve::read_trace(trace_path);
  std::printf("trace %s: workload %u, %zu records, %zu admission decisions, "
              "seed %llu, fingerprint %016llx, %zu model(s)%s\n",
              trace_path.c_str(), trace.meta.workload_id, trace.records.size(),
              trace.admission.size(),
              static_cast<unsigned long long>(trace.meta.sampler_seed),
              static_cast<unsigned long long>(trace.meta.network_fingerprint),
              trace.meta.models.size(),
              trace.meta.reuse_screening_samples ? ", escalation reuse" : "");

  // Each model-table entry names its fixture; the sampler seed travels with
  // the trace so the replaying accelerators consume identical mask streams.
  core::AcceleratorConfig accel_config = bench::serve_accel_config();
  accel_config.sampler_seed = trace.meta.sampler_seed;

  const auto registry = std::make_shared<serve::ModelRegistry>();
  for (const serve::TraceModelInfo& info : trace.meta.models) {
    // An entry without a workload id (a tenant published without one, its
    // fixture named only by ServerConfig::trace_workload_id) falls back to
    // the header's.
    const std::uint32_t workload_id =
        info.workload_id != 0 ? info.workload_id : trace.meta.workload_id;
    bench::ServeFixture fixture = bench::make_workload_fixture(workload_id);
    serve::ModelConfig model_config;
    model_config.workload_id = fixture.workload_id;
    registry->publish(info.name, std::move(fixture.qnet), model_config);
    std::printf("  tenant '%s' (key %u, version %llu): workload %u rebuilt\n",
                info.name.c_str(), info.model_key,
                static_cast<unsigned long long>(info.model_version), workload_id);
  }

  const auto replay_cell = [&](const serve::ReplayConfig& cell) {
    return serve::replay_trace(trace, registry, accel_config, cell);
  };

  if (!matrix) return report_result(replay_cell(config), config);

  int status = 0;
  for (const int replicas : {1, 2, 4}) {
    for (const int threads : {1, 2, 8}) {
      for (const serve::DispatchMode mode :
           {serve::DispatchMode::fifo, serve::DispatchMode::cost_aware}) {
        serve::ReplayConfig cell = config;
        cell.num_replicas = replicas;
        cell.num_threads = threads;
        cell.dispatch_mode = mode;
        status |= report_result(replay_cell(cell), cell);
      }
    }
  }
  if (status == 0)
    std::printf("matrix clean: every R x threads x dispatch cell matched the "
                "recorded checksums\n");
  return status;
}

int run_diff(const std::string& path_a, const std::string& path_b) {
  const serve::Trace a = serve::read_trace(path_a);
  const serve::Trace b = serve::read_trace(path_b);
  const serve::TraceDiff diff = serve::diff_traces(a, b);
  std::printf("A %s: %zu records; B %s: %zu records\n", path_a.c_str(),
              a.records.size(), path_b.c_str(), b.records.size());
  std::printf("%s\n", serve::diff_summary(diff).c_str());
  return diff.identical() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::string diff_a, diff_b;
  serve::ReplayConfig config;
  bool matrix = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc)
      trace_path = argv[++i];
    else if (std::strcmp(argv[i], "--diff") == 0 && i + 2 < argc) {
      diff_a = argv[++i];
      diff_b = argv[++i];
    } else if (std::strcmp(argv[i], "--replicas") == 0 && i + 1 < argc)
      config.num_replicas = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc)
      config.num_threads = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--max-batch") == 0 && i + 1 < argc)
      config.max_batch = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--dispatch") == 0 && i + 1 < argc) {
      const char* name = argv[++i];
      if (std::strcmp(name, "fifo") == 0)
        config.dispatch_mode = serve::DispatchMode::fifo;
      else if (std::strcmp(name, "cost") == 0 || std::strcmp(name, "cost_aware") == 0)
        config.dispatch_mode = serve::DispatchMode::cost_aware;
      else {
        std::fprintf(stderr, "trace_replay: unknown --dispatch '%s'\n", name);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--timed") == 0)
      config.as_fast_as_possible = false;
    else if (std::strcmp(argv[i], "--no-verify") == 0)
      config.verify_fingerprint = false;
    else if (std::strcmp(argv[i], "--matrix") == 0)
      matrix = true;
    else {
      std::fprintf(stderr, "trace_replay: unknown argument '%s'\n", argv[i]);
      return 2;
    }
  }
  if (trace_path.empty() && diff_a.empty()) {
    std::fprintf(stderr,
                 "usage: trace_replay --trace PATH [options] | --diff A B\n");
    return 2;
  }

  try {
    if (!diff_a.empty()) return run_diff(diff_a, diff_b);

    const std::vector<std::string> paths = expand_trace_paths(trace_path);
    if (paths.size() > 1)
      std::printf("replaying %zu trace segments matching %s\n", paths.size(),
                  trace_path.c_str());
    int status = 0;
    for (const std::string& path : paths)
      status |= replay_one_trace(path, config, matrix);
    if (status == 0 && paths.size() > 1)
      std::printf("all %zu segments replayed clean\n", paths.size());
    return status;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "trace_replay: %s\n", error.what());
    return 1;
  }
}
