// servebench: the repository's serving benchmark.
//
//   servebench --workload <paper_nets|fixture_burst> --seed N --seconds T
//              --trace <0|1> [--trace-file PATH]
//
// --trace 0 measures the end-to-end metrics: three phases driven by one
// generator thread — open loop at the workload's fixed rate `lo`, open loop
// at `hi`, and an offline drain, each cut into kBlocks blocks run
// round-robin — set-up time (median of kBlocks + 1 set-ups, one before each
// round) and peak RSS. --trace 1 runs the same phases whole, one after the
// other, with spans on (plus an untraced `lo` phase for the tracing
// overhead), reports the latency percentiles, then times direct calls into
// each layer and prints the per-layer table. Both modes
// check every response (gate.h) and exit 1 without a result line when the
// check fails. The last stdout line is the JSON result.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <string>
#include <vector>

#include "gate.h"
#include "layers.h"
#include "loadgen.h"
#include "measure.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Share of --seconds given to each open-loop phase: the lo phase holds
// kLoShare * --seconds * lo requests, the hi phase likewise. The drain list
// holds Workload::drain_per_second * --seconds requests.
constexpr double kLoShare = 0.58;
constexpr double kHiShare = 0.42;
// The end-to-end run cuts the lo, hi and drain lists into kBlocks blocks each
// and runs them round-robin (lo, hi, drain, lo, hi, drain, ...), each block
// starting once the previous one has completed, with one extra set-up before
// each round. Every metric's samples are so spread over the whole run, and a
// stall of the host lasting a few seconds lands in a minority of each
// metric's windows.
constexpr int kBlocks = 8;
// slo_rps: a phase meets the limit when at most 1% of its requests miss it
// (a failed request misses) and its backlog is not growing — the p50 of the
// last tenth of its arrivals exceeds the first tenth's by less than half the
// limit.
constexpr double kMissShare = 0.01;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_file;
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "servebench: %s\nusage: servebench --workload <name> --seed N --seconds T "
               "--trace <0|1> [--trace-file PATH]\n",
               problem.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0) || args.seconds > 600.0)
        usage("--seconds must be in (0, 600]");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--trace-file") {
      args.trace_file = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  bool known = false;
  for (const std::string& name : workload_names()) known |= name == args.workload;
  if (!known) usage("--workload must name a workload of BENCHMARK.json");
  if (!have_seed) usage("--seed must be a non-negative integer");
  if (args.seconds <= 0.0) usage("--seconds is required");
  if (args.trace < 0) usage("--trace is required");
  return args;
}

// Latency percentile of a phase: its samples, in arrival order, are cut into
// windows that each leave at least ten samples beyond the percentile, and at
// least 100 samples (a p99 window holds 1000, a p50 window 100; a phase with
// fewer samples is one window); the median over the windows is reported.
double latency_percentile(const std::vector<double>& ms, double pct) {
  const auto window = static_cast<std::size_t>(std::ceil(10.0 / (1.0 - pct / 100.0)));
  return windowed_percentile(ms, pct, std::max<std::size_t>(100, window));
}

// Latencies of the served requests of a phase (ms, due -> observed ready).
std::vector<double> latencies(const Phase& phase) {
  std::vector<double> out;
  for (const Record& r : phase.records)
    if (r.response) out.push_back(r.latency_ms());
  return out;
}

std::size_t served(const Phase& phase) { return phase.records.size() - phase.failed(); }

bool meets_limit(const Phase& phase, double limit_ms) {
  const std::size_t n = phase.records.size();
  std::size_t misses = 0;
  std::vector<double> first, last;
  for (std::size_t i = 0; i < n; ++i) {
    const Record& r = phase.records[i];
    const double ms = r.response ? r.latency_ms() : std::numeric_limits<double>::infinity();
    misses += ms > limit_ms ? 1 : 0;
    if (i < n / 10) first.push_back(ms);
    if (i >= n - n / 10) last.push_back(ms);
  }
  const bool growing = median(last) > median(first) + limit_ms / 2;
  return n > 0 && static_cast<double>(misses) <= kMissShare * static_cast<double>(n) && !growing;
}

// One line per phase; for open-loop phases also the latency percentiles
// pooled over the phase and how late the generator submitted (due ->
// submit() call).
void print_phase(const Phase& phase, bool open_loop = true) {
  std::printf("  %-11s %7zu requests %4zu failed %7.2f s %9.1f req/s", phase.name,
              phase.records.size(), phase.failed(), phase.wall_s,
              static_cast<double>(served(phase)) / phase.wall_s);
  if (open_loop) {
    const std::vector<double> ms = latencies(phase);
    std::vector<double> late;
    for (const Record& r : phase.records) late.push_back(ms_between(r.due, r.submit_begin));
    std::printf("  p50 %8.3f ms  p99 %8.3f ms  generator late p99 %.3f ms",
                percentile(ms, 50.0), percentile(ms, 99.0), percentile(late, 99.0));
  }
  std::printf("\n");
}

struct Streams {
  std::vector<Arrival> lo, hi, drain;
};

Streams make_streams(const Workload& w, const Args& args) {
  const bnn::util::Rng rng(args.seed);
  bnn::util::Rng lo_rng = rng.fork(1), hi_rng = rng.fork(2), drain_rng = rng.fork(3);
  Streams s;
  const auto count = [&](double share, double rps) {
    return static_cast<std::size_t>(std::max(1L, std::lround(share * args.seconds * rps)));
  };
  s.lo = open_loop_stream(w, w.lo_rps, count(kLoShare, w.lo_rps), lo_rng, 0);
  s.hi = open_loop_stream(w, w.hi_rps, count(kHiShare, w.hi_rps), hi_rng, s.lo.size());
  s.drain = drain_stream(w, static_cast<int>(std::lround(w.drain_per_second * args.seconds)),
                         drain_rng, s.lo.size() + s.hi.size());
  return s;
}

// Block k of kBlocks of a stream, its due times re-based to the block start.
std::vector<Arrival> block(const std::vector<Arrival>& stream, int k) {
  const std::size_t n = stream.size();
  std::vector<Arrival> out(stream.begin() + static_cast<std::ptrdiff_t>(n * k / kBlocks),
                           stream.begin() + static_cast<std::ptrdiff_t>(n * (k + 1) / kBlocks));
  if (!out.empty()) {
    const double first_due = out.front().due_s;
    for (Arrival& a : out) a.due_s -= first_due;
  }
  return out;
}

// The blocks of one phase taken together: records in arrival order, wall and
// CPU times summed.
Phase merged(const std::vector<Phase>& blocks) {
  Phase all;
  all.name = blocks.front().name;
  for (const Phase& b : blocks) {
    all.records.insert(all.records.end(), b.records.begin(), b.records.end());
    all.wall_s += b.wall_s;
    all.process_cpu_s += b.process_cpu_s;
    all.generator_cpu_s += b.generator_cpu_s;
  }
  return all;
}

bool gate_passes(Gate& gate, const std::vector<const Phase*>& phases, const Deployment& d) {
  for (const Phase* phase : phases) gate.check(*phase, d);
  const bool fired = gate.self_check(d);
  std::printf("gate: RunStats of %llu responses checked; %llu sampled responses (first %d per "
              "tenant x class x view per phase) compared bit for bit with a 1-lane direct "
              "reference; perturbed-reference self-check %s; %s\n",
              static_cast<unsigned long long>(gate.stats_checked()),
              static_cast<unsigned long long>(gate.bits_checked()), Gate::kSamplePerClass,
              fired ? "fired" : "DID NOT FIRE", gate.ok() ? "pass" : "FAIL");
  for (const std::string& failure : gate.failures())
    std::fprintf(stderr, "gate FAILED: %s\n", failure.c_str());
  return gate.ok();
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("  %-32s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

// Tears a deployment down server first, so no replica outlives its pool.
void teardown(Deployment& d) {
  d.server.reset();
  d = Deployment{};
}

int run_end_to_end(Workload& w, const Streams& streams) {
  std::vector<double> setup_s;
  const auto timed_deploy = [&w, &setup_s] {
    const Clock::time_point start = Clock::now();
    Deployment deployment = deploy(w);
    setup_s.push_back(ms_between(start, Clock::now()) / 1e3);
    return deployment;
  };
  // The phases run on the first deployment; the later ones are stood up and
  // torn down again between rounds, only to be timed.
  Deployment d = timed_deploy();
  std::vector<Phase> lo_blocks, hi_blocks, drain_blocks;
  for (int k = 0; k < kBlocks; ++k) {
    Deployment extra = timed_deploy();
    teardown(extra);
    lo_blocks.push_back(run_open_loop("lo", d, w, block(streams.lo, k), nullptr));
    hi_blocks.push_back(run_open_loop("hi", d, w, block(streams.hi, k), nullptr));
    drain_blocks.push_back(run_drain("drain", d, w, block(streams.drain, k), nullptr));
  }
  const Phase lo = merged(lo_blocks), hi = merged(hi_blocks), drain = merged(drain_blocks);
  for (const Phase* phase : {&lo, &hi}) print_phase(*phase);
  print_phase(drain, /*open_loop=*/false);

  Gate gate(w);
  std::vector<const Phase*> blocks;
  for (const std::vector<Phase>* phase : {&lo_blocks, &hi_blocks, &drain_blocks})
    for (const Phase& b : *phase) blocks.push_back(&b);
  if (!gate_passes(gate, blocks, d)) return 1;

  std::vector<double> drain_rps;
  for (const Phase& b : drain_blocks)
    if (b.wall_s > 0.0) drain_rps.push_back(static_cast<double>(served(b)) / b.wall_s);
  const std::vector<double> lo_ms = latencies(lo), hi_ms = latencies(hi);
  const double slo = meets_limit(hi, w.limit_ms) ? w.hi_rps
                     : meets_limit(lo, w.limit_ms) ? w.lo_rps
                                                   : 0.0;
  const std::size_t attempted = lo.records.size() + hi.records.size() + drain.records.size();
  const std::size_t failed = lo.failed() + hi.failed() + drain.failed();
  const double open_cpu_s = (lo.process_cpu_s - lo.generator_cpu_s) +
                            (hi.process_cpu_s - hi.generator_cpu_s);
  const std::vector<Metric> metrics = {
      {"setup_s", median(setup_s), "s"},
      {"rss_mb", peak_rss_mb(), "MB"},
      {"throughput_rps", median(drain_rps), "req/s"},
      {"slo_rps", slo, "req/s"},
      {"cpu_ms_per_req", open_cpu_s * 1e3 / static_cast<double>(served(lo) + served(hi)), "ms"},
      {"served_share", 1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
       "fraction"},
  };
  std::printf("%s: lo %.0f req/s (%zu samples), hi %.0f req/s (%zu samples), limit %.0f ms, "
              "drain %zu requests (throughput = median of %d blocks), %d blocks per phase "
              "run round-robin, %zu set-ups\n",
              w.name.c_str(), w.lo_rps, lo_ms.size(), w.hi_rps, hi_ms.size(), w.limit_ms,
              drain.records.size(), kBlocks, kBlocks, setup_s.size());
  print_metrics(metrics);
  std::printf("%s\n", result_json(true, attempted, failed, metrics).c_str());
  return 0;
}

int run_traced(Workload& w, const Args& args, const Streams& streams) {
  Deployment d = deploy(w);
  SpanLog log;
  const Phase baseline = run_open_loop("lo.untraced", d, w, streams.lo, nullptr);
  const Phase lo = run_open_loop("lo", d, w, streams.lo, &log);
  const Phase hi = run_open_loop("hi", d, w, streams.hi, &log);
  const bnn::serve::ServerStats open_end = d.server->stats();
  const Phase drain = run_drain("drain", d, w, streams.drain, &log);
  for (const Phase* phase : {&baseline, &lo, &hi}) print_phase(*phase);
  print_phase(drain, /*open_loop=*/false);

  Gate gate(w);
  if (!gate_passes(gate, {&baseline, &lo, &hi, &drain}, d)) return 1;

  DirectResults direct = run_direct_calls(w, d, log);
  if (!direct.reproduced) {
    std::fprintf(stderr, "gate FAILED: a layer-by-layer pass did not reproduce the accelerator's pass\n");
    return 1;
  }

  // serve.*: request spans of the traced open-loop phases.
  std::vector<double> submit_us, wait_ms, self_ms, late_ms, pass_ms;
  double one_lane = 0.0, wide = 0.0;
  for (const Phase* phase : {&lo, &hi}) {
    for (const Record& r : phase->records) {
      submit_us.push_back(ms_between(r.submit_begin, r.submit_end) * 1e3);
      late_ms.push_back(ms_between(r.due, r.submit_begin));
      if (!r.response) continue;
      const double direct_ms = direct_pass_ms(direct, w, r.arrival, r.response->escalated);
      wait_ms.push_back(ms_between(r.submit_end, r.ready));
      self_ms.push_back(r.latency_ms() - direct_ms);
      pass_ms.push_back(direct_ms);
      const Tenant& tenant = w.tenants[static_cast<std::size_t>(r.arrival.tenant)];
      const RequestClass& cls = tenant.classes[static_cast<std::size_t>(r.arrival.cls)];
      const int samples = cls.routed ? cls.screening_samples : cls.num_samples;
      const PassTimes& t = direct.passes.at({tenant.network, cls.bayes_layers, samples});
      one_lane += t.one_lane_ms;
      wide += t.wide_ms;
    }
  }
  std::size_t responses = 0, routed = 0, escalated = 0, cold = 0;
  for (const Phase* phase : {&lo, &hi, &drain}) {
    for (const Record& r : phase->records) {
      if (!r.response) continue;
      ++responses;
      const Tenant& tenant = w.tenants[static_cast<std::size_t>(r.arrival.tenant)];
      routed += tenant.classes[static_cast<std::size_t>(r.arrival.cls)].routed ? 1 : 0;
      escalated += r.response->escalated ? 1 : 0;
      cold += r.response->cold_start ? 1 : 0;
    }
  }
  const bnn::serve::ServerStats& sb = lo.server_before;
  const bnn::serve::RegistryStats& rb = lo.registry_before;
  const bnn::serve::RegistryStats& re = drain.registry_after;
  const double untraced_p50 = latency_percentile(latencies(baseline), 50.0);

  // The latency percentiles are reported here rather than as end-to-end
  // metrics: on a shared VM the host deschedules vCPUs for milliseconds at
  // a time, in episodes that come and go over minutes, and every latency
  // moves with them by more than the largest bound an end-to-end metric may
  // carry — the p99s are the requests such a stall caught, and a stall
  // queues the requests behind it. Spans are recorded after each phase
  // ends, so the traced phases time like untraced ones (trace.overhead).
  std::vector<Metric> metrics = {
      {"p50_ms", latency_percentile(latencies(lo), 50.0), "ms"},
      {"p99_ms", latency_percentile(latencies(lo), 99.0), "ms"},
      {"p50_ms.hi", latency_percentile(latencies(hi), 50.0), "ms"},
      {"p99_ms.hi", latency_percentile(latencies(hi), 99.0), "ms"},
      {"serve.submit_us.p50", percentile(submit_us, 50.0), "us"},
      {"serve.submit_us.p99", percentile(submit_us, 99.0), "us"},
      {"serve.wait_ms.p50", percentile(wait_ms, 50.0), "ms"},
      {"serve.self_ms.p50", percentile(self_ms, 50.0), "ms"},
      {"serve.batch_mean",
       static_cast<double>(open_end.requests - sb.requests) /
           static_cast<double>(std::max<std::uint64_t>(1, open_end.batches - sb.batches)),
       "count"},
      {"serve.queue_peak", static_cast<double>(open_end.peak_queue_depth), "count"},
      {"serve.gen_late_ms.p99", percentile(late_ms, 99.0), "ms"},
      {"serve.escalation_share",
       routed ? static_cast<double>(escalated) / static_cast<double>(routed) : 0.0, "fraction"},
      {"serve.cold_share", responses ? static_cast<double>(cold) / static_cast<double>(responses) : 0.0,
       "fraction"},
      {"serve.registry.segment_builds", static_cast<double>(re.segment_builds - rb.segment_builds),
       "count"},
      {"serve.registry.segment_evictions",
       static_cast<double>(re.segment_evictions - rb.segment_evictions), "count"},
      {"serve.registry.reloads", static_cast<double>(re.reloads - rb.reloads), "count"},
      {"core.pass_ms.p50", percentile(pass_ms, 50.0), "ms"},
      {"core.lane_scaling", wide > 0.0 ? one_lane / wide : 0.0, "ratio"},
      {"runtime.cpu_util",
       (hi.process_cpu_s - hi.generator_cpu_s) / (hi.wall_s * w.total_lanes()), "fraction"},
      {"trace.overhead",
       untraced_p50 > 0.0 ? latency_percentile(latencies(lo), 50.0) / untraced_p50 : 0.0,
       "ratio"},
  };
  metrics.insert(metrics.end(), direct.metrics.begin(), direct.metrics.end());

  std::printf("\nper-layer metrics (%s, traced run; tracing overhead = traced / untraced p50 "
              "of the lo phase):\n",
              w.name.c_str());
  print_metrics(metrics);
  if (!args.trace_file.empty()) {
    if (log.write_chrome_trace(args.trace_file))
      std::printf("chrome trace: %s (%zu spans)\n", args.trace_file.c_str(), log.spans().size());
    else
      std::fprintf(stderr, "servebench: could not write %s\n", args.trace_file.c_str());
  }
  const std::size_t attempted = lo.records.size() + hi.records.size() + drain.records.size();
  const std::size_t failed = lo.failed() + hi.failed() + drain.failed();
  std::printf("%s\n", result_json(true, attempted, failed, metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);
  try {
    Workload w = make_workload(args.workload);
    const Streams streams = make_streams(w, args);
    return args.trace ? run_traced(w, args, streams) : run_end_to_end(w, streams);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 1;
  }
}
