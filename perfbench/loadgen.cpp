#include "loadgen.h"

#include <algorithm>
#include <exception>
#include <future>
#include <string>

#include "quant/qnetwork.h"

namespace perfbench {

namespace bs = bnn::serve;

Deployment deploy(Workload& workload) {
  Deployment d;
  for (Network& network : workload.networks)
    d.qnets.push_back(std::make_shared<const bnn::quant::QuantNetwork>(
        bnn::quant::quantize_model(network.model, network.images)));

  d.registry = std::make_shared<bs::ModelRegistry>();
  for (const Tenant& tenant : workload.tenants) {
    auto version =
        d.registry->publish(tenant.name, *d.qnets[static_cast<std::size_t>(tenant.network)]);
    d.versions[{version->key, version->version}] = version;
  }

  // One pool slice per replica: lanes_per_replica lanes, the replica thread
  // itself being one of them (a one-lane pool spawns no thread).
  d.pool = std::make_unique<bnn::runtime::ThreadPool>(workload.lanes_per_replica);
  bs::ServerConfig config;
  config.num_replicas = workload.replicas;
  config.num_threads = workload.total_lanes();
  config.pool = d.pool.get();
  config.default_model = workload.tenants.front().name;
  d.server = std::make_unique<bs::Server>(d.registry, workload.networks.front().accel, config);

  // Warm-up: one request per tenant x class (x view), outside every phase's
  // stream-id range.
  Arrival warm;
  warm.stream_id = std::uint64_t{1} << 40;
  for (int t = 0; t < static_cast<int>(workload.tenants.size()); ++t) {
    const Tenant& tenant = workload.tenants[static_cast<std::size_t>(t)];
    for (int c = 0; c < static_cast<int>(tenant.classes.size()); ++c) {
      for (int view = 0; view < (tenant.square_view ? 2 : 1); ++view) {
        warm.tenant = t;
        warm.cls = c;
        warm.square = view == 1;
        ++warm.stream_id;
        (void)d.server->infer(make_request(workload, warm));
      }
    }
  }
  return d;
}

std::size_t Phase::failed() const {
  return static_cast<std::size_t>(std::count_if(
      records.begin(), records.end(), [](const Record& r) { return !r.response; }));
}

namespace {

struct Submission {
  std::vector<Record> records;
  std::vector<bs::Request> requests;
  std::vector<std::future<bs::Response>> futures;
  /// Generator-thread CPU spent inside submit(): the program's own work (a
  /// cold resolve, for one, builds the missing segments on the caller).
  double submit_cpu_s = 0.0;
};

Submission prepare(const Workload& workload, const std::vector<Arrival>& arrivals) {
  Submission s;
  s.records.resize(arrivals.size());
  s.requests.reserve(arrivals.size());
  s.futures.resize(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    s.records[i].arrival = arrivals[i];
    s.requests.push_back(make_request(workload, arrivals[i]));
  }
  return s;
}

void begin_phase(Phase& phase, Deployment& d) {
  phase.server_before = d.server->stats();
  phase.registry_before = d.registry->stats();
  phase.process_cpu_s = process_cpu_s();
  phase.generator_cpu_s = thread_cpu_s();
}

void end_phase(Phase& phase, Deployment& d, const Submission& s) {
  phase.process_cpu_s = process_cpu_s() - phase.process_cpu_s;
  phase.generator_cpu_s = thread_cpu_s() - phase.generator_cpu_s - s.submit_cpu_s;
  phase.server_after = d.server->stats();
  phase.registry_after = d.registry->stats();
}

// Submits request i. A submit() that throws leaves the future invalid: the
// request failed.
void submit_one(Submission& s, std::size_t i, Deployment& d) {
  Record& record = s.records[i];
  const double cpu_start = thread_cpu_s();
  record.submit_begin = Clock::now();
  try {
    s.futures[i] = d.server->submit(std::move(s.requests[i]));
  } catch (const std::exception&) {
  }
  record.submit_end = Clock::now();
  s.submit_cpu_s += thread_cpu_s() - cpu_start;
}

void collect(Submission& s, Phase& phase, SpanLog* spans, bool request_spans) {
  for (std::size_t i = 0; i < s.records.size(); ++i) {
    Record& record = s.records[i];
    if (s.futures[i].valid()) {
      try {
        record.response = s.futures[i].get();
      } catch (const std::exception&) {
      }
    } else {
      record.ready = record.submit_end;
    }
    if (spans == nullptr) continue;
    const std::uint64_t id = record.arrival.stream_id;
    if (request_spans) {
      spans->add(Span{"request", record.due, record.ready, id, true, "", ""});
      spans->add(Span{"serve.wait", record.submit_end, record.ready, id, true, "request", ""});
    }
    spans->add(Span{"serve.submit", record.submit_begin, record.submit_end, id, true,
                    request_spans ? "request" : "", ""});
  }
  phase.records = std::move(s.records);
}

}  // namespace

Phase run_open_loop(const char* name, Deployment& d, const Workload& workload,
                    const std::vector<Arrival>& arrivals, SpanLog* spans) {
  Phase phase;
  phase.name = name;
  Submission s = prepare(workload, arrivals);
  begin_phase(phase, d);
  const Clock::time_point start = Clock::now();
  for (Record& record : s.records)
    record.due = start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(record.arrival.due_s));

  // The generator spins: submit whatever is due, then poll every
  // outstanding future once, stamping the ones found ready.
  std::vector<std::size_t> outstanding;
  std::size_t next = 0;
  while (next < s.records.size() || !outstanding.empty()) {
    while (next < s.records.size() && s.records[next].due <= Clock::now()) {
      submit_one(s, next, d);
      if (s.futures[next].valid()) outstanding.push_back(next);
      ++next;
    }
    for (std::size_t k = 0; k < outstanding.size();) {
      const std::size_t i = outstanding[k];
      if (s.futures[i].wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        s.records[i].ready = Clock::now();
        outstanding[k] = outstanding.back();
        outstanding.pop_back();
      } else {
        ++k;
      }
    }
  }
  Clock::time_point end = start;
  for (const Record& record : s.records) end = std::max(end, record.ready);
  phase.wall_s = std::chrono::duration<double>(end - start).count();
  end_phase(phase, d, s);
  collect(s, phase, spans, /*request_spans=*/true);
  return phase;
}

Phase run_drain(const char* name, Deployment& d, const Workload& workload,
                const std::vector<Arrival>& arrivals, SpanLog* spans) {
  Phase phase;
  phase.name = name;
  Submission s = prepare(workload, arrivals);
  begin_phase(phase, d);
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < s.records.size(); ++i) {
    s.records[i].due = start;
    submit_one(s, i, d);
  }
  for (auto& future : s.futures)
    if (future.valid()) future.wait();
  const Clock::time_point end = Clock::now();
  for (Record& record : s.records) record.ready = end;
  phase.wall_s = std::chrono::duration<double>(end - start).count();
  end_phase(phase, d, s);
  collect(s, phase, spans, /*request_spans=*/false);
  return phase;
}

}  // namespace perfbench
