// Measurement helpers: percentiles, the metric list printed as the result
// line, and the in-memory span log of the traced run (written at exit as
// Chrome trace-event JSON, which Perfetto loads).
#ifndef PERFBENCH_MEASURE_H
#define PERFBENCH_MEASURE_H

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Percentile with linear interpolation between closest ranks (pct in
/// [0, 100]); 0 for an empty sample.
double percentile(std::vector<double> samples, double pct);
inline double median(std::vector<double> samples) { return percentile(std::move(samples), 50.0); }

/// Percentile of samples taken in time order, robust to a transient stall
/// of the host: the samples are cut into consecutive windows of at least
/// `window` samples (one window when there are fewer than 2 * window), and
/// the median of the windows' percentiles is returned.
double windowed_percentile(const std::vector<double>& samples, double pct, std::size_t window);

double ms_between(Clock::time_point from, Clock::time_point to);

/// CPU seconds of the whole process / of the calling thread.
double process_cpu_s();
double thread_cpu_s();
/// Peak resident set of the process in MB (VmHWM).
double peak_rss_mb();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: {"correct": ..., "attempted": ..., "failed": ...,
/// "metrics": {name: {"value": v, "unit": u}, ...}}.
std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics);

/// One span. Request-scoped spans carry the request's stream id and become
/// async events keyed by it; direct layer calls run on the benchmark thread
/// and become complete events.
struct Span {
  std::string name;
  Clock::time_point start{};
  Clock::time_point end{};
  std::uint64_t stream_id = 0;
  bool request_scoped = false;
  std::string parent;  ///< name of the enclosing span ("" = root)
  std::string args;    ///< extra JSON members, e.g. "\"macs\":1024"

  double us() const { return std::chrono::duration<double, std::micro>(end - start).count(); }
};

class SpanLog {
 public:
  void add(Span span) { spans_.push_back(std::move(span)); }
  const std::vector<Span>& spans() const { return spans_; }
  /// Writes every span as Chrome trace-event JSON; returns false on I/O
  /// failure.
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Times `fn` into a span on `log` (when non-null) and returns its
/// duration in microseconds.
template <typename Fn>
double timed(SpanLog* log, const std::string& name, const std::string& parent, Fn&& fn,
             std::string args = {}) {
  const Clock::time_point start = Clock::now();
  fn();
  const Clock::time_point end = Clock::now();
  if (log != nullptr) log->add(Span{name, start, end, 0, false, parent, std::move(args)});
  return std::chrono::duration<double, std::micro>(end - start).count();
}

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H
