#include "measure.h"

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {

double percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = pct / 100.0 * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (rank - static_cast<double>(lo));
}

double windowed_percentile(const std::vector<double>& samples, double pct, std::size_t window) {
  const std::size_t n = samples.size();
  const std::size_t windows = std::max<std::size_t>(1, n / std::max<std::size_t>(1, window));
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(n * w / windows);
    const auto last = samples.begin() + static_cast<std::ptrdiff_t>(n * (w + 1) / windows);
    per_window.push_back(percentile(std::vector<double>(first, last), pct));
  }
  return median(per_window);
}

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

namespace {

double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// JSON number with every digit a double carries (17 significant digits).
std::string number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
        << number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  Clock::time_point origin = Clock::time_point::max();
  for (const Span& span : spans_) origin = std::min(origin, span.start);
  const auto ts = [origin](Clock::time_point t) {
    return number(std::chrono::duration<double, std::micro>(t - origin).count());
  };
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Span& span : spans_) {
    std::string args = "\"parent\":\"" + span.parent + "\"";
    if (!span.args.empty()) args += "," + span.args;
    if (span.request_scoped) {
      // Async begin/end pair keyed by the stream id: a request's spans nest
      // under one track however many requests overlap.
      args += ",\"stream_id\":" + std::to_string(span.stream_id);
      for (const char* phase : {"b", "e"}) {
        out << (first ? "" : ",") << "\n{\"name\":\"" << span.name
            << "\",\"cat\":\"request\",\"ph\":\"" << phase << "\",\"id\":" << span.stream_id
            << ",\"pid\":1,\"tid\":1,\"ts\":" << ts(*phase == 'b' ? span.start : span.end)
            << ",\"args\":{" << args << "}}";
        first = false;
      }
    } else {
      out << (first ? "" : ",") << "\n{\"name\":\"" << span.name
          << "\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":" << ts(span.start)
          << ",\"dur\":" << number(span.us()) << ",\"args\":{" << args << "}}";
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
