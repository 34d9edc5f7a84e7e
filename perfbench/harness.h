// Measurement plumbing of the end-to-end benchmark: host clocks, spans,
// process memory, order statistics, output checks and the result line.
//
// Everything here lives in the benchmark, outside the program under test:
// spans wrap calls into the layers' public functions, so tracing needs no
// change to the library and costs nothing when it is off.
#pragma once

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Shortest decimal form that reads back to the same double.
inline std::string fmt(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

inline std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

// --- spans -----------------------------------------------------------------

/// One timed call: name, host start/end (ns since the recorder began) and
/// the index of the enclosing span (-1 at the top level).
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  double seconds() const { return double(end_ns - start_ns) * 1e-9; }
};

/// In-memory span recorder. Spans are kept until the run ends and written
/// out in chrome-trace form; per-name totals feed the per-layer metrics.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}
  bool enabled() const { return enabled_; }
  /// Pauses or resumes recording (the traced run's untraced reference
  /// phase records nothing). Only toggle between top-level spans.
  void set_enabled(bool on) { enabled_ = on; }

  int open(const std::string& name) {
    Span s;
    s.name = name;
    s.start_ns = now_ns();
    s.parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(std::move(s));
    stack_.push_back(int(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    spans_[std::size_t(id)].end_ns = now_ns();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Host seconds of every span named `name`.
  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(s.seconds());
    }
    return out;
  }
  /// Median host seconds of the first `k` spans named `name` (the set-up
  /// repetitions, when the name also occurs later in the run).
  double median_of_first(const std::string& name, std::size_t k) const;

  /// chrome://tracing "complete" events; the parent index rides in args.
  bool write_chrome_trace(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return false;
    f << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      f << (i ? ",\n" : "\n") << "{\"name\":\"" << json_escape(s.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << fmt(double(s.start_ns) * 1e-3)
        << ",\"dur\":" << fmt(double(s.end_ns - s.start_ns) * 1e-3)
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
    }
    f << "\n]}\n";
    return bool(f);
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                t0_)
        .count();
  }
  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a no-op when the recorder is off.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const std::string& name)
      : rec_(rec), id_(rec.enabled() ? rec.open(name) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) rec_.close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  int id_;
};

// --- process memory --------------------------------------------------------

/// A "VmHWM:" / "VmRSS:" field of /proc/self/status in KiB (0 if absent).
inline double proc_status_kb(const char* field) {
  std::ifstream f("/proc/self/status");
  std::string line;
  const std::string key = field;
  while (std::getline(f, line)) {
    if (line.compare(0, key.size(), key) == 0) {
      std::istringstream in(line.substr(key.size()));
      double kb = 0.0;
      in >> kb;
      return kb;
    }
  }
  return 0.0;
}
inline double peak_rss_mb() { return proc_status_kb("VmHWM:") / 1024.0; }
inline double rss_kb() { return proc_status_kb("VmRSS:"); }

// --- statistics ------------------------------------------------------------

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double SpanRecorder::median_of_first(const std::string& name,
                                           std::size_t k) const {
  std::vector<double> d = durations(name);
  d.resize(std::min(d.size(), k));
  return median(d);
}

/// Host milliseconds of `call`, median of `reps` calls, each in a span.
template <typename Call>
double median_call_ms(int reps, SpanRecorder& rec, const std::string& name,
                      Call&& call) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan s(rec, name);
      call();
    }
    ms.push_back(seconds_since(t0) * 1e3);
  }
  return median(ms);
}

/// `n` seeded uniform floats in [lo, hi): kernel and matmul operands.
inline std::vector<float> uniform_values(std::size_t n, std::uint64_t seed,
                                         float lo = -1.0f, float hi = 1.0f) {
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<float> d(lo, hi);
  std::vector<float> v(n);
  for (float& x : v) x = d(gen);
  return v;
}

// --- checks and the result line -------------------------------------------

/// Output checks of one run. Every failed check is printed to stderr; any
/// failure makes the run report correct=false and exit nonzero.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    ++count_;
    if (!ok) {
      failures_.push_back(what);
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }
  bool ok() const { return failures_.empty(); }
  int count() const { return count_; }

 private:
  int count_ = 0;
  std::vector<std::string> failures_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

inline std::string result_line(bool correct, std::int64_t attempted,
                               std::int64_t failed, const Metrics& m) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : m) {
    s += first ? "" : ", ";
    first = false;
    s += "\"" + name + "\": {\"value\": " + fmt(metric.value) +
         ", \"unit\": \"" + metric.unit + "\"}";
  }
  return s + "}}";
}

}  // namespace perfbench
