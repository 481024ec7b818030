// In-memory span recorder for the traced run.  A span is (name, start,
// end, parent, unit id, tag); spans stay in memory and are written once,
// at the end of the run, as Chrome trace-event JSON.  A null recorder
// makes every Span a no-op, which is what the untraced run uses.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// CPU time consumed by the whole process (every thread), in ns.
inline double process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

struct SpanRecord {
  const char* name;
  const char* tag;  ///< Optional sub-label (the calibration phase); may be "".
  std::int64_t parent;  ///< Index of the enclosing span, -1 for a unit span.
  std::uint64_t unit;
  Clock::time_point start, end;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(Clock::time_point origin) : origin_(origin) {
    spans_.reserve(1 << 16);
  }

  std::int64_t open(const char* name, const char* tag, std::uint64_t unit) {
    spans_.push_back({name, tag, current_, unit, Clock::now(), {}});
    current_ = static_cast<std::int64_t>(spans_.size()) - 1;
    return current_;
  }
  void close(std::int64_t index) {
    SpanRecord& span = spans_[static_cast<std::size_t>(index)];
    span.end = Clock::now();
    current_ = span.parent;
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Chrome trace-event JSON ("X" complete events, microseconds since the
  /// run's origin).  Loads in chrome://tracing and Perfetto.
  bool write_chrome_trace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%lld,\"unit\":%llu,\"tag\":\"%s\"}}\n",
                   i == 0 ? "" : ",", s.name,
                   ns_between(origin_, s.start) * 1e-3,
                   ns_between(s.start, s.end) * 1e-3, i,
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.unit), s.tag);
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::int64_t current_ = -1;
};

/// RAII span; a no-op when `recorder` is null.
class Span {
 public:
  Span(SpanRecorder* recorder, const char* name, std::uint64_t unit,
       const char* tag = "")
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->open(name, tag, unit) : -1) {}
  ~Span() {
    if (recorder_ != nullptr) recorder_->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder* recorder_;
  std::int64_t index_;
};

}  // namespace perfbench
