// In-memory span and counter trace for the benchmark's traced run.
//
// Spans are recorded around each call into a layer of the program (name,
// start, end, parent span, op id); counters are recorded at the same
// boundaries. Nothing is written until the run ends (write_json), so the
// traced run pays one vector push per span and no I/O.
//
// Every helper takes a nullable Tracer*: the untraced run passes nullptr
// and records nothing.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// The CPU time of the whole process, every thread and user plus system
/// time (CLOCK_PROCESS_CPUTIME_ID). Ops, set-ups and spans are timed with
/// it. The program runs serially (kPoolWidth), so on an idle host an op's
/// CPU time is its latency; on a shared host it leaves out the time the
/// process waits for a CPU that another process holds, which wall time
/// counts and which varied by tens of percent from minute to minute.
struct Clock {
  using duration = std::chrono::nanoseconds;
  using rep = duration::rep;
  using period = duration::period;
  using time_point = std::chrono::time_point<Clock>;
  static constexpr bool is_steady = true;
  static time_point now() noexcept {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return time_point(std::chrono::seconds(ts.tv_sec) +
                      std::chrono::nanoseconds(ts.tv_nsec));
  }
};

template <typename TimePoint>
double ms_between(TimePoint a, TimePoint b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

class Tracer {
 public:
  struct SpanRecord {
    std::string name;
    int op = -1;      // op the span belongs to (-1: set-up)
    int parent = -1;  // index of the enclosing span, -1 at top level
    double start_ms = 0.0;  // from tracer construction
    double end_ms = 0.0;
  };
  struct CounterRecord {
    std::string name;
    int op = -1;
    double value = 0.0;
  };

  Tracer() : origin_(Clock::now()) {}

  /// Spans and counters recorded from now on belong to op `op`.
  void set_op(int op) { op_ = op; }

  int open(std::string_view name);
  void close(int span);
  void count(std::string_view name, double value);

  /// Durations (ms) of every span called `name`, in record order.
  std::vector<double> durations(std::string_view name) const;
  /// Per op (ascending op id, set-up excluded): the summed durations (ms)
  /// of the spans called `name`.
  std::vector<double> op_sums(std::string_view name) const;
  /// Values of every counter called `name`, in record order.
  std::vector<double> values(std::string_view name) const;
  /// For each span called `name`: the summed durations of its direct
  /// children divided by its own duration.
  std::vector<double> child_cover(std::string_view name) const;

  /// Write every span and counter as one JSON object.
  bool write_json(const std::string& path) const;

 private:
  Clock::time_point origin_;
  int op_ = -1;
  std::vector<int> stack_;
  std::vector<SpanRecord> spans_;
  std::vector<CounterRecord> counters_;
};

/// RAII span; a no-op when the tracer is null.
class Span {
 public:
  Span(Tracer* tracer, std::string_view name)
      : tracer_(tracer), id_(tracer ? tracer->open(name) : -1) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

inline void count(Tracer* tracer, std::string_view name, double value) {
  if (tracer != nullptr) tracer->count(name, value);
}

}  // namespace perfbench
