// Span tracer emitting Chrome trace-event JSON (the format Perfetto and
// chrome://tracing load natively).
//
// Spans are B/E ("duration begin/end") events tagged with a small stable
// thread id, so per-thread nesting renders as a flame graph. Timestamps
// are microseconds from the sink's construction on the steady clock —
// monotone by construction, which the validator (obs/validate.h) checks.
//
// Granularity contract: spans wrap PHASES (ingest, a prepass, the core
// loop, one component solve, one ARW iteration),
// never per-vertex work — a trace of a big run stays in the tens of
// thousands of events. The sink additionally hard-caps the buffer and
// counts dropped events instead of growing without bound.
#ifndef RPMIS_OBS_TRACE_H_
#define RPMIS_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace rpmis::obs {

class TraceSink {
 public:
  /// `max_events`: hard cap on buffered events; further Begin/End pairs
  /// are counted as dropped (the JSON reports the count) so a runaway
  /// caller degrades gracefully instead of exhausting memory.
  explicit TraceSink(size_t max_events = 4'000'000);

  /// Opens a span named `name` on the calling thread. `name` must outlive
  /// the sink (string literals in practice). Thread-safe.
  void Begin(const char* name);

  /// Closes the innermost open span on the calling thread. Thread-safe.
  void End();

  /// A zero-duration instant event (scope: thread). Thread-safe.
  void Instant(const char* name);

  size_t NumEvents() const;
  uint64_t DroppedEvents() const;

  /// The full document: {"traceEvents":[...], ...}.
  std::string ToJson() const;

  /// Writes ToJson() to `path`; false (with errno intact) on I/O failure.
  bool WriteFile(const std::string& path) const;

 private:
  struct Event {
    const char* name;  // nullptr for E events
    uint64_t ts_us;
    uint32_t tid;
    char ph;  // 'B', 'E', 'i'
  };

  void Push(const char* name, char ph);

  const size_t max_events_;
  mutable std::mutex mu_;
  std::vector<Event> events_;
  uint64_t dropped_ = 0;
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII span: opens on construction when `sink` is non-null, closes on
/// destruction. The usual call site is
///   obs::TraceSpan span(obs::Trace(), "nearlinear.core");
class TraceSpan {
 public:
  TraceSpan(TraceSink* sink, const char* name) : sink_(sink) {
    if (sink_ != nullptr) sink_->Begin(name);
  }
  ~TraceSpan() {
    if (sink_ != nullptr) sink_->End();
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceSink* sink_;
};

}  // namespace rpmis::obs

#endif  // RPMIS_OBS_TRACE_H_
