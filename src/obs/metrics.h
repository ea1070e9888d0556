// Metrics registry: named monotone counters and last-write gauges.
//
// This is the generic successor of the bespoke per-struct counter
// plumbing (the rule counter struct): solvers and harnesses write named
// values, sinks (FormatSolverStats, the JSONL run records) read one
// sorted snapshot instead of knowing every struct's fields. Names are
// dotted lowercase paths ("rules.degree_one", "kernel.vertices",
// "arw.iterations").
//
// Thread-safe; hot-path cost is one hash lookup under a mutex, so solver
// code publishes aggregates once per run (or per phase), never per
// vertex.
#ifndef RPMIS_OBS_METRICS_H_
#define RPMIS_OBS_METRICS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace rpmis::obs {

class MetricsRegistry {
 public:
  /// Adds `delta` to counter `name` (creating it at zero).
  void Add(std::string_view name, uint64_t delta);

  /// Sets gauge `name` to `value` (last write wins).
  void Set(std::string_view name, double value);

  /// Counter value, or 0 when `name` is unknown or is a gauge.
  uint64_t Counter(std::string_view name) const;

  /// Gauge value, or `fallback` when `name` is unknown or is a counter.
  double Gauge(std::string_view name, double fallback = 0.0) const;

  bool Contains(std::string_view name) const;

  struct Entry {
    std::string name;
    bool is_counter = false;  // counters are exact uint64; gauges double
    uint64_t counter = 0;
    double gauge = 0.0;

    double AsDouble() const {
      return is_counter ? static_cast<double>(counter) : gauge;
    }
  };

  /// Name-sorted snapshot of every metric.
  std::vector<Entry> Snapshot() const;

  void Clear();

 private:
  struct Cell {
    bool is_counter = false;
    uint64_t counter = 0;
    double gauge = 0.0;
  };

  mutable std::mutex mu_;
  std::unordered_map<std::string, Cell> cells_;
};

}  // namespace rpmis::obs

#endif  // RPMIS_OBS_METRICS_H_
