// Human-readable per-run counter reports (mis_cli --stats, benches).
#ifndef RPMIS_BENCHKIT_STATS_H_
#define RPMIS_BENCHKIT_STATS_H_

#include <string>

#include "dynamic/engine.h"
#include "mis/solution.h"
#include "obs/metrics.h"

namespace rpmis {

/// Multi-line report of a solution's instrumentation: reduction-rule
/// application counts and peeling/kernel figures. Zero-valued rule
/// counters are omitted so small runs stay readable.
std::string FormatSolverStats(const MisSolution& sol);

/// Publishes a solution's instrumentation — rule counters and peel/kernel
/// figures — into `metrics` under the dotted-name convention
/// ("rules.degree_one", "kernel.vertices", "solution.size"). This is the
/// registry-side twin of FormatSolverStats: run records carry the
/// snapshot instead of knowing the structs' fields. Counters Add
/// (accumulate over repeated runs); per-solution scalars are gauges (last
/// run wins).
void PublishSolutionMetrics(const MisSolution& sol,
                            obs::MetricsRegistry* metrics);

/// Multi-line report of a dynamic-update run: update mix, per-update
/// latency (mean/p50/p99 from the engine's histogram), cone sizes, and
/// how often each fallback tier fired.
std::string FormatDynamicStats(const DynamicStats& stats);

}  // namespace rpmis

#endif  // RPMIS_BENCHKIT_STATS_H_
