#include "benchkit/stats.h"

#include <sstream>

#include "benchkit/table.h"

namespace rpmis {

namespace {

void AddRule(std::ostringstream& out, const char* name, uint64_t value) {
  if (value == 0) return;
  out << "  " << name << ": " << FormatCount(value) << "\n";
}

}  // namespace

std::string FormatSolverStats(const MisSolution& sol) {
  std::ostringstream out;
  out << "solution size: " << FormatCount(sol.size) << "\n";
  out << "peeled: " << FormatCount(sol.peeled)
      << "  residual: " << FormatCount(sol.residual_peeled)
      << "  upper bound: " << FormatCount(sol.UpperBound())
      << (sol.provably_maximum ? "  (provably maximum)" : "") << "\n";
  out << "kernel: " << FormatCount(sol.kernel_vertices) << " vertices, "
      << FormatCount(sol.kernel_edges) << " edges\n";
  out << "reductions (" << FormatCount(sol.rules.TotalExact()) << " exact):\n";
  AddRule(out, "degree-zero", sol.rules.degree_zero);
  AddRule(out, "degree-one", sol.rules.degree_one);
  AddRule(out, "degree-two isolation", sol.rules.degree_two_isolation);
  AddRule(out, "degree-two folding", sol.rules.degree_two_folding);
  AddRule(out, "degree-two path", sol.rules.degree_two_path);
  AddRule(out, "dominance", sol.rules.dominance);
  AddRule(out, "one-pass dominance", sol.rules.one_pass_dominance);
  AddRule(out, "lp", sol.rules.lp);
  AddRule(out, "twin", sol.rules.twin);
  AddRule(out, "unconfined", sol.rules.unconfined);
  AddRule(out, "peels (inexact)", sol.rules.peels);
  return out.str();
}

void PublishSolutionMetrics(const MisSolution& sol,
                            obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  metrics->Set("solution.size", static_cast<double>(sol.size));
  metrics->Set("solution.upper_bound", static_cast<double>(sol.UpperBound()));
  metrics->Set("solution.provably_maximum", sol.provably_maximum ? 1.0 : 0.0);
  metrics->Set("solution.peeled", static_cast<double>(sol.peeled));
  metrics->Set("solution.residual_peeled",
               static_cast<double>(sol.residual_peeled));
  metrics->Set("kernel.vertices", static_cast<double>(sol.kernel_vertices));
  metrics->Set("kernel.edges", static_cast<double>(sol.kernel_edges));

  const RuleCounters& r = sol.rules;
  metrics->Add("rules.degree_zero", r.degree_zero);
  metrics->Add("rules.degree_one", r.degree_one);
  metrics->Add("rules.degree_two_isolation", r.degree_two_isolation);
  metrics->Add("rules.degree_two_folding", r.degree_two_folding);
  metrics->Add("rules.degree_two_path", r.degree_two_path);
  metrics->Add("rules.dominance", r.dominance);
  metrics->Add("rules.one_pass_dominance", r.one_pass_dominance);
  metrics->Add("rules.lp", r.lp);
  metrics->Add("rules.twin", r.twin);
  metrics->Add("rules.unconfined", r.unconfined);
  metrics->Add("rules.peels", r.peels);
  metrics->Add("rules.total_exact", r.TotalExact());
}

std::string FormatDynamicStats(const DynamicStats& stats) {
  std::ostringstream out;
  const uint64_t updates = stats.insert_edges + stats.delete_edges +
                           stats.insert_vertices + stats.delete_vertices;
  out << "updates: " << FormatCount(updates) << " ("
      << FormatCount(stats.insert_edges) << " ae, "
      << FormatCount(stats.delete_edges) << " de, "
      << FormatCount(stats.insert_vertices) << " av, "
      << FormatCount(stats.delete_vertices) << " dv; "
      << FormatCount(stats.noops) << " no-ops)\n";
  const obs::LatencyHistogram& h = stats.latency;
  out << "latency: mean " << h.MeanSeconds() * 1e6 << "us, p50 "
      << h.QuantileSeconds(0.5) * 1e6 << "us, p99 "
      << h.QuantileSeconds(0.99) * 1e6 << "us\n";
  out << "cones: " << FormatCount(stats.cone_vertices)
      << " freed vertices total, max " << FormatCount(stats.max_cone)
      << "; includes " << FormatCount(stats.included_by_reduction)
      << " by reduction + " << FormatCount(stats.included_greedy)
      << " greedy; " << FormatCount(stats.evictions) << " evictions\n";
  out << "fallbacks: " << FormatCount(stats.component_fallbacks)
      << " component re-solves, " << FormatCount(stats.full_resolves)
      << " full re-solves\n";
  return out.str();
}

}  // namespace rpmis
