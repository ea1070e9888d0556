#include "mis/solution.h"

namespace rpmis {

RuleCounters& RuleCounters::operator+=(const RuleCounters& other) {
  degree_zero += other.degree_zero;
  degree_one += other.degree_one;
  degree_two_isolation += other.degree_two_isolation;
  degree_two_folding += other.degree_two_folding;
  degree_two_path += other.degree_two_path;
  dominance += other.dominance;
  one_pass_dominance += other.one_pass_dominance;
  lp += other.lp;
  twin += other.twin;
  unconfined += other.unconfined;
  peels += other.peels;
  return *this;
}

void MisSolution::MergeStatsFrom(const MisSolution& part) {
  size += part.size;
  peeled += part.peeled;
  residual_peeled += part.residual_peeled;
  kernel_vertices += part.kernel_vertices;
  kernel_edges += part.kernel_edges;
  provably_maximum = provably_maximum && part.provably_maximum;
  rules += part.rules;
}

uint64_t ExtendToMaximal(const Graph& g, std::vector<uint8_t>& in_set) {
  RPMIS_ASSERT(in_set.size() == g.NumVertices());
  uint64_t added = 0;
  for (Vertex v = 0; v < g.NumVertices(); ++v) {
    if (in_set[v]) continue;
    bool blocked = false;
    for (Vertex w : g.Neighbors(v)) {
      if (in_set[w]) {
        blocked = true;
        break;
      }
    }
    if (!blocked) {
      in_set[v] = 1;
      ++added;
    }
  }
  return added;
}

void FinalizeSolution(const Graph& g, std::span<const uint8_t> peeled_flags,
                      MisSolution* sol) {
  RPMIS_ASSERT(peeled_flags.size() == sol->in_set.size());
  ExtendToMaximal(g, sol->in_set);
  sol->RecountSize();
  sol->peeled = sol->rules.peels;
  for (size_t v = 0; v < peeled_flags.size(); ++v) {
    if (peeled_flags[v] && !sol->in_set[v]) ++sol->residual_peeled;
  }
  sol->provably_maximum = (sol->residual_peeled == 0);
}

uint64_t ReplayDeferredStack(std::span<const DeferredDecision> stack,
                             std::vector<uint8_t>& in_set) {
  uint64_t added = 0;
  for (size_t i = stack.size(); i-- > 0;) {
    const DeferredDecision& d = stack[i];
    if (in_set[d.v]) continue;
    if (!in_set[d.nb1] && !in_set[d.nb2]) {
      in_set[d.v] = 1;
      ++added;
    }
  }
  return added;
}

}  // namespace rpmis
