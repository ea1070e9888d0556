// Linear-programming (Nemhauser–Trotter) reduction (§5, [1]).
//
// The LP relaxation of MIS (max Σx_v, x_u + x_v <= 1, 0 <= x <= 1) has a
// half-integral optimum computable exactly from a maximum matching of the
// bipartite double cover B(G): every vertex appears once on each side and
// each edge (u,v) contributes (u_L, v_R) and (v_L, u_R). By König's
// theorem a minimum vertex cover of B gives y ∈ {0, ½, 1}^V with
// y_v = (1_{v_L∈C} + 1_{v_R∈C}) / 2, and x = 1 - y is LP-optimal.
// Nemhauser–Trotter persistency: some maximum independent set contains all
// x=1 vertices and no x=0 vertex, so both classes can be fixed.
//
// Matching is found with Hopcroft–Karp, O(m√n); in practice near-linear on
// the power-law graphs this library targets.
#ifndef RPMIS_MIS_LP_REDUCTION_H_
#define RPMIS_MIS_LP_REDUCTION_H_

#include <span>
#include <vector>

#include "graph/graph.h"

namespace rpmis {

/// Outcome of one LP reduction pass over a graph on [0, n).
struct LpReduction {
  std::vector<uint8_t> include;  // x_v = 1: fix into the independent set
  std::vector<uint8_t> exclude;  // x_v = 0: fix out (a neighbour is taken)
  uint64_t num_include = 0;
  uint64_t num_exclude = 0;
  uint64_t num_half = 0;         // x_v = 1/2: stays in the kernel
  uint64_t matching = 0;         // maximum matching size of the double cover

  /// LP upper bound on α(G): floor(n - matching/2).
  uint64_t Bound(Vertex n) const { return n - (matching + 1) / 2; }
};

/// Solves the LP relaxation for the graph on [0, offsets.size() - 1) given
/// as a symmetric CSR, and classifies every vertex. The CSR is the double
/// cover's left side as it stands (v_L is joined to u_R for every slot
/// (v, u)), so no cross-edge list is built. Self-loops/duplicates are not
/// expected.
LpReduction SolveLpReduction(std::span<const uint64_t> offsets,
                             std::span<const Vertex> adj);

/// Convenience overload for a whole Graph (its CSR, directly).
LpReduction SolveLpReduction(const Graph& g);

/// Maximum matching size of a bipartite graph with `right` right
/// vertices and its left side given as a CSR (offsets.size() - 1 left
/// vertices; targets are right ids). Exposed for testing.
uint64_t HopcroftKarpMatching(Vertex right, std::span<const uint64_t> offsets,
                              std::span<const Vertex> targets,
                              std::vector<Vertex>* match_left = nullptr,
                              std::vector<Vertex>* match_right = nullptr);

}  // namespace rpmis

#endif  // RPMIS_MIS_LP_REDUCTION_H_
