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
// The maximum matching is found serially in two parts, after a greedy
// warm start:
//   1. Pothen–Fan+ lookahead phases over the free left vertices. Each
//      phase runs one iterative DFS per free root. Before it descends, a
//      vertex looks for a free neighbour through a lookahead cursor that
//      persists across phases (matched right vertices never become free
//      again). Right vertices carry per-phase visit stamps, and the scan
//      direction alternates between phases. A phase that augments nothing
//      has searched all that the free vertices reach, which proves the
//      matching maximum.
//   2. When a phase augments fewer than half of its roots, Hopcroft–Karp
//      (serial layered BFS, iterative DFS) takes over from the current
//      matching.
// Bound: every lookahead phase that does not hand over at least halves
// the number of free roots, so there are at most log₂ n + 2 phases. The
// halving rule is what gives this bound; it is not a tuning knob. Each
// phase costs O(n + m), because a left vertex is entered once per phase
// and the lookahead cursors advance m slots in all. That is O(m log n),
// and Hopcroft–Karp adds its O(m√n), so the total stays O(m√n). On
// flat-degree graphs the greedy start leaves few free vertices, and the
// lookahead phases finish them with almost no search. Without the
// hand-over, phases that each find about one augmenting path can run
// hundreds of times (EXPERIMENTS.md, "LP matcher").
//
// Scratch per vertex is at most 16 bytes, as it was for Hopcroft–Karp
// alone: ml, mr and a 32-bit lookahead cursor and visit stamp during the
// lookahead phases, which are released before Hopcroft–Karp allocates its
// dist array and BFS queue. DFS cursors live on an explicit stack.
//
// Why the result does not depend on the matcher: the König set Z, the
// vertices that free left vertices reach by alternating paths, is the
// same for every maximum matching (Dulmage–Mendelsohn / Gallai–Edmonds).
// So `include`, `exclude`, the counts and `matching` are canonical; only
// the matched pairs themselves can differ between matchers. Nothing here
// recurses, so augmenting paths as long as the graph cannot overflow the
// call stack.
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
  uint64_t lookahead_phases = 0; // Pothen–Fan+ phases run
  uint64_t hk_phases = 0;        // Hopcroft–Karp phases that augmented

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

/// Adds lp's phase counts to the installed metrics registry, if any, as
/// `lp.lookahead_phases` and `lp.hk_phases`.
void AddLpPhaseMetrics(const LpReduction& lp);

/// Maximum matching size of a bipartite graph with `right` right
/// vertices and its left side given as a CSR (offsets.size() - 1 left
/// vertices; targets are right ids), by the matcher described above.
/// Exposed for testing.
uint64_t MaximumMatching(Vertex right, std::span<const uint64_t> offsets,
                         std::span<const Vertex> targets,
                         std::vector<Vertex>* match_left = nullptr,
                         std::vector<Vertex>* match_right = nullptr);

}  // namespace rpmis

#endif  // RPMIS_MIS_LP_REDUCTION_H_
