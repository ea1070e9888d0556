// NearLinear (Algorithm 5): Reducing-Peeling with the degree-two path
// reductions and the dominance reduction, applied incrementally via
// per-edge triangle counts (Lemma 5.2: u dominates v iff
// δ(u,v) = d(u) - 1).
//
// O(m·Δ) worst case. The main loop holds the kernel adjacency, the
// triangle counts and a reverse-edge index: 6m + O(n) words (the paper's
// 4m + O(n) has no reverse index). Two prepasses shrink Δ and the instance
// before the main loop, as in §5:
//   1. one-pass dominance in decreasing-degree order, O(m·a(G)), one
//      serial pass (a block-parallel screen lost on power-law graphs,
//      DESIGN.md §7);
//   2. the Nemhauser–Trotter LP reduction, O(m√n), one serial pass
//      (lookahead matching phases, then Hopcroft–Karp if they stall;
//      lp_reduction.h); its parallel BFS did not pay (DESIGN.md §7).
// Both are exact and both can be disabled for ablation. The alive subgraph
// left by the first is assembled once as a CSR; the LP runs on it and the
// main loop takes it over (DESIGN.md §3).
#ifndef RPMIS_MIS_NEAR_LINEAR_H_
#define RPMIS_MIS_NEAR_LINEAR_H_

#include "graph/graph.h"
#include "mis/per_component.h"
#include "mis/solution.h"

namespace rpmis {

struct NearLinearOptions {
  bool one_pass_dominance = true;
  bool lp_reduction = true;
};

/// Computes a maximal independent set of g with NearLinear. If `capture`
/// is non-null it receives the kernel right before the first peel.
MisSolution RunNearLinear(const Graph& g, KernelSnapshot* capture = nullptr,
                          const NearLinearOptions& options = {});

/// Component-wise NearLinear: runs RunNearLinear (with `options`) on
/// every connected component independently (concurrently when
/// opts.parallel) and merges. Output is independent of the thread count.
MisSolution RunNearLinearPerComponent(const Graph& g,
                                      const PerComponentOptions& opts = {},
                                      const NearLinearOptions& options = {});

}  // namespace rpmis

#endif  // RPMIS_MIS_NEAR_LINEAR_H_
