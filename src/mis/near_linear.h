// NearLinear (Algorithm 5): Reducing-Peeling with the degree-two path
// reductions and the dominance reduction, applied incrementally via
// per-edge triangle counts (Lemma 5.2: u dominates v iff
// δ(u,v) = d(u) - 1).
//
// O(m·Δ) worst case. The main loop holds the kernel adjacency, the
// triangle counts and a reverse-edge index: 6m + O(n) words (the paper's
// 4m + O(n) has no reverse index). Two prepasses shrink Δ and the instance
// before the main loop, as in §5:
//   1. one-pass dominance in decreasing-degree order, O(m·a(G));
//   2. the Nemhauser–Trotter LP reduction, O(m√n).
// Both are exact and both can be disabled for ablation. The alive subgraph
// left by the first is assembled once as a CSR; the LP runs on it and the
// main loop takes it over (DESIGN.md §3).
#ifndef RPMIS_MIS_NEAR_LINEAR_H_
#define RPMIS_MIS_NEAR_LINEAR_H_

#include "graph/graph.h"
#include "mis/per_component.h"
#include "mis/solution.h"
#include "support/fast_set.h"

namespace rpmis {

struct NearLinearOptions {
  bool one_pass_dominance = true;
  bool lp_reduction = true;
  /// Mid-run alive-subgraph rebuilds of the main-loop kernel
  /// (mis/compaction.h). Output is byte-identical with compaction disabled
  /// or at any threshold.
  CompactionOptions compaction;
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

/// Scratch for OnePassDominance: the degree-order buffers plus the
/// per-thread mark sets of the parallel screening pass. A caller that runs
/// the prepass more than once can pass the same object each time and pay
/// the allocations once.
struct DominanceScratch {
  std::vector<Vertex> order;
  std::vector<uint32_t> bucket;
  std::vector<uint32_t> initial_deg;  // cached g.Degree(v)
  std::vector<uint8_t> screened;      // per-order-position screening result
  std::vector<FastSet> marks;         // marks[t] owned by screening task t
  FastSet dirty;                      // vertices whose 2-hop state changed
};

/// The standalone one-pass dominance prepass: processes vertices in
/// decreasing degree order and deletes every vertex dominated by a
/// (not-larger-degree) neighbour. `alive` and `deg` are updated in place;
/// vertices whose degree reaches zero are flagged in `in_set`. Returns the
/// number of deletions. Exposed for tests.
///
/// Runs the screening phase on NumThreads() threads in blocks, then
/// finalizes each block serially in order; the result is byte-identical to
/// the serial pass at every thread count (see DESIGN.md).
uint64_t OnePassDominance(const Graph& g, std::vector<uint8_t>& alive,
                          std::vector<uint32_t>& deg,
                          std::vector<uint8_t>& in_set,
                          DominanceScratch& scratch);

}  // namespace rpmis

#endif  // RPMIS_MIS_NEAR_LINEAR_H_
