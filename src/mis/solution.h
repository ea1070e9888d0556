// Solution and instrumentation types shared by every MIS algorithm.
#ifndef RPMIS_MIS_SOLUTION_H_
#define RPMIS_MIS_SOLUTION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace rpmis {

/// Per-reduction-rule application counters (diagnostics for DESIGN.md's
/// ablations and the kernel benches).
struct RuleCounters {
  uint64_t degree_zero = 0;
  uint64_t degree_one = 0;
  uint64_t degree_two_isolation = 0;
  uint64_t degree_two_folding = 0;
  uint64_t degree_two_path = 0;   // Lemma 4.1 path/cycle applications
  uint64_t dominance = 0;
  uint64_t one_pass_dominance = 0;
  uint64_t lp = 0;                // vertices fixed by the LP reduction
  uint64_t twin = 0;
  uint64_t unconfined = 0;
  uint64_t peels = 0;             // inexact reductions (|F|)

  uint64_t TotalExact() const {
    return degree_zero + degree_one + degree_two_isolation + degree_two_folding +
           degree_two_path + dominance + one_pass_dominance + lp + twin + unconfined;
  }

  /// Field-wise accumulation (merging per-component runs).
  RuleCounters& operator+=(const RuleCounters& other);
};

/// A deferred degree-two-path membership decision (Lemma 4.1 cases 3-5).
/// `v` was removed with exactly two neighbours, `nb1`/`nb2` — possibly
/// REWIRED (virtual) edges, which encode the path constraints. On replay,
/// v joins I iff neither partner is in I. Replaying against these
/// at-removal partners (never the original adjacency, which misses
/// rewired edges) is what preserves the alternating-half guarantee when
/// path reductions chain through rewired edges.
struct DeferredDecision {
  Vertex v;
  Vertex nb1;
  Vertex nb2;
};

/// Kernel snapshot taken immediately before the first inexact reduction
/// (§6: the graph K on which boosted local search runs). If the algorithm
/// never peels, the snapshot is taken at termination and the kernel is
/// empty or edgeless.
struct KernelSnapshot {
  Graph kernel;                         // renumbered kernel graph
  std::vector<Vertex> kernel_to_orig;   // kernel id -> original id
  std::vector<Vertex> orig_to_kernel;   // original id -> kernel id or kInvalidVertex
  std::vector<Vertex> included;         // original ids already fixed into I
  /// Deferred decisions recorded up to the snapshot, in push order
  /// (original ids); replay in reverse (LIFO).
  std::vector<DeferredDecision> deferred_stack;
  bool captured = false;
};

/// Result of a (heuristic or exact) MIS computation.
struct MisSolution {
  std::vector<uint8_t> in_set;  // n flags
  uint64_t size = 0;

  /// Theorem 6.1 accounting: F = peeled vertices, R = F \ I.
  uint64_t peeled = 0;           // |F|
  uint64_t residual_peeled = 0;  // |R|

  /// α(G) <= size + residual_peeled (Theorem 6.1).
  uint64_t UpperBound() const { return size + residual_peeled; }

  /// True iff R was empty, i.e. the algorithm can certify I is maximum.
  bool provably_maximum = false;

  /// Remaining graph size at the moment of the first peel (kernel size).
  uint64_t kernel_vertices = 0;
  uint64_t kernel_edges = 0;

  RuleCounters rules;

  /// Accumulates the scalar statistics of a partial solution (size, peel
  /// and kernel counts, rule counters; provably_maximum is ANDed).
  /// `in_set` is untouched — scattering membership flags needs the
  /// caller's vertex renaming. This is the one merge routine shared by
  /// every component-wise runner.
  void MergeStatsFrom(const MisSolution& part);

  /// Recomputes `size` from `in_set` (used after post-processing passes).
  void RecountSize() {
    size = 0;
    for (uint8_t f : in_set) size += f;
  }
};

/// Greedily extends `in_set` to a maximal independent set of g: every
/// vertex with no neighbour currently in the set is added, in increasing id
/// order. Returns the number of vertices added. This is Line 6 of
/// Algorithm 1 and also how temporarily peeled vertices re-enter I.
uint64_t ExtendToMaximal(const Graph& g, std::vector<uint8_t>& in_set);

/// The tail shared by the Reducing-Peeling solvers: ExtendToMaximal(g,
/// sol->in_set), then recounts `size`, sets `peeled` = rules.peels, counts
/// the residual |R| = F \ I (`peeled_flags` marks F in input ids) and
/// certifies the set maximum iff R is empty (Theorem 6.1).
void FinalizeSolution(const Graph& g, std::span<const uint8_t> peeled_flags,
                      MisSolution* sol);

/// Replays a deferred degree-two-path stack: pops in reverse push order
/// and adds each vertex iff neither at-removal partner is in the set.
/// Returns the number added.
uint64_t ReplayDeferredStack(std::span<const DeferredDecision> stack,
                             std::vector<uint8_t>& in_set);

}  // namespace rpmis

#endif  // RPMIS_MIS_SOLUTION_H_
