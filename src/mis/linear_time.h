// LinearTime (Algorithm 4): Reducing-Peeling with the degree-one reduction
// and the new degree-two PATH reductions (Lemma 4.1).
//
// O(m) time, 2m + O(n) space. Instead of folding single degree-two
// vertices (which needs a growable representation, see BDTwo), whole
// maximal degree-two paths/cycles are resolved at once:
//
//   cycle          : drop an arbitrary cycle vertex, rest unravels
//   case 1  v == w : drop the common attachment v
//   case 2  odd,  (v,w) in E : drop both attachments
//   case 3  odd,  (v,w) not in E : keep v_1, drop v_2..v_l, REWIRE (v_1,w)
//   case 4  even, (v,w) in E : drop the whole path
//   case 5  even, (v,w) not in E : drop the whole path, REWIRE (v,w)
//
// Rewiring overwrites existing adjacency slots in both directions, so the
// CSR copy never grows. Cases 3-5 defer the in-path membership decision by
// pushing the path onto a stack that is replayed (LIFO) at the end: a
// popped vertex joins I iff no neighbour is already in I, which realizes
// the alternating half guaranteed by Lemma 4.1.
#ifndef RPMIS_MIS_LINEAR_TIME_H_
#define RPMIS_MIS_LINEAR_TIME_H_

#include "graph/graph.h"
#include "mis/per_component.h"
#include "mis/reduction_trace.h"
#include "mis/solution.h"

namespace rpmis {

struct LinearTimeOptions {
  /// When non-null, receives the reduction provenance log (input-graph
  /// ids, see mis/reduction_trace.h). Recording never influences the
  /// solve; the solution is byte-identical with or without it.
  ReductionTrace* trace = nullptr;
};

/// Computes a maximal independent set of g with LinearTime. If `capture`
/// is non-null it receives the kernel right before the first peel.
MisSolution RunLinearTime(const Graph& g, KernelSnapshot* capture = nullptr,
                          const LinearTimeOptions& options = {});

/// Component-wise LinearTime: runs RunLinearTime on every connected
/// component independently (concurrently when opts.parallel) and merges.
/// Output is independent of the thread count.
MisSolution RunLinearTimePerComponent(const Graph& g,
                                      const PerComponentOptions& opts = {},
                                      const LinearTimeOptions& options = {});

}  // namespace rpmis

#endif  // RPMIS_MIS_LINEAR_TIME_H_
