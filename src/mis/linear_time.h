// LinearTime (Algorithm 4): Reducing-Peeling with the degree-one reduction
// and the new degree-two PATH reductions (Lemma 4.1).
//
// O(m) time, 2m + O(n) space. Instead of folding single degree-two
// vertices (which needs a growable representation, see BDTwo), whole
// maximal degree-two paths/cycles are resolved at once by rewiring a copy
// of the CSR neighbour array; mis/peeling_core.h lists the cases.
#ifndef RPMIS_MIS_LINEAR_TIME_H_
#define RPMIS_MIS_LINEAR_TIME_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "mis/per_component.h"
#include "mis/solution.h"

namespace rpmis {

/// Computes a maximal independent set of g with LinearTime. If `capture`
/// is non-null it receives the kernel right before the first peel. If
/// `peeled` is non-null it receives n flags marking the peeled vertices
/// F, whether or not they re-entered I; passing it never changes the
/// solution.
MisSolution RunLinearTime(const Graph& g, KernelSnapshot* capture = nullptr,
                          std::vector<uint8_t>* peeled = nullptr);

/// Component-wise LinearTime: runs RunLinearTime on every connected
/// component independently (concurrently when opts.parallel) and merges.
/// Output is independent of the thread count.
MisSolution RunLinearTimePerComponent(const Graph& g,
                                      const PerComponentOptions& opts = {});

}  // namespace rpmis

#endif  // RPMIS_MIS_LINEAR_TIME_H_
