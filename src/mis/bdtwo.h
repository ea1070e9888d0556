// BDTwo (Algorithm 3): Reducing-Peeling with degree-one and degree-two
// VERTEX reductions (Lemma 2.2).
//
// Degree-two folding contracts {u, v, w} into a supervertex, which can
// grow neighbourhoods; BDTwo therefore runs on the dynamic AdjacencyGraph
// (6m + O(n) space) with an eagerly-updated doubly-linked bucket queue,
// and is Ω(m + n log n) / O(n·m) rather than linear (Theorem 3.1).
// Contractions are backtracked at the end to recover the solution.
#ifndef RPMIS_MIS_BDTWO_H_
#define RPMIS_MIS_BDTWO_H_

#include "graph/graph.h"
#include "mis/per_component.h"
#include "mis/solution.h"

namespace rpmis {

/// Computes a maximal independent set of g with BDTwo.
MisSolution RunBDTwo(const Graph& g);

/// Component-wise BDTwo: runs RunBDTwo on every connected component
/// independently (concurrently when opts.parallel) and merges. Output is
/// independent of the thread count. Particularly attractive for BDTwo,
/// whose 6m-space dynamic representation is then sized per component.
MisSolution RunBDTwoPerComponent(const Graph& g,
                                 const PerComponentOptions& opts = {});

}  // namespace rpmis

#endif  // RPMIS_MIS_BDTWO_H_
