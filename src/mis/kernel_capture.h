// Internal helper to materialize a KernelSnapshot (§6).
//
// The reducing-peeling core (mis/peeling_core.h) enumerates the surviving
// edges of whatever CSR it walks (BDOne's is the input; LinearTime's and
// NearLinear's are rewired copies, NearLinear's over renamed ids) and
// translates them to input ids; this helper does the shared renumbering.
#ifndef RPMIS_MIS_KERNEL_CAPTURE_H_
#define RPMIS_MIS_KERNEL_CAPTURE_H_

#include <span>
#include <vector>

#include "graph/graph.h"
#include "mis/solution.h"

namespace rpmis::internal {

/// Builds `out` from the algorithm state at the moment of the first peel.
/// `in_kernel` flags the kernel's vertices (alive with positive degree);
/// `edges` are the surviving edges; `in_set` gives the vertices already
/// fixed into I; `deferred` is the deferred-decision stack so far, in push
/// order. All ids are input ids.
void BuildKernelSnapshot(const std::vector<uint8_t>& in_kernel,
                         const std::vector<uint8_t>& in_set,
                         const std::vector<Edge>& edges,
                         std::span<const DeferredDecision> deferred, KernelSnapshot* out);

}  // namespace rpmis::internal

#endif  // RPMIS_MIS_KERNEL_CAPTURE_H_
