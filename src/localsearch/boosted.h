// ARW-LT and ARW-NL (§6): iterated local search boosted by
// Reducing-Peeling kernelization.
//
// Let K be the kernel obtained immediately before the first peel of
// LinearTime / NearLinear, and I(K) the algorithm's final solution
// restricted to K. ARW runs on K starting from I(K); every incumbent is
// lifted back to the input graph (fixed pre-kernel decisions + kernel
// solution + deferred path-stack replay + maximality pass) and that FULL
// size is what the convergence trace reports.
#ifndef RPMIS_LOCALSEARCH_BOOSTED_H_
#define RPMIS_LOCALSEARCH_BOOSTED_H_

#include "graph/graph.h"
#include "localsearch/arw.h"
#include "mis/solution.h"

namespace rpmis {

enum class BoostKind {
  kLinearTime,  // ARW-LT
  kNearLinear,  // ARW-NL
};

struct BoostedOptions {
  double time_limit_seconds = 1.0;
  uint64_t seed = 31337;
};

struct BoostedResult {
  MisSolution base;                       // the kernelizer's own solution
  std::vector<uint8_t> in_set;            // best lifted solution
  uint64_t size = 0;
  std::vector<ConvergencePoint> history;  // full-graph sizes over time
  uint64_t kernel_vertices = 0;
  uint64_t kernel_edges = 0;
};

/// Runs ARW boosted by the selected Reducing-Peeling algorithm.
BoostedResult RunBoostedArw(const Graph& g, BoostKind kind,
                            const BoostedOptions& options = {});

}  // namespace rpmis

#endif  // RPMIS_LOCALSEARCH_BOOSTED_H_
