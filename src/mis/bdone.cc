#include "mis/bdone.h"

#include "mis/peeling_core.h"
#include "obs/obs.h"
#include "obs/trace.h"

namespace rpmis {

MisSolution RunBDOne(const Graph& g, KernelSnapshot* capture) {
  obs::TraceSpan algo_span(obs::Trace(), "bdone");
  MisSolution sol;
  sol.in_set.assign(g.NumVertices(), 0);
  // BDOne never rewires edges, so the core scans the input CSR as a view.
  PeelingCore<kDegreeOneRule> core(g, &sol, {"bdone.core", "bdone.first_peel"});
  core.Run(capture);
  core.Finish(g);
  return sol;
}

MisSolution RunBDOnePerComponent(const Graph& g, const PerComponentOptions& opts) {
  const auto algo = [](const Graph& sub) { return RunBDOne(sub); };
  return opts.parallel ? RunPerComponentParallel(g, algo)
                       : RunPerComponent(g, algo);
}

}  // namespace rpmis
