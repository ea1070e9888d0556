#include "mis/linear_time.h"

#include "mis/peeling_core.h"
#include "obs/obs.h"
#include "obs/trace.h"

namespace rpmis {

MisSolution RunLinearTime(const Graph& g, KernelSnapshot* capture,
                          std::vector<uint8_t>* peeled) {
  obs::TraceSpan algo_span(obs::Trace(), "lineartime");
  MisSolution sol;
  sol.in_set.assign(g.NumVertices(), 0);
  PeelingCore<kDegreeOneRule | kPathRule> core(
      g, &sol, {"lineartime.core", "lineartime.first_peel"});
  core.Run(capture);
  obs::TraceSpan finalize_span(obs::Trace(), "lineartime.finalize");
  core.Finish(g);
  if (peeled != nullptr) *peeled = core.TakePeeled();
  return sol;
}

MisSolution RunLinearTimePerComponent(const Graph& g,
                                      const PerComponentOptions& opts) {
  const auto algo = [](const Graph& sub) { return RunLinearTime(sub); };
  return opts.parallel ? RunPerComponentParallel(g, algo)
                       : RunPerComponent(g, algo);
}

}  // namespace rpmis
