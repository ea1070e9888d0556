#include "localsearch/boosted.h"

#include "mis/linear_time.h"
#include "mis/near_linear.h"
#include "mis/verify.h"
#include "obs/obs.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "support/timer.h"

namespace rpmis {

BoostedResult RunBoostedArw(const Graph& g, BoostKind kind,
                            const BoostedOptions& options) {
  obs::TraceSpan algo_span(
      obs::Trace(), kind == BoostKind::kLinearTime ? "arw-lt" : "arw-nl");
  Timer timer;
  BoostedResult out;
  KernelSnapshot snap;
  {
    obs::TraceSpan span(obs::Trace(), "boosted.kernelize");
    out.base = kind == BoostKind::kLinearTime ? RunLinearTime(g, &snap)
                                              : RunNearLinear(g, &snap);
  }
  RPMIS_ASSERT(snap.captured);
  const Graph& kernel = snap.kernel;
  out.kernel_vertices = kernel.NumVertices();
  out.kernel_edges = kernel.NumEdges();

  // Initial kernel solution: the base algorithm's final answer restricted
  // to kernel vertices. The base answer respects rewired kernel edges by
  // construction, so this restriction is an independent set of K.
  std::vector<uint8_t> initial(kernel.NumVertices(), 0);
  for (Vertex k = 0; k < kernel.NumVertices(); ++k) {
    if (out.base.in_set[snap.kernel_to_orig[k]]) initial[k] = 1;
  }
  RPMIS_ASSERT_MSG(IsIndependentSet(kernel, initial),
                   "base solution must restrict to a kernel IS");

  // Lifts a kernel solution to the full graph: pre-kernel inclusions,
  // kernel choices, deferred degree-two-path decisions (LIFO), then the
  // maximality pass that also re-admits compatible peeled vertices.
  auto lift = [&](const std::vector<uint8_t>& kernel_set) {
    std::vector<uint8_t> full(g.NumVertices(), 0);
    for (Vertex v : snap.included) full[v] = 1;
    for (Vertex k = 0; k < kernel.NumVertices(); ++k) {
      if (kernel_set[k]) full[snap.kernel_to_orig[k]] = 1;
    }
    ReplayDeferredStack(snap.deferred_stack, full);
    ExtendToMaximal(g, full);
    return full;
  };

  // Incumbents carry LIFTED sizes, so the convergence curve (and its
  // regeneration from progress-sample JSONL) sees the figures the bench
  // reports, not the kernel-level sizes the inner ARW samples.
  auto note_incumbent = [&](uint64_t size) {
    out.history.push_back({timer.Seconds(), size});
    if (auto* ps = obs::Progress()) {
      obs::ProgressSample s;
      s.solution_size = size;
      s.label = "boosted";
      ps->Record(std::move(s));
    }
  };

  ArwOptions arw;
  arw.time_limit_seconds = options.time_limit_seconds;
  arw.seed = options.seed;
  arw.on_improvement = [&](double, const std::vector<uint8_t>& kernel_set) {
    obs::TraceSpan span(obs::Trace(), "boosted.lift");
    std::vector<uint8_t> full = lift(kernel_set);
    uint64_t size = 0;
    for (uint8_t f : full) size += f;
    if (size > out.size) {
      out.size = size;
      out.in_set = std::move(full);
      note_incumbent(size);
    }
  };
  RunArw(kernel, std::move(initial), arw);

  if (out.in_set.empty()) {
    out.in_set = out.base.in_set;
    out.size = out.base.size;
    note_incumbent(out.size);
  }
  RPMIS_ASSERT(IsMaximalIndependentSet(g, out.in_set));
  return out;
}

}  // namespace rpmis
