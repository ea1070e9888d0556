#include "mis/bdone.h"

#include "ds/bucket_queue.h"
#include "mis/kernel_capture.h"
#include "obs/obs.h"
#include "obs/progress.h"
#include "obs/trace.h"

namespace rpmis {

MisSolution RunBDOne(const Graph& g, KernelSnapshot* capture) {
  obs::TraceSpan algo_span(obs::Trace(), "bdone");
  const Vertex n = g.NumVertices();
  MisSolution sol;
  sol.in_set.assign(n, 0);
  uint64_t in_count = 0;  // running |I| for progress samples

  // BDOne never rewires edges, so it scans the input CSR as a plain view.
  const std::span<const uint64_t> offsets = g.RawOffsets();
  const std::span<const Vertex> adj = g.RawNeighbors();

  std::vector<uint8_t> alive(n, 1);
  std::vector<uint8_t> peeled(n, 0);
  std::vector<uint32_t> deg(n);
  std::vector<Vertex> v1;  // degree-one worklist (may hold stale entries)
  Vertex active = 0;       // # vertices with alive && deg > 0
  for (Vertex v = 0; v < n; ++v) {
    deg[v] = g.Degree(v);
    if (deg[v] == 0) {
      sol.in_set[v] = 1;
      ++in_count;
      ++sol.rules.degree_zero;
    } else {
      ++active;
      if (deg[v] == 1) v1.push_back(v);
    }
  }
  LazyMaxBucketQueue peel_queue(deg);

  // Removes v from the graph: neighbours lose a degree; a neighbour
  // reaching degree 0 joins I (it is now isolated, hence safe to take).
  auto delete_vertex = [&](Vertex v) {
    RPMIS_DASSERT(alive[v] && deg[v] > 0);
    alive[v] = 0;
    --active;
    for (uint64_t e = offsets[v]; e < offsets[v + 1]; ++e) {
      const Vertex w = adj[e];
      if (!alive[w]) continue;
      if (--deg[w] == 1) {
        v1.push_back(w);
      } else if (deg[w] == 0) {
        sol.in_set[w] = 1;
        ++in_count;
        --active;
      }
    }
  };

  // Snapshots the alive part of the graph. An edge survives iff both
  // endpoints are alive (with positive degree; edgeless alive vertices are
  // already decided).
  auto capture_now = [&]() {
    std::vector<Edge> edges;
    for (Vertex v = 0; v < n; ++v) {
      if (!alive[v] || deg[v] == 0) continue;
      for (uint64_t e = offsets[v]; e < offsets[v + 1]; ++e) {
        const Vertex w = adj[e];
        if (v < w && alive[w] && deg[w] > 0) edges.emplace_back(v, w);
      }
    }
    internal::BuildKernelSnapshot(alive, deg, sol.in_set, edges, {}, capture);
  };

  // Progress snapshot: O(live) edge recount, amortized by the stride.
  auto sample_progress = [&](obs::ProgressSampler* ps) {
    uint64_t deg_sum = 0;
    for (Vertex x = 0; x < n; ++x) {
      if (alive[x]) deg_sum += deg[x];
    }
    obs::ProgressSample s;
    s.live_vertices = active;
    s.live_edges = deg_sum / 2;
    s.solution_size = in_count;
    s.upper_bound = in_count + active + sol.rules.peels;
    s.label = "bdone.core";
    ps->Record(std::move(s));
  };

  bool peeled_yet = false;
  {
  obs::TraceSpan core_span(obs::Trace(), "bdone.core");
  while (true) {
    if (auto* ps = obs::Progress(); ps != nullptr && ps->Due()) {
      sample_progress(ps);
    }
    if (!v1.empty()) {
      const Vertex u = v1.back();
      v1.pop_back();
      if (!alive[u] || deg[u] != 1) continue;  // stale entry
      // Degree-one reduction: delete u's unique alive neighbour.
      Vertex nb = kInvalidVertex;
      for (uint64_t e = offsets[u]; e < offsets[u + 1]; ++e) {
        if (alive[adj[e]]) {
          nb = adj[e];
          break;
        }
      }
      RPMIS_DASSERT(nb != kInvalidVertex);
      delete_vertex(nb);
      ++sol.rules.degree_one;
      continue;
    }
    // Inexact reduction: peel the highest-degree vertex.
    const Vertex u = peel_queue.PopMax(
        [&](Vertex v) { return deg[v]; },
        [&](Vertex v) { return alive[v] && deg[v] >= 2; });
    if (u == kInvalidVertex) break;
    if (!peeled_yet) {
      peeled_yet = true;
      if (auto* t = obs::Trace()) t->Instant("bdone.first_peel");
      sol.kernel_vertices = active;
      uint64_t kernel_edges2 = 0;
      for (Vertex v = 0; v < n; ++v) {
        if (alive[v]) kernel_edges2 += deg[v];
      }
      sol.kernel_edges = kernel_edges2 / 2;
      if (capture != nullptr) capture_now();
    }
    peeled[u] = 1;
    ++sol.rules.peels;
    delete_vertex(u);
  }
  }  // core_span

  if (capture != nullptr && !peeled_yet) {
    capture_now();  // empty kernel
  }

  FinalizeSolution(g, peeled, &sol);
  return sol;
}

MisSolution RunBDOnePerComponent(const Graph& g, const PerComponentOptions& opts) {
  const auto algo = [](const Graph& sub) { return RunBDOne(sub); };
  return opts.parallel ? RunPerComponentParallel(g, algo)
                       : RunPerComponent(g, algo);
}

}  // namespace rpmis
