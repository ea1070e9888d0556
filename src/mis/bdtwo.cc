#include "mis/bdtwo.h"

#include <algorithm>

#include "ds/bucket_queue.h"
#include "graph/adjacency_graph.h"
#include "obs/obs.h"
#include "obs/progress.h"
#include "obs/trace.h"

namespace rpmis {

namespace {

// A degree-two folding record: u was deleted, `merged` was contracted into
// `rep`. On unwind (reverse order): rep in I  =>  merged joins I too;
// otherwise u joins I (Lemma 2.2).
struct FoldRecord {
  Vertex u;
  Vertex merged;
  Vertex rep;
};

}  // namespace

MisSolution RunBDTwo(const Graph& g) {
  obs::TraceSpan algo_span(obs::Trace(), "bdtwo");
  const Vertex n = g.NumVertices();
  MisSolution sol;
  sol.in_set.assign(n, 0);
  uint64_t in_count = 0;  // running |I| for progress samples

  AdjacencyGraph dyn(g);
  std::vector<uint8_t> peeled(n, 0);
  std::vector<Vertex> v1, v2;         // worklists with lazy staleness checks
  std::vector<FoldRecord> folds;
  std::vector<Vertex> touched;

  // Contraction can raise a degree up to n-1, so the bucket range is the
  // full [0, n-1] ("n bins", §3.2) and the queue is the eager doubly-linked
  // variant.
  BucketQueue queue(n, n == 0 ? 0 : n - 1);
  for (Vertex v = 0; v < n; ++v) {
    const uint32_t d = dyn.Degree(v);
    if (d == 0) {
      sol.in_set[v] = 1;
      ++in_count;
      ++sol.rules.degree_zero;
      continue;  // already decided; never enters the queue
    }
    queue.Insert(v, d);
    if (d == 1) {
      v1.push_back(v);
    } else if (d == 2) {
      v2.push_back(v);
    }
  }

  // Re-synchronizes queue keys and worklists for vertices whose degree
  // changed, and finalizes vertices that dropped to degree zero.
  auto sync_touched = [&]() {
    for (Vertex x : touched) {
      if (!dyn.IsAlive(x) || !queue.Contains(x)) continue;
      const uint32_t d = dyn.Degree(x);
      if (d == 0) {
        queue.Remove(x);
        sol.in_set[x] = 1;
        ++in_count;
        continue;
      }
      if (queue.KeyOf(x) != d) queue.Update(x, d);
      if (d == 1) {
        v1.push_back(x);
      } else if (d == 2) {
        v2.push_back(x);
      }
    }
    touched.clear();
  };

  auto remove_vertex = [&](Vertex v) {
    if (queue.Contains(v)) queue.Remove(v);
    dyn.RemoveVertex(v, &touched);
    sync_touched();
  };

  // Progress snapshot: O(1) here — the dynamic graph tracks its alive
  // edge count and the queue its size.
  auto sample_progress = [&](obs::ProgressSampler* ps) {
    obs::ProgressSample s;
    s.live_vertices = queue.Size();
    s.live_edges = dyn.NumAliveEdges();
    s.solution_size = in_count;
    // Crude in-flight bound: live, folded, and peeled-so-far vertices may
    // yet join I (DESIGN.md §8).
    s.upper_bound = in_count + queue.Size() + folds.size() + sol.rules.peels;
    s.label = "bdtwo.core";
    ps->Record(std::move(s));
  };

  bool peeled_yet = false;
  {
  obs::TraceSpan core_span(obs::Trace(), "bdtwo.core");
  while (true) {
    if (auto* ps = obs::Progress(); ps != nullptr && ps->Due()) {
      sample_progress(ps);
    }
    if (!v1.empty()) {
      const Vertex u = v1.back();
      v1.pop_back();
      if (!dyn.IsAlive(u) || dyn.Degree(u) != 1) continue;
      Vertex nb = kInvalidVertex;
      dyn.ForEachNeighbor(u, [&](Vertex w) { nb = w; });
      RPMIS_DASSERT(nb != kInvalidVertex);
      remove_vertex(nb);
      ++sol.rules.degree_one;
      continue;
    }
    if (!v2.empty()) {
      const Vertex u = v2.back();
      v2.pop_back();
      if (!dyn.IsAlive(u) || dyn.Degree(u) != 2) continue;
      Vertex nbs[2];
      int k = 0;
      dyn.ForEachNeighbor(u, [&](Vertex w) { nbs[k++] = w; });
      RPMIS_DASSERT(k == 2);
      Vertex v = nbs[0], w = nbs[1];
      if (dyn.HasEdge(v, w)) {
        // Degree-two isolation: u joins I; drop both neighbours.
        remove_vertex(v);
        if (dyn.IsAlive(w)) remove_vertex(w);
        ++sol.rules.degree_two_isolation;
      } else {
        // Degree-two folding: contract {u, v, w}. Contract the smaller
        // neighbourhood into the larger (the Theorem 3.1 cost model).
        if (dyn.Degree(v) > dyn.Degree(w)) std::swap(v, w);
        remove_vertex(u);
        RPMIS_DASSERT(dyn.IsAlive(v) && dyn.IsAlive(w));
        if (queue.Contains(v)) queue.Remove(v);
        dyn.ContractInto(v, w, &touched);
        sync_touched();
        folds.push_back({u, v, w});
        ++sol.rules.degree_two_folding;
      }
      continue;
    }
    if (queue.Empty()) break;
    // Inexact reduction: peel the max-degree vertex (necessarily deg >= 3
    // here, since the worklists are drained).
    const Vertex u = queue.PopMax();
    RPMIS_DASSERT(dyn.IsAlive(u) && dyn.Degree(u) >= 3);
    if (!peeled_yet) {
      peeled_yet = true;
      if (auto* t = obs::Trace()) t->Instant("bdtwo.first_peel");
      for (Vertex x = 0; x < dyn.NumVertices(); ++x) {
        if (dyn.IsAlive(x) && dyn.Degree(x) > 0) ++sol.kernel_vertices;
      }
      sol.kernel_edges = dyn.NumAliveEdges();
    }
    peeled[u] = 1;
    ++sol.rules.peels;
    dyn.RemoveVertex(u, &touched);
    sync_touched();
  }
  }  // core_span

  // Backtrack the contraction operations (Line 6 of Algorithm 3).
  obs::TraceSpan finalize_span(obs::Trace(), "bdtwo.finalize");
  for (size_t i = folds.size(); i-- > 0;) {
    const FoldRecord& f = folds[i];
    if (sol.in_set[f.rep]) {
      sol.in_set[f.merged] = 1;  // supervertex chosen: v and w both join I
    } else {
      sol.in_set[f.u] = 1;  // supervertex rejected: u joins I
    }
  }

  FinalizeSolution(g, peeled, &sol);
  return sol;
}

MisSolution RunBDTwoPerComponent(const Graph& g, const PerComponentOptions& opts) {
  const auto algo = [](const Graph& sub) { return RunBDTwo(sub); };
  return opts.parallel ? RunPerComponentParallel(g, algo)
                       : RunPerComponent(g, algo);
}

}  // namespace rpmis
