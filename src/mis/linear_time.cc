#include "mis/linear_time.h"

#include <algorithm>

#include "ds/bucket_queue.h"
#include "mis/kernel_capture.h"
#include "obs/obs.h"
#include "obs/progress.h"
#include "obs/trace.h"

namespace rpmis {

namespace {

// Mutable adjacency view over a private copy of the CSR neighbour array.
// Entries can be overwritten (rewired); deleted endpoints are skipped via
// the alive bitmap, never physically removed.
struct MutableCsr {
  explicit MutableCsr(const Graph& g) : offsets(g.RawOffsets()) {
    const std::span<const Vertex> nbs = g.RawNeighbors();
    adj.assign(nbs.begin(), nbs.end());
  }

  uint64_t Begin(Vertex v) const { return offsets[v]; }
  uint64_t End(Vertex v) const { return offsets[v + 1]; }

  // Replaces the slot of `old_nb` in a's list with `new_nb`.
  void Rewire(Vertex a, Vertex old_nb, Vertex new_nb) {
    for (uint64_t e = Begin(a); e < End(a); ++e) {
      if (adj[e] == old_nb) {
        adj[e] = new_nb;
        return;
      }
    }
    RPMIS_ASSERT_MSG(false, "rewire target not found");
  }

  std::span<const uint64_t> offsets;  // the input CSR's offsets
  std::vector<Vertex> adj;
};

}  // namespace

MisSolution RunLinearTime(const Graph& g, KernelSnapshot* capture,
                          const LinearTimeOptions& options) {
  obs::TraceSpan algo_span(obs::Trace(), "lineartime");
  const Vertex n = g.NumVertices();
  MisSolution sol;
  sol.in_set.assign(n, 0);
  uint64_t in_count = 0;  // running |I| for progress samples

  // Optional provenance log (input ids).
  ReductionTrace* rtrace = options.trace;
  if (rtrace != nullptr) rtrace->Clear();

  MutableCsr csr(g);
  std::vector<uint8_t> alive(n, 1);
  std::vector<uint8_t> peeled(n, 0);
  std::vector<uint32_t> deg(n);
  std::vector<Vertex> v1, v2;              // worklists (may hold stale entries)
  std::vector<DeferredDecision> deferred;  // the stack S of Algorithm 4
  Vertex active = 0;                       // # vertices with alive && deg > 0
  for (Vertex v = 0; v < n; ++v) {
    deg[v] = g.Degree(v);
    if (deg[v] == 0) {
      sol.in_set[v] = 1;
      ++in_count;
      ++sol.rules.degree_zero;
      if (rtrace != nullptr) {
        rtrace->Append(ReductionRule::kDegreeZeroInclude, v);
      }
    } else {
      ++active;
      if (deg[v] == 1) {
        v1.push_back(v);
      } else if (deg[v] == 2) {
        v2.push_back(v);
      }
    }
  }
  LazyMaxBucketQueue peel_queue(deg);

  auto first_alive_neighbor = [&](Vertex v) {
    for (uint64_t e = csr.Begin(v); e < csr.End(v); ++e) {
      if (alive[csr.adj[e]]) return csr.adj[e];
    }
    return kInvalidVertex;
  };

  // The alive neighbour of v other than `exclude` (v must have exactly two
  // alive neighbours).
  auto other_alive_neighbor = [&](Vertex v, Vertex exclude) {
    for (uint64_t e = csr.Begin(v); e < csr.End(v); ++e) {
      const Vertex w = csr.adj[e];
      if (alive[w] && w != exclude) return w;
    }
    return kInvalidVertex;
  };

  auto has_alive_edge = [&](Vertex a, Vertex b) {
    if (deg[a] > deg[b]) std::swap(a, b);
    for (uint64_t e = csr.Begin(a); e < csr.End(a); ++e) {
      if (csr.adj[e] == b) return alive[b] != 0;
    }
    return false;
  };

  // Generic vertex deletion with degree bookkeeping.
  auto delete_vertex = [&](Vertex v) {
    RPMIS_DASSERT(alive[v] && deg[v] > 0);
    alive[v] = 0;
    --active;
    for (uint64_t e = csr.Begin(v); e < csr.End(v); ++e) {
      const Vertex w = csr.adj[e];
      if (!alive[w]) continue;
      const uint32_t d = --deg[w];
      if (d == 1) {
        v1.push_back(w);
      } else if (d == 2) {
        v2.push_back(w);
      } else if (d == 0) {
        sol.in_set[w] = 1;
        ++in_count;
        --active;
        if (rtrace != nullptr) {
          rtrace->Append(ReductionRule::kDegreeZeroInclude, w);
        }
      }
    }
  };

  // Applies the degree-two path/cycle reductions to the maximal structure
  // containing u (u alive, deg == 2).
  auto degree_two_path_reduction = [&](Vertex u) {
    // Walk both directions from u while degree stays 2, collecting the
    // maximal degree-two path (or detecting a degree-two cycle).
    Vertex start[2];
    start[0] = first_alive_neighbor(u);
    start[1] = other_alive_neighbor(u, start[0]);
    RPMIS_DASSERT(start[0] != kInvalidVertex && start[1] != kInvalidVertex);
    std::vector<Vertex> side[2];
    bool is_cycle = false;
    Vertex attach[2] = {kInvalidVertex, kInvalidVertex};
    for (int dir = 0; dir < 2 && !is_cycle; ++dir) {
      Vertex prev = u;
      Vertex cur = start[dir];
      while (deg[cur] == 2) {
        if (cur == u) {
          is_cycle = true;
          break;
        }
        side[dir].push_back(cur);
        const Vertex next = other_alive_neighbor(cur, prev);
        RPMIS_DASSERT(next != kInvalidVertex);
        prev = cur;
        cur = next;
      }
      if (!is_cycle) attach[dir] = cur;
    }

    if (is_cycle) {
      ++sol.rules.degree_two_path;
      // Degree-two cycle: drop u; the rest unravels by degree-one steps.
      if (rtrace != nullptr) rtrace->Append(ReductionRule::kPathCycle, u);
      delete_vertex(u);
      return;
    }

    // path = v_1 .. v_l with attach[1] - v_1 ... u ... v_l - attach[0].
    std::vector<Vertex> path;
    path.reserve(side[0].size() + side[1].size() + 1);
    for (size_t i = side[1].size(); i-- > 0;) path.push_back(side[1][i]);
    path.push_back(u);
    path.insert(path.end(), side[0].begin(), side[0].end());
    const Vertex v = attach[1];
    const Vertex w = attach[0];
    RPMIS_DASSERT(v != kInvalidVertex && w != kInvalidVertex);
    const size_t l = path.size();

    if (v == w) {
      // Case 1: common attachment; exclude it, path unravels degree-one.
      ++sol.rules.degree_two_path;
      if (rtrace != nullptr) rtrace->Append(ReductionRule::kPathCommon, v);
      delete_vertex(v);
      return;
    }
    const bool vw_edge = has_alive_edge(v, w);
    if (l % 2 == 1) {
      if (vw_edge) {
        // Case 2: drop both attachments; path unravels degree-one.
        ++sol.rules.degree_two_path;
        if (rtrace != nullptr) {
          rtrace->Append(ReductionRule::kPathAttachments, v, w);
        }
        delete_vertex(v);
        if (alive[w]) delete_vertex(w);
        return;
      }
      if (l == 1) {
        // Singleton path with non-adjacent degree->=3 attachments: the
        // path reductions do not apply (Appendix A.2). Checked once; the
        // vertex re-enters the worklist only if its surroundings change.
        return;
      }
      // Case 3: keep v_1, drop v_2..v_l, rewire (v_1, w); defer decisions
      // for v_2..v_l so pops run v_2, v_3, ..., v_l (v_1's side first).
      // Each deferred vertex records its at-removal partners, so chained
      // rewires keep constraining later replays.
      ++sol.rules.degree_two_path;
      for (size_t i = l; i-- > 1;) {
        deferred.push_back({path[i], path[i - 1],
                            i + 1 < l ? path[i + 1] : w});
        if (rtrace != nullptr) {
          const DeferredDecision& d = deferred.back();
          rtrace->Append(ReductionRule::kPathDefer, d.v, d.nb1, d.nb2);
        }
      }
      for (size_t i = 1; i < l; ++i) {
        alive[path[i]] = 0;
        deg[path[i]] = 0;
        --active;
      }
      csr.Rewire(path[0], path[1], w);
      csr.Rewire(w, path[l - 1], path[0]);
      // Degrees of v_1 and w are unchanged (one lost slot, one new slot).
      return;
    }
    // Even path: drop all of it; attachments each lose exactly one edge.
    // Defer decisions so pops run v_1, v_2, ..., v_l.
    ++sol.rules.degree_two_path;
    if (rtrace != nullptr) {
      rtrace->Append(ReductionRule::kPathEvenDrop, v, w);
    }
    for (size_t i = l; i-- > 0;) {
      deferred.push_back({path[i],
                          i > 0 ? path[i - 1] : v,
                          i + 1 < l ? path[i + 1] : w});
      if (rtrace != nullptr) {
        const DeferredDecision& d = deferred.back();
        rtrace->Append(ReductionRule::kPathDefer, d.v, d.nb1, d.nb2);
      }
    }
    for (size_t i = 0; i < l; ++i) {
      alive[path[i]] = 0;
      deg[path[i]] = 0;
      --active;
    }
    if (vw_edge) {
      // Case 4: no rewire; v and w lose a degree.
      for (Vertex x : {v, w}) {
        const uint32_t d = --deg[x];
        if (d == 1) {
          v1.push_back(x);
        } else if (d == 2) {
          v2.push_back(x);
        } else if (d == 0) {
          sol.in_set[x] = 1;
          ++in_count;
          --active;
        }
      }
    } else {
      // Case 5: rewire (v, w); degrees unchanged.
      csr.Rewire(v, path[0], w);
      csr.Rewire(w, path[l - 1], v);
    }
  };

  bool peeled_yet = false;
  auto capture_now = [&]() {
    std::vector<Edge> edges;
    for (Vertex a = 0; a < n; ++a) {
      if (!alive[a] || deg[a] == 0) continue;
      for (uint64_t e = csr.Begin(a); e < csr.End(a); ++e) {
        const Vertex b = csr.adj[e];
        if (a < b && alive[b] && deg[b] > 0) edges.emplace_back(a, b);
      }
    }
    internal::BuildKernelSnapshot(alive, deg, sol.in_set, edges, deferred,
                                  capture);
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
    // Crude in-flight bound: everything still live, deferred, or peeled
    // so far may yet join I (DESIGN.md §8).
    s.upper_bound = in_count + active + deferred.size() + sol.rules.peels;
    s.label = "lineartime.core";
    ps->Record(std::move(s));
  };

  {
  obs::TraceSpan core_span(obs::Trace(), "lineartime.core");
  while (true) {
    if (auto* ps = obs::Progress(); ps != nullptr && ps->Due()) {
      sample_progress(ps);
    }
    if (!v1.empty()) {
      const Vertex u = v1.back();
      v1.pop_back();
      if (!alive[u] || deg[u] != 1) continue;
      const Vertex nb = first_alive_neighbor(u);
      RPMIS_DASSERT(nb != kInvalidVertex);
      if (rtrace != nullptr) {
        rtrace->Append(ReductionRule::kDegreeOneExclude, nb, u);
      }
      delete_vertex(nb);
      ++sol.rules.degree_one;
      continue;
    }
    if (!v2.empty()) {
      const Vertex u = v2.back();
      v2.pop_back();
      if (!alive[u] || deg[u] != 2) continue;
      // Singleton non-applicable structures are checked once and skipped:
      // both neighbours have degree >= 3 and are non-adjacent.
      degree_two_path_reduction(u);
      continue;
    }
    const Vertex u = peel_queue.PopMax(
        [&](Vertex x) { return deg[x]; },
        [&](Vertex x) { return alive[x] && deg[x] >= 2; });
    if (u == kInvalidVertex) break;
    if (!peeled_yet) {
      peeled_yet = true;
      if (auto* t = obs::Trace()) t->Instant("lineartime.first_peel");
      sol.kernel_vertices = active;
      for (Vertex x = 0; x < n; ++x) {
        if (alive[x]) sol.kernel_edges += deg[x];
      }
      sol.kernel_edges /= 2;
      if (capture != nullptr) capture_now();
    }
    peeled[u] = 1;
    ++sol.rules.peels;
    if (rtrace != nullptr) rtrace->Append(ReductionRule::kPeel, u);
    delete_vertex(u);
  }
  }  // core_span
  if (capture != nullptr && !peeled_yet) capture_now();

  // Replay the deferred path decisions (LIFO), then the maximality pass
  // that also re-admits compatible peeled vertices (Lines 7-8 of Alg. 4).
  obs::TraceSpan finalize_span(obs::Trace(), "lineartime.finalize");
  ReplayDeferredStack(deferred, sol.in_set);
  FinalizeSolution(g, peeled, &sol);
  return sol;
}

MisSolution RunLinearTimePerComponent(const Graph& g,
                                      const PerComponentOptions& opts,
                                      const LinearTimeOptions& options) {
  LinearTimeOptions sub_options = options;
  // Component sub-solves run in renamed id spaces (and concurrently under
  // opts.parallel); a shared trace would interleave meaningless ids.
  sub_options.trace = nullptr;
  const auto algo = [sub_options](const Graph& sub) {
    return RunLinearTime(sub, nullptr, sub_options);
  };
  return opts.parallel ? RunPerComponentParallel(g, algo)
                       : RunPerComponent(g, algo);
}

}  // namespace rpmis
