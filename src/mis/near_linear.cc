#include "mis/near_linear.h"

#include <algorithm>
#include <optional>

#include "graph/algorithms.h"
#include "mis/lp_reduction.h"
#include "mis/peeling_core.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "support/fast_set.h"

namespace rpmis {

namespace {

// The exact dominance predicate of the one-pass prepass: true iff some
// alive neighbour v of u with d(v) <= d(u) satisfies N(v) \ {u} ⊆ N(u).
// Pure reader of (alive, deg); `mark` is caller-owned scratch.
bool DominatedBy(const Graph& g, const std::vector<uint8_t>& alive,
                 const std::vector<uint32_t>& deg, Vertex u, FastSet& mark) {
  mark.Clear();
  for (Vertex x : g.Neighbors(u)) {
    if (alive[x]) mark.Insert(x);
  }
  for (Vertex v : g.Neighbors(u)) {
    // v dominates u iff N(v) \ {u} ⊆ N(u); only candidates with
    // d(v) <= d(u) can succeed, which bounds the scan by min degrees.
    if (!alive[v] || deg[v] > deg[u]) continue;
    bool ok = true;
    for (Vertex w : g.Neighbors(v)) {
      if (w == u || !alive[w]) continue;
      if (!mark.Contains(w)) {
        ok = false;
        break;
      }
    }
    if (ok) return true;
  }
  return false;
}

// The one-pass dominance prepass: processes vertices in decreasing degree
// order and deletes every vertex dominated by a (not-larger-degree)
// neighbour. `alive` and `deg` are updated in place; vertices whose degree
// reaches zero are flagged in `in_set`. Returns the number of deletions.
uint64_t OnePassDominance(const Graph& g, std::vector<uint8_t>& alive,
                          std::vector<uint32_t>& deg,
                          std::vector<uint8_t>& in_set) {
  const Vertex n = g.NumVertices();
  // Count-sort vertices by decreasing initial degree: high-degree vertices
  // are the likely dominated ones and removing them shrinks Δ. Degrees are
  // cached once (the sort needs each three times).
  std::vector<uint32_t> initial_deg(n);
  uint32_t max_deg = 0;
  for (Vertex v = 0; v < n; ++v) {
    initial_deg[v] = g.Degree(v);
    max_deg = std::max(max_deg, initial_deg[v]);
  }
  std::vector<uint32_t> bucket(static_cast<size_t>(max_deg) + 2, 0);
  for (Vertex v = 0; v < n; ++v) ++bucket[max_deg - initial_deg[v] + 1];
  for (size_t i = 1; i < bucket.size(); ++i) bucket[i] += bucket[i - 1];
  std::vector<Vertex> order(n);
  for (Vertex v = 0; v < n; ++v) order[bucket[max_deg - initial_deg[v]]++] = v;

  FastSet mark(n);
  uint64_t removed = 0;
  for (Vertex u : order) {
    if (!alive[u] || deg[u] == 0) continue;
    if (!DominatedBy(g, alive, deg, u, mark)) continue;
    // Remove u: neighbours lose a degree, isolated ones join I.
    ++removed;
    alive[u] = 0;
    for (Vertex x : g.Neighbors(u)) {
      if (!alive[x]) continue;
      if (--deg[x] == 0) in_set[x] = 1;
    }
  }
  return removed;
}

// A sorted CSR over a monotone renaming of the input: `to_orig[i]` is the
// input id of vertex i.
struct KernelCsr {
  std::vector<uint64_t> offsets;
  std::vector<Vertex> adj;
  std::vector<Vertex> to_orig;
};

// The subgraph of the CSR (offsets, adj) induced by the vertices with
// keep[v] != 0, assembled directly: the renaming is monotone, so each
// sorted slice stays sorted and no edge list or re-sort is needed.
// `to_orig` receives ids local to (offsets, adj).
KernelCsr InducedCsr(std::span<const uint64_t> offsets, std::span<const Vertex> adj,
                     std::span<const uint8_t> keep) {
  VertexRenaming ren = BuildRenaming(keep);
  KernelCsr out;
  out.offsets.resize(ren.kept.size() + 1);
  out.offsets[0] = 0;
  uint64_t bound = 0;
  for (const Vertex v : ren.kept) bound += offsets[v + 1] - offsets[v];
  out.adj.reserve(bound);
  for (size_t i = 0; i < ren.kept.size(); ++i) {
    const Vertex v = ren.kept[i];
    for (uint64_t e = offsets[v]; e < offsets[v + 1]; ++e) {
      const Vertex w = ren.to_new[adj[e]];
      if (w != kInvalidVertex) out.adj.push_back(w);
    }
    out.offsets[i + 1] = out.adj.size();
  }
  out.to_orig = std::move(ren.kept);
  return out;
}

// Drops the vertices the LP prepass fixed from the kernel (the included
// ones join I), then the survivors left without a neighbour, which join I
// too.
KernelCsr DropLpFixed(const KernelCsr& kernel, const LpReduction& lp,
                      std::vector<uint8_t>* in_set) {
  obs::TraceSpan span(obs::Trace(), "nearlinear.kernel_csr");
  const Vertex n = static_cast<Vertex>(kernel.to_orig.size());
  std::vector<uint8_t> keep(n, 0);
  for (Vertex c = 0; c < n; ++c) {
    if (lp.exclude[c]) continue;
    if (!lp.include[c]) {
      for (uint64_t e = kernel.offsets[c]; e < kernel.offsets[c + 1]; ++e) {
        const Vertex w = kernel.adj[e];
        if (!lp.include[w] && !lp.exclude[w]) {
          keep[c] = 1;
          break;
        }
      }
    }
    if (!keep[c]) (*in_set)[kernel.to_orig[c]] = 1;
  }
  KernelCsr out = InducedCsr(kernel.offsets, kernel.adj, keep);
  for (Vertex& v : out.to_orig) v = kernel.to_orig[v];
  return out;
}

// NearLinear's main loop: the reducing-peeling core with the path rule and
// no degree-one worklist (a degree-one vertex dominates its neighbour), plus
// the per-edge triangle counts δ, the reverse-edge index and the dominance
// worklist, which the core's hooks keep up to date. It runs on the kernel
// CSR left by the exact prepasses and records decisions in INPUT ids (via
// `to_orig_`).
//
// hot_[v] counts v's alive slots with δ > 0 plus v's alive neighbours of
// degree one (a degree-one neighbour shares no neighbour with v, so no slot
// is counted twice). A slot (v, x) can push only if δ + 1 equals deg(v) or
// deg(x); when deg(v) >= 2 that needs δ > 0 or deg(x) = 1. So a rescreen
// of v with deg(v) != 1 and hot_[v] = 0 pushes nothing and is skipped.
class NearLinearCore : public PeelingCore<kPathRule, NearLinearCore> {
  using Core = PeelingCore<kPathRule, NearLinearCore>;
  friend Core;

 public:
  // Takes ownership of the kernel CSR (sorted slices) and its id map.
  NearLinearCore(KernelCsr kernel, MisSolution* sol)
      : Core(std::move(kernel.offsets), std::move(kernel.adj),
             std::move(kernel.to_orig), sol,
             {"nearlinear.core", "nearlinear.first_peel"}),
        mark_(n_),
        mark2_(n_) {
    {
      obs::TraceSpan span(obs::Trace(), "nearlinear.reverse_index");
      rev_ = ReverseEdgeIndex(offsets_, adj_);
    }
    {
      obs::TraceSpan span(obs::Trace(), "nearlinear.triangles");
      delta_ = EdgeTriangleCounts(offsets_, adj_, rev_);
    }
    // Initial dominated set: u dominates v  =>  v is dominated.
    hot_.assign(n_, 0);
    for (Vertex u = 0; u < n_; ++u) {
      for (uint64_t e = Begin(u); e < End(u); ++e) {
        if (delta_[e] == deg_[u] - 1) dominated_.push_back(adj_[e]);
        hot_[u] += delta_[e] > 0 || deg_[adj_[e]] == 1;
      }
    }
  }

 private:
  // hot_[v] recounted from scratch (debug checks).
  uint32_t CountHot(Vertex v) const {
    uint32_t hot = 0;
    for (uint64_t e = Begin(v); e < End(v); ++e) {
      const Vertex x = adj_[e];
      if (alive_[x]) hot += delta_[e] > 0 || deg_[x] == 1;
    }
    return hot;
  }

  // Screens every alive pair (v, x) incident to v for fresh dominance, in
  // slot order, unless hot_[v] proves that no pair can push (see the class
  // comment; deg(v) = 0 leaves no pair at all).
  void RescreenVertex(Vertex v) {
    if (!alive_[v]) return;
    RPMIS_DASSERT(hot_[v] == CountHot(v));
    if (hot_[v] == 0 && deg_[v] != 1) return;
    for (uint64_t e = Begin(v); e < End(v); ++e) {
      const Vertex x = adj_[e];
      if (!alive_[x]) continue;
      if (deg_[v] >= 1 && delta_[e] == deg_[v] - 1) dominated_.push_back(x);
      if (deg_[x] >= 1 && delta_[e] == deg_[x] - 1) dominated_.push_back(v);
    }
  }

  // y just reached degree one: its one alive neighbour counts it.
  void NoteDegreeOne(Vertex y) { ++hot_[FirstAliveNeighbor(y)]; }

  // The fresh edge (a, b) gives a degree-one endpoint a new neighbour.
  void NoteRewiredEdge(Vertex a, Vertex b) {
    if (deg_[a] == 1) ++hot_[b];
    if (deg_[b] == 1) ++hot_[a];
  }

  // Deletion hook, after the core's degree update (pass A). Every triangle
  // (x, v, w) loses x, so δ(v, w) drops (pass B). Only a neighbour v with
  // δ(x, v) > 0 lies on such a triangle, and its scan stops once it has
  // met all δ(x, v) of its partners w. The neighbours lost a degree, so
  // they may newly dominate and their neighbours may newly be dominated
  // (pass C, §5 discussion). Degree-one vertices need no worklist of their
  // own: such a vertex dominates its remaining neighbour, which pass C
  // queues.
  void AfterDelete(Vertex x) {
    scratch_slots_.clear();
    mark_.Clear();
    for (uint64_t e = Begin(x); e < End(x); ++e) {
      if (!alive_[adj_[e]]) continue;
      scratch_slots_.push_back(e);
      mark_.Insert(adj_[e]);
    }
    RPMIS_DASSERT(scratch_slots_.size() == deg_[x]);
    if (deg_[x] == 1) --hot_[adj_[scratch_slots_[0]]];  // x was degree one
    for (uint64_t e : scratch_slots_) {
      const Vertex v = adj_[e];
      if (deg_[v] == 1) NoteDegreeOne(v);
      uint32_t left = delta_[e];
      if (left == 0) continue;
      --hot_[v];  // the slot (v, x) dies
      for (uint64_t f = Begin(v); left > 0 && f < End(v); ++f) {
        if (!mark_.Contains(adj_[f])) continue;
        if (--delta_[f] == 0) --hot_[v];  // the mirror drops when w's turn comes
        --left;
      }
      RPMIS_DASSERT(left == 0);
    }
    for (uint64_t e : scratch_slots_) RescreenVertex(adj_[e]);
  }

  bool ApplyOtherRule() {
    if (dominated_.empty()) return false;
    ApplyDominance();
    return true;
  }

  // Case 3: the fresh edge (v_1, w) closes no triangle, and the slots it
  // took held path edges, which lie on none either: δ stays 0 on both
  // slots, so no dominance can newly arise from them (δ = 0 < deg - 1).
  // v_1 keeps degree two; a degree-one w now hangs off v_1.
  void OnOddPathRewired(Vertex v1, Vertex w, uint64_t e1, uint64_t e2) {
    RPMIS_DASSERT(delta_[e1] == 0 && delta_[e2] == 0);
    rev_[e1] = static_cast<uint32_t>(e2);
    rev_[e2] = static_cast<uint32_t>(e1);
    NoteRewiredEdge(v1, w);
  }

  // Case 4: v and w lost one degree; triangle counts are untouched, so
  // only their own "dominates a neighbour" status can flip. Both had
  // degree >= 3 (a path neighbour, each other and a third, as degree two
  // would have put them on the path), so neither reaches degree one.
  // Case 5: the fresh edge (v, w) has unchanged degrees; every common
  // neighbour x gains the triangle (x, v, w), so δ(x,v) and δ(x,w) grow by
  // one.
  void OnEvenPathRemoved(Vertex v, Vertex w, uint64_t e1, uint64_t e2) {
    if (e1 == kNoSlot) {
      RPMIS_DASSERT(deg_[v] >= 2 && deg_[w] >= 2);
    } else {
      RPMIS_DASSERT(delta_[e1] == 0 && delta_[e2] == 0);
      rev_[e1] = static_cast<uint32_t>(e2);
      rev_[e2] = static_cast<uint32_t>(e1);
      mark_.Clear();
      for (uint64_t e = Begin(w); e < End(w); ++e) {
        if (alive_[adj_[e]]) mark_.Insert(adj_[e]);
      }
      uint32_t common = 0;
      mark2_.Clear();
      for (uint64_t e = Begin(v); e < End(v); ++e) {
        const Vertex x = adj_[e];
        if (x == w || !alive_[x] || !mark_.Contains(x)) continue;
        ++common;
        GainTriangle(v, x, e);
        mark2_.Insert(x);
      }
      for (uint64_t e = Begin(w); e < End(w); ++e) {
        const Vertex x = adj_[e];
        if (alive_[x] && mark2_.Contains(x)) GainTriangle(w, x, e);
      }
      delta_[e1] = common;
      delta_[e2] = common;
      if (common > 0) {
        ++hot_[v];
        ++hot_[w];
      }
      NoteRewiredEdge(v, w);
    }
    RescreenVertex(v);
    RescreenVertex(w);
  }

  // The edge (a, x) in slot e, and its mirror, gain one triangle.
  void GainTriangle(Vertex a, Vertex x, uint64_t e) {
    if (delta_[e]++ == 0) ++hot_[a];
    if (delta_[rev_[e]]++ == 0) ++hot_[x];
  }

  void ApplyDominance();

  std::vector<uint32_t> delta_;
  std::vector<uint32_t> rev_;
  std::vector<uint32_t> hot_;
  std::vector<Vertex> dominated_;
  std::vector<uint64_t> scratch_slots_;  // AfterDelete: x's alive slots
  FastSet mark_, mark2_;
};

void NearLinearCore::ApplyDominance() {
  const Vertex u = dominated_.back();
  dominated_.pop_back();
  if (!alive_[u] || deg_[u] == 0) return;
  // Re-verify: u may no longer be dominated (mutual dominance, §A.3).
  for (uint64_t e = Begin(u); e < End(u); ++e) {
    const Vertex v = adj_[e];
    if (!alive_[v]) continue;
    if (delta_[e] == deg_[v] - 1) {
      // v dominates u: remove u.
      DeleteVertex(u);
      ++sol_->rules.dominance;
      return;
    }
  }
}

}  // namespace

MisSolution RunNearLinear(const Graph& g, KernelSnapshot* capture,
                          const NearLinearOptions& options) {
  obs::TraceSpan algo_span(obs::Trace(), "nearlinear");
  const Vertex n = g.NumVertices();
  MisSolution sol;
  sol.in_set.assign(n, 0);

  std::vector<uint8_t> alive(n, 1);
  std::vector<uint32_t> deg(n);
  for (Vertex v = 0; v < n; ++v) {
    deg[v] = g.Degree(v);
    if (deg[v] == 0) {
      sol.in_set[v] = 1;
      ++sol.rules.degree_zero;
    }
  }

  // Prepass 1: one-pass dominance, decreasing degree order (shrinks Δ).
  if (options.one_pass_dominance) {
    obs::TraceSpan span(obs::Trace(), "nearlinear.prepass.dominance");
    sol.rules.one_pass_dominance = OnePassDominance(g, alive, deg, sol.in_set);
  }

  // The alive subgraph as a CSR, assembled once: the LP prepass runs on
  // it, and it is the core's kernel unless LP fixes some of its vertices.
  // After the dominance prepass deg[v] counts v's alive neighbours, so the
  // alive vertices with deg > 0 are exactly those with an edge left. With
  // LP on, the assembly is timed inside the LP prepass span, so the direct
  // child spans of `nearlinear` still tile the whole solve.
  KernelCsr kernel;
  LpReduction lp;
  {
    obs::TraceSpan lp_span(options.lp_reduction ? obs::Trace() : nullptr,
                           "nearlinear.prepass.lp");
    {
      obs::TraceSpan span(obs::Trace(), "nearlinear.kernel_csr");
      std::vector<uint8_t> keep(n);
      for (Vertex v = 0; v < n; ++v) keep[v] = alive[v] && deg[v] > 0;
      kernel = InducedCsr(g.RawOffsets(), g.RawNeighbors(), keep);
    }
    // Prepass 2: Nemhauser–Trotter persistency on the alive subgraph.
    if (options.lp_reduction) {
      lp = SolveLpReduction(kernel.offsets, kernel.adj);
      AddLpPhaseMetrics(lp);
      sol.rules.lp = lp.num_include + lp.num_exclude;
    }
  }

  // The kernel build span also covers the core's reverse index and
  // triangle counts, which its constructor computes.
  std::optional<obs::TraceSpan> build_span(std::in_place, obs::Trace(),
                                           "nearlinear.kernel_build");
  if (sol.rules.lp > 0) kernel = DropLpFixed(kernel, lp, &sol.in_set);
  NearLinearCore core(std::move(kernel), &sol);
  build_span.reset();
  core.Run(capture);

  // Deferred path decisions are recorded in input ids, so they replay
  // directly against the final membership flags.
  obs::TraceSpan finalize_span(obs::Trace(), "nearlinear.finalize");
  core.Finish(g);
  return sol;
}

MisSolution RunNearLinearPerComponent(const Graph& g,
                                      const PerComponentOptions& opts,
                                      const NearLinearOptions& options) {
  const auto algo = [options](const Graph& sub) {
    return RunNearLinear(sub, nullptr, options);
  };
  return opts.parallel ? RunPerComponentParallel(g, algo)
                       : RunPerComponent(g, algo);
}

}  // namespace rpmis
