// The Reducing-Peeling core (Algorithm 1) shared by BDOne, LinearTime and
// NearLinear.
//
// The three solvers differ only in their exact rules (Table 1); the core
// holds everything else:
//   * the state: alive flags, alive degrees, the count of vertices still in
//     the graph, and the degree-one / degree-two worklists;
//   * the degree-one rule (Lemma 2.1) and the degree-two path rule
//     (Lemma 4.1), each switched on by a bit of `kRules`;
//   * the peel loop over the lazy bin-sort queue of §3.2, with the
//     first-peel kernel statistics, the KernelSnapshot capture (§6) and
//     progress sampling.
//
// BDOne is the core with the degree-one rule, LinearTime adds the path
// rule. NearLinear derives from the core (CRTP, so every hook is a static
// call and no per-edge loop pays for dispatch): its triangle counts,
// reverse-edge index and dominance worklist follow the core's deletions
// and rewires through the hooks below, and its dominance rule runs where
// the core asks for other rules.
//
// The core walks a CSR. Without the path rule it reads the input CSR in
// place. The path rule REWIRES adjacency slots (cases 3 and 5), so the
// core then works on a private copy of the neighbour array (LinearTime) or
// on a CSR it owns outright (NearLinear's kernel). Rewiring overwrites
// existing slots in both directions, so the CSR never grows; deleted
// endpoints are skipped via the alive flags, never physically removed.
//
// Path and cycle cases of Lemma 4.1, for the maximal degree-two path
// v_1..v_l attached to v and w:
//
//   cycle          : drop an arbitrary cycle vertex, rest unravels
//   case 1  v == w : drop the common attachment v
//   case 2  odd,  (v,w) in E : drop both attachments
//   case 3  odd,  (v,w) not in E : keep v_1, drop v_2..v_l, REWIRE (v_1,w)
//   case 4  even, (v,w) in E : drop the whole path
//   case 5  even, (v,w) not in E : drop the whole path, REWIRE (v,w)
//
// Cases 3-5 defer the in-path membership decisions by pushing the path
// onto a stack that Finish replays (LIFO): a popped vertex joins I iff no
// at-removal partner is already in I, which realizes the alternating half
// guaranteed by Lemma 4.1.
#ifndef RPMIS_MIS_PEELING_CORE_H_
#define RPMIS_MIS_PEELING_CORE_H_

#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "ds/bucket_queue.h"
#include "graph/graph.h"
#include "mis/kernel_capture.h"
#include "mis/solution.h"
#include "obs/obs.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "support/assert.h"

namespace rpmis {

/// The exact rules the core applies itself (bits of PeelingCore's kRules).
enum PeelingRule : unsigned {
  kDegreeOneRule = 1u << 0,  // Lemma 2.1
  kPathRule = 1u << 1,       // Lemma 4.1
};

/// Trace and progress names of one solver's core.
struct PeelingLabels {
  const char* core;        // span and progress-sample label
  const char* first_peel;  // trace instant at the first peel
};

/// See the file comment. `Derived` is void for a core without hooks.
template <unsigned kRules, typename Derived = void>
class PeelingCore {
 public:
  static constexpr bool kDegreeOne = (kRules & kDegreeOneRule) != 0;
  static constexpr bool kPath = (kRules & kPathRule) != 0;
  static constexpr uint64_t kNoSlot = static_cast<uint64_t>(-1);

  /// Works on g's CSR (in place, or on a copy of the neighbour array when
  /// the path rule rewires it). `sol->in_set` must hold g's n flags.
  PeelingCore(const Graph& g, MisSolution* sol, PeelingLabels labels)
      : sol_(sol), labels_(labels), offsets_(g.RawOffsets()) {
    if constexpr (kPath) {
      const std::span<const Vertex> nbs = g.RawNeighbors();
      own_adj_.assign(nbs.begin(), nbs.end());
      adj_ = own_adj_;
    } else {
      adj_ = g.RawNeighbors();
    }
    Init();
  }

  /// Takes over a CSR (sorted slices) over a monotone renaming of the
  /// input: `to_orig[v]` is the input id of v. Decisions are recorded in
  /// input ids, into `sol->in_set`, which must be sized to the input.
  PeelingCore(std::vector<uint64_t> offsets, std::vector<Vertex> adj,
              std::vector<Vertex> to_orig, MisSolution* sol, PeelingLabels labels)
      : sol_(sol),
        labels_(labels),
        to_orig_(std::move(to_orig)),
        own_offsets_(std::move(offsets)),
        own_adj_(std::move(adj)),
        offsets_(own_offsets_),
        adj_(own_adj_) {
    Init();
  }

  // The CSR views may point into the core's own vectors.
  PeelingCore(const PeelingCore&) = delete;
  PeelingCore& operator=(const PeelingCore&) = delete;

  /// Runs the reduce/peel loop to completion. If `capture` is non-null it
  /// receives the kernel right before the first peel (at the end if
  /// nothing is peeled).
  void Run(KernelSnapshot* capture) {
    obs::TraceSpan core_span(obs::Trace(), labels_.core);
    if (obs::Progress() != nullptr) {
      // Baseline |I| for progress samples: what was decided before the
      // core started (NearLinear's prepasses).
      uint64_t total = 0;
      for (uint8_t f : sol_->in_set) total += f;
      in_base_ = total - in_count_;
    }
    LazyMaxBucketQueue peel_queue(deg_);
    bool peeled_yet = false;
    while (true) {
      if (auto* ps = obs::Progress(); ps != nullptr && ps->Due()) {
        SampleProgress(ps);
      }
      if constexpr (kDegreeOne) {
        if (!v1_.empty()) {
          const Vertex u = v1_.back();
          v1_.pop_back();
          if (!alive_[u] || deg_[u] != 1) continue;  // stale entry
          // Degree-one reduction: delete u's unique alive neighbour.
          const Vertex nb = FirstAliveNeighbor(u);
          RPMIS_DASSERT(nb != kInvalidVertex);
          DeleteVertex(nb);
          ++sol_->rules.degree_one;
          continue;
        }
      }
      if constexpr (kPath) {
        if (!v2_.empty()) {
          const Vertex u = v2_.back();
          v2_.pop_back();
          if (!alive_[u] || deg_[u] != 2) continue;
          PathReduction(u);
          continue;
        }
      }
      if (self().ApplyOtherRule()) continue;
      // Inexact reduction: peel the highest-degree vertex.
      const Vertex u = peel_queue.PopMax(
          [&](Vertex x) { return deg_[x]; },
          [&](Vertex x) { return alive_[x] && deg_[x] >= 2; });
      if (u == kInvalidVertex) break;
      if (!peeled_yet) {
        peeled_yet = true;
        if (auto* t = obs::Trace()) t->Instant(labels_.first_peel);
        sol_->kernel_vertices = active_;
        sol_->kernel_edges = AliveDegreeSum() / 2;
        if (capture != nullptr) Capture(capture);
      }
      peeled_[Orig(u)] = 1;
      ++sol_->rules.peels;
      DeleteVertex(u);
    }
    if (capture != nullptr && !peeled_yet) Capture(capture);  // empty kernel
  }

  /// Replays the deferred path decisions, then the maximality pass that
  /// also re-admits compatible peeled vertices (Lines 7-8 of Alg. 4).
  /// `g` is the input graph.
  void Finish(const Graph& g) {
    ReplayDeferredStack(deferred_, sol_->in_set);
    FinalizeSolution(g, peeled_, sol_);
  }

  /// F, the peeled vertices, as flags in input ids.
  std::vector<uint8_t> TakePeeled() { return std::move(peeled_); }

 protected:
  // Hooks, called statically on Derived; a derived core redefines the
  // ones it needs.
  //
  // DeleteVertex(x) has updated every degree; x's alive neighbours are
  // still the alive targets of its slots.
  void AfterDelete(Vertex /*x*/) {}
  // Runs after the core's own rules found nothing; true if a rule fired.
  bool ApplyOtherRule() { return false; }
  // Case 3 rewired the fresh edge (v_1, w) into slots e1 (of v_1) and e2
  // (of w).
  void OnOddPathRewired(Vertex /*v1*/, Vertex /*w*/, uint64_t /*e1*/,
                        uint64_t /*e2*/) {}
  // Cases 4 and 5 removed an even path between v and w. Case 5 rewired
  // the fresh edge (v, w) into slots e1 (of v) and e2; case 4 passes
  // kNoSlot twice, after v and w each lost a degree.
  void OnEvenPathRemoved(Vertex /*v*/, Vertex /*w*/, uint64_t /*e1*/,
                         uint64_t /*e2*/) {}

  uint64_t Begin(Vertex v) const { return offsets_[v]; }
  uint64_t End(Vertex v) const { return offsets_[v + 1]; }
  Vertex Orig(Vertex v) const { return to_orig_.empty() ? v : to_orig_[v]; }

  Vertex FirstAliveNeighbor(Vertex v) const {
    for (uint64_t e = Begin(v); e < End(v); ++e) {
      if (alive_[adj_[e]]) return adj_[e];
    }
    return kInvalidVertex;
  }

  // The alive neighbour of v other than `exclude` (v must have exactly two
  // alive neighbours).
  Vertex OtherAliveNeighbor(Vertex v, Vertex exclude) const {
    for (uint64_t e = Begin(v); e < End(v); ++e) {
      const Vertex w = adj_[e];
      if (alive_[w] && w != exclude) return w;
    }
    return kInvalidVertex;
  }

  bool HasAliveEdge(Vertex a, Vertex b) const {
    if (deg_[a] > deg_[b]) std::swap(a, b);
    for (uint64_t e = Begin(a); e < End(a); ++e) {
      if (adj_[e] == b) return alive_[b] != 0;
    }
    return false;
  }

  // Replaces the slot of `old_nb` in a's list with `new_nb`; returns it.
  uint64_t Rewire(Vertex a, Vertex old_nb, Vertex new_nb) {
    for (uint64_t e = Begin(a); e < End(a); ++e) {
      if (adj_[e] == old_nb) {
        adj_[e] = new_nb;
        return e;
      }
    }
    RPMIS_ASSERT_MSG(false, "rewire target not found");
    return kNoSlot;
  }

  // Removes x from the graph: alive neighbours lose a degree.
  void DeleteVertex(Vertex x) {
    RPMIS_DASSERT(alive_[x]);
    alive_[x] = 0;
    if (deg_[x] > 0) --active_;
    for (uint64_t e = Begin(x); e < End(x); ++e) {
      const Vertex w = adj_[e];
      if (!alive_[w]) continue;
      --deg_[w];
      DegreeDropped(w);
    }
    self().AfterDelete(x);
  }

  // w just lost a degree: queue it for the rule its new degree enables, or
  // take it into I once it has no neighbour left.
  void DegreeDropped(Vertex w) {
    const uint32_t d = deg_[w];
    if (kDegreeOne && d == 1) {
      v1_.push_back(w);
    } else if (kPath && d == 2) {
      v2_.push_back(w);
    } else if (d == 0) {
      sol_->in_set[Orig(w)] = 1;
      ++in_count_;
      --active_;
    }
  }

  MisSolution* sol_;
  PeelingLabels labels_;
  std::vector<Vertex> to_orig_;  // core id -> input id; empty = identity
  std::vector<uint64_t> own_offsets_;
  std::vector<Vertex> own_adj_;
  std::span<const uint64_t> offsets_;
  std::span<std::conditional_t<kPath, Vertex, const Vertex>> adj_;
  Vertex n_ = 0;
  std::vector<uint8_t> alive_;
  std::vector<uint32_t> deg_;
  std::vector<uint8_t> peeled_;            // F, in input ids
  std::vector<Vertex> v1_, v2_;            // worklists (may hold stale entries)
  std::vector<DeferredDecision> deferred_;  // the stack S of Algorithm 4
  Vertex active_ = 0;       // # vertices with alive && deg > 0
  uint64_t in_base_ = 0;    // |I| decided before the core started
  uint64_t in_count_ = 0;   // vertices this core added to I

 private:
  auto& self() {
    if constexpr (std::is_void_v<Derived>) {
      return *this;
    } else {
      return static_cast<Derived&>(*this);
    }
  }

  void Init() {
    n_ = static_cast<Vertex>(offsets_.size() - 1);
    alive_.assign(n_, 1);
    deg_.resize(n_);
    peeled_.assign(sol_->in_set.size(), 0);
    for (Vertex v = 0; v < n_; ++v) {
      deg_[v] = static_cast<uint32_t>(offsets_[v + 1] - offsets_[v]);
      if (deg_[v] == 0) {
        sol_->in_set[Orig(v)] = 1;
        ++in_count_;
        ++sol_->rules.degree_zero;
        continue;
      }
      ++active_;
      if (kDegreeOne && deg_[v] == 1) {
        v1_.push_back(v);
      } else if (kPath && deg_[v] == 2) {
        v2_.push_back(v);
      }
    }
  }

  uint64_t AliveDegreeSum() const {
    uint64_t sum = 0;
    for (Vertex v = 0; v < n_; ++v) {
      if (alive_[v]) sum += deg_[v];
    }
    return sum;
  }

  // Removes a path vertex whose membership was deferred.
  void DropDeferred(Vertex v) {
    alive_[v] = 0;
    deg_[v] = 0;
    --active_;
  }

  // Applies the degree-two path/cycle reductions to the maximal structure
  // containing u (u alive, deg == 2).
  void PathReduction(Vertex u) {
    // Walk both directions from u while degree stays 2, collecting the
    // maximal degree-two path (or detecting a degree-two cycle).
    Vertex start[2];
    start[0] = FirstAliveNeighbor(u);
    start[1] = OtherAliveNeighbor(u, start[0]);
    RPMIS_DASSERT(start[0] != kInvalidVertex && start[1] != kInvalidVertex);
    bool is_cycle = false;
    Vertex attach[2] = {kInvalidVertex, kInvalidVertex};
    for (int dir = 0; dir < 2 && !is_cycle; ++dir) {
      side_[dir].clear();
      Vertex prev = u;
      Vertex cur = start[dir];
      while (deg_[cur] == 2) {
        if (cur == u) {
          is_cycle = true;
          break;
        }
        side_[dir].push_back(cur);
        const Vertex next = OtherAliveNeighbor(cur, prev);
        RPMIS_DASSERT(next != kInvalidVertex);
        prev = cur;
        cur = next;
      }
      if (!is_cycle) attach[dir] = cur;
    }

    if (is_cycle) {
      // Degree-two cycle: drop u; the rest unravels.
      ++sol_->rules.degree_two_path;
      DeleteVertex(u);
      return;
    }

    // path = v_1 .. v_l with attach[1] - v_1 ... u ... v_l - attach[0].
    std::vector<Vertex>& path = path_;
    path.clear();
    for (size_t i = side_[1].size(); i-- > 0;) path.push_back(side_[1][i]);
    path.push_back(u);
    path.insert(path.end(), side_[0].begin(), side_[0].end());
    const Vertex v = attach[1];
    const Vertex w = attach[0];
    RPMIS_DASSERT(v != kInvalidVertex && w != kInvalidVertex);
    const size_t l = path.size();

    if (v == w) {
      // Case 1: common attachment; exclude it, the path unravels.
      ++sol_->rules.degree_two_path;
      DeleteVertex(v);
      return;
    }
    const bool vw_edge = HasAliveEdge(v, w);
    if (l % 2 == 1) {
      if (vw_edge) {
        // Case 2: drop both attachments; the path unravels.
        ++sol_->rules.degree_two_path;
        DeleteVertex(v);
        if (alive_[w]) DeleteVertex(w);
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
      ++sol_->rules.degree_two_path;
      for (size_t i = l; i-- > 1;) {
        deferred_.push_back({Orig(path[i]), Orig(path[i - 1]),
                             i + 1 < l ? Orig(path[i + 1]) : Orig(w)});
      }
      for (size_t i = 1; i < l; ++i) DropDeferred(path[i]);
      // Degrees of v_1 and w are unchanged (one lost slot, one new slot).
      const uint64_t e1 = Rewire(path[0], path[1], w);
      const uint64_t e2 = Rewire(w, path[l - 1], path[0]);
      self().OnOddPathRewired(path[0], w, e1, e2);
      return;
    }
    // Even path: drop all of it; attachments each lose exactly one edge.
    // Defer decisions so pops run v_1, v_2, ..., v_l.
    ++sol_->rules.degree_two_path;
    for (size_t i = l; i-- > 0;) {
      deferred_.push_back({Orig(path[i]), i > 0 ? Orig(path[i - 1]) : Orig(v),
                           i + 1 < l ? Orig(path[i + 1]) : Orig(w)});
    }
    for (size_t i = 0; i < l; ++i) DropDeferred(path[i]);
    if (vw_edge) {
      // Case 4: no rewire; v and w lose a degree.
      for (Vertex x : {v, w}) {
        --deg_[x];
        DegreeDropped(x);
      }
      self().OnEvenPathRemoved(v, w, kNoSlot, kNoSlot);
    } else {
      // Case 5: rewire (v, w); degrees unchanged.
      const uint64_t e1 = Rewire(v, path[0], w);
      const uint64_t e2 = Rewire(w, path[l - 1], v);
      self().OnEvenPathRemoved(v, w, e1, e2);
    }
  }

  // Snapshots the kernel: the alive vertices with positive degree (alive
  // edgeless vertices are already decided) and the edges among them.
  void Capture(KernelSnapshot* out) const {
    std::vector<uint8_t> in_kernel(sol_->in_set.size(), 0);
    std::vector<Edge> edges;
    for (Vertex a = 0; a < n_; ++a) {
      if (!alive_[a] || deg_[a] == 0) continue;
      in_kernel[Orig(a)] = 1;
      for (uint64_t e = Begin(a); e < End(a); ++e) {
        const Vertex b = adj_[e];
        if (a < b && alive_[b] && deg_[b] > 0) {
          edges.emplace_back(Orig(a), Orig(b));
        }
      }
    }
    internal::BuildKernelSnapshot(in_kernel, sol_->in_set, edges, deferred_, out);
  }

  // Progress snapshot: O(live) edge recount, amortized by the stride.
  void SampleProgress(obs::ProgressSampler* ps) const {
    obs::ProgressSample s;
    s.live_vertices = active_;
    s.live_edges = AliveDegreeSum() / 2;
    s.solution_size = in_base_ + in_count_;
    // Crude in-flight bound: everything still live, deferred, or peeled
    // so far may yet join I (DESIGN.md §8).
    s.upper_bound =
        s.solution_size + active_ + deferred_.size() + sol_->rules.peels;
    s.label = labels_.core;
    ps->Record(std::move(s));
  }

  std::vector<Vertex> side_[2], path_;  // PathReduction scratch
};

}  // namespace rpmis

#endif  // RPMIS_MIS_PEELING_CORE_H_
