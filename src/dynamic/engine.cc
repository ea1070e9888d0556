#include "dynamic/engine.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "mis/linear_time.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "support/timer.h"

namespace rpmis {

namespace {

[[noreturn]] void ThrowBadVertex(Vertex v, Vertex n) {
  throw std::out_of_range("dynamic update names vertex " + std::to_string(v) +
                          " outside the universe [0, " + std::to_string(n) +
                          ")");
}

}  // namespace

DynamicMisEngine::DynamicMisEngine(const Graph& g, const DynamicPolicy& policy)
    : policy_(policy), adj_(g) {
  const MisSolution sol = RunLinearTime(g, nullptr, &peeled_);

  in_set_ = sol.in_set;
  size_ = sol.size;
  upper_ = sol.UpperBound();
  base_gap_ = sol.residual_peeled;
  in_count_.assign(g.NumVertices(), 0);
  seen_.Resize(g.NumVertices());
  sub_id_.assign(g.NumVertices(), kInvalidVertex);
  RebuildInCounts(g);
}

UpdateOutcome DynamicMisEngine::Apply(const GraphUpdate& update) {
  Timer timer;
  UpdateOutcome out;
  const int64_t size_before = static_cast<int64_t>(size_);
  switch (update.kind) {
    case UpdateKind::kInsertEdge:
      ApplyInsertEdge(update.u, update.v, out);
      break;
    case UpdateKind::kDeleteEdge:
      ApplyDeleteEdge(update.u, update.v, out);
      break;
    case UpdateKind::kInsertVertex:
      ApplyInsertVertex(update.neighbors, out);
      break;
    case UpdateKind::kDeleteVertex:
      ApplyDeleteVertex(update.u, out);
      break;
  }
  Repair(out);
  out.size_delta = static_cast<int64_t>(size_) - size_before;
  stats_.latency.Record(timer.Seconds());
  return out;
}

void DynamicMisEngine::ApplyUpdates(std::span<const GraphUpdate> updates) {
  obs::TraceSpan span(obs::Trace(), "dynamic.apply_updates");
  for (const GraphUpdate& u : updates) Apply(u);
}

void DynamicMisEngine::ApplyInsertEdge(Vertex u, Vertex v, UpdateOutcome& out) {
  const Vertex n = NumVertices();
  if (u >= n) ThrowBadVertex(u, n);
  if (v >= n) ThrowBadVertex(v, n);
  if (u == v) {
    throw std::invalid_argument("dynamic InsertEdge: self-loop at vertex " +
                                std::to_string(u));
  }
  ++stats_.insert_edges;
  const bool u_was_dead = !adj_.IsAlive(u);
  const bool v_was_dead = !adj_.IsAlive(v);
  if (!adj_.InsertEdge(u, v)) {  // revives dead endpoints either way
    ++stats_.noops;
    return;
  }
  if (in_set_[u]) ++in_count_[v];
  if (in_set_[v]) ++in_count_[u];
  if (in_set_[u] && in_set_[v]) {
    const Vertex evictee = ChooseEviction(u, v);
    ++stats_.evictions;
    Evict(evictee);
  }
  // A revived endpoint re-enters as an isolated-plus-one-edge vertex with
  // no exclusion reasons unless the new edge supplies one.
  if (u_was_dead && IsFree(u)) frontier_.push_back(u);
  if (v_was_dead && IsFree(v)) frontier_.push_back(v);
  (void)out;
}

void DynamicMisEngine::ApplyDeleteEdge(Vertex u, Vertex v, UpdateOutcome& out) {
  const Vertex n = NumVertices();
  if (u >= n) ThrowBadVertex(u, n);
  if (v >= n) ThrowBadVertex(v, n);
  ++stats_.delete_edges;
  if (u == v || !adj_.RemoveEdge(u, v)) {
    ++stats_.noops;
    return;
  }
  // Removing an edge can raise α by at most one.
  ++upper_;
  if (in_set_[u]) {
    if (--in_count_[v] == 0) frontier_.push_back(v);
  }
  if (in_set_[v]) {
    if (--in_count_[u] == 0) frontier_.push_back(u);
  }
  (void)out;
}

void DynamicMisEngine::ApplyInsertVertex(std::span<const Vertex> neighbors,
                                         UpdateOutcome& out) {
  const Vertex n = NumVertices();
  for (Vertex w : neighbors) {
    if (w >= n) ThrowBadVertex(w, n);
  }
  ++stats_.insert_vertices;
  const Vertex id = adj_.AddVertex();
  GrowUniverse();
  for (Vertex w : neighbors) {
    const bool w_was_dead = !adj_.IsAlive(w);
    if (!adj_.InsertEdge(id, w)) continue;  // duplicate neighbour entry
    if (in_set_[w]) ++in_count_[id];
    if (w_was_dead && IsFree(w)) frontier_.push_back(w);
  }
  ++upper_;  // one more vertex can raise α by at most one
  if (IsFree(id)) frontier_.push_back(id);
  (void)out;
}

void DynamicMisEngine::ApplyDeleteVertex(Vertex v, UpdateOutcome& out) {
  const Vertex n = NumVertices();
  if (v >= n) ThrowBadVertex(v, n);
  ++stats_.delete_vertices;
  if (!adj_.IsAlive(v)) {
    ++stats_.noops;
    return;
  }
  // Deleting a set member frees the neighbours it was blocking (not
  // counted as an eviction — that counter is for insert-edge conflicts).
  if (in_set_[v]) Evict(v);
  adj_.RemoveVertex(v, nullptr);
  in_count_[v] = 0;  // dead vertices keep no exclusion state
  // α(G - v) <= α(G): upper_ stays valid.
  (void)out;
}

Vertex DynamicMisEngine::ChooseEviction(Vertex u, Vertex v) const {
  if (peeled_[u] != peeled_[v]) return peeled_[u] ? u : v;
  const uint32_t du = adj_.Degree(u);
  const uint32_t dv = adj_.Degree(v);
  if (du != dv) return du > dv ? u : v;
  return u > v ? u : v;
}

void DynamicMisEngine::Include(Vertex v) {
  RPMIS_DASSERT(IsFree(v));
  in_set_[v] = 1;
  ++size_;
  adj_.ForEachNeighbor(v, [&](Vertex w) { ++in_count_[w]; });
}

void DynamicMisEngine::Evict(Vertex v) {
  RPMIS_DASSERT(in_set_[v] != 0);
  in_set_[v] = 0;
  --size_;
  adj_.ForEachNeighbor(v, [&](Vertex w) {
    if (--in_count_[w] == 0 && in_set_[w] == 0) frontier_.push_back(w);
  });
}

void DynamicMisEngine::Repair(UpdateOutcome& out) {
  if (frontier_.empty()) {
    // Still check the drift gate: evictions shrink the set with an empty
    // cone when the evictee's neighbours all have other IN neighbours.
    const uint64_t slack = std::max<uint64_t>(
        policy_.min_slack,
        static_cast<uint64_t>(policy_.max_gap * static_cast<double>(upper_)));
    if (upper_ - size_ > base_gap_ + slack) {
      Resolve();
      out.full_resolve = true;
      ++stats_.full_resolves;
    }
    return;
  }

  // Dedup the frontier and drop entries repaired or re-blocked since they
  // were queued.
  std::vector<Vertex> free;
  seen_.Clear();
  for (Vertex v : frontier_) {
    if (!seen_.Contains(v) && IsFree(v)) {
      seen_.Insert(v);
      free.push_back(v);
    }
  }
  frontier_.clear();

  out.cone = static_cast<uint32_t>(free.size());
  stats_.cone_vertices += free.size();
  stats_.max_cone = std::max<uint64_t>(stats_.max_cone, free.size());

  if (!free.empty()) {
    const uint64_t budget = std::max<uint64_t>(
        policy_.min_cone,
        static_cast<uint64_t>(policy_.cone_fraction *
                              static_cast<double>(adj_.NumAliveVertices())));
    if (free.size() > budget) {
      if (auto* t = obs::Trace()) t->Instant("dynamic.component_fallback");
      ResolveComponent(free);
      out.component_fallback = true;
      ++stats_.component_fallbacks;
    } else {
      RepairLocally(free);
    }
  }

  const uint64_t slack = std::max<uint64_t>(
      policy_.min_slack,
      static_cast<uint64_t>(policy_.max_gap * static_cast<double>(upper_)));
  if (upper_ - size_ > base_gap_ + slack) {
    Resolve();
    out.full_resolve = true;
    ++stats_.full_resolves;
  }
}

void DynamicMisEngine::RepairLocally(std::vector<Vertex>& free) {
  // Local reducing-peeling over the free cone. Only free vertices are
  // undecided; including one blocks its free neighbours, so the cone only
  // shrinks and free-degrees only decrease. Exact local rules first
  // (degree zero/one and the degree-two isolation case of Lemma 4.1),
  // min-free-degree greedy when no exact rule applies.
  const auto free_degree = [&](Vertex v) {
    uint32_t fd = 0;
    adj_.ForEachNeighbor(v, [&](Vertex w) { fd += IsFree(w) ? 1 : 0; });
    return fd;
  };

  while (true) {
    bool progress = false;
    size_t kept = 0;
    for (size_t i = 0; i < free.size(); ++i) {
      const Vertex v = free[i];
      if (!IsFree(v)) continue;  // blocked by an earlier include
      const uint32_t fd = free_degree(v);
      bool include = fd <= 1;
      if (!include && fd == 2) {
        // Isolation: v's two free neighbours are adjacent (triangle), so
        // taking v is never worse than taking either of them.
        Vertex a = kInvalidVertex, b = kInvalidVertex;
        adj_.ForEachNeighbor(v, [&](Vertex w) {
          if (!IsFree(w)) return;
          (a == kInvalidVertex ? a : b) = w;
        });
        include = adj_.HasEdge(a, b);
      }
      if (include) {
        Include(v);
        ++stats_.included_by_reduction;
        progress = true;
      } else {
        free[kept++] = v;
      }
    }
    free.resize(kept);
    if (free.empty()) return;
    if (progress) continue;

    // No exact rule fired anywhere: greedily include the min-free-degree
    // vertex (lowest id on ties — deterministic).
    Vertex best = free[0];
    uint32_t best_fd = free_degree(best);
    for (size_t i = 1; i < free.size(); ++i) {
      const uint32_t fd = free_degree(free[i]);
      if (fd < best_fd || (fd == best_fd && free[i] < best)) {
        best = free[i];
        best_fd = fd;
      }
    }
    Include(best);
    ++stats_.included_greedy;
  }
}

void DynamicMisEngine::ResolveComponent(std::span<const Vertex> seeds) {
  obs::TraceSpan span(obs::Trace(), "dynamic.resolve_component");
  // Closure of the seeds' connected components; no edge leaves the
  // collected set, so membership changes inside it cannot unbalance
  // in_counts outside it.
  seen_.Clear();
  std::vector<Vertex> comp;
  for (Vertex s : seeds) {
    if (seen_.Contains(s)) continue;
    seen_.Insert(s);
    comp.push_back(s);
  }
  for (size_t head = 0; head < comp.size(); ++head) {
    adj_.ForEachNeighbor(comp[head], [&](Vertex w) {
      if (!seen_.Contains(w)) {
        seen_.Insert(w);
        comp.push_back(w);
      }
    });
  }

  for (size_t i = 0; i < comp.size(); ++i) {
    sub_id_[comp[i]] = static_cast<Vertex>(i);
  }
  std::vector<Edge> edges;
  for (Vertex v : comp) {
    adj_.ForEachNeighbor(v, [&](Vertex w) {
      if (v < w) edges.emplace_back(sub_id_[v], sub_id_[w]);
    });
  }
  const Graph sub =
      Graph::FromEdges(static_cast<Vertex>(comp.size()), edges);

  std::vector<uint8_t> sub_peeled;
  const MisSolution sol = RunLinearTime(sub, nullptr, &sub_peeled);

  for (Vertex v : comp) {
    const Vertex s = sub_id_[v];
    if (in_set_[v]) --size_;
    in_set_[v] = sol.in_set[s];
    if (in_set_[v]) ++size_;
    peeled_[v] = sub_peeled[s];
  }
  for (Vertex v : comp) {
    uint32_t count = 0;
    adj_.ForEachNeighbor(v, [&](Vertex w) { count += in_set_[w] ? 1 : 0; });
    in_count_[v] = count;
  }
  for (Vertex v : comp) sub_id_[v] = kInvalidVertex;
}

void DynamicMisEngine::ForceResolve() {
  Resolve();
  ++stats_.full_resolves;
}

void DynamicMisEngine::Resolve() {
  obs::TraceSpan span(obs::Trace(), "dynamic.full_resolve");
  Graph g;
  {
    obs::TraceSpan snapshot_span(obs::Trace(), "dynamic.resolve.snapshot");
    g = CurrentGraph();
  }

  MisSolution sol;
  std::vector<uint8_t> peeled;
  {
    obs::TraceSpan solve_span(obs::Trace(), "dynamic.resolve.solve");
    if (policy_.parallel_resolve) {
      // Component solves run in renamed id spaces; provenance goes coarse
      // (everything "exact"), which only shifts eviction tie-breaks.
      sol = RunLinearTimePerComponent(g, {.parallel = true});
      peeled.assign(g.NumVertices(), 0);
    } else {
      sol = RunLinearTime(g, nullptr, &peeled);
    }
  }

  obs::TraceSpan in_counts_span(obs::Trace(), "dynamic.resolve.in_counts");
  // Dead ids appear isolated in the snapshot, so the solver includes each
  // of them (degree-zero rule) and they inflate both size and the bound
  // by exactly the dead count. Mask them back out.
  uint64_t dead = 0;
  for (Vertex v = 0; v < g.NumVertices(); ++v) {
    if (!adj_.IsAlive(v)) {
      sol.in_set[v] = 0;
      ++dead;
    }
  }
  in_set_ = std::move(sol.in_set);
  peeled_ = std::move(peeled);
  size_ = sol.size - dead;
  upper_ = sol.size + sol.residual_peeled - dead;
  base_gap_ = upper_ - size_;
  frontier_.clear();
  RebuildInCounts(g);
}

Graph DynamicMisEngine::CurrentGraph() const { return adj_.ToGraph(); }

void DynamicMisEngine::GrowUniverse() {
  const Vertex n = adj_.NumVertices();
  if (in_set_.size() >= n) return;
  in_set_.resize(n, 0);
  in_count_.resize(n, 0);
  peeled_.resize(n, 0);
  seen_.EnsureUniverse(n);
  sub_id_.resize(n, kInvalidVertex);
}

void DynamicMisEngine::RebuildInCounts(const Graph& g) {
  RPMIS_DASSERT(g.NumVertices() == NumVertices());
  std::fill(in_count_.begin(), in_count_.end(), 0);
  for (Vertex v = 0; v < NumVertices(); ++v) {
    if (!in_set_[v]) continue;
    for (Vertex w : g.Neighbors(v)) ++in_count_[w];
  }
}

bool DynamicMisEngine::CheckInvariants(std::string* why) const {
  const auto fail = [&](const std::string& what) {
    if (why != nullptr) *why = what;
    return false;
  };
  const Vertex n = NumVertices();
  if (in_set_.size() != n || in_count_.size() != n || peeled_.size() != n) {
    return fail("per-vertex array sizes disagree with the universe");
  }
  uint64_t counted = 0;
  for (Vertex v = 0; v < n; ++v) {
    const bool alive = adj_.IsAlive(v);
    if (in_set_[v]) {
      ++counted;
      if (!alive) {
        return fail("dead vertex " + std::to_string(v) + " is in the set");
      }
    }
    uint32_t expect = 0;
    bool conflict = false;
    adj_.ForEachNeighbor(v, [&](Vertex w) {
      expect += in_set_[w] ? 1 : 0;
      conflict |= (in_set_[v] && in_set_[w]);
    });
    if (conflict) {
      return fail("vertex " + std::to_string(v) +
                  " and a neighbour are both selected");
    }
    if (in_count_[v] != expect) {
      return fail("in_count[" + std::to_string(v) + "] is " +
                  std::to_string(in_count_[v]) + ", expected " +
                  std::to_string(expect));
    }
    if (alive && !in_set_[v] && expect == 0) {
      return fail("vertex " + std::to_string(v) +
                  " is free (not maximal) outside a repair");
    }
  }
  if (counted != size_) {
    return fail("size_ is " + std::to_string(size_) + " but " +
                std::to_string(counted) + " vertices are selected");
  }
  if (upper_ < size_) {
    return fail("maintained upper bound " + std::to_string(upper_) +
                " is below the set size " + std::to_string(size_));
  }
  return true;
}

void DynamicMisEngine::PublishMetrics(obs::MetricsRegistry& metrics) const {
  metrics.Add("dynamic.updates.insert_edge", stats_.insert_edges);
  metrics.Add("dynamic.updates.delete_edge", stats_.delete_edges);
  metrics.Add("dynamic.updates.insert_vertex", stats_.insert_vertices);
  metrics.Add("dynamic.updates.delete_vertex", stats_.delete_vertices);
  metrics.Add("dynamic.updates.noop", stats_.noops);
  metrics.Add("dynamic.cone.vertices", stats_.cone_vertices);
  metrics.Add("dynamic.cone.max", stats_.max_cone);
  metrics.Add("dynamic.repair.included_by_reduction",
              stats_.included_by_reduction);
  metrics.Add("dynamic.repair.included_greedy", stats_.included_greedy);
  metrics.Add("dynamic.repair.evictions", stats_.evictions);
  metrics.Add("dynamic.fallback.component", stats_.component_fallbacks);
  metrics.Add("dynamic.fallback.full_resolve", stats_.full_resolves);
  metrics.Set("dynamic.set.size", static_cast<double>(size_));
  metrics.Set("dynamic.set.upper_bound", static_cast<double>(upper_));
  stats_.latency.PublishTo(metrics, "dynamic.update_latency");
}

}  // namespace rpmis
