#include "graph/adjacency_graph.h"

#include <algorithm>
#include <utility>

namespace rpmis {

AdjacencyGraph::AdjacencyGraph(const Graph& g)
    : head_(g.NumVertices(), kNilHalf),
      degree_(g.NumVertices(), 0),
      alive_(g.NumVertices(), 1),
      alive_count_(g.NumVertices()),
      alive_edges_(g.NumEdges()),
      scratch_(g.NumVertices()) {
  const Vertex n = g.NumVertices();
  RPMIS_ASSERT(2 * g.NumEdges() < kNilHalf);
  half_.resize(2 * g.NumEdges());
  // v's halves fill its CSR slice, list order = slot order, neighbours
  // descending: the slot of the neighbour at ascending index i is
  // EdgeEnd(v) - 1 - i.
  for (Vertex v = 0; v < n; ++v) {
    const uint32_t begin = static_cast<uint32_t>(g.EdgeBegin(v));
    const uint32_t end = static_cast<uint32_t>(g.EdgeEnd(v));
    degree_[v] = end - begin;
    if (begin == end) continue;
    head_[v] = begin;
    for (uint32_t h = begin; h < end; ++h) {
      half_[h] = {g.EdgeTarget(end - 1 - (h - begin)), kNilHalf,
                  h == begin ? kNilHalf : h - 1, h + 1 == end ? kNilHalf : h + 1};
    }
  }
  // Twins. Pairs (v, w), v < w, are visited in ascending v, so each w
  // meets its lower neighbours in ascending order: cursor[w] is the
  // ascending index of v in N(w). When v's own turn comes, cursor[v] has
  // passed exactly its lower neighbours, so its upper ones start there.
  std::vector<uint32_t> cursor(n, 0);
  for (Vertex v = 0; v < n; ++v) {
    const auto nb = g.Neighbors(v);
    const uint32_t end_v = static_cast<uint32_t>(g.EdgeEnd(v));
    for (uint32_t i = cursor[v]; i < nb.size(); ++i) {
      const Vertex w = nb[i];
      RPMIS_DASSERT(w > v);
      const uint32_t hv = end_v - 1 - i;
      const uint32_t hw = static_cast<uint32_t>(g.EdgeEnd(w)) - 1 - cursor[w]++;
      RPMIS_DASSERT(half_[hw].to == v);
      half_[hv].twin = hw;
      half_[hw].twin = hv;
    }
  }
}

void AdjacencyGraph::Unlink(Vertex owner, uint32_t h) {
  const HalfEdge& e = half_[h];
  if (e.prev != kNilHalf) {
    half_[e.prev].next = e.next;
  } else {
    RPMIS_DASSERT(head_[owner] == h);
    head_[owner] = e.next;
  }
  if (e.next != kNilHalf) half_[e.next].prev = e.prev;
}

void AdjacencyGraph::PushFront(Vertex owner, uint32_t h) {
  half_[h].prev = kNilHalf;
  half_[h].next = head_[owner];
  if (head_[owner] != kNilHalf) half_[head_[owner]].prev = h;
  head_[owner] = h;
}

std::vector<Vertex> AdjacencyGraph::NeighborsOf(Vertex v) const {
  std::vector<Vertex> out;
  out.reserve(degree_[v]);
  ForEachNeighbor(v, [&](Vertex w) { out.push_back(w); });
  return out;
}

bool AdjacencyGraph::HasEdge(Vertex u, Vertex v) const {
  if (degree_[u] > degree_[v]) std::swap(u, v);
  for (uint32_t h = head_[u]; h != kNilHalf; h = half_[h].next) {
    if (half_[h].to == v) return true;
  }
  return false;
}

void AdjacencyGraph::RemoveVertex(Vertex v, std::vector<Vertex>* touched) {
  RPMIS_ASSERT(IsAlive(v));
  for (uint32_t h = head_[v]; h != kNilHalf; h = half_[h].next) {
    const Vertex w = half_[h].to;
    Unlink(w, half_[h].twin);
    --degree_[w];
    --alive_edges_;
    free_halves_.push_back(h);
    free_halves_.push_back(half_[h].twin);
    if (touched != nullptr) touched->push_back(w);
  }
  head_[v] = kNilHalf;
  degree_[v] = 0;
  alive_[v] = 0;
  --alive_count_;
}

void AdjacencyGraph::ContractInto(Vertex v, Vertex w, std::vector<Vertex>* touched) {
  RPMIS_ASSERT(IsAlive(v) && IsAlive(w) && v != w);
  // Mark w's current neighbourhood for duplicate detection.
  scratch_.Clear();
  ForEachNeighbor(w, [&](Vertex x) { scratch_.Insert(x); });

  uint32_t h = head_[v];
  head_[v] = kNilHalf;
  while (h != kNilHalf) {
    const uint32_t next = half_[h].next;
    const Vertex x = half_[h].to;
    if (x == w) {
      // The edge (v, w) disappears with the contraction.
      Unlink(w, half_[h].twin);
      --degree_[w];
      --alive_edges_;
      free_halves_.push_back(h);
      free_halves_.push_back(half_[h].twin);
    } else if (scratch_.Contains(x)) {
      // (w, x) already exists: the moved edge would be parallel; drop it.
      Unlink(x, half_[h].twin);
      --degree_[x];
      --alive_edges_;
      free_halves_.push_back(h);
      free_halves_.push_back(half_[h].twin);
      if (touched != nullptr) touched->push_back(x);
    } else {
      // Re-point (x, v) to (x, w) and thread (v, x)'s half into w's list.
      half_[half_[h].twin].to = w;
      PushFront(w, h);
      ++degree_[w];
      scratch_.Insert(x);
    }
    h = next;
  }
  degree_[v] = 0;
  alive_[v] = 0;
  --alive_count_;
  if (touched != nullptr) touched->push_back(w);
}

void AdjacencyGraph::Compact(Vertex new_n, std::span<const Vertex> to_new) {
  std::vector<HalfEdge> new_half;
  new_half.reserve(2 * alive_edges_);
  std::vector<uint32_t> new_id(half_.size(), kNilHalf);
  std::vector<uint32_t> new_head(new_n, kNilHalf);
  std::vector<uint32_t> new_degree(new_n, 0);
  for (Vertex v = 0; v < NumVertices(); ++v) {
    const Vertex nv = to_new[v];
    if (nv == kInvalidVertex) {
      RPMIS_DASSERT(!IsAlive(v) || degree_[v] == 0);
      continue;
    }
    RPMIS_DASSERT(IsAlive(v));
    uint32_t tail = kNilHalf;
    for (uint32_t h = head_[v]; h != kNilHalf; h = half_[h].next) {
      const uint32_t nh = static_cast<uint32_t>(new_half.size());
      new_id[h] = nh;
      const Vertex target = to_new[half_[h].to];
      RPMIS_DASSERT(target != kInvalidVertex);
      // The twin still holds the OLD half-edge id; re-linked below once
      // every surviving half has its new id.
      new_half.push_back({target, half_[h].twin, tail, kNilHalf});
      if (tail == kNilHalf) {
        new_head[nv] = nh;
      } else {
        new_half[tail].next = nh;
      }
      tail = nh;
    }
    new_degree[nv] = degree_[v];
  }
  for (HalfEdge& e : new_half) {
    RPMIS_DASSERT(new_id[e.twin] != kNilHalf);
    e.twin = new_id[e.twin];
  }
  half_ = std::move(new_half);
  head_ = std::move(new_head);
  degree_ = std::move(new_degree);
  alive_.assign(new_n, 1);
  alive_count_ = new_n;
  free_halves_.clear();  // the rebuilt pool holds exactly the alive halves
  scratch_.Resize(new_n);
}

uint32_t AdjacencyGraph::AllocHalf() {
  if (!free_halves_.empty()) {
    const uint32_t h = free_halves_.back();
    free_halves_.pop_back();
    return h;
  }
  half_.push_back({});
  return static_cast<uint32_t>(half_.size() - 1);
}

bool AdjacencyGraph::InsertEdge(Vertex u, Vertex v) {
  RPMIS_ASSERT(u < NumVertices() && v < NumVertices() && u != v);
  ReviveVertex(u);
  ReviveVertex(v);
  if (HasEdge(u, v)) return false;
  const uint32_t hu = AllocHalf();
  const uint32_t hv = AllocHalf();
  half_[hu] = {v, hv, kNilHalf, kNilHalf};
  half_[hv] = {u, hu, kNilHalf, kNilHalf};
  PushFront(u, hu);
  PushFront(v, hv);
  ++degree_[u];
  ++degree_[v];
  ++alive_edges_;
  return true;
}

bool AdjacencyGraph::RemoveEdge(Vertex u, Vertex v) {
  RPMIS_ASSERT(u < NumVertices() && v < NumVertices() && u != v);
  if (!IsAlive(u) || !IsAlive(v)) return false;
  if (degree_[u] > degree_[v]) std::swap(u, v);
  for (uint32_t h = head_[u]; h != kNilHalf; h = half_[h].next) {
    if (half_[h].to != v) continue;
    Unlink(u, h);
    Unlink(v, half_[h].twin);
    --degree_[u];
    --degree_[v];
    --alive_edges_;
    free_halves_.push_back(h);
    free_halves_.push_back(half_[h].twin);
    return true;
  }
  return false;
}

Vertex AdjacencyGraph::AddVertex() {
  const Vertex v = NumVertices();
  head_.push_back(kNilHalf);
  degree_.push_back(0);
  alive_.push_back(1);
  ++alive_count_;
  scratch_.EnsureUniverse(head_.size());
  return v;
}

void AdjacencyGraph::ReviveVertex(Vertex v) {
  RPMIS_ASSERT(v < NumVertices());
  if (IsAlive(v)) return;
  RPMIS_DASSERT(head_[v] == kNilHalf && degree_[v] == 0);
  alive_[v] = 1;
  ++alive_count_;
}

Graph AdjacencyGraph::ToGraph() const {
  const Vertex n = NumVertices();
  std::vector<uint64_t> offsets(static_cast<size_t>(n) + 1, 0);
  for (Vertex v = 0; v < n; ++v) offsets[v + 1] = offsets[v] + degree_[v];
  std::vector<Vertex> neighbors(offsets[n]);
  for (Vertex v = 0; v < n; ++v) {
    uint64_t pos = offsets[v + 1];
    bool sorted = true;
    Vertex right = kInvalidVertex;  // the entry just written to the right
    ForEachNeighbor(v, [&](Vertex w) {
      sorted &= w < right;
      neighbors[--pos] = w;
      right = w;
    });
    RPMIS_DASSERT(pos == offsets[v]);
    if (!sorted) {
      std::sort(neighbors.begin() + offsets[v], neighbors.begin() + offsets[v + 1]);
    }
  }
  return Graph::FromCsr(std::move(offsets), std::move(neighbors));
}

}  // namespace rpmis
