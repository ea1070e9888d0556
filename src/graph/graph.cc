#include "graph/graph.h"

#include <algorithm>

namespace rpmis {

Graph Graph::FromEdges(Vertex n, std::span<const Edge> edges) {
  Graph g;
  g.offsets_.assign(static_cast<size_t>(n) + 1, 0);

  // Count directed degrees, skipping self-loops. Duplicates are removed
  // after sorting, which wastes a little transient space but keeps the
  // build a simple two-pass counting sort (O(n + m)).
  for (const auto& [u, v] : edges) {
    RPMIS_ASSERT(u < n && v < n);
    if (u == v) continue;
    ++g.offsets_[u + 1];
    ++g.offsets_[v + 1];
  }
  for (size_t i = 1; i < g.offsets_.size(); ++i) g.offsets_[i] += g.offsets_[i - 1];

  g.neighbors_.resize(g.offsets_.back());
  std::vector<uint64_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const auto& [u, v] : edges) {
    if (u == v) continue;
    g.neighbors_[cursor[u]++] = v;
    g.neighbors_[cursor[v]++] = u;
  }

  // Sort each adjacency list and drop duplicates in place, then compact.
  std::vector<uint64_t> new_offsets(static_cast<size_t>(n) + 1, 0);
  uint64_t write = 0;
  for (Vertex v = 0; v < n; ++v) {
    const uint64_t begin = g.offsets_[v];
    const uint64_t end = g.offsets_[v + 1];
    std::sort(g.neighbors_.begin() + begin, g.neighbors_.begin() + end);
    uint64_t unique_end = begin;
    for (uint64_t i = begin; i < end; ++i) {
      if (i == begin || g.neighbors_[i] != g.neighbors_[i - 1]) {
        g.neighbors_[unique_end++] = g.neighbors_[i];
      }
    }
    // Compact towards `write` (always <= begin, so copies are safe).
    for (uint64_t i = begin; i < unique_end; ++i) {
      g.neighbors_[write + (i - begin)] = g.neighbors_[i];
    }
    new_offsets[v] = write;
    write += unique_end - begin;
  }
  new_offsets[n] = write;
  g.neighbors_.resize(write);
  g.neighbors_.shrink_to_fit();
  g.offsets_ = std::move(new_offsets);
  return g;
}

Graph Graph::FromCsr(std::vector<uint64_t> offsets,
                     std::vector<Vertex> neighbors) {
  RPMIS_ASSERT(!offsets.empty());
  RPMIS_ASSERT(offsets.front() == 0);
  RPMIS_ASSERT(offsets.back() == neighbors.size());
  Graph g;
  g.offsets_ = std::move(offsets);
  g.neighbors_ = std::move(neighbors);
  return g;
}

bool Graph::HasEdge(Vertex u, Vertex v) const {
  if (u >= NumVertices() || v >= NumVertices()) return false;
  if (Degree(u) > Degree(v)) std::swap(u, v);
  auto nb = Neighbors(u);
  return std::binary_search(nb.begin(), nb.end(), v);
}

uint32_t Graph::MaxDegree() const {
  uint32_t best = 0;
  for (Vertex v = 0; v < NumVertices(); ++v) best = std::max(best, Degree(v));
  return best;
}

std::vector<Edge> Graph::CollectEdges() const {
  std::vector<Edge> out;
  out.reserve(NumEdges());
  for (Vertex v = 0; v < NumVertices(); ++v) {
    for (Vertex w : Neighbors(v)) {
      if (v < w) out.emplace_back(v, w);
    }
  }
  return out;
}

Graph Graph::InducedSubgraph(std::span<const Vertex> vertices,
                             std::vector<Vertex>* old_to_new) const {
  std::vector<Vertex> map(NumVertices(), kInvalidVertex);
  Vertex next = 0;
  for (Vertex v : vertices) {
    RPMIS_ASSERT(v < NumVertices());
    RPMIS_ASSERT_MSG(map[v] == kInvalidVertex, "duplicate vertex in subset");
    map[v] = next++;
  }
  std::vector<Edge> edges;
  for (Vertex v : vertices) {
    for (Vertex w : Neighbors(v)) {
      if (map[w] != kInvalidVertex && v < w) edges.emplace_back(map[v], map[w]);
    }
  }
  if (old_to_new != nullptr) *old_to_new = std::move(map);
  return FromEdges(next, edges);
}

}  // namespace rpmis
