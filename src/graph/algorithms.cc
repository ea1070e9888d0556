#include "graph/algorithms.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "ds/bucket_queue.h"

namespace rpmis {

ComponentInfo ConnectedComponents(const Graph& g) {
  const Vertex n = g.NumVertices();
  ComponentInfo info;
  info.component_id.assign(n, kInvalidVertex);

  std::vector<Vertex> queue;
  queue.reserve(n);
  for (Vertex s = 0; s < n; ++s) {
    if (info.component_id[s] != kInvalidVertex) continue;
    const Vertex c = info.num_components++;
    info.component_id[s] = c;
    queue.push_back(s);
    size_t head = queue.size() - 1;
    while (head < queue.size()) {
      const Vertex v = queue[head++];
      for (Vertex w : g.Neighbors(v)) {
        if (info.component_id[w] == kInvalidVertex) {
          info.component_id[w] = c;
          queue.push_back(w);
        }
      }
    }
  }

  // Group members by component with a counting sort; scanning v in
  // increasing order is what makes each slice sorted (see the header
  // contract). The offsets array doubles as the placement cursor and is
  // shifted back afterwards, so no extra size-C scratch is needed.
  info.offsets.assign(static_cast<size_t>(info.num_components) + 1, 0);
  for (Vertex v = 0; v < n; ++v) ++info.offsets[info.component_id[v] + 1];
  for (size_t c = 1; c < info.offsets.size(); ++c) info.offsets[c] += info.offsets[c - 1];
  info.members.resize(n);
  for (Vertex v = 0; v < n; ++v) info.members[info.offsets[info.component_id[v]]++] = v;
  for (size_t c = info.offsets.size() - 1; c > 0; --c) info.offsets[c] = info.offsets[c - 1];
  info.offsets[0] = 0;
  return info;
}

ComponentExtractor::ComponentExtractor(const Graph& g, ComponentInfo cc)
    : g_(&g), cc_(std::move(cc)) {
  RPMIS_ASSERT(cc_.component_id.size() == g.NumVertices());
  local_id_.resize(g.NumVertices());
  for (Vertex c = 0; c < cc_.num_components; ++c) {
    const uint64_t begin = cc_.offsets[c];
    for (uint64_t i = begin; i < cc_.offsets[c + 1]; ++i) {
      local_id_[cc_.members[i]] = static_cast<Vertex>(i - begin);
    }
  }
}

Graph ComponentExtractor::Extract(Vertex c) const {
  const std::span<const Vertex> members = cc_.Members(c);
  std::vector<uint64_t> offsets(members.size() + 1);
  offsets[0] = 0;
  for (size_t i = 0; i < members.size(); ++i) {
    offsets[i + 1] = offsets[i] + g_->Degree(members[i]);
  }
  std::vector<Vertex> neighbors;
  neighbors.reserve(offsets.back());
  // Every neighbour is in the same component, and the monotonic renaming
  // keeps each (sorted) adjacency slice sorted, so the arrays below are a
  // valid CSR as-is — no normalization pass.
  for (Vertex v : members) {
    for (Vertex w : g_->Neighbors(v)) neighbors.push_back(local_id_[w]);
  }
  return Graph::FromCsr(std::move(offsets), std::move(neighbors));
}

VertexRenaming BuildRenaming(std::span<const uint8_t> keep) {
  VertexRenaming renaming;
  const Vertex n = static_cast<Vertex>(keep.size());
  renaming.to_new.assign(n, kInvalidVertex);
  for (Vertex v = 0; v < n; ++v) {
    if (keep[v]) {
      renaming.to_new[v] = static_cast<Vertex>(renaming.kept.size());
      renaming.kept.push_back(v);
    }
  }
  return renaming;
}

void CheckEdgeIdsFit32Bits(uint64_t directed_edges) {
  if (directed_edges >= static_cast<uint64_t>(kInvalidVertex)) {
    throw std::runtime_error(
        "rpmis::algorithms: graph too large for 32-bit edge ids (" +
        std::to_string(directed_edges) + " directed edges, limit " +
        std::to_string(static_cast<uint64_t>(kInvalidVertex) - 1) + ")");
  }
}

std::vector<uint32_t> ReverseEdgeIndex(std::span<const uint64_t> offsets,
                                       std::span<const Vertex> adj) {
  CheckEdgeIdsFit32Bits(adj.size());
  const Vertex n = static_cast<Vertex>(offsets.size() - 1);
  std::vector<uint32_t> rev(adj.size());
  // Visiting v in ascending order, w meets its neighbours in ascending
  // order too, so the k-th visit lands on the k-th slot of w's sorted list,
  // which holds v.
  std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (Vertex v = 0; v < n; ++v) {
    for (uint64_t e = offsets[v]; e < offsets[v + 1]; ++e) {
      const uint32_t r = cursor[adj[e]]++;
      RPMIS_DASSERT(adj[r] == v);
      rev[e] = r;
    }
  }
  return rev;
}

std::vector<uint32_t> EdgeTriangleCounts(std::span<const uint64_t> offsets,
                                         std::span<const Vertex> adj,
                                         std::span<const uint32_t> rev) {
  CheckEdgeIdsFit32Bits(adj.size());
  RPMIS_ASSERT(rev.size() == adj.size());
  const Vertex n = static_cast<Vertex>(offsets.size() - 1);
  const auto below = [&](Vertex a, Vertex b) {
    const uint64_t da = offsets[a + 1] - offsets[a];
    const uint64_t db = offsets[b + 1] - offsets[b];
    return da < db || (da == db && a < b);
  };
  // Orient every edge towards its higher (degree, id) endpoint (a ≺ b iff
  // below(a, b)). The out-list of u packs (target, slot of (u, target)); each edge appears
  // once, and no out-list is longer than sqrt(2m).
  struct Out {
    Vertex to;
    uint32_t slot;
  };
  std::vector<uint32_t> out_begin(static_cast<size_t>(n) + 1, 0);
  for (Vertex u = 0; u < n; ++u) {
    uint32_t d = 0;
    for (uint64_t e = offsets[u]; e < offsets[u + 1]; ++e) d += below(u, adj[e]);
    out_begin[u + 1] = out_begin[u] + d;
  }
  std::vector<Out> out(out_begin[n]);
  for (Vertex u = 0; u < n; ++u) {
    uint32_t k = out_begin[u];
    for (uint64_t e = offsets[u]; e < offsets[u + 1]; ++e) {
      if (below(u, adj[e])) out[k++] = {adj[e], static_cast<uint32_t>(e)};
    }
  }
  // Each triangle u ≺ v ≺ w (in that order) is found once, at u, as the
  // out-edge (v, w) of an out-neighbour v of u with w also in out(u). Its
  // three edges are credited on their out-list entries; `pos[w]` holds
  // 1 + the entry of (u, w) while u is being processed.
  std::vector<uint32_t> count(out.size(), 0);
  std::vector<uint32_t> pos(n, 0);
  for (Vertex u = 0; u < n; ++u) {
    for (uint32_t k = out_begin[u]; k < out_begin[u + 1]; ++k) pos[out[k].to] = k + 1;
    for (uint32_t k = out_begin[u]; k < out_begin[u + 1]; ++k) {
      const Vertex v = out[k].to;
      for (uint32_t j = out_begin[v]; j < out_begin[v + 1]; ++j) {
        const uint32_t uw = pos[out[j].to];
        if (uw == 0) continue;
        ++count[k];
        ++count[j];
        ++count[uw - 1];
      }
    }
    for (uint32_t k = out_begin[u]; k < out_begin[u + 1]; ++k) pos[out[k].to] = 0;
  }
  // Both directions of an edge carry its count.
  std::vector<uint32_t> delta(adj.size());
  for (size_t k = 0; k < out.size(); ++k) {
    delta[out[k].slot] = count[k];
    delta[rev[out[k].slot]] = count[k];
  }
  return delta;
}

std::vector<uint32_t> EdgeTriangleCounts(const Graph& g) {
  const std::vector<uint32_t> rev = ReverseEdgeIndex(g.RawOffsets(), g.RawNeighbors());
  return EdgeTriangleCounts(g.RawOffsets(), g.RawNeighbors(), rev);
}

CoreDecomposition ComputeCores(const Graph& g) {
  const Vertex n = g.NumVertices();
  CoreDecomposition out;
  out.core.assign(n, 0);
  out.order.reserve(n);
  if (n == 0) return out;

  std::vector<uint32_t> deg(n);
  for (Vertex v = 0; v < n; ++v) deg[v] = g.Degree(v);
  BucketQueue q = BucketQueue::FromKeys(deg, g.MaxDegree());
  uint32_t current = 0;
  while (!q.Empty()) {
    const uint32_t k = q.MinKey();
    current = std::max(current, k);
    const Vertex v = q.PopMin();
    out.core[v] = current;
    out.order.push_back(v);
    for (Vertex w : g.Neighbors(v)) {
      if (q.Contains(w) && q.KeyOf(w) > 0) q.Update(w, q.KeyOf(w) - 1);
    }
  }
  out.degeneracy = current;
  return out;
}

DegreeStats ComputeDegreeStats(const Graph& g) {
  DegreeStats s;
  const Vertex n = g.NumVertices();
  if (n == 0) return s;
  s.min_degree = ~0u;
  for (Vertex v = 0; v < n; ++v) {
    const uint32_t d = g.Degree(v);
    s.min_degree = std::min(s.min_degree, d);
    s.max_degree = std::max(s.max_degree, d);
    if (d <= 2) ++s.num_degree_le2;
  }
  s.avg_degree = g.AverageDegree();
  return s;
}

}  // namespace rpmis
