#include "mis/lp_reduction.h"

#include <limits>
#include <utility>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "support/assert.h"

namespace rpmis {

namespace {

constexpr uint32_t kInf = std::numeric_limits<uint32_t>::max();

// One frame of an explicit DFS stack: a left vertex and a cursor into its
// slice. While a frame has a child above it, its cursor names the edge the
// search took down to that child.
struct Frame {
  Vertex l;
  uint32_t k;
};

struct Matching {
  std::vector<Vertex> ml, mr;
  uint64_t size = 0;
  uint64_t lookahead_phases = 0;
  uint64_t hk_phases = 0;
};

Matching Match(Vertex right, std::span<const uint64_t> offsets,
               std::span<const Vertex> targets) {
  const Vertex left = static_cast<Vertex>(offsets.size() - 1);
  Matching m;
  std::vector<Vertex>& ml = m.ml;
  std::vector<Vertex>& mr = m.mr;
  ml.assign(left, kInvalidVertex);
  mr.assign(right, kInvalidVertex);

  // Greedy warm start; the free left vertices with an edge it leaves are
  // the lookahead roots.
  uint64_t free_roots = 0;
  for (Vertex l = 0; l < left; ++l) {
    for (uint64_t e = offsets[l]; e < offsets[l + 1]; ++e) {
      const Vertex r = targets[e];
      if (mr[r] == kInvalidVertex) {
        ml[l] = r;
        mr[r] = l;
        ++m.size;
        break;
      }
    }
    free_roots += ml[l] == kInvalidVertex && offsets[l] < offsets[l + 1];
  }

  // The slot a frame's cursor names, scanning l's slice forward or
  // backward.
  auto slot = [&](const Frame& f, bool forward) {
    return forward ? offsets[f.l] + f.k : offsets[f.l + 1] - 1 - f.k;
  };
  // The top frame's vertex takes the free right vertex r; every frame
  // below it takes the edge its cursor names.
  std::vector<Frame> stack;
  auto augment = [&](Vertex r, bool forward) {
    ml[stack.back().l] = r;
    mr[r] = stack.back().l;
    for (size_t i = 0; i + 1 < stack.size(); ++i) {
      const Vertex ri = targets[slot(stack[i], forward)];
      ml[stack[i].l] = ri;
      mr[ri] = stack[i].l;
    }
  };

  // Pothen–Fan+ phases. lookahead[l] only ever skips matched right
  // vertices, which never become free again, so it persists across phases.
  std::vector<uint32_t> lookahead(left, 0);
  std::vector<uint32_t> visited(right, 0);  // phase stamp
  while (free_roots > 0) {
    const uint32_t phase = static_cast<uint32_t>(++m.lookahead_phases);
    const bool forward = phase % 2 == 1;
    uint64_t augmented = 0;
    // A root is matched only by its own search, so this visits exactly the
    // roots free when the phase began.
    for (Vertex root = 0; root < left; ++root) {
      if (ml[root] != kInvalidVertex || offsets[root] == offsets[root + 1]) {
        continue;
      }
      stack.assign(1, {root, 0});
      bool entered = true;  // the top frame still owes its lookahead
      while (!stack.empty()) {
        Frame& f = stack.back();
        const uint32_t deg =
            static_cast<uint32_t>(offsets[f.l + 1] - offsets[f.l]);
        if (entered) {
          entered = false;
          uint32_t& la = lookahead[f.l];
          while (la < deg && mr[targets[offsets[f.l] + la]] != kInvalidVertex) {
            ++la;
          }
          if (la < deg) {
            // Stamping the new mate keeps every left vertex to one entry
            // per phase.
            const Vertex r = targets[offsets[f.l] + la];
            visited[r] = phase;
            augment(r, forward);
            ++augmented;
            break;
          }
        }
        while (f.k < deg && visited[targets[slot(f, forward)]] == phase) ++f.k;
        if (f.k == deg) {
          stack.pop_back();
          if (!stack.empty()) ++stack.back().k;
          continue;
        }
        // The lookahead found no free neighbour, so r is matched.
        const Vertex r = targets[slot(f, forward)];
        visited[r] = phase;
        RPMIS_DASSERT(mr[r] != kInvalidVertex);
        stack.push_back({mr[r], 0});
        entered = true;
      }
    }
    // A phase without an augmenting path has searched everything the
    // free left vertices reach: the matching is maximum.
    if (augmented == 0) return m;
    m.size += augmented;
    if (2 * augmented < free_roots) break;  // hand over
    free_roots -= augmented;
  }
  if (free_roots == 0) return m;

  // Hopcroft–Karp from the current matching. The lookahead scratch goes
  // first, so the per-vertex scratch never exceeds ml, mr, dist and queue.
  std::vector<uint32_t>().swap(lookahead);
  std::vector<uint32_t>().swap(visited);
  std::vector<uint32_t> dist(left);
  std::vector<Vertex> bfs_queue;
  bfs_queue.reserve(left);

  // Layered BFS from free left vertices; true iff an augmenting path
  // exists.
  auto bfs = [&]() {
    bfs_queue.clear();
    for (Vertex l = 0; l < left; ++l) {
      if (ml[l] == kInvalidVertex) {
        dist[l] = 0;
        bfs_queue.push_back(l);
      } else {
        dist[l] = kInf;
      }
    }
    bool found = false;
    for (size_t head = 0; head < bfs_queue.size(); ++head) {
      const Vertex l = bfs_queue[head];
      for (uint64_t e = offsets[l]; e < offsets[l + 1]; ++e) {
        const Vertex l2 = mr[targets[e]];
        if (l2 == kInvalidVertex) {
          found = true;
        } else if (dist[l2] == kInf) {
          dist[l2] = dist[l] + 1;
          bfs_queue.push_back(l2);
        }
      }
    }
    return found;
  };

  // DFS along the layer structure, augmenting on success; a vertex that
  // fails is cut from the layers for the rest of the phase.
  auto dfs = [&](Vertex root) {
    stack.assign(1, {root, 0});
    while (!stack.empty()) {
      Frame& f = stack.back();
      const uint32_t deg = static_cast<uint32_t>(offsets[f.l + 1] - offsets[f.l]);
      Vertex next = kInvalidVertex;
      for (; f.k < deg; ++f.k) {
        const Vertex r = targets[slot(f, /*forward=*/true)];
        const Vertex l2 = mr[r];
        if (l2 == kInvalidVertex) {
          augment(r, /*forward=*/true);
          return true;
        }
        if (dist[l2] == dist[f.l] + 1) {
          next = l2;
          break;
        }
      }
      if (next != kInvalidVertex) {
        stack.push_back({next, 0});
        continue;
      }
      dist[f.l] = kInf;
      stack.pop_back();
      if (!stack.empty()) ++stack.back().k;
    }
    return false;
  };

  while (bfs()) {
    ++m.hk_phases;
    for (Vertex l = 0; l < left; ++l) {
      if (ml[l] == kInvalidVertex && dfs(l)) ++m.size;
    }
  }
  return m;
}

}  // namespace

uint64_t MaximumMatching(Vertex right, std::span<const uint64_t> offsets,
                         std::span<const Vertex> targets,
                         std::vector<Vertex>* match_left,
                         std::vector<Vertex>* match_right) {
  Matching m = Match(right, offsets, targets);
  if (match_left != nullptr) *match_left = std::move(m.ml);
  if (match_right != nullptr) *match_right = std::move(m.mr);
  return m.size;
}

LpReduction SolveLpReduction(std::span<const uint64_t> offsets,
                             std::span<const Vertex> adj) {
  // The double cover's left CSR is the graph's own: v_L is joined to u_R
  // for every slot (v, u).
  const Vertex n = static_cast<Vertex>(offsets.size() - 1);
  Matching m = Match(n, offsets, adj);
  const std::vector<Vertex>& ml = m.ml;
  const std::vector<Vertex>& mr = m.mr;
  LpReduction out;
  out.matching = m.size;
  out.lookahead_phases = m.lookahead_phases;
  out.hk_phases = m.hk_phases;

  // König: Z = vertices alternately reachable from free LEFT vertices
  // (non-matching edge to the right, matching edge back to the left).
  // Min vertex cover of the double cover: (L \ Z_L) ∪ (R ∩ Z_R).
  std::vector<uint8_t> zl(n, 0), zr(n, 0);
  std::vector<Vertex> stack;
  for (Vertex l = 0; l < n; ++l) {
    if (ml[l] == kInvalidVertex && !zl[l]) {
      zl[l] = 1;
      stack.push_back(l);
    }
  }
  while (!stack.empty()) {
    const Vertex l = stack.back();
    stack.pop_back();
    for (uint64_t e = offsets[l]; e < offsets[l + 1]; ++e) {
      const Vertex r = adj[e];
      if (zr[r]) continue;
      if (ml[l] == r) continue;  // only non-matching edges leave L
      zr[r] = 1;
      const Vertex l2 = mr[r];
      if (l2 != kInvalidVertex && !zl[l2]) {
        zl[l2] = 1;
        stack.push_back(l2);
      }
    }
  }

  out.include.assign(n, 0);
  out.exclude.assign(n, 0);
  for (Vertex v = 0; v < n; ++v) {
    const bool cover_l = !zl[v];       // v_L in cover
    const bool cover_r = zr[v];        // v_R in cover
    if (cover_l && cover_r) {
      out.exclude[v] = 1;  // y_v = 1  =>  x_v = 0
      ++out.num_exclude;
    } else if (!cover_l && !cover_r) {
      out.include[v] = 1;  // y_v = 0  =>  x_v = 1
      ++out.num_include;
    } else {
      ++out.num_half;
    }
  }
  return out;
}

LpReduction SolveLpReduction(const Graph& g) {
  return SolveLpReduction(g.RawOffsets(), g.RawNeighbors());
}

void AddLpPhaseMetrics(const LpReduction& lp) {
  if (obs::MetricsRegistry* metrics = obs::Metrics()) {
    metrics->Add("lp.lookahead_phases", lp.lookahead_phases);
    metrics->Add("lp.hk_phases", lp.hk_phases);
  }
}

}  // namespace rpmis
