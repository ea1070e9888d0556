#include "mis/lp_reduction.h"

#include <algorithm>
#include <atomic>
#include <limits>

#include "support/parallel.h"

namespace rpmis {

namespace {

constexpr uint32_t kInf = std::numeric_limits<uint32_t>::max();

}  // namespace

uint64_t HopcroftKarpMatching(Vertex right, std::span<const uint64_t> offsets,
                              std::span<const Vertex> targets,
                              std::vector<Vertex>* match_left,
                              std::vector<Vertex>* match_right) {
  const Vertex left = static_cast<Vertex>(offsets.size() - 1);
  std::vector<Vertex> ml(left, kInvalidVertex);
  std::vector<Vertex> mr(right, kInvalidVertex);
  std::vector<uint32_t> dist(left);
  std::vector<Vertex> bfs_queue;
  bfs_queue.reserve(left);
  uint64_t matching = 0;

  // Greedy warm start roughly halves the number of phases in practice.
  for (Vertex l = 0; l < left; ++l) {
    for (uint64_t e = offsets[l]; e < offsets[l + 1]; ++e) {
      const Vertex r = targets[e];
      if (mr[r] == kInvalidVertex) {
        ml[l] = r;
        mr[r] = l;
        ++matching;
        break;
      }
    }
  }

  // Layered BFS from free left vertices; true iff an augmenting path exists.
  // Only the level structure dist[] matters downstream (the augmenting DFS
  // is a separate, strictly in-order pass), and BFS distances are canonical
  // regardless of the order vertices inside one level are expanded. That
  // makes the level-synchronous parallel variant below byte-identical to
  // this serial loop.
  auto bfs_serial = [&]() {
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
        const Vertex r = targets[e];
        const Vertex l2 = mr[r];
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

  // Level-synchronous parallel BFS. Each level's frontier is expanded by
  // all threads; a vertex is claimed for the next level with a CAS on its
  // dist entry, so exactly one thread enqueues it. Which thread wins is
  // scheduling-dependent, but the claimed VALUE (level + 1) and therefore
  // the resulting dist[] array — the only BFS output the matching reads —
  // are identical to the serial pass.
  std::vector<std::vector<Vertex>> next_local;
  auto bfs_parallel = [&](size_t threads) {
    bfs_queue.clear();
    for (Vertex l = 0; l < left; ++l) {
      if (ml[l] == kInvalidVertex) {
        dist[l] = 0;
        bfs_queue.push_back(l);
      } else {
        dist[l] = kInf;
      }
    }
    next_local.assign(threads, {});
    std::vector<Vertex> frontier = bfs_queue;
    std::atomic<bool> found{false};
    uint32_t level = 0;
    while (!frontier.empty()) {
      const size_t chunk = (frontier.size() + threads - 1) / threads;
      RunParallel(threads, [&](size_t t) {
        std::vector<Vertex>& next = next_local[t];
        next.clear();
        const size_t lo = t * chunk;
        const size_t hi = std::min(frontier.size(), lo + chunk);
        for (size_t i = lo; i < hi; ++i) {
          const Vertex l = frontier[i];
          for (uint64_t e = offsets[l]; e < offsets[l + 1]; ++e) {
            const Vertex r = targets[e];
            const Vertex l2 = mr[r];
            if (l2 == kInvalidVertex) {
              found.store(true, std::memory_order_relaxed);
            } else {
              uint32_t expect = kInf;
              if (std::atomic_ref<uint32_t>(dist[l2]).compare_exchange_strong(
                      expect, level + 1, std::memory_order_relaxed)) {
                next.push_back(l2);
              }
            }
          }
        }
      });
      frontier.clear();
      for (std::vector<Vertex>& local : next_local) {
        frontier.insert(frontier.end(), local.begin(), local.end());
      }
      ++level;
    }
    return found.load(std::memory_order_relaxed);
  };

  auto bfs = [&]() {
    const size_t threads = NumThreads();
    if (threads > 1 && left >= 2048) return bfs_parallel(threads);
    return bfs_serial();
  };

  // DFS along the layer structure, augmenting on success.
  auto dfs = [&](auto&& self, Vertex l) -> bool {
    for (uint64_t e = offsets[l]; e < offsets[l + 1]; ++e) {
      const Vertex r = targets[e];
      const Vertex l2 = mr[r];
      if (l2 == kInvalidVertex || (dist[l2] == dist[l] + 1 && self(self, l2))) {
        ml[l] = r;
        mr[r] = l;
        return true;
      }
    }
    dist[l] = kInf;
    return false;
  };

  while (bfs()) {
    for (Vertex l = 0; l < left; ++l) {
      if (ml[l] == kInvalidVertex && dfs(dfs, l)) ++matching;
    }
  }

  if (match_left != nullptr) *match_left = std::move(ml);
  if (match_right != nullptr) *match_right = std::move(mr);
  return matching;
}

LpReduction SolveLpReduction(std::span<const uint64_t> offsets,
                             std::span<const Vertex> adj) {
  // The double cover's left CSR is the graph's own: v_L is joined to u_R
  // for every slot (v, u).
  const Vertex n = static_cast<Vertex>(offsets.size() - 1);
  std::vector<Vertex> ml, mr;
  LpReduction out;
  out.matching = HopcroftKarpMatching(n, offsets, adj, &ml, &mr);

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

}  // namespace rpmis
