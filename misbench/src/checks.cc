#include "checks.h"

#include <algorithm>
#include <span>

namespace misbench {

Csr BuildCsr(Vertex n, const std::vector<Edge>& edges) {
  Csr csr;
  csr.offsets.assign(static_cast<size_t>(n) + 1, 0);
  for (const auto& [a, b] : edges) {
    ++csr.offsets[a + 1];
    ++csr.offsets[b + 1];
  }
  for (Vertex v = 0; v < n; ++v) csr.offsets[v + 1] += csr.offsets[v];
  csr.neighbors.resize(csr.offsets[n]);
  std::vector<uint64_t> cursor(csr.offsets.begin(), csr.offsets.end() - 1);
  for (const auto& [a, b] : edges) {
    csr.neighbors[cursor[a]++] = b;
    csr.neighbors[cursor[b]++] = a;
  }
  for (Vertex v = 0; v < n; ++v) {
    std::sort(csr.neighbors.begin() + csr.offsets[v],
              csr.neighbors.begin() + csr.offsets[v + 1]);
  }
  return csr;
}

bool SameGraph(const Csr& expected, const rpmis::Graph& g) {
  const auto offsets = g.RawOffsets();
  const auto neighbors = g.RawNeighbors();
  return std::equal(offsets.begin(), offsets.end(), expected.offsets.begin(),
                    expected.offsets.end()) &&
         std::equal(neighbors.begin(), neighbors.end(),
                    expected.neighbors.begin(), expected.neighbors.end());
}

uint64_t CheckSet(const Csr& csr, const std::vector<uint8_t>& in_set, uint64_t size) {
  const Vertex n = csr.NumVertices();
  if (in_set.size() != n) return kBadLength;
  uint64_t failed = 0;
  uint64_t count = 0;
  for (Vertex v = 0; v < n; ++v) {
    bool covered = false;
    for (uint64_t e = csr.offsets[v]; e < csr.offsets[v + 1]; ++e) {
      covered |= in_set[csr.neighbors[e]] != 0;
    }
    if (in_set[v]) {
      ++count;
      if (covered) failed |= kNotIndependent;
    } else if (!covered) {
      failed |= kNotMaximal;
    }
  }
  if (count != size) failed |= kBadSize;
  return failed;
}

uint64_t MatchingBound(const Csr& csr) {
  const Vertex n = csr.NumVertices();
  std::vector<uint8_t> matched(n, 0);
  uint64_t pairs = 0;
  for (Vertex v = 0; v < n; ++v) {
    if (matched[v]) continue;
    for (uint64_t e = csr.offsets[v]; e < csr.offsets[v + 1]; ++e) {
      const Vertex w = csr.neighbors[e];
      if (!matched[w]) {
        matched[v] = matched[w] = 1;
        ++pairs;
        break;
      }
    }
  }
  return n - pairs;
}

std::string CheckEngine(const Csr& final, const std::vector<uint8_t>& alive,
                        const rpmis::DynamicMisEngine& engine) {
  const Vertex n = final.NumVertices();
  if (engine.NumVertices() != n) return "engine universe differs from the mirror";
  if (engine.NumAliveEdges() * 2 != final.neighbors.size()) {
    return "engine edge count differs from the mirror";
  }
  const std::vector<uint8_t>& in_set = engine.Selector();
  if (in_set.size() < n) return "selector shorter than the universe";
  uint64_t count = 0;
  for (Vertex v = 0; v < n; ++v) {
    if (!alive[v]) {
      if (in_set[v]) return "dead vertex " + std::to_string(v) + " is selected";
      continue;
    }
    bool covered = false;
    for (uint64_t e = final.offsets[v]; e < final.offsets[v + 1]; ++e) {
      covered |= in_set[final.neighbors[e]] != 0;
    }
    if (in_set[v]) {
      ++count;
      if (covered) return "selected vertex " + std::to_string(v) + " has a selected neighbour";
    } else if (!covered) {
      return "vertex " + std::to_string(v) + " could be added";
    }
  }
  if (count != engine.Size()) return "Size() differs from the selected count";
  if (engine.Size() > engine.UpperBound()) return "Size() exceeds UpperBound()";
  return "";
}

}  // namespace misbench
