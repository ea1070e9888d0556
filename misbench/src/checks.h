// Output checks computed apart from the program: the benchmark's own CSR,
// its own independence/maximality loop, a greedy matching bound, and the
// dynamic engine's final set against the benchmark's own mirror.
#ifndef MISBENCH_CHECKS_H_
#define MISBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dynamic/engine.h"
#include "graph/graph.h"
#include "inputs.h"

namespace misbench {

/// The benchmark's own CSR: per-vertex sorted neighbour lists.
struct Csr {
  std::vector<uint64_t> offsets;  // n + 1
  std::vector<Vertex> neighbors;  // 2m
  Vertex NumVertices() const { return static_cast<Vertex>(offsets.size() - 1); }
};

/// Builds the CSR of a simple undirected edge list on [0, n).
Csr BuildCsr(Vertex n, const std::vector<Edge>& edges);

/// True iff `g` has exactly the vertices and adjacency of `expected`.
bool SameGraph(const Csr& expected, const rpmis::Graph& g);

/// Failure bits of CheckSet.
enum SetCheck : uint64_t {
  kBadLength = 1,
  kNotIndependent = 2,
  kNotMaximal = 4,
  kBadSize = 8,
};

/// Checks that `in_set` selects an independent, maximal set of `csr` and
/// that `size` equals the number of set flags. Returns the failed bits.
uint64_t CheckSet(const Csr& csr, const std::vector<uint8_t>& in_set, uint64_t size);

/// n - |M| for a greedy maximal matching M (an upper bound on alpha: each
/// matched pair holds at most one member of any independent set).
uint64_t MatchingBound(const Csr& csr);

/// Checks the engine after a stream against the benchmark's mirror of the
/// updated graph (`final` over the whole universe, dead vertices isolated
/// and flagged 0 in `alive`): same universe and edge count, no dead vertex
/// selected, the set independent and maximal on the alive vertices, Size()
/// equal to the set flags and at most UpperBound(). Returns "" or the
/// first violation.
std::string CheckEngine(const Csr& final, const std::vector<uint8_t>& alive,
                        const rpmis::DynamicMisEngine& engine);

}  // namespace misbench

#endif  // MISBENCH_CHECKS_H_
