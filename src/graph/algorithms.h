// Shared graph algorithms: connectivity, CSR helpers, triangle counts,
// core numbers.
//
// These are the analytical substrates the paper's algorithms rely on:
// NearLinear (§5) maintains a triangle count per edge to test dominance in
// O(1); its one-pass prepass uses a degree ordering; the exact solver and
// the benchmark harness split graphs into connected components.
#ifndef RPMIS_GRAPH_ALGORITHMS_H_
#define RPMIS_GRAPH_ALGORITHMS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace rpmis {

/// Connected components labelling.
struct ComponentInfo {
  std::vector<Vertex> component_id;  // per vertex, in [0, num_components)
  Vertex num_components = 0;
  /// Vertices grouped by component, concatenated; component c occupies
  /// [offsets[c], offsets[c+1]). Within each component, members appear in
  /// increasing vertex id order (counting sort) — the renaming old id ->
  /// slice position is therefore monotonic, which keeps renamed adjacency
  /// lists sorted (ComponentExtractor relies on this).
  std::vector<Vertex> members;
  std::vector<uint64_t> offsets;

  /// View of component c's member list (no copy).
  std::span<const Vertex> Members(Vertex c) const {
    RPMIS_DASSERT(c < num_components);
    return {members.data() + offsets[c], members.data() + offsets[c + 1]};
  }
};

/// Computes connected components by a non-recursive BFS over one reusable
/// frontier. O(n + m), no per-component allocation.
ComponentInfo ConnectedComponents(const Graph& g);

/// Extracts the connected components of a graph as standalone graphs in
/// O(n_c + m_c) each (O(n + m) for all of them together): the old->new
/// renaming is one shared array filled once, and each component's CSR is
/// assembled directly — no per-component size-n scratch, no edge-list
/// round trip. Extract() is const and safe to call concurrently for
/// different (or equal) components, which is what RunPerComponentParallel
/// does.
class ComponentExtractor {
 public:
  /// Labels components and builds the shared renaming. O(n + m).
  explicit ComponentExtractor(const Graph& g)
      : ComponentExtractor(g, ConnectedComponents(g)) {}

  /// Reuses an existing labelling of exactly this graph.
  ComponentExtractor(const Graph& g, ComponentInfo cc);

  Vertex NumComponents() const { return cc_.num_components; }
  const ComponentInfo& Components() const { return cc_; }
  std::span<const Vertex> Members(Vertex c) const { return cc_.Members(c); }

  /// Position of v inside its component slice, i.e. v's id in Extract()'s
  /// output for component_id[v].
  Vertex LocalId(Vertex v) const { return local_id_[v]; }

  /// Builds component c as a standalone graph. Local ids preserve the
  /// relative order of the original ids (Members(c)[i] -> i).
  Graph Extract(Vertex c) const;

 private:
  const Graph* g_;
  ComponentInfo cc_;
  std::vector<Vertex> local_id_;  // old id -> position within its slice
};

/// A monotone old->new renaming over one keep set: kept vertices keep
/// their relative order, so a sorted adjacency slice stays sorted under it.
struct VertexRenaming {
  std::vector<Vertex> to_new;  // old id -> new id, kInvalidVertex if dropped
  std::vector<Vertex> kept;    // new id -> old id, increasing in old id
};

/// Builds the renaming keeping exactly the vertices with keep[v] != 0.
VertexRenaming BuildRenaming(std::span<const uint8_t> keep);

/// Validates that a directed edge count fits the 32-bit slot ids used by
/// ReverseEdgeIndex / EdgeTriangleCounts and NearLinear's per-slot arrays.
/// Throws std::runtime_error naming the offending count instead of
/// asserting, so callers feeding multi-billion-edge graphs get a
/// diagnosable failure. Exposed for tests (the limit itself is not
/// reachable with test-sized graphs).
void CheckEdgeIdsFit32Bits(uint64_t directed_edges);

/// Per-directed-edge reverse index of a symmetric CSR whose slices are
/// sorted: for the slot e of (u, v), result[e] is the slot of (v, u). One
/// cursor pass, O(n + m). Throws via CheckEdgeIdsFit32Bits when the slot
/// count exceeds 32 bits.
std::vector<uint32_t> ReverseEdgeIndex(std::span<const uint64_t> offsets,
                                       std::span<const Vertex> adj);

/// Per-directed-edge triangle counts δ(u, v) = |N(u) ∩ N(v)| (Lemma 5.2)
/// of a symmetric CSR with reverse index `rev`. Both directions of an edge
/// carry the same count. Edges are oriented towards the higher
/// (degree, id) endpoint and each triangle is found once, from its lowest
/// vertex, by marking that vertex's out-neighbours: O(m·a(G)) time, so a
/// hub never costs the sum of squared degrees. Besides the 2m-slot result
/// it allocates 3m + O(n) 32-bit words of scratch (the packed out-lists
/// and their counts).
std::vector<uint32_t> EdgeTriangleCounts(std::span<const uint64_t> offsets,
                                         std::span<const Vertex> adj,
                                         std::span<const uint32_t> rev);

/// Same, for a Graph (computes the reverse index itself).
std::vector<uint32_t> EdgeTriangleCounts(const Graph& g);

/// Core decomposition by min-degree peeling.
struct CoreDecomposition {
  std::vector<uint32_t> core;   // core number per vertex
  std::vector<Vertex> order;    // a degeneracy ordering
  uint32_t degeneracy = 0;      // max core number
};

/// Computes core numbers and a degeneracy ordering. O(n + m).
CoreDecomposition ComputeCores(const Graph& g);

/// Summary degree statistics (used by the Table 2 bench and DESIGN checks).
struct DegreeStats {
  uint32_t min_degree = 0;
  uint32_t max_degree = 0;
  double avg_degree = 0.0;
  uint64_t num_degree_le2 = 0;  // vertices the exact reductions feed on
};

DegreeStats ComputeDegreeStats(const Graph& g);

}  // namespace rpmis

#endif  // RPMIS_GRAPH_ALGORITHMS_H_
