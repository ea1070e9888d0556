// Seeded inputs owned by the benchmark: graph generators, the edge-list
// file writer, and a valid-by-construction update stream.
//
// Nothing here calls the library's generators (graph/generators.h,
// dynamic/update.h RandomUpdateStream), so a change to those cannot move a
// workload. The program under test only ever sees the files written here.
#ifndef MISBENCH_INPUTS_H_
#define MISBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"

namespace misbench {

using rpmis::Edge;
using rpmis::Vertex;

/// splitmix64: small, fast and fully specified, so a seed means the same
/// inputs on every platform and compiler.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, bound).
  uint64_t Below(uint64_t bound) {
    return static_cast<uint64_t>(Unit() * static_cast<double>(bound));
  }

 private:
  uint64_t state_;
};

/// Chung–Lu graph on [0, n): expected degree of vertex i proportional to
/// (i + 10)^(-1/(beta-1)), scaled to `avg_degree`, weights capped at
/// sqrt(total weight). Edges are sampled by geometric skipping over each
/// row (expected O(n + m)). Returns simple edges with u < v.
std::vector<Edge> ChungLuEdges(Vertex n, double beta, double avg_degree,
                               uint64_t seed);

/// G(n, m): exactly m distinct uniform edges with u < v.
std::vector<Edge> GnmEdges(Vertex n, uint64_t m, uint64_t seed);

/// What the edge-list file holds and how LoadGraphFile must see it.
struct EdgeListFile {
  /// Number of distinct ids in the file (vertices with at least one edge).
  Vertex n = 0;
  /// The edges in loaded ids: file id -> index of its first appearance,
  /// scanning lines in order and each line left to right. This is the
  /// renaming graph/io.h documents for edge lists.
  std::vector<Edge> edges;
};

/// Relabels `edges` by a seeded random permutation of [0, n), sorts the
/// lines, writes "u v" lines to `path`, and returns the graph the loader
/// should produce. Throws std::runtime_error when the file cannot be
/// written.
EdgeListFile WriteEdgeListFile(Vertex n, const std::vector<Edge>& edges,
                               uint64_t seed, const std::string& path);

/// The update mix. Weights are relative. The defaults are those of the
/// library's RandomUpdateStream (dynamic/update.h), the mix under which the
/// dynamic differential tests check the engine's validity and quality; the
/// generator below is separate, only its mix is shared. A new vertex gets
/// a uniform number of neighbours in [0, max_new_vertex_degree].
struct StreamMix {
  double insert_edge = 1.0;
  double delete_edge = 1.0;
  double insert_vertex = 0.3;
  double delete_vertex = 0.3;
  uint32_t max_new_vertex_degree = 5;
};

/// One update in the stream file's syntax, kept as plain fields so the
/// file the program parses can be checked against what was generated.
struct Update {
  char kind = 'a';  // 'a' ae, 'd' de, 'v' av, 'x' dv
  Vertex u = 0;
  Vertex v = 0;
  std::vector<Vertex> neighbors;  // av only
};

/// An adjacency mirror of a graph under updates, independent of the
/// library's AdjacencyGraph. Ids only grow; deleted vertices stay dead.
class Mirror {
 public:
  Mirror(Vertex n, const std::vector<Edge>& edges);

  Vertex NumVertices() const { return static_cast<Vertex>(adj_.size()); }
  const std::vector<Edge>& Edges() const { return edges_; }
  const std::vector<uint8_t>& AliveFlags() const { return alive_; }

  /// Generates `count` updates valid when applied in order, applying each
  /// to the mirror as it goes.
  std::vector<Update> Generate(size_t count, const StreamMix& mix, Rng& rng);

 private:
  static uint64_t Key(Vertex a, Vertex b) {
    if (a > b) std::swap(a, b);
    return (static_cast<uint64_t>(a) << 32) | b;
  }
  Vertex RandomAlive(Rng& rng) const;
  bool HasEdge(Vertex a, Vertex b) const { return index_.count(Key(a, b)) != 0; }
  void AddEdge(Vertex a, Vertex b);
  void RemoveEdge(Vertex a, Vertex b);
  void RemoveVertex(Vertex v);

  std::vector<std::vector<Vertex>> adj_;
  std::vector<uint8_t> alive_;
  Vertex num_alive_ = 0;
  std::vector<Edge> edges_;                        // for uniform edge picks
  std::unordered_map<uint64_t, size_t> index_;     // key -> slot in edges_
};

/// Writes the updates in the `ae/de/av/dv` stream syntax.
void WriteUpdateFile(const std::vector<Update>& updates, const std::string& path);

}  // namespace misbench

#endif  // MISBENCH_INPUTS_H_
