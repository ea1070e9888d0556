#include "graph/algorithms.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.h"

namespace rpmis {
namespace {

TEST(ConnectedComponentsTest, CountsComponents) {
  // Two triangles plus an isolated vertex.
  Graph g = Graph::FromEdges(
      7, std::vector<Edge>{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}});
  ComponentInfo cc = ConnectedComponents(g);
  EXPECT_EQ(cc.num_components, 3u);
  EXPECT_EQ(cc.component_id[0], cc.component_id[2]);
  EXPECT_NE(cc.component_id[0], cc.component_id[3]);
  EXPECT_EQ(cc.members.size(), 7u);
  EXPECT_EQ(cc.offsets.back(), 7u);
  // Members of each component carry that component's id.
  for (Vertex c = 0; c < cc.num_components; ++c) {
    for (uint64_t i = cc.offsets[c]; i < cc.offsets[c + 1]; ++i) {
      EXPECT_EQ(cc.component_id[cc.members[i]], c);
    }
  }
}

TEST(ConnectedComponentsTest, SingleComponent) {
  Graph g = CycleGraph(10);
  EXPECT_EQ(ConnectedComponents(g).num_components, 1u);
}

TEST(ConnectedComponentsTest, MembersAreSortedWithinEachComponent) {
  // The header contract ComponentExtractor relies on: each Members(c)
  // slice is in increasing vertex id order.
  Graph g = ErdosRenyiGnm(500, 260, /*seed=*/7);  // subcritical, many comps
  ComponentInfo cc = ConnectedComponents(g);
  EXPECT_GT(cc.num_components, 1u);
  for (Vertex c = 0; c < cc.num_components; ++c) {
    const auto members = cc.Members(c);
    for (size_t i = 1; i < members.size(); ++i) {
      EXPECT_LT(members[i - 1], members[i]);
    }
  }
}

TEST(ComponentExtractorTest, MatchesInducedSubgraph) {
  Graph g = ErdosRenyiGnm(300, 200, /*seed=*/11);
  const ComponentExtractor extractor(g);
  uint64_t total_vertices = 0, total_edges = 0;
  for (Vertex c = 0; c < extractor.NumComponents(); ++c) {
    const auto members = extractor.Members(c);
    const Graph sub = extractor.Extract(c);
    ASSERT_EQ(sub.NumVertices(), members.size());
    // Same graph as the generic (slow-path) InducedSubgraph.
    std::vector<Vertex> old_to_new;
    const Graph reference = g.InducedSubgraph(members, &old_to_new);
    EXPECT_EQ(sub.NumEdges(), reference.NumEdges());
    EXPECT_EQ(sub.CollectEdges(), reference.CollectEdges());
    // Local ids are slice positions.
    for (size_t i = 0; i < members.size(); ++i) {
      EXPECT_EQ(extractor.LocalId(members[i]), i);
      EXPECT_EQ(old_to_new[members[i]], i);
    }
    total_vertices += members.size();
    total_edges += sub.NumEdges();
  }
  EXPECT_EQ(total_vertices, g.NumVertices());
  EXPECT_EQ(total_edges, g.NumEdges());
}

TEST(ComponentExtractorTest, EmptyAndEdgelessGraphs) {
  const ComponentExtractor none(Graph{});
  EXPECT_EQ(none.NumComponents(), 0u);
  Graph isolated = Graph::FromEdges(3, std::vector<Edge>{});
  const ComponentExtractor three(isolated);
  ASSERT_EQ(three.NumComponents(), 3u);
  for (Vertex c = 0; c < 3; ++c) {
    const Graph sub = three.Extract(c);
    EXPECT_EQ(sub.NumVertices(), 1u);
    EXPECT_EQ(sub.NumEdges(), 0u);
  }
}

TEST(VertexRenamingTest, BuildRenamingIsMonotone) {
  const std::vector<uint8_t> keep = {1, 0, 1, 1, 0, 0, 1};
  const VertexRenaming ren = BuildRenaming(keep);
  EXPECT_EQ(ren.kept, (std::vector<Vertex>{0, 2, 3, 6}));
  EXPECT_EQ(ren.to_new[0], 0u);
  EXPECT_EQ(ren.to_new[1], kInvalidVertex);
  EXPECT_EQ(ren.to_new[2], 1u);
  EXPECT_EQ(ren.to_new[3], 2u);
  EXPECT_EQ(ren.to_new[6], 3u);
}

TEST(EdgeIdLimitTest, OverflowIsDiagnosable) {
  // 2^32-1 directed edges no longer fit 32-bit ids; the error must name
  // the offending count (the limit itself is unreachable with test-sized
  // graphs, hence the exposed checker).
  EXPECT_NO_THROW(CheckEdgeIdsFit32Bits((1ull << 32) - 2));
  try {
    CheckEdgeIdsFit32Bits(9876543210ull);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("9876543210"), std::string::npos) << what;
    EXPECT_NE(what.find("32-bit"), std::string::npos) << what;
  }
}

TEST(ReverseEdgeIndexTest, MirrorsAreInvolution) {
  Graph g = ErdosRenyiGnm(40, 120, /*seed=*/5);
  auto rev = ReverseEdgeIndex(g.RawOffsets(), g.RawNeighbors());
  for (Vertex v = 0; v < g.NumVertices(); ++v) {
    for (uint64_t e = g.EdgeBegin(v); e < g.EdgeEnd(v); ++e) {
      const uint32_t r = rev[e];
      EXPECT_EQ(rev[r], e);
      EXPECT_EQ(g.EdgeTarget(r), v);
    }
  }
}

TEST(ReverseEdgeIndexTest, PointsToMirrorSlotOnRandomGraphs) {
  const Graph graphs[] = {ErdosRenyiGnp(300, 0.03, /*seed=*/1),
                          ChungLuPowerLaw(2000, 2.1, 6.0, /*seed=*/2),
                          ChungLuPowerLaw(1500, 3.5, 10.0, /*seed=*/3),
                          StarGraph(40), Graph::FromEdges(6, std::vector<Edge>{})};
  for (const Graph& g : graphs) {
    const std::vector<uint32_t> rev = ReverseEdgeIndex(g.RawOffsets(), g.RawNeighbors());
    ASSERT_EQ(rev.size(), 2 * g.NumEdges());
    for (Vertex v = 0; v < g.NumVertices(); ++v) {
      for (uint64_t e = g.EdgeBegin(v); e < g.EdgeEnd(v); ++e) {
        const Vertex w = g.EdgeTarget(e);
        const uint32_t r = rev[e];
        ASSERT_GE(r, g.EdgeBegin(w));
        ASSERT_LT(r, g.EdgeEnd(w));
        EXPECT_EQ(g.EdgeTarget(r), v);
        EXPECT_EQ(rev[r], e);
      }
    }
  }
}

// |N(u) ∩ N(v)| for every slot (u, v), by merging the two sorted lists.
std::vector<uint32_t> BruteForceTriangleCounts(const Graph& g) {
  std::vector<uint32_t> delta(2 * g.NumEdges());
  for (Vertex u = 0; u < g.NumVertices(); ++u) {
    for (uint64_t e = g.EdgeBegin(u); e < g.EdgeEnd(u); ++e) {
      const auto nu = g.Neighbors(u);
      const auto nv = g.Neighbors(g.EdgeTarget(e));
      std::vector<Vertex> common;
      std::set_intersection(nu.begin(), nu.end(), nv.begin(), nv.end(),
                            std::back_inserter(common));
      delta[e] = static_cast<uint32_t>(common.size());
    }
  }
  return delta;
}

// Hub 0 joined to every vertex of the cycle 1..rim.
Graph WheelGraph(Vertex rim) {
  std::vector<Edge> edges;
  for (Vertex i = 1; i <= rim; ++i) {
    edges.emplace_back(0, i);
    edges.emplace_back(i, i == rim ? 1 : i + 1);
  }
  return Graph::FromEdges(rim + 1, edges);
}

TEST(TriangleCountsTest, MatchesBruteForceOnGraphFamilies) {
  std::vector<std::pair<std::string, Graph>> graphs;
  for (uint64_t seed : {1, 2, 3}) {
    graphs.emplace_back("gnp", ErdosRenyiGnp(250, 0.06, seed));
    graphs.emplace_back("chunglu-2.1", ChungLuPowerLaw(3000, 2.1, 8.0, seed));
    graphs.emplace_back("chunglu-3.5", ChungLuPowerLaw(2000, 3.5, 12.0, seed));
  }
  graphs.emplace_back("star", StarGraph(60));
  graphs.emplace_back("wheel", WheelGraph(25));
  graphs.emplace_back("wheel3", WheelGraph(3));  // K4
  graphs.emplace_back("clique", CompleteGraph(14));
  graphs.emplace_back("isolated", Graph::FromEdges(12, std::vector<Edge>{
                                                           {2, 5}, {5, 7}, {2, 7}, {7, 9}, {9, 11}}));
  graphs.emplace_back("edgeless", Graph::FromEdges(7, std::vector<Edge>{}));
  graphs.emplace_back("empty", Graph());
  for (const auto& [name, g] : graphs) {
    EXPECT_EQ(EdgeTriangleCounts(g), BruteForceTriangleCounts(g)) << name;
  }
}

// Total triangles: each is counted once per directed edge of its three
// edges.
uint64_t TriangleTotal(const Graph& g) {
  uint64_t total = 0;
  for (uint32_t d : EdgeTriangleCounts(g)) total += d;
  return total / 6;
}

TEST(TriangleCountsTest, TriangleGraph) {
  Graph g = CompleteGraph(3);
  auto delta = EdgeTriangleCounts(g);
  for (uint32_t d : delta) EXPECT_EQ(d, 1u);
  EXPECT_EQ(TriangleTotal(g), 1u);
}

TEST(TriangleCountsTest, CompleteGraphCounts) {
  // K5: every edge is in 3 triangles; total C(5,3) = 10.
  Graph g = CompleteGraph(5);
  auto delta = EdgeTriangleCounts(g);
  for (uint32_t d : delta) EXPECT_EQ(d, 3u);
  EXPECT_EQ(TriangleTotal(g), 10u);
}

TEST(TriangleCountsTest, TriangleFreeGraph) {
  Graph g = CompleteBipartite(4, 5);
  EXPECT_EQ(TriangleTotal(g), 0u);
  Graph p = PathGraph(20);
  EXPECT_EQ(TriangleTotal(p), 0u);
}

TEST(TriangleCountsTest, MatchesBruteForceOnRandomGraph) {
  Graph g = ErdosRenyiGnm(30, 120, /*seed=*/11);
  auto delta = EdgeTriangleCounts(g);
  for (Vertex u = 0; u < g.NumVertices(); ++u) {
    auto un = g.Neighbors(u);
    for (size_t i = 0; i < un.size(); ++i) {
      const Vertex v = un[i];
      uint32_t expect = 0;
      for (Vertex w : un) {
        if (w != v && g.HasEdge(w, v)) ++expect;
      }
      EXPECT_EQ(delta[g.EdgeBegin(u) + i], expect) << u << "-" << v;
    }
  }
}

TEST(CoreDecompositionTest, CliqueCores) {
  Graph g = CompleteGraph(6);
  CoreDecomposition cd = ComputeCores(g);
  EXPECT_EQ(cd.degeneracy, 5u);
  for (uint32_t c : cd.core) EXPECT_EQ(c, 5u);
}

TEST(CoreDecompositionTest, TreeIsOneDegenerate) {
  Graph g = BinaryTree(31);
  CoreDecomposition cd = ComputeCores(g);
  EXPECT_EQ(cd.degeneracy, 1u);
  EXPECT_EQ(cd.order.size(), 31u);
}

TEST(CoreDecompositionTest, MixedCores) {
  // Triangle (2-core) with a pendant path (1-core).
  Graph g = Graph::FromEdges(5, std::vector<Edge>{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}});
  CoreDecomposition cd = ComputeCores(g);
  EXPECT_EQ(cd.core[0], 2u);
  EXPECT_EQ(cd.core[1], 2u);
  EXPECT_EQ(cd.core[2], 2u);
  EXPECT_EQ(cd.core[3], 1u);
  EXPECT_EQ(cd.core[4], 1u);
}

TEST(DegreeStatsTest, Basic) {
  Graph g = StarGraph(4);
  DegreeStats s = ComputeDegreeStats(g);
  EXPECT_EQ(s.min_degree, 1u);
  EXPECT_EQ(s.max_degree, 4u);
  EXPECT_DOUBLE_EQ(s.avg_degree, 8.0 / 5.0);
  EXPECT_EQ(s.num_degree_le2, 4u);
}

TEST(ClusteringTest, Extremes) {
  // A clique closes every wedge: δ(u,v) = d(u) - 1 on every edge. A
  // bipartite graph or a path closes none.
  const Graph clique = CompleteGraph(6);
  for (uint32_t d : EdgeTriangleCounts(clique)) EXPECT_EQ(d, 4u);
  for (const Graph& open : {CompleteBipartite(3, 4), PathGraph(5)}) {
    for (uint32_t d : EdgeTriangleCounts(open)) EXPECT_EQ(d, 0u);
  }
  EXPECT_TRUE(EdgeTriangleCounts(Graph()).empty());
}

TEST(ClusteringTest, TriangleWithTail) {
  // Triangle + pendant: the triangle's edges lie on one triangle each, the
  // pendant edge on none.
  Graph g = Graph::FromEdges(4, std::vector<Edge>{{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  const std::vector<uint32_t> delta = EdgeTriangleCounts(g);
  for (Vertex u = 0; u < g.NumVertices(); ++u) {
    for (uint64_t e = g.EdgeBegin(u); e < g.EdgeEnd(u); ++e) {
      const bool tail = u == 3 || g.EdgeTarget(e) == 3;
      EXPECT_EQ(delta[e], tail ? 0u : 1u) << u << "-" << g.EdgeTarget(e);
    }
  }
}

TEST(ClusteringTest, PlantedCoreAddsTriangles) {
  // The planted cliques must add a visible triangle surplus over the pure
  // Chung-Lu graph.
  Graph pure = ChungLuPowerLaw(20000, 2.1, 6.0, 3);
  Graph cored = PowerLawWithCore(20000, 2.1, 6.0, 4000, 6.0, 3);
  EXPECT_GT(TriangleTotal(cored), TriangleTotal(pure) + 500);
}

}  // namespace
}  // namespace rpmis
