#include "graph/adjacency_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/generators.h"
#include "support/random.h"

namespace rpmis {
namespace {

std::set<Vertex> NeighborSet(const AdjacencyGraph& g, Vertex v) {
  auto n = g.NeighborsOf(v);
  return {n.begin(), n.end()};
}

TEST(AdjacencyGraphTest, MirrorsInitialGraph) {
  Graph g = ErdosRenyiGnm(40, 100, /*seed=*/1);
  AdjacencyGraph dyn(g);
  EXPECT_EQ(dyn.NumAliveVertices(), g.NumVertices());
  EXPECT_EQ(dyn.NumAliveEdges(), g.NumEdges());
  // Fresh lists hold the neighbours in descending id order.
  for (Vertex v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(dyn.Degree(v), g.Degree(v));
    auto nb = g.Neighbors(v);
    EXPECT_EQ(dyn.NeighborsOf(v), std::vector<Vertex>(nb.rbegin(), nb.rend()));
  }
}

TEST(AdjacencyGraphTest, RemoveVertexUpdatesBothSides) {
  Graph g = Graph::FromEdges(4, std::vector<Edge>{{0, 1}, {0, 2}, {1, 2}, {2, 3}});
  AdjacencyGraph dyn(g);
  std::vector<Vertex> touched;
  dyn.RemoveVertex(2, &touched);
  EXPECT_FALSE(dyn.IsAlive(2));
  EXPECT_EQ(dyn.NumAliveEdges(), 1u);
  EXPECT_EQ(dyn.Degree(0), 1u);
  EXPECT_EQ(dyn.Degree(1), 1u);
  EXPECT_EQ(dyn.Degree(3), 0u);
  std::sort(touched.begin(), touched.end());
  EXPECT_EQ(touched, (std::vector<Vertex>{0, 1, 3}));
  EXPECT_TRUE(dyn.HasEdge(0, 1));
  EXPECT_FALSE(dyn.HasEdge(0, 2));
}

TEST(AdjacencyGraphTest, ContractMergesNeighborhoods) {
  // 0-1, 0-2, 1-3, 2-3, 2-4. Contract 1 into 2:
  // N(2) becomes {0, 3, 4}; edge (1,3) re-points; duplicate (x,2) drops.
  Graph g =
      Graph::FromEdges(5, std::vector<Edge>{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {2, 4}});
  AdjacencyGraph dyn(g);
  std::vector<Vertex> touched;
  dyn.ContractInto(1, 2, &touched);
  EXPECT_FALSE(dyn.IsAlive(1));
  EXPECT_EQ(NeighborSet(dyn, 2), (std::set<Vertex>{0, 3, 4}));
  EXPECT_EQ(dyn.Degree(2), 3u);
  EXPECT_EQ(dyn.Degree(0), 1u);  // lost the duplicate edge to 1
  EXPECT_EQ(dyn.Degree(3), 1u);  // edge re-pointed, degree unchanged
  EXPECT_EQ(dyn.NumAliveEdges(), 3u);
}

TEST(AdjacencyGraphTest, ContractRemovesEdgeBetweenPair) {
  Graph g = Graph::FromEdges(3, std::vector<Edge>{{0, 1}, {1, 2}, {0, 2}});
  AdjacencyGraph dyn(g);
  dyn.ContractInto(0, 1, nullptr);
  EXPECT_EQ(NeighborSet(dyn, 1), (std::set<Vertex>{2}));
  EXPECT_EQ(dyn.Degree(2), 1u);
  EXPECT_EQ(dyn.NumAliveEdges(), 1u);
}

// Randomized model check: a long random sequence of removals and
// contractions must agree with a naive set-based reference model.
TEST(AdjacencyGraphTest, RandomOperationsMatchReferenceModel) {
  const Vertex n = 60;
  Graph g = ErdosRenyiGnm(n, 180, /*seed=*/99);
  AdjacencyGraph dyn(g);
  std::vector<std::set<Vertex>> model(n);
  for (Vertex v = 0; v < n; ++v) {
    auto nb = g.Neighbors(v);
    model[v] = {nb.begin(), nb.end()};
  }
  std::vector<uint8_t> alive(n, 1);
  Rng rng(123);
  for (int step = 0; step < 50; ++step) {
    // Pick two distinct alive vertices.
    std::vector<Vertex> pool;
    for (Vertex v = 0; v < n; ++v) {
      if (alive[v]) pool.push_back(v);
    }
    if (pool.size() < 2) break;
    const Vertex a = pool[rng.NextBounded(pool.size())];
    Vertex b = a;
    while (b == a) b = pool[rng.NextBounded(pool.size())];

    if (rng.NextBool(0.5)) {
      dyn.RemoveVertex(a, nullptr);
      alive[a] = 0;
      for (Vertex w : model[a]) model[w].erase(a);
      model[a].clear();
    } else {
      dyn.ContractInto(a, b, nullptr);
      alive[a] = 0;
      for (Vertex w : model[a]) {
        model[w].erase(a);
        if (w != b) {
          model[w].insert(b);
          model[b].insert(w);
        }
      }
      model[a].clear();
      model[b].erase(a);
    }
    uint64_t model_edges = 0;
    for (Vertex v = 0; v < n; ++v) {
      if (!alive[v]) continue;
      ASSERT_EQ(dyn.Degree(v), model[v].size()) << "vertex " << v;
      ASSERT_EQ(NeighborSet(dyn, v), model[v]) << "vertex " << v;
      model_edges += model[v].size();
    }
    ASSERT_EQ(dyn.NumAliveEdges(), model_edges / 2);
  }
}

TEST(AdjacencyGraphTest, InsertEdgeBasics) {
  Graph g = Graph::FromEdges(4, std::vector<Edge>{{0, 1}});
  AdjacencyGraph dyn(g);
  EXPECT_TRUE(dyn.InsertEdge(1, 2));
  EXPECT_TRUE(dyn.HasEdge(1, 2));
  EXPECT_TRUE(dyn.HasEdge(2, 1));
  EXPECT_EQ(dyn.Degree(1), 2u);
  EXPECT_EQ(dyn.Degree(2), 1u);
  EXPECT_EQ(dyn.NumAliveEdges(), 2u);
  // Duplicate insert is a no-op in either direction.
  EXPECT_FALSE(dyn.InsertEdge(1, 2));
  EXPECT_FALSE(dyn.InsertEdge(2, 1));
  EXPECT_EQ(dyn.NumAliveEdges(), 2u);
}

TEST(AdjacencyGraphTest, RemoveEdgeUnlinksBothSides) {
  Graph g = Graph::FromEdges(3, std::vector<Edge>{{0, 1}, {1, 2}, {0, 2}});
  AdjacencyGraph dyn(g);
  EXPECT_TRUE(dyn.RemoveEdge(0, 1));
  EXPECT_FALSE(dyn.HasEdge(0, 1));
  EXPECT_FALSE(dyn.HasEdge(1, 0));
  EXPECT_EQ(dyn.Degree(0), 1u);
  EXPECT_EQ(dyn.Degree(1), 1u);
  EXPECT_EQ(dyn.NumAliveEdges(), 2u);
  EXPECT_FALSE(dyn.RemoveEdge(0, 1));  // already gone
  // The freed half-edge pair is recycled by the next insertion.
  EXPECT_TRUE(dyn.InsertEdge(0, 1));
  EXPECT_EQ(NeighborSet(dyn, 0), (std::set<Vertex>{1, 2}));
  EXPECT_EQ(dyn.NumAliveEdges(), 3u);
}

TEST(AdjacencyGraphTest, InsertEdgeRevivesDeletedEndpoints) {
  Graph g = Graph::FromEdges(4, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}});
  AdjacencyGraph dyn(g);
  dyn.RemoveVertex(1, nullptr);
  EXPECT_FALSE(dyn.IsAlive(1));
  EXPECT_TRUE(dyn.InsertEdge(1, 3));
  EXPECT_TRUE(dyn.IsAlive(1));
  EXPECT_EQ(NeighborSet(dyn, 1), (std::set<Vertex>{3}));
  EXPECT_EQ(NeighborSet(dyn, 3), (std::set<Vertex>{1, 2}));
  EXPECT_EQ(dyn.NumAliveVertices(), 4u);
  EXPECT_EQ(dyn.NumAliveEdges(), 2u);
}

TEST(AdjacencyGraphTest, InsertEdgeAfterContract) {
  // Contract 1 into 2, then wire an edge back onto the contracted-away id:
  // 1 must come back as an isolated vertex plus the new edge.
  Graph g =
      Graph::FromEdges(5, std::vector<Edge>{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {2, 4}});
  AdjacencyGraph dyn(g);
  dyn.ContractInto(1, 2, nullptr);
  EXPECT_FALSE(dyn.IsAlive(1));
  EXPECT_TRUE(dyn.InsertEdge(1, 4));
  EXPECT_TRUE(dyn.IsAlive(1));
  EXPECT_EQ(NeighborSet(dyn, 1), (std::set<Vertex>{4}));
  EXPECT_EQ(NeighborSet(dyn, 4), (std::set<Vertex>{1, 2}));
  // The contraction result is untouched.
  EXPECT_EQ(NeighborSet(dyn, 2), (std::set<Vertex>{0, 3, 4}));
}

TEST(AdjacencyGraphTest, AddVertexGrowsUniverse) {
  Graph g = Graph::FromEdges(2, std::vector<Edge>{{0, 1}});
  AdjacencyGraph dyn(g);
  const Vertex id = dyn.AddVertex();
  EXPECT_EQ(id, 2u);
  EXPECT_EQ(dyn.NumVertices(), 3u);
  EXPECT_TRUE(dyn.IsAlive(id));
  EXPECT_EQ(dyn.Degree(id), 0u);
  EXPECT_TRUE(dyn.InsertEdge(id, 0));
  EXPECT_EQ(NeighborSet(dyn, id), (std::set<Vertex>{0}));
  EXPECT_EQ(dyn.NumAliveEdges(), 2u);
}

// Randomized model check over the full mutation vocabulary: removals,
// contractions, edge inserts/deletes, vertex additions and revivals
// against a set-based reference model. After every step ToGraph() must
// equal the CSR that Graph::FromEdges builds from the model's edges.
TEST(AdjacencyGraphTest, RandomMutationsMatchReferenceModel) {
  Graph g = ErdosRenyiGnm(40, 80, /*seed=*/7);
  AdjacencyGraph dyn(g);
  std::vector<std::set<Vertex>> model(g.NumVertices());
  for (Vertex v = 0; v < g.NumVertices(); ++v) {
    auto nb = g.Neighbors(v);
    model[v] = {nb.begin(), nb.end()};
  }
  std::vector<uint8_t> alive(g.NumVertices(), 1);
  Rng rng(2024);
  for (int step = 0; step < 300; ++step) {
    const Vertex n = static_cast<Vertex>(model.size());
    const Vertex a = static_cast<Vertex>(rng.NextBounded(n));
    Vertex b = a;
    while (b == a) b = static_cast<Vertex>(rng.NextBounded(n));
    switch (rng.NextBounded(6)) {
      case 0: {  // insert edge (revives dead endpoints)
        const bool fresh = model[a].insert(b).second;
        model[b].insert(a);
        alive[a] = alive[b] = 1;
        EXPECT_EQ(dyn.InsertEdge(a, b), fresh);
        break;
      }
      case 1: {  // remove edge
        const bool present = alive[a] && alive[b] && model[a].count(b) != 0;
        EXPECT_EQ(dyn.RemoveEdge(a, b), present);
        model[a].erase(b);
        model[b].erase(a);
        break;
      }
      case 2: {  // remove vertex
        if (!alive[a]) break;
        dyn.RemoveVertex(a, nullptr);
        alive[a] = 0;
        for (Vertex w : model[a]) model[w].erase(a);
        model[a].clear();
        break;
      }
      case 3: {  // add vertex
        const Vertex id = dyn.AddVertex();
        EXPECT_EQ(id, n);
        model.emplace_back();
        alive.push_back(1);
        break;
      }
      case 4: {  // contract a into b (both must be alive)
        if (!alive[a] || !alive[b]) break;
        dyn.ContractInto(a, b, nullptr);
        alive[a] = 0;
        for (Vertex w : model[a]) {
          model[w].erase(a);
          if (w != b) {
            model[w].insert(b);
            model[b].insert(w);
          }
        }
        model[a].clear();
        model[b].erase(a);
        break;
      }
      case 5:  // revive (no-op on an alive vertex)
        dyn.ReviveVertex(a);
        alive[a] = 1;
        break;
    }
    ASSERT_EQ(dyn.NumVertices(), model.size());
    std::vector<Edge> model_edges;
    for (Vertex v = 0; v < model.size(); ++v) {
      ASSERT_EQ(dyn.IsAlive(v), alive[v] != 0) << "vertex " << v;
      if (!alive[v]) continue;
      ASSERT_EQ(dyn.Degree(v), model[v].size()) << "vertex " << v;
      ASSERT_EQ(NeighborSet(dyn, v), model[v]) << "vertex " << v;
      for (Vertex w : model[v]) {
        if (v < w) model_edges.emplace_back(v, w);
      }
    }
    ASSERT_EQ(dyn.NumAliveEdges(), model_edges.size());
    const Graph expect = Graph::FromEdges(static_cast<Vertex>(model.size()), model_edges);
    const Graph snap = dyn.ToGraph();
    ASSERT_TRUE(std::ranges::equal(snap.RawOffsets(), expect.RawOffsets()))
        << "step " << step;
    ASSERT_TRUE(std::ranges::equal(snap.RawNeighbors(), expect.RawNeighbors()))
        << "step " << step;
  }
}

// Each vertex's halves fill its CSR slice in list order, and twins pair
// the two slices of an edge.
TEST(AdjacencyGraphTest, HalvesFillOwnerSlicesWithExplicitTwins) {
  Graph g = ErdosRenyiGnm(80, 300, /*seed=*/5);
  AdjacencyGraph dyn(g);
  EXPECT_EQ(dyn.HalfPoolSize(), 2 * g.NumEdges());
  std::vector<Vertex> owner(dyn.HalfPoolSize(), kInvalidVertex);
  std::vector<Vertex> target(dyn.HalfPoolSize(), kInvalidVertex);
  for (Vertex v = 0; v < g.NumVertices(); ++v) {
    uint64_t expect = g.EdgeBegin(v);
    dyn.ForEachHalf(v, [&](uint32_t h, Vertex w) {
      EXPECT_EQ(h, expect++) << "vertex " << v;
      owner[h] = v;
      target[h] = w;
    });
    EXPECT_EQ(expect, g.EdgeEnd(v));
  }
  for (uint32_t h = 0; h < dyn.HalfPoolSize(); ++h) {
    const uint32_t t = dyn.Twin(h);
    ASSERT_LT(t, dyn.HalfPoolSize());
    EXPECT_NE(t, h);
    EXPECT_EQ(dyn.Twin(t), h);
    EXPECT_EQ(owner[t], target[h]);
    EXPECT_EQ(target[t], owner[h]);
  }
}

// Insertions right after construction draw from the pool's spare capacity
// and then grow it; every half-edge must stay consistent throughout.
TEST(AdjacencyGraphTest, InsertAfterConstructionKeepsHalvesValid) {
  const Graph g = ErdosRenyiGnm(60, 200, /*seed=*/9);
  AdjacencyGraph dyn(g);
  std::vector<std::set<Vertex>> model(g.NumVertices());
  for (Vertex v = 0; v < g.NumVertices(); ++v) {
    model[v].insert(g.Neighbors(v).begin(), g.Neighbors(v).end());
  }
  Rng rng(3);
  uint64_t inserted = 0;
  // 200 edges: past the 1/8 headroom of the 400-half pool.
  while (inserted < 200) {
    const Vertex u = static_cast<Vertex>(rng.NextBounded(g.NumVertices()));
    const Vertex v = static_cast<Vertex>(rng.NextBounded(g.NumVertices()));
    if (u == v || model[u].count(v) != 0) continue;
    ASSERT_TRUE(dyn.InsertEdge(u, v));
    model[u].insert(v);
    model[v].insert(u);
    ++inserted;
    ASSERT_EQ(dyn.HalfPoolSize(), 2 * (g.NumEdges() + inserted));
    std::vector<Vertex> owner(dyn.HalfPoolSize(), kInvalidVertex);
    std::vector<Vertex> target(dyn.HalfPoolSize(), kInvalidVertex);
    for (Vertex x = 0; x < g.NumVertices(); ++x) {
      dyn.ForEachHalf(x, [&](uint32_t h, Vertex w) {
        ASSERT_LT(h, dyn.HalfPoolSize());
        EXPECT_EQ(owner[h], kInvalidVertex) << "half " << h << " in two lists";
        owner[h] = x;
        target[h] = w;
      });
      ASSERT_EQ(NeighborSet(dyn, x), model[x]) << "vertex " << x;
    }
    for (uint32_t h = 0; h < dyn.HalfPoolSize(); ++h) {
      ASSERT_NE(owner[h], kInvalidVertex) << "half " << h << " in no list";
      const uint32_t t = dyn.Twin(h);
      ASSERT_EQ(dyn.Twin(t), h);
      ASSERT_EQ(owner[t], target[h]);
      ASSERT_EQ(target[t], owner[h]);
    }
  }
}

TEST(AdjacencyGraphTest, ToGraphDropsRemovedVertex) {
  Graph g = CycleGraph(5);
  AdjacencyGraph dyn(g);
  dyn.RemoveVertex(0, nullptr);
  const Graph snap = dyn.ToGraph();
  EXPECT_EQ(snap.NumVertices(), 5u);
  EXPECT_EQ(snap.NumEdges(), 3u);
  EXPECT_EQ(snap.Degree(0), 0u);
  EXPECT_EQ(snap.CollectEdges(), (std::vector<Edge>{{1, 2}, {2, 3}, {3, 4}}));
}

}  // namespace
}  // namespace rpmis
