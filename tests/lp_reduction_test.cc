#include "mis/lp_reduction.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "exact/brute_force.h"
#include "graph/generators.h"
#include "mis/near_linear.h"
#include "mis/upper_bounds.h"
#include "mis/verify.h"
#include "support/random.h"
#include "test_util.h"

namespace rpmis {
namespace {

using ::rpmis::testing::ScopedThreads;

TEST(MaximumMatchingTest, PerfectMatchingOnBipartite) {
  // K_{3,3}: matching 3.
  const std::vector<uint64_t> offsets{0, 3, 6, 9};
  const std::vector<Vertex> targets{0, 1, 2, 0, 1, 2, 0, 1, 2};
  EXPECT_EQ(MaximumMatching(3, offsets, targets), 3u);
}

TEST(MaximumMatchingTest, AugmentingPathNeeded) {
  // Greedy alone can mis-match this: L0-{R0}, L1-{R0,R1}.
  const std::vector<uint64_t> offsets{0, 1, 3};
  const std::vector<Vertex> targets{0, 0, 1};
  std::vector<Vertex> ml, mr;
  EXPECT_EQ(MaximumMatching(2, offsets, targets, &ml, &mr), 2u);
  EXPECT_EQ(ml[0], 0u);
  EXPECT_EQ(ml[1], 1u);
}

TEST(MaximumMatchingTest, MatchingIsConsistent) {
  // A graph's CSR read as the left side of its bipartite double cover.
  Graph g = ErdosRenyiGnm(40, 80, /*seed=*/17);
  std::vector<Vertex> ml, mr;
  MaximumMatching(40, g.RawOffsets(), g.RawNeighbors(), &ml, &mr);
  for (Vertex l = 0; l < 40; ++l) {
    if (ml[l] != kInvalidVertex) {
      EXPECT_EQ(mr[ml[l]], l);
    }
  }
}

// Kuhn's augmenting-path matching: one DFS per left vertex, O(n·m).
uint64_t KuhnMatching(const Graph& g) {
  const Vertex n = g.NumVertices();
  std::vector<Vertex> mr(n, kInvalidVertex);
  std::vector<Vertex> seen(n, kInvalidVertex);  // left root of the last visit
  auto augment = [&](auto&& self, Vertex l, Vertex root) -> bool {
    for (Vertex r : g.Neighbors(l)) {
      if (seen[r] == root) continue;
      seen[r] = root;
      if (mr[r] == kInvalidVertex || self(self, mr[r], root)) {
        mr[r] = l;
        return true;
      }
    }
    return false;
  };
  uint64_t size = 0;
  for (Vertex l = 0; l < n; ++l) size += augment(augment, l, l);
  return size;
}

TEST(MaximumMatchingTest, MatchesKuhnReference) {
  for (const auto& [name, g] : ::rpmis::testing::DifferentialGraphs()) {
    EXPECT_EQ(MaximumMatching(g.NumVertices(), g.RawOffsets(), g.RawNeighbors()),
              KuhnMatching(g))
        << name;
  }
}

TEST(LpReductionTest, BipartiteGraphFullyResolved) {
  // On a bipartite graph the LP is integral: no half variables, and the
  // include side is a maximum independent set.
  Graph g = CompleteBipartite(3, 5);
  LpReduction lp = SolveLpReduction(g);
  EXPECT_EQ(lp.num_half, 0u);
  EXPECT_EQ(lp.num_include, 5u);
  EXPECT_EQ(lp.num_exclude, 3u);
  EXPECT_TRUE(IsIndependentSet(g, lp.include));
}

TEST(LpReductionTest, OddCycleIsAllHalf) {
  // C5 has LP optimum 5/2, all-half; nothing can be fixed.
  Graph g = CycleGraph(5);
  LpReduction lp = SolveLpReduction(g);
  EXPECT_EQ(lp.num_half, 5u);
  EXPECT_EQ(lp.num_include, 0u);
  EXPECT_EQ(lp.num_exclude, 0u);
  EXPECT_EQ(lp.Bound(5), 2u);  // floor(5/2) >= alpha = 2
}

TEST(LpReductionTest, IncludeNeighborsAreExcluded) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Graph g = ErdosRenyiGnm(40, 60, seed);
    LpReduction lp = SolveLpReduction(g);
    EXPECT_TRUE(IsIndependentSet(g, lp.include));
    for (Vertex v = 0; v < g.NumVertices(); ++v) {
      if (!lp.include[v]) continue;
      for (Vertex w : g.Neighbors(v)) {
        EXPECT_TRUE(lp.exclude[w]) << v << "->" << w;
      }
    }
  }
}

TEST(LpReductionTest, NemhauserTrotterPersistency) {
  // alpha(G) = num_include + alpha(G[half]) for every instance.
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Graph g = ErdosRenyiGnm(20, 30 + 2 * seed, seed);
    LpReduction lp = SolveLpReduction(g);
    std::vector<Vertex> half;
    for (Vertex v = 0; v < g.NumVertices(); ++v) {
      if (!lp.include[v] && !lp.exclude[v]) half.push_back(v);
    }
    Graph kernel = g.InducedSubgraph(half);
    EXPECT_EQ(BruteForceAlpha(g), lp.num_include + BruteForceAlpha(kernel))
        << "seed " << seed;
  }
}

TEST(LpReductionTest, BoundDominatesAlpha) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Graph g = ErdosRenyiGnm(24, 50, seed + 100);
    LpReduction lp = SolveLpReduction(g);
    EXPECT_GE(lp.Bound(g.NumVertices()), BruteForceAlpha(g));
  }
}

// The LP solution certifies itself: x (include = 1, half = 1/2,
// exclude = 0) is feasible, and a matching M of the double cover bounds
// every feasible x by Σx <= n - |M|/2 (each matched pair (u_L, v_R) is an
// edge, so y_u + y_v >= 1 for y = 1 - x, and each vertex is in at most two
// pairs). Equality with the returned matching proves x optimal.
TEST(LpReductionTest, SolutionMeetsMatchingBound) {
  for (const auto& [name, g] : ::rpmis::testing::DifferentialGraphs()) {
    SCOPED_TRACE(name);
    const Vertex n = g.NumVertices();
    const LpReduction lp = SolveLpReduction(g);
    EXPECT_EQ(lp.num_include + lp.num_exclude + lp.num_half, n);
    for (Vertex v = 0; v < n; ++v) {
      EXPECT_FALSE(lp.include[v] && lp.exclude[v]) << v;
      for (Vertex w : g.Neighbors(v)) {
        // x_v + x_w <= 1: an included vertex sees only excluded ones, a
        // half vertex no included one.
        if (lp.include[v]) {
          EXPECT_TRUE(lp.exclude[w]) << v << "->" << w;
        } else if (!lp.exclude[v]) {
          EXPECT_FALSE(lp.include[w]) << v << "->" << w;
        }
      }
    }
    EXPECT_EQ(2 * lp.num_include + lp.num_half, 2 * uint64_t{n} - lp.matching);

    std::vector<Vertex> ml, mr;
    EXPECT_EQ(MaximumMatching(n, g.RawOffsets(), g.RawNeighbors(), &ml, &mr),
              lp.matching);
    uint64_t matched = 0;
    for (Vertex l = 0; l < n; ++l) {
      if (ml[l] == kInvalidVertex) continue;
      ++matched;
      EXPECT_EQ(mr[ml[l]], l);
      EXPECT_TRUE(g.HasEdge(l, ml[l])) << l << "-" << ml[l];
    }
    EXPECT_EQ(matched, lp.matching);
  }
}

// A path whose greedy matching leaves augmenting paths about n long:
// v_0 is labelled n-1 and v_i is labelled i-1, so greedy pairs 2k with
// 2k+1 and leaves n-2 and n-1 free at the far ends. A recursive search
// would need a call frame per path vertex.
TEST(LpReductionTest, DeepAugmentingPathNoRecursion) {
  const Vertex n = 4'000'000;
  std::vector<Edge> edges;
  edges.reserve(n - 1);
  edges.emplace_back(n - 1, Vertex{0});
  for (Vertex i = 0; i + 2 < n; ++i) edges.emplace_back(i, i + 1);
  const Graph g = Graph::FromEdges(n, edges);

  const LpReduction lp = SolveLpReduction(g);
  EXPECT_EQ(lp.matching, n);
  EXPECT_EQ(lp.num_half, n);
  EXPECT_EQ(LpUpperBound(g), n / 2);

  NearLinearOptions options;
  options.one_pass_dominance = false;
  const MisSolution sol = RunNearLinear(g, nullptr, options);
  EXPECT_TRUE(IsIndependentSet(g, sol.in_set));
  EXPECT_EQ(sol.size, n / 2);
}

// The LP classification is canonical, so relabelling the graph must only
// relabel include/exclude. Each graph takes one matcher path, checked on
// the phase counts of the original labelling.
Graph Relabelled(const Graph& g, const std::vector<Vertex>& to) {
  std::vector<Edge> edges;
  for (Vertex v = 0; v < g.NumVertices(); ++v) {
    for (Vertex w : g.Neighbors(v)) {
      if (v < w) edges.emplace_back(to[v], to[w]);
    }
  }
  return Graph::FromEdges(g.NumVertices(), edges);
}

Graph StarForest(Vertex stars, Vertex leaves) {
  std::vector<Edge> edges;
  for (Vertex s = 0; s < stars; ++s) {
    const Vertex centre = s * (leaves + 1);
    for (Vertex i = 1; i <= leaves; ++i) edges.emplace_back(centre, centre + i);
  }
  return Graph::FromEdges(stars * (leaves + 1), edges);
}

TEST(LpReductionTest, CanonicalUnderRelabelling) {
  enum class Path { kLookaheadOnly, kHandOver, kNoAugmentingPhase };
  struct Case {
    const char* name;
    Graph g;
    Path path;
  };
  const Case cases[] = {
      {"chung-lu-3.5", ChungLuPowerLaw(20000, 3.5, 20.0, 3), Path::kLookaheadOnly},
      {"gnm-d3", ErdosRenyiGnm(20000, 30000, 1), Path::kHandOver},
      {"chung-lu-2.5", ChungLuPowerLaw(40000, 2.5, 12.0, 1), Path::kHandOver},
      {"star-forest", StarForest(50, 6), Path::kNoAugmentingPhase},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const Vertex n = c.g.NumVertices();
    const LpReduction lp = SolveLpReduction(c.g);
    switch (c.path) {
      case Path::kLookaheadOnly:
        EXPECT_EQ(lp.matching, n);
        EXPECT_GT(lp.lookahead_phases, 0u);
        EXPECT_EQ(lp.hk_phases, 0u);
        break;
      case Path::kHandOver:
        EXPECT_GT(lp.lookahead_phases, 0u);
        EXPECT_GT(lp.hk_phases, 0u);
        break;
      case Path::kNoAugmentingPhase:
        EXPECT_EQ(lp.lookahead_phases, 1u);
        EXPECT_EQ(lp.hk_phases, 0u);
        break;
    }
    for (uint64_t seed : {1, 2}) {
      std::vector<Vertex> to(n);
      std::iota(to.begin(), to.end(), Vertex{0});
      Rng rng(seed);
      std::shuffle(to.begin(), to.end(), rng);
      const LpReduction relabelled = SolveLpReduction(Relabelled(c.g, to));
      EXPECT_EQ(relabelled.matching, lp.matching);
      EXPECT_EQ(relabelled.num_include, lp.num_include);
      EXPECT_EQ(relabelled.num_exclude, lp.num_exclude);
      for (Vertex v = 0; v < n; ++v) {
        ASSERT_EQ(relabelled.include[to[v]], lp.include[v]) << v;
        ASSERT_EQ(relabelled.exclude[to[v]], lp.exclude[v]) << v;
      }
    }
  }
}

// The LP prepass and NearLinear end to end through it must be
// byte-identical at any thread count.

TEST(ParallelLpReduction, ByteIdenticalAcrossThreadCounts) {
  // The matcher is serial; every LP-reduction output — matching size,
  // include/exclude sets — must still not depend on RPMIS_THREADS.
  const Graph graphs[] = {ErdosRenyiGnm(6000, 30000, 13),
                          ChungLuPowerLaw(8000, 2.5, 8.0, 15),
                          PowerLawWithCore(5000, 2.5, 6.0, 200, 20.0, 19)};
  for (const Graph& g : graphs) {
    LpReduction serial;
    {
      ScopedThreads pin("1");
      serial = SolveLpReduction(g);
    }
    EXPECT_GT(serial.matching, 0u);
    for (const char* threads : {"2", "8"}) {
      ScopedThreads pin(threads);
      const LpReduction parallel = SolveLpReduction(g);
      EXPECT_EQ(parallel.matching, serial.matching) << threads;
      EXPECT_EQ(parallel.include, serial.include) << threads;
      EXPECT_EQ(parallel.exclude, serial.exclude) << threads;
      EXPECT_EQ(parallel.num_include, serial.num_include) << threads;
      EXPECT_EQ(parallel.num_exclude, serial.num_exclude) << threads;
      EXPECT_EQ(parallel.num_half, serial.num_half) << threads;
    }
  }
}

TEST(ParallelDominance, NearLinearEndToEndAcrossThreadCounts) {
  const Graph g = ChungLuPowerLaw(10000, 2.5, 8.0, 29);
  MisSolution serial;
  {
    ScopedThreads pin("1");
    serial = RunNearLinear(g);
  }
  for (const char* threads : {"2", "8"}) {
    ScopedThreads pin(threads);
    const MisSolution parallel = RunNearLinear(g);
    EXPECT_EQ(parallel.in_set, serial.in_set) << threads;
    EXPECT_EQ(parallel.rules.one_pass_dominance,
              serial.rules.one_pass_dominance)
        << threads;
    EXPECT_EQ(parallel.rules.lp, serial.rules.lp) << threads;
  }
}

}  // namespace
}  // namespace rpmis
