#include "mis/lp_reduction.h"

#include <gtest/gtest.h>

#include "exact/brute_force.h"
#include "graph/generators.h"
#include "mis/near_linear.h"
#include "mis/verify.h"
#include "test_util.h"

namespace rpmis {
namespace {

using ::rpmis::testing::ScopedThreads;

TEST(HopcroftKarpTest, PerfectMatchingOnBipartite) {
  // K_{3,3}: matching 3.
  const std::vector<uint64_t> offsets{0, 3, 6, 9};
  const std::vector<Vertex> targets{0, 1, 2, 0, 1, 2, 0, 1, 2};
  EXPECT_EQ(HopcroftKarpMatching(3, offsets, targets), 3u);
}

TEST(HopcroftKarpTest, AugmentingPathNeeded) {
  // Greedy alone can mis-match this: L0-{R0}, L1-{R0,R1}.
  const std::vector<uint64_t> offsets{0, 1, 3};
  const std::vector<Vertex> targets{0, 0, 1};
  std::vector<Vertex> ml, mr;
  EXPECT_EQ(HopcroftKarpMatching(2, offsets, targets, &ml, &mr), 2u);
  EXPECT_EQ(ml[0], 0u);
  EXPECT_EQ(ml[1], 1u);
}

TEST(HopcroftKarpTest, MatchingIsConsistent) {
  // A graph's CSR read as the left side of its bipartite double cover.
  Graph g = ErdosRenyiGnm(40, 80, /*seed=*/17);
  std::vector<Vertex> ml, mr;
  HopcroftKarpMatching(40, g.RawOffsets(), g.RawNeighbors(), &ml, &mr);
  for (Vertex l = 0; l < 40; ++l) {
    if (ml[l] != kInvalidVertex) {
      EXPECT_EQ(mr[ml[l]], l);
    }
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
    EXPECT_EQ(HopcroftKarpMatching(n, g.RawOffsets(), g.RawNeighbors(), &ml, &mr),
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

// The LP prepass (its parallel Hopcroft–Karp BFS), and NearLinear end to
// end through it, must be byte-identical at any thread count.

TEST(ParallelLpReduction, ByteIdenticalAcrossThreadCounts) {
  // Parallel level-synchronous BFS inside Hopcroft–Karp must leave every
  // LP-reduction output — matching size, include/exclude sets — identical
  // to the serial pass (dist[] is canonical regardless of expansion order).
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
