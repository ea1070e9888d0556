#include "mis/kernelizer.h"

#include <gtest/gtest.h>

#include "exact/brute_force.h"
#include "graph/generators.h"
#include "mis/verify.h"
#include "support/random.h"
#include "test_util.h"

namespace rpmis {
namespace {

// Core exactness property: alpha(G) == offset + alpha(kernel), and any
// optimal kernel solution lifts to an optimal full solution.
void CheckExactness(const Graph& g, const KernelizerOptions& opts) {
  Kernelizer kern(g, opts);
  kern.Run();
  const Graph& kernel = kern.Kernel();
  ASSERT_LE(kernel.NumVertices(), 64u) << "fixture too hard to verify";
  const uint64_t alpha = BruteForceAlpha(g);
  const uint64_t kernel_alpha = BruteForceAlpha(kernel);
  EXPECT_EQ(alpha, kern.AlphaOffset() + kernel_alpha);

  const std::vector<uint8_t> kernel_mis = BruteForceMis(kernel);
  const std::vector<uint8_t> lifted = kern.Lift(kernel_mis);
  EXPECT_TRUE(IsIndependentSet(g, lifted));
  uint64_t size = 0;
  for (uint8_t f : lifted) size += f;
  EXPECT_EQ(size, alpha);
}

TEST(KernelizerTest, SolvesTreesCompletely) {
  const Graph tree = BinaryTree(31);
  Kernelizer kern(tree);
  kern.Run();
  EXPECT_EQ(kern.Kernel().NumVertices(), 0u);
  EXPECT_EQ(kern.AlphaOffset(), BruteForceAlpha(tree));
}

TEST(KernelizerTest, PaperFigures) {
  for (const Graph& g :
       {testing::PaperFigure1(), testing::PaperFigure1Modified(),
        testing::PaperFigure2(), testing::PaperFigure5()}) {
    CheckExactness(g, {});
  }
}

TEST(KernelizerTest, RandomGraphsAllRules) {
  for (uint64_t seed = 0; seed < 12; ++seed) {
    CheckExactness(ErdosRenyiGnm(26, 40 + 2 * seed, seed), {});
  }
}

TEST(KernelizerTest, RandomGraphsDegreeRulesOnly) {
  KernelizerOptions opts;
  opts.dominance = opts.twin = opts.unconfined = opts.lp = false;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    CheckExactness(ErdosRenyiGnm(24, 36, seed), opts);
  }
}

TEST(KernelizerTest, RandomGraphsNoFolding) {
  KernelizerOptions opts;
  opts.degree_two = false;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    CheckExactness(ErdosRenyiGnm(24, 44, seed), opts);
  }
}

TEST(KernelizerTest, DominanceCracksModifiedFigure1) {
  KernelizerOptions opts;
  opts.degree_two = false;
  opts.twin = opts.unconfined = opts.lp = false;
  Graph g = testing::PaperFigure1Modified();
  Kernelizer kern(g, opts);
  kern.Run();
  EXPECT_GE(kern.Rules().dominance, 1u);
  CheckExactness(g, opts);
}

TEST(KernelizerTest, FoldChainResolvesCorrectly) {
  // A long even path folds repeatedly; lifting must reproduce alpha.
  CheckExactness(PathGraph(12), {});
  KernelizerOptions fold_only;
  fold_only.degree_one = true;
  fold_only.dominance = fold_only.twin = fold_only.unconfined = fold_only.lp = false;
  CheckExactness(PathGraph(12), fold_only);
  CheckExactness(CycleGraph(9), fold_only);
}

TEST(KernelizerTest, CliqueKernelIsReduced) {
  // K6: the dominance rule alone collapses a clique to one vertex.
  const Graph clique = CompleteGraph(6);
  Kernelizer kern(clique);
  kern.Run();
  EXPECT_EQ(kern.AlphaOffset() + BruteForceAlpha(kern.Kernel()), 1u);
}

TEST(KernelizerTest, Theorem31GadgetFullyKernelized) {
  // The gadget is built from degree-1/2-reducible structure; the full rule
  // set should leave (at most) a trivial kernel.
  const Graph gadget = Theorem31Gadget(16);
  Kernelizer kern(gadget);
  kern.Run();
  EXPECT_LE(kern.Kernel().NumVertices(), 8u);
}

TEST(KernelizerTest, RulesCountersPopulated) {
  Graph g = ChungLuPowerLaw(2000, 2.1, 3.0, /*seed=*/5);
  Kernelizer kern(g);
  kern.Run();
  EXPECT_GT(kern.Rules().TotalExact(), 0u);
}

TEST(KernelizerTest, LiftOfEmptyKernelSolutionIsValid) {
  Graph g = ErdosRenyiGnm(30, 45, /*seed=*/3);
  Kernelizer kern(g);
  kern.Run();
  std::vector<uint8_t> none(kern.Kernel().NumVertices(), 0);
  std::vector<uint8_t> lifted = kern.Lift(none);
  EXPECT_TRUE(IsIndependentSet(g, lifted));
}

TEST(KernelizerTest, UnconfinedRuleFiresInIsolation) {
  // v = 0 is unconfined: its neighbour u = 1 satisfies N(u) ⊆ N[v]
  // (a null extender), so some maximum IS avoids v. With every other
  // rule disabled, only the unconfined test can remove anything.
  Graph g = Graph::FromEdges(
      6, std::vector<Edge>{{0, 1}, {0, 2}, {1, 2}, {0, 3}, {3, 4}, {3, 5},
                           {4, 5}});
  KernelizerOptions opts;
  opts.degree_one = opts.degree_two = false;
  opts.dominance = opts.twin = opts.lp = false;
  Kernelizer kern(g, opts);
  kern.Run();
  EXPECT_GE(kern.Rules().unconfined, 1u);
  CheckExactness(g, opts);
}

TEST(KernelizerTest, TwinWithInnerEdgeTakesBoth) {
  // u=0, v=1 twins over {2,3,4} with edge (2,3): u and v join I.
  Graph g = Graph::FromEdges(
      8, std::vector<Edge>{{0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3}, {1, 4},
                           {2, 3}, {2, 5}, {3, 6}, {4, 7}, {5, 6}, {6, 7}});
  KernelizerOptions opts;
  opts.dominance = opts.unconfined = opts.lp = false;
  opts.degree_one = opts.degree_two = false;  // isolate the twin pass
  Kernelizer kern(g, opts);
  kern.Run();
  EXPECT_GE(kern.Rules().twin, 2u);
  CheckExactness(g, opts);
}

TEST(KernelizerTest, TwinFoldWithoutInnerEdge) {
  // u=0, v=1 twins over pairwise NON-adjacent {2,3,4}: the fold variant
  // fires and the lift must recover alpha either way the supervertex goes.
  Graph g = Graph::FromEdges(
      11, std::vector<Edge>{{0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3}, {1, 4},
                            {2, 5}, {2, 6}, {3, 7}, {3, 8}, {4, 9}, {4, 10},
                            {5, 6}, {7, 8}, {9, 10}, {5, 7}, {7, 9}});
  KernelizerOptions opts;
  opts.dominance = opts.unconfined = opts.lp = false;
  opts.degree_one = opts.degree_two = false;  // isolate the twin pass
  Kernelizer kern(g, opts);
  kern.Run();
  EXPECT_GE(kern.Rules().twin, 2u);
  // Full-rule and isolated-rule runs must both stay exact.
  ASSERT_LE(kern.Kernel().NumVertices(), 64u);
  EXPECT_EQ(BruteForceAlpha(g),
            kern.AlphaOffset() + BruteForceAlpha(kern.Kernel()));
  const std::vector<uint8_t> lifted = kern.Lift(BruteForceMis(kern.Kernel()));
  EXPECT_TRUE(IsIndependentSet(g, lifted));
  uint64_t size = 0;
  for (uint8_t f : lifted) size += f;
  EXPECT_EQ(size, BruteForceAlpha(g));
  CheckExactness(g, {});
}

TEST(KernelizerTest, TwinFoldStressRandomized) {
  // Random graphs seeded with deliberate twin structures; the full rule
  // set must remain exact through chained folds.
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(seed);
    GraphBuilder b(30);
    // Random background edges.
    for (int e = 0; e < 25; ++e) {
      Vertex x = static_cast<Vertex>(rng.NextBounded(30));
      Vertex y = static_cast<Vertex>(rng.NextBounded(30));
      if (x != y) b.AddEdge(x, y);
    }
    // Two planted twin pairs over disjoint triples.
    for (Vertex base : {0u, 10u}) {
      for (Vertex n = 2; n < 5; ++n) {
        b.AddEdge(base, base + n);
        b.AddEdge(base + 1, base + n);
      }
    }
    Graph g = b.Build();
    // Planted twins may be perturbed by background edges; exactness is
    // the invariant, twin firing is incidental.
    CheckExactness(g, {});
  }
}

}  // namespace
}  // namespace rpmis
