#include <gtest/gtest.h>

#include "baselines/du.h"
#include "exact/brute_force.h"
#include "graph/generators.h"
#include "localsearch/arw.h"
#include "localsearch/boosted.h"
#include "localsearch/online_mis.h"
#include "localsearch/redumis.h"
#include "mis/near_linear.h"
#include "mis/verify.h"
#include "test_util.h"

namespace rpmis {
namespace {

ArwOptions FastArw(uint64_t seed) {
  ArwOptions o;
  o.time_limit_seconds = 0.2;
  o.seed = seed;
  return o;
}

TEST(ArwTest, ImprovesEmptyInitialToMaximal) {
  Graph g = ErdosRenyiGnm(100, 250, /*seed=*/1);
  ArwResult r = RunArw(g, std::vector<uint8_t>(100, 0), FastArw(1));
  EXPECT_TRUE(IsMaximalIndependentSet(g, r.in_set));
  EXPECT_GT(r.size, 0u);
  EXPECT_FALSE(r.history.empty());
}

TEST(ArwTest, NeverShrinksTheIncumbent) {
  Graph g = ChungLuPowerLaw(500, 2.2, 4.0, /*seed=*/2);
  MisSolution du = RunDU(g);
  ArwResult r = RunArw(g, du.in_set, FastArw(2));
  EXPECT_GE(r.size, du.size);
  for (size_t i = 1; i < r.history.size(); ++i) {
    EXPECT_GT(r.history[i].size, r.history[i - 1].size);
  }
}

TEST(ArwTest, FindsOptimaOnSmallGraphs) {
  // (1,2)-swaps plus perturbation should find alpha on easy instances.
  for (uint64_t seed = 0; seed < 5; ++seed) {
    Graph g = ErdosRenyiGnm(20, 40, seed);
    ArwOptions o = FastArw(seed);
    o.max_iterations = 2000;
    ArwResult r = RunArw(g, std::vector<uint8_t>(20, 0), o);
    EXPECT_EQ(r.size, BruteForceAlpha(g)) << "seed " << seed;
  }
}

TEST(ArwTest, OneTwoSwapFiresOnTightTriangleFan) {
  // Solution = {centre}; two non-adjacent 1-tight neighbours exist, so
  // the first local-search pass must grow the solution.
  Graph g = StarGraph(4);
  std::vector<uint8_t> initial(5, 0);
  initial[0] = 1;  // the hub
  ArwOptions o = FastArw(3);
  o.max_iterations = 0;  // local search only
  ArwResult r = RunArw(g, initial, o);
  EXPECT_EQ(r.size, 4u);  // all leaves
}

TEST(ArwTest, RespectsIterationBudget) {
  Graph g = CycleGraph(50);
  ArwOptions o = FastArw(4);
  o.max_iterations = 7;
  ArwResult r = RunArw(g, std::vector<uint8_t>(50, 0), o);
  EXPECT_EQ(r.iterations, 7u);
}

TEST(OnlineMisTest, ValidAndAtLeastDu) {
  Graph g = ChungLuPowerLaw(2000, 2.1, 4.0, /*seed=*/7);
  OnlineMisOptions o;
  o.time_limit_seconds = 0.2;
  ArwResult r = RunOnlineMis(g, o);
  EXPECT_TRUE(IsMaximalIndependentSet(g, r.in_set));
  EXPECT_GE(r.size, RunDU(g).size);
}

TEST(ReduMisTest, ValidAndStrong) {
  Graph g = ChungLuPowerLaw(2000, 2.1, 4.0, /*seed=*/8);
  ReduMisOptions o;
  o.time_limit_seconds = 0.3;
  ArwResult r = RunReduMis(g, o);
  EXPECT_TRUE(IsMaximalIndependentSet(g, r.in_set));
  // Full kernelization alone should essentially solve this power-law
  // instance; require at least DU quality plus slack.
  EXPECT_GE(r.size, RunDU(g).size);
}

class BoostedTest : public ::testing::TestWithParam<BoostKind> {};

TEST_P(BoostedTest, LiftedSolutionsAreValidAndAtLeastBase) {
  for (uint64_t seed : {11ULL, 12ULL}) {
    Graph g = ChungLuPowerLaw(3000, 2.0, 6.0, seed);
    BoostedOptions o;
    o.time_limit_seconds = 0.2;
    o.seed = seed;
    BoostedResult r = RunBoostedArw(g, GetParam(), o);
    EXPECT_TRUE(IsMaximalIndependentSet(g, r.in_set));
    EXPECT_GE(r.size, r.base.size);
    EXPECT_FALSE(r.history.empty());
    // Kernel must be (much) smaller than the graph.
    EXPECT_LT(r.kernel_vertices, g.NumVertices());
  }
}

TEST_P(BoostedTest, WorksWhenKernelIsEmpty) {
  // Trees kernelize away entirely: the boosted run must degrade cleanly
  // to the base algorithm's (optimal) answer.
  Graph g = BinaryTree(63);
  BoostedOptions o;
  o.time_limit_seconds = 0.05;
  BoostedResult r = RunBoostedArw(g, GetParam(), o);
  EXPECT_EQ(r.size, BruteForceAlpha(g));
  EXPECT_EQ(r.kernel_vertices, 0u);
}

// ARW-NL's base solution and the kernel it iterates on are exactly those
// of a plain RunNearLinear with a snapshot capture.
TEST(BoostedArwTest, NearLinearBaseAndKernelMatchRunNearLinear) {
  const Graph g = ChungLuPowerLaw(4000, 2.5, 6.0, 23);
  BoostedOptions opts;
  opts.time_limit_seconds = 0.02;
  const BoostedResult a = RunBoostedArw(g, BoostKind::kNearLinear, opts);
  KernelSnapshot snap;
  const MisSolution b = RunNearLinear(g, &snap);
  EXPECT_EQ(a.base.in_set, b.in_set);
  EXPECT_EQ(a.base.size, b.size);
  EXPECT_EQ(a.kernel_vertices, snap.kernel.NumVertices());
  EXPECT_EQ(a.kernel_edges, snap.kernel.NumEdges());
  EXPECT_TRUE(IsMaximalIndependentSet(g, a.in_set));
}

TEST_P(BoostedTest, DenseKernelGetsImproved) {
  // A graph whose kernel survives: random 3-regular-ish Gnm.
  Graph g = ErdosRenyiGnm(500, 1500, /*seed=*/13);
  BoostedOptions o;
  o.time_limit_seconds = 0.3;
  BoostedResult r = RunBoostedArw(g, GetParam(), o);
  EXPECT_TRUE(IsMaximalIndependentSet(g, r.in_set));
  EXPECT_GT(r.kernel_vertices, 0u);
  EXPECT_GE(r.size, r.base.size);
}

TEST(ArwTest, ExclusionMaskIsRespected) {
  // OnlineMIS-style cutting: excluded vertices must never be inserted by
  // the search, even when free. Star hub excluded, leaves empty start:
  // the leaves join, the hub cannot.
  Graph g = StarGraph(6);
  ArwOptions o = FastArw(21);
  o.max_iterations = 50;
  o.excluded.assign(7, 0);
  o.excluded[0] = 1;  // the hub
  ArwResult r = RunArw(g, std::vector<uint8_t>(7, 0), o);
  EXPECT_EQ(r.in_set[0], 0);
  EXPECT_EQ(r.size, 6u);

  // Conversely, excluding all the leaves forces the hub.
  ArwOptions o2 = FastArw(22);
  o2.max_iterations = 50;
  o2.excluded.assign(7, 1);
  o2.excluded[0] = 0;
  ArwResult r2 = RunArw(g, std::vector<uint8_t>(7, 0), o2);
  EXPECT_EQ(r2.in_set[0], 1);
  EXPECT_EQ(r2.size, 1u);
}

TEST(ArwTest, ExcludedInitialVerticesAreKept) {
  // An excluded vertex present in the INITIAL solution stays eligible;
  // exclusion only bars (re)insertion.
  Graph g = PathGraph(3);
  std::vector<uint8_t> initial{0, 1, 0};  // middle vertex in
  ArwOptions o = FastArw(23);
  o.max_iterations = 0;
  o.excluded.assign(3, 1);
  ArwResult r = RunArw(g, initial, o);
  EXPECT_EQ(r.in_set[1], 1);
  EXPECT_EQ(r.size, 1u);
}

INSTANTIATE_TEST_SUITE_P(BothKinds, BoostedTest,
                         ::testing::Values(BoostKind::kLinearTime,
                                           BoostKind::kNearLinear),
                         [](const auto& info) {
                           return info.param == BoostKind::kLinearTime
                                      ? std::string("ARW_LT")
                                      : std::string("ARW_NL");
                         });

}  // namespace
}  // namespace rpmis
