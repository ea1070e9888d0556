// Cross-algorithm property tests for the four Reducing-Peeling algorithms.
//
// Invariants checked on a parameterized sweep of generators/sizes/seeds:
//   * the output is a valid MAXIMAL independent set of the input;
//   * on brute-forceable graphs the size never exceeds alpha;
//   * Theorem 6.1: size + |R| is an upper bound on alpha;
//   * provably_maximum  =>  size == alpha;
//   * a zero peel count certifies optimality (kernelization solved it).
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "exact/brute_force.h"
#include "exact/vc_solver.h"
#include "graph/generators.h"
#include "mis/bdone.h"
#include "mis/bdtwo.h"
#include "mis/linear_time.h"
#include "mis/near_linear.h"
#include "mis/verify.h"
#include "test_util.h"

namespace rpmis {
namespace {

using AlgoFn = std::function<MisSolution(const Graph&)>;

struct AlgoCase {
  std::string name;
  AlgoFn run;
};

const AlgoCase kAlgos[] = {
    {"BDOne", [](const Graph& g) { return RunBDOne(g); }},
    {"BDTwo", [](const Graph& g) { return RunBDTwo(g); }},
    {"LinearTime", [](const Graph& g) { return RunLinearTime(g); }},
    {"NearLinear", [](const Graph& g) { return RunNearLinear(g); }},
    {"NearLinearNoPrepass",
     [](const Graph& g) {
       NearLinearOptions opts;
       opts.one_pass_dominance = false;
       opts.lp_reduction = false;
       return RunNearLinear(g, nullptr, opts);
     }},
};

struct GraphCase {
  std::string name;
  std::function<Graph(uint64_t seed)> make;
  bool brute_forceable;
};

const GraphCase kGraphs[] = {
    {"Empty", [](uint64_t) { return Graph::FromEdges(7, std::vector<Edge>{}); }, true},
    {"SingleEdge", [](uint64_t) { return PathGraph(2); }, true},
    {"Path9", [](uint64_t) { return PathGraph(9); }, true},
    {"Path10", [](uint64_t) { return PathGraph(10); }, true},
    {"Cycle9", [](uint64_t) { return CycleGraph(9); }, true},
    {"Cycle12", [](uint64_t) { return CycleGraph(12); }, true},
    {"Star", [](uint64_t) { return StarGraph(8); }, true},
    {"K6", [](uint64_t) { return CompleteGraph(6); }, true},
    {"K33", [](uint64_t) { return CompleteBipartite(3, 3); }, true},
    {"Grid4x5", [](uint64_t) { return GridGraph(4, 5); }, true},
    {"Tree", [](uint64_t) { return BinaryTree(25); }, true},
    {"Fig1", [](uint64_t) { return testing::PaperFigure1(); }, true},
    {"Fig1Mod", [](uint64_t) { return testing::PaperFigure1Modified(); }, true},
    {"Fig2", [](uint64_t) { return testing::PaperFigure2(); }, true},
    {"Fig5", [](uint64_t) { return testing::PaperFigure5(); }, true},
    {"SparseGnm", [](uint64_t s) { return ErdosRenyiGnm(24, 26, s); }, true},
    {"MediumGnm", [](uint64_t s) { return ErdosRenyiGnm(22, 44, s); }, true},
    {"DenseGnm", [](uint64_t s) { return ErdosRenyiGnm(18, 70, s); }, true},
    {"Gadget", [](uint64_t) { return Theorem31Gadget(8); }, true},
    {"PowerLawSmall", [](uint64_t s) { return ChungLuPowerLaw(30, 2.2, 3.0, s); }, true},
    {"PowerLawLarge",
     [](uint64_t s) { return ChungLuPowerLaw(5000, 2.1, 5.0, s); },
     false},
    {"GnmLarge", [](uint64_t s) { return ErdosRenyiGnm(4000, 6000, s); }, false},
    {"BaLarge", [](uint64_t s) { return BarabasiAlbert(3000, 2, s); }, false},
    {"RMatLarge", [](uint64_t s) { return RMat(11, 12000, 0.57, 0.19, 0.19, s); }, false},
};

struct Combo {
  size_t algo;
  size_t graph;
  uint64_t seed;
};

class ReducingPeelingProperty : public ::testing::TestWithParam<Combo> {};

TEST_P(ReducingPeelingProperty, Invariants) {
  const Combo c = GetParam();
  const AlgoCase& algo = kAlgos[c.algo];
  const GraphCase& gc = kGraphs[c.graph];
  Graph g = gc.make(c.seed);
  MisSolution sol = algo.run(g);

  ASSERT_EQ(sol.in_set.size(), g.NumVertices());
  EXPECT_TRUE(IsMaximalIndependentSet(g, sol.in_set))
      << algo.name << " on " << gc.name;
  uint64_t counted = 0;
  for (uint8_t f : sol.in_set) counted += f;
  EXPECT_EQ(counted, sol.size);
  EXPECT_GE(sol.UpperBound(), sol.size);

  if (gc.brute_forceable && g.NumVertices() <= 40) {
    const uint64_t alpha = BruteForceAlpha(g);
    EXPECT_LE(sol.size, alpha) << algo.name << " on " << gc.name;
    EXPECT_GE(sol.UpperBound(), alpha)
        << algo.name << " on " << gc.name << " (Theorem 6.1)";
    if (sol.provably_maximum) {
      EXPECT_EQ(sol.size, alpha)
          << algo.name << " claimed maximum on " << gc.name;
    }
    if (sol.rules.peels == 0) {
      EXPECT_TRUE(sol.provably_maximum);
      EXPECT_EQ(sol.size, alpha);
    }
  }
}

std::vector<Combo> MakeCombos() {
  std::vector<Combo> out;
  for (size_t a = 0; a < std::size(kAlgos); ++a) {
    for (size_t gi = 0; gi < std::size(kGraphs); ++gi) {
      for (uint64_t seed : {1ULL, 2ULL, 3ULL}) {
        out.push_back({a, gi, seed});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsAllGraphs, ReducingPeelingProperty,
    ::testing::ValuesIn(MakeCombos()), [](const auto& info) {
      const Combo& c = info.param;
      return kAlgos[c.algo].name + "_" + kGraphs[c.graph].name + "_s" +
             std::to_string(c.seed);
    });

// Exactness on structured families where kernelization alone should finish:
// trees, paths, cycles and sparse power-law graphs must be solved without
// any peeling by the degree-two-capable algorithms.
TEST(ReducingPeelingExactness, TreesSolvedWithoutPeeling) {
  for (auto n : {15u, 63u, 127u}) {
    Graph g = BinaryTree(n);
    for (size_t a = 1; a < std::size(kAlgos); ++a) {  // all but BDOne
      MisSolution sol = kAlgos[a].run(g);
      EXPECT_EQ(sol.rules.peels, 0u) << kAlgos[a].name << " n=" << n;
      EXPECT_TRUE(sol.provably_maximum);
    }
  }
}

TEST(ReducingPeelingExactness, BDOneSolvesTreesToo) {
  // Degree-one reduction alone kernelizes any forest.
  Graph g = BinaryTree(127);
  MisSolution sol = RunBDOne(g);
  EXPECT_EQ(sol.rules.peels, 0u);
  EXPECT_TRUE(sol.provably_maximum);
}

TEST(ReducingPeelingExactness, CyclesSolvedExactly) {
  for (auto n : {5u, 6u, 11u, 20u}) {
    Graph g = CycleGraph(n);
    for (const auto& algo : {kAlgos[2], kAlgos[3]}) {  // LinearTime, NearLinear
      MisSolution sol = algo.run(g);
      EXPECT_EQ(sol.size, n / 2) << algo.name << " C_" << n;
      EXPECT_TRUE(sol.provably_maximum) << algo.name << " C_" << n;
    }
  }
}

TEST(ReducingPeelingExactness, LongInducedPathsViaCase3And5) {
  // Two hubs joined by many long paths: exercises path cases 3 and 5
  // (odd/even, attachments non-adjacent) deeply.
  for (uint32_t path_len : {3u, 4u, 5u, 6u}) {
    GraphBuilder b(2 + 4 * path_len);
    Vertex next = 2;
    for (int p = 0; p < 4; ++p) {
      Vertex prev = 0;
      for (uint32_t i = 0; i < path_len; ++i) {
        b.AddEdge(prev, next);
        prev = next++;
      }
      b.AddEdge(prev, 1);
    }
    Graph g = b.Build();
    const uint64_t alpha = BruteForceAlpha(g);
    for (const auto& algo : {kAlgos[2], kAlgos[3]}) {
      MisSolution sol = algo.run(g);
      EXPECT_TRUE(IsMaximalIndependentSet(g, sol.in_set));
      EXPECT_EQ(sol.size, alpha) << algo.name << " len=" << path_len;
    }
  }
}

// Regression: chained path reductions through REWIRED (virtual) edges must
// keep the deferred-replay guarantees. A replay that consults the original
// adjacency instead of the at-removal partners loses the alternating half
// and produces a certified-but-not-maximum solution (found on Chung-Lu
// graphs at n ~ 3000; the certificates are cross-checked against the
// exact solver here).
TEST(ReducingPeelingExactness, CertificatesHoldOnMidSizePowerLaw) {
  for (uint64_t seed = 0; seed < 3; ++seed) {
    Graph g = ChungLuPowerLaw(3000, 2.3, 8.1, seed);
    VcSolverOptions vo;
    vo.time_limit_seconds = 10;
    const VcSolverResult exact = SolveExactMis(g, vo);
    if (!exact.proven_optimal) continue;
    for (size_t a = 0; a < std::size(kAlgos); ++a) {
      MisSolution sol = kAlgos[a].run(g);
      EXPECT_LE(sol.size, exact.size) << kAlgos[a].name << " seed " << seed;
      if (sol.provably_maximum) {
        EXPECT_EQ(sol.size, exact.size)
            << kAlgos[a].name << " certified a non-maximum set, seed " << seed;
      }
    }
  }
}

TEST(ReducingPeelingExactness, CertificatesHoldOnMidSizeRandom) {
  for (uint64_t seed = 0; seed < 3; ++seed) {
    Graph g = ErdosRenyiGnm(5000, 6000, seed + 77);
    VcSolverOptions vo;
    vo.time_limit_seconds = 10;
    const VcSolverResult exact = SolveExactMis(g, vo);
    if (!exact.proven_optimal) continue;
    for (size_t a = 0; a < std::size(kAlgos); ++a) {
      MisSolution sol = kAlgos[a].run(g);
      if (sol.provably_maximum) {
        EXPECT_EQ(sol.size, exact.size) << kAlgos[a].name << " seed " << seed;
      }
    }
  }
}

// LinearTime's peel flags (the dynamic engine's eviction provenance):
// asking for them must not perturb the solve, and they mark exactly the
// peeled vertices F.
TEST(LinearTimePeelFlags, PassingThemDoesNotChangeTheSolution) {
  const Graph g = ChungLuPowerLaw(3000, 2.5, 6.0, /*seed=*/5);
  const MisSolution plain = RunLinearTime(g);
  std::vector<uint8_t> peeled;
  const MisSolution flagged = RunLinearTime(g, nullptr, &peeled);
  EXPECT_EQ(plain.size, flagged.size);
  EXPECT_EQ(plain.in_set, flagged.in_set);
  EXPECT_EQ(peeled.size(), g.NumVertices());
}

TEST(LinearTimePeelFlags, CountMatchesPeelCounter) {
  const Graph g = ErdosRenyiGnp(1000, 8.0 / 1000.0, /*seed=*/3);
  std::vector<uint8_t> peeled;
  const MisSolution sol = RunLinearTime(g, nullptr, &peeled);
  ASSERT_GT(sol.rules.peels, 0u);  // dense enough that peeling fires
  uint64_t flagged = 0;
  for (uint8_t f : peeled) flagged += f;
  EXPECT_EQ(flagged, sol.rules.peels);
}

}  // namespace
}  // namespace rpmis
