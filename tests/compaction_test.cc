// Compaction-engine tests: renaming primitives, byte-identical
// differential runs of NearLinear (compaction on at several thresholds vs
// off), serial-vs-parallel equivalence of the LP prepass and of NearLinear
// end to end, and the O(n + m) total-work regression guarding against
// quadratic re-mapping. The other solvers never compact;
// golden_outputs_test pins their outputs.
#include "mis/compaction.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"
#include "localsearch/boosted.h"
#include "mis/bdone.h"
#include "mis/bdtwo.h"
#include "mis/kernelizer.h"
#include "mis/linear_time.h"
#include "mis/lp_reduction.h"
#include "mis/near_linear.h"
#include "mis/solution.h"
#include "mis/verify.h"
#include "test_util.h"

namespace rpmis {
namespace {

using ::rpmis::testing::DifferentialGraphs;

// Pins RPMIS_THREADS for a scope and restores the previous value.
class ScopedThreads {
 public:
  explicit ScopedThreads(const char* value) {
    const char* old = std::getenv("RPMIS_THREADS");
    if (old != nullptr) saved_ = old;
    had_value_ = old != nullptr;
    setenv("RPMIS_THREADS", value, 1);
  }
  ~ScopedThreads() {
    if (had_value_) {
      setenv("RPMIS_THREADS", saved_.c_str(), 1);
    } else {
      unsetenv("RPMIS_THREADS");
    }
  }

 private:
  std::string saved_;
  bool had_value_ = false;
};

// ---------------------------------------------------------------------------
// Renaming primitives.

TEST(CompactionPrimitives, BuildRenamingIsMonotone) {
  const std::vector<uint8_t> keep = {1, 0, 1, 1, 0, 0, 1};
  const VertexRenaming ren = BuildRenaming(keep);
  EXPECT_EQ(ren.kept, (std::vector<Vertex>{0, 2, 3, 6}));
  EXPECT_EQ(ren.to_new[0], 0u);
  EXPECT_EQ(ren.to_new[1], kInvalidVertex);
  EXPECT_EQ(ren.to_new[2], 1u);
  EXPECT_EQ(ren.to_new[3], 2u);
  EXPECT_EQ(ren.to_new[6], 3u);
}

TEST(CompactionPrimitives, ComposeToOrigStacks) {
  // First layer: identity over 6, keep {0,2,4,5}; second: keep {1,3} of 4.
  std::vector<Vertex> to_orig(6);
  std::iota(to_orig.begin(), to_orig.end(), Vertex{0});
  const VertexRenaming first = BuildRenaming(std::vector<uint8_t>{1, 0, 1, 0, 1, 1});
  ComposeToOrig(first, &to_orig);
  EXPECT_EQ(to_orig, (std::vector<Vertex>{0, 2, 4, 5}));
  const VertexRenaming second = BuildRenaming(std::vector<uint8_t>{0, 1, 0, 1});
  ComposeToOrig(second, &to_orig);
  EXPECT_EQ(to_orig, (std::vector<Vertex>{2, 5}));
}

TEST(CompactionPrimitives, RemapWorklistPreservesOrderDropsDead) {
  const VertexRenaming ren = BuildRenaming(std::vector<uint8_t>{1, 0, 1, 1});
  std::vector<Vertex> wl = {3, 1, 0, 2, 1, 3};
  RemapWorklist(ren, &wl);
  EXPECT_EQ(wl, (std::vector<Vertex>{2, 0, 1, 2}));
}

TEST(CompactionPrimitives, CompactCsrPreservesSlotOrder) {
  // 0 - 1 - 2 - 3 plus chord 0-2; drop vertex 1.
  const Graph g = Graph::FromEdges(
      4, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}, {0, 2}});
  const VertexRenaming ren = BuildRenaming(std::vector<uint8_t>{1, 0, 1, 1});
  std::vector<uint64_t> offsets;
  std::vector<Vertex> adj;
  std::vector<uint32_t> slot_map;
  CompactionStats stats;
  CompactCsr(ren, g.RawOffsets(), g.RawNeighbors(), &offsets, &adj, &slot_map,
             &stats);
  ASSERT_EQ(offsets.size(), 4u);
  // New 0 = old 0: neighbours were {1, 2}; slot for dead 1 dropped.
  EXPECT_EQ(adj[offsets[0]], 1u);
  EXPECT_EQ(offsets[1] - offsets[0], 1u);
  // New 1 = old 2: neighbours were {0, 1, 3} -> {0, 2} in new ids.
  EXPECT_EQ(offsets[2] - offsets[1], 2u);
  EXPECT_EQ(adj[offsets[1]], 0u);
  EXPECT_EQ(adj[offsets[1] + 1], 2u);
  // New 2 = old 3: neighbour {2} -> {1}.
  EXPECT_EQ(offsets[3] - offsets[2], 1u);
  EXPECT_EQ(adj[offsets[2]], 1u);
  EXPECT_EQ(stats.vertices_scanned, 4u);
  // Only kept vertices' lists are walked: deg(0) + deg(2) + deg(3).
  EXPECT_EQ(stats.slots_scanned, 6u);
  EXPECT_EQ(stats.vertices_kept, 3u);
  EXPECT_EQ(stats.slots_kept, 4u);
}

// ---------------------------------------------------------------------------
// Differential: compaction on (three thresholds) vs off.

void ExpectIdenticalModuloCompaction(const MisSolution& on,
                                     const MisSolution& off,
                                     const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(on.in_set, off.in_set);
  EXPECT_EQ(on.size, off.size);
  EXPECT_EQ(on.peeled, off.peeled);
  EXPECT_EQ(on.residual_peeled, off.residual_peeled);
  EXPECT_EQ(on.kernel_vertices, off.kernel_vertices);
  EXPECT_EQ(on.kernel_edges, off.kernel_edges);
  EXPECT_EQ(on.provably_maximum, off.provably_maximum);
  EXPECT_EQ(on.rules.degree_zero, off.rules.degree_zero);
  EXPECT_EQ(on.rules.degree_one, off.rules.degree_one);
  EXPECT_EQ(on.rules.degree_two_isolation, off.rules.degree_two_isolation);
  EXPECT_EQ(on.rules.degree_two_folding, off.rules.degree_two_folding);
  EXPECT_EQ(on.rules.degree_two_path, off.rules.degree_two_path);
  EXPECT_EQ(on.rules.dominance, off.rules.dominance);
  EXPECT_EQ(on.rules.one_pass_dominance, off.rules.one_pass_dominance);
  EXPECT_EQ(on.rules.lp, off.rules.lp);
  EXPECT_EQ(on.rules.peels, off.rules.peels);
  EXPECT_EQ(off.compaction.compactions, 0u);
}

constexpr double kThresholds[] = {0.9, 0.5, 0.1};

CompactionOptions Aggressive(double threshold) {
  CompactionOptions copts;
  copts.enabled = true;
  copts.threshold = threshold;
  copts.min_vertices = 1;
  return copts;
}

TEST(CompactionDifferential, NearLinear) {
  for (const auto& [name, g] : DifferentialGraphs()) {
    NearLinearOptions off_opts;
    off_opts.compaction.enabled = false;
    const MisSolution off = RunNearLinear(g, nullptr, off_opts);
    EXPECT_TRUE(IsMaximalIndependentSet(g, off.in_set));
    for (double t : kThresholds) {
      NearLinearOptions on_opts;
      on_opts.compaction = Aggressive(t);
      const MisSolution on = RunNearLinear(g, nullptr, on_opts);
      ExpectIdenticalModuloCompaction(on, off,
                                      name + " t=" + std::to_string(t));
    }
  }
}

// NearLinear with the prepasses ablated exercises the main loop (and its
// mid-run rebuilds) on the full instance rather than the prepass kernel.
TEST(CompactionDifferential, NearLinearCoreOnly) {
  const Graph g = ChungLuPowerLaw(5000, 2.5, 6.0, 19);
  NearLinearOptions off_opts;
  off_opts.one_pass_dominance = false;
  off_opts.lp_reduction = false;
  off_opts.compaction.enabled = false;
  const MisSolution off = RunNearLinear(g, nullptr, off_opts);
  for (double t : kThresholds) {
    NearLinearOptions on_opts = off_opts;
    on_opts.compaction = Aggressive(t);
    const MisSolution on = RunNearLinear(g, nullptr, on_opts);
    ExpectIdenticalModuloCompaction(on, off, "t=" + std::to_string(t));
    if (t >= 0.9) {
      EXPECT_GT(on.compaction.compactions, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
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

// ---------------------------------------------------------------------------
// Total-work regression: under geometric thresholds the rebuilds' own work
// stays O(n + m) for the whole run — no quadratic re-mapping.

TEST(CompactionWork, TotalRebuildWorkIsLinear) {
  const Vertex n = 100000;
  const uint64_t m = 300000;
  const Graph g = ErdosRenyiGnm(n, m, 31);
  // Without the prepasses the core runs on the whole instance.
  NearLinearOptions opts;
  opts.one_pass_dominance = false;
  opts.lp_reduction = false;
  opts.compaction.threshold = 0.5;
  opts.compaction.min_vertices = 1;
  const MisSolution sol = RunNearLinear(g, nullptr, opts);
  EXPECT_GE(sol.compaction.compactions, 3u);
  // Each rebuild scans the previous build, and active counts halve between
  // builds, so the sums form (at worst) a geometric series: a small
  // constant times the instance size bounds them. 4x leaves slack for the
  // first full-size rebuild plus rounding; a quadratic regression would
  // overshoot by orders of magnitude.
  EXPECT_LE(sol.compaction.vertices_scanned, 4u * static_cast<uint64_t>(n));
  EXPECT_LE(sol.compaction.slots_scanned, 4u * 2u * m);
  EXPECT_LT(sol.compaction.vertices_kept, sol.compaction.vertices_scanned);
}

// Aggressive-threshold NearLinear next to every other solver on one
// graph: catches mapping bugs in seconds without the 10M-edge bench.
TEST(CompactionWork, AggressiveSmokeAllAlgorithms) {
  const Graph g = ChungLuPowerLaw(3000, 2.5, 6.0, 37);
  const MisSolution a = RunBDOne(g);
  EXPECT_TRUE(IsMaximalIndependentSet(g, a.in_set));
  const MisSolution b = RunBDTwo(g);
  EXPECT_TRUE(IsMaximalIndependentSet(g, b.in_set));
  const MisSolution c = RunLinearTime(g);
  EXPECT_TRUE(IsMaximalIndependentSet(g, c.in_set));
  NearLinearOptions nl;
  nl.compaction = Aggressive(0.95);
  const MisSolution d = RunNearLinear(g, nullptr, nl);
  EXPECT_TRUE(IsMaximalIndependentSet(g, d.in_set));
  Kernelizer k(g);
  k.Run();
  const std::vector<uint8_t> lifted =
      k.Lift(std::vector<uint8_t>(k.Kernel().NumVertices(), 0));
  EXPECT_TRUE(IsIndependentSet(g, lifted));
}

// ARW-NL iterates on the kernel snapshot NearLinear extracts from its
// compacted working graph; the mapping stack makes that lossless, so the
// snapshot and the base solution equal those of a run without compaction.
TEST(CompactionDifferential, BoostedArwKernelSnapshot) {
  const Graph g = ChungLuPowerLaw(4000, 2.5, 6.0, 23);
  BoostedOptions opts;
  opts.time_limit_seconds = 0.02;
  const BoostedResult a = RunBoostedArw(g, BoostKind::kNearLinear, opts);
  NearLinearOptions off;
  off.compaction.enabled = false;
  KernelSnapshot snap;
  const MisSolution b = RunNearLinear(g, &snap, off);
  EXPECT_EQ(a.base.in_set, b.in_set);
  EXPECT_EQ(a.base.size, b.size);
  EXPECT_EQ(a.kernel_vertices, snap.kernel.NumVertices());
  EXPECT_EQ(a.kernel_edges, snap.kernel.NumEdges());
  EXPECT_GT(a.base.compaction.compactions, 0u);
  EXPECT_EQ(b.compaction.compactions, 0u);
  EXPECT_TRUE(IsMaximalIndependentSet(g, a.in_set));
}

}  // namespace
}  // namespace rpmis
