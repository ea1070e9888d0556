// Golden outputs of the solvers and the kernelizer: FNV-1a hashes of
// BDOne's, BDTwo's and LinearTime's solutions, BDOne's and LinearTime's
// first-peel KernelSnapshots, and the Kernelizer's kernel, alpha offset and
// lift of a fixed kernel set. The hashes were recorded while these solvers still
// rebuilt their working graph mid-run (and did so on the larger graphs
// here), so they pin the outputs to what every earlier version produced.
// NearLinear's solution and snapshot are pinned the same way, under its
// default options and with each prepass switched off; those hashes were
// recorded while its set-up still went through edge lists
// (kernel, LP double cover) and binary-searched reverse slots. The
// DynamicMisEngine's end state after a fixed update stream is pinned too;
// BDOne's snapshot and the engine pin were recorded while BDOne, LinearTime
// and NearLinear each had their own peel loop and LinearTime still logged
// the engine's peel provenance as a rule-by-rule trace. NearLinear is also
// pinned on two families of its own: planted cliques, where nearly every
// edge lies on a triangle, and a caterpillar of paths, where degree-one
// ends meet the path rule's rewires.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "dynamic/engine.h"
#include "dynamic/update.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "mis/bdone.h"
#include "mis/bdtwo.h"
#include "mis/kernelizer.h"
#include "mis/linear_time.h"
#include "mis/near_linear.h"
#include "mis/solution.h"
#include "test_util.h"

namespace rpmis {
namespace {

using ::rpmis::testing::DifferentialGraphs;

class Fnv1a {
 public:
  void Add(uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (x >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }
  template <typename T>
  void AddAll(std::span<const T> xs) {
    Add(xs.size());
    for (const T& x : xs) Add(static_cast<uint64_t>(x));
  }
  void AddGraph(const Graph& g) {
    Add(g.NumVertices());
    AddAll(g.RawOffsets());
    AddAll(g.RawNeighbors());
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

uint64_t HashSolution(const MisSolution& sol) {
  Fnv1a h;
  h.AddAll(std::span<const uint8_t>(sol.in_set));
  h.Add(sol.size);
  h.Add(sol.peeled);
  h.Add(sol.residual_peeled);
  h.Add(sol.provably_maximum);
  h.Add(sol.kernel_vertices);
  h.Add(sol.kernel_edges);
  h.Add(sol.rules.TotalExact());
  h.Add(sol.rules.peels);
  return h.value();
}

// HashSolution plus every rule counter NearLinear sets.
uint64_t HashNearLinear(const MisSolution& sol) {
  Fnv1a h;
  h.Add(HashSolution(sol));
  h.Add(sol.rules.degree_zero);
  h.Add(sol.rules.degree_two_path);
  h.Add(sol.rules.dominance);
  h.Add(sol.rules.one_pass_dominance);
  h.Add(sol.rules.lp);
  return h.value();
}

uint64_t HashSnapshot(const KernelSnapshot& snap) {
  Fnv1a h;
  h.Add(snap.captured);
  h.AddGraph(snap.kernel);
  h.AddAll(std::span<const Vertex>(snap.kernel_to_orig));
  h.AddAll(std::span<const Vertex>(snap.orig_to_kernel));
  h.AddAll(std::span<const Vertex>(snap.included));
  h.Add(snap.deferred_stack.size());
  for (const DeferredDecision& d : snap.deferred_stack) {
    h.Add(d.v);
    h.Add(d.nb1);
    h.Add(d.nb2);
  }
  return h.value();
}

// Kernel adjacency and id map, alpha offset, and the lift of the greedy
// (increasing-id) independent set of the kernel.
uint64_t HashKernelizer(const Kernelizer& k) {
  const Graph& kernel = k.Kernel();
  std::vector<uint8_t> kis(kernel.NumVertices(), 0);
  for (Vertex v = 0; v < kernel.NumVertices(); ++v) {
    bool free = true;
    for (Vertex w : kernel.Neighbors(v)) {
      if (w < v && kis[w]) {
        free = false;
        break;
      }
    }
    kis[v] = free;
  }
  Fnv1a h;
  h.AddGraph(kernel);
  h.AddAll(std::span<const Vertex>(k.KernelToOrig()));
  h.Add(k.AlphaOffset());
  h.AddAll(std::span<const uint8_t>(k.Lift(kis)));
  return h.value();
}

struct Golden {
  const char* graph;
  uint64_t bdone;
  uint64_t bdone_snapshot;
  uint64_t bdtwo;
  uint64_t lineartime;
  uint64_t lineartime_snapshot;
  uint64_t kernelizer;
};

// DifferentialGraphs() plus two 20k-vertex graphs. BDOne, BDTwo and
// LinearTime rebuilt their working graph 5-9 times on every graph from
// er-3k on; the kernelizer did on er-sparse, powerlaw, plcore and plaw-20k.
std::vector<std::pair<std::string, Graph>> GoldenGraphs() {
  auto graphs = DifferentialGraphs();
  graphs.emplace_back("er-20k", ErdosRenyiGnm(20000, 60000, 41));
  graphs.emplace_back("plaw-20k", ChungLuPowerLaw(20000, 2.1, 8.0, 43));
  return graphs;
}

// Recorded with the mid-run rebuilds on (their default setting).
constexpr Golden kExpected[] = {
    {"fig1",
     0x6108bab5e0e62608ull, 0x061d7747e922980bull,
     0xd3515754cc73b26eull,
     0xd3515754cc73b26eull, 0x057bec519d9a0deaull,
     0x61637a597732f64aull},
    {"fig1mod",
     0xf1e82b21c76f546full, 0x9b9d532a8f65be67ull,
     0x21ddee9546bb7fecull,
     0x21ddee9546bb7fecull, 0x9b9d532a8f65be67ull,
     0xd43f64d95f9ecc69ull},
    {"fig2",
     0xf83075618d53f4c3ull, 0x9a178ca117b6c97eull,
     0xb80bc3366ad08402ull,
     0xb80bc3366ad08402ull, 0xa427fd4c5c787de9ull,
     0xc814397b9d79dee0ull},
    {"fig5",
     0xbfae0d8f07d03b4cull, 0x5e2d743ed0f7641bull,
     0x4ad1a3ca7832b48cull,
     0x9af06b22a0fc12adull, 0xe828bd0d0ef9e0c2ull,
     0xbb009b00fa3f082aull},
    {"er-3k",
     0x3f2331f8197e3cd0ull, 0x82de5ffe695fb7a8ull,
     0x63474d6422696392ull,
     0xa967f45422d5a6d6ull, 0x56388768e5d8d24bull,
     0x6efcf0572f8dc4a8ull},
    {"er-sparse",
     0xb9d8906c47d7ceebull, 0xb9327781aca76456ull,
     0x09d8b8db601f808bull,
     0xb9d8906c47d7ceebull, 0xb9327781aca76456ull,
     0x28cc03985f8cfc3full},
    {"powerlaw",
     0xae45f10c6db15e0full, 0xa051b7bd8cae78cbull,
     0xb633885f832e6d3cull,
     0xbfe99bdd8633a152ull, 0x92307dba61d6795bull,
     0x9be7d2eeebd78497ull},
    {"plcore",
     0xecc8074fe96a7d8eull, 0xbcdf873498f81232ull,
     0x90ba1cef11da812full,
     0xf157c0213a8883f8ull, 0x07ab1e3b19060cdfull,
     0x832b84a7a69bc8ebull},
    {"er-20k",
     0x30b156d5920b1cf4ull, 0x2790ce8a1a8a306full,
     0x540255ee0f40dda0ull,
     0x854b548a2edf7800ull, 0x0f665a005405758full,
     0x10a67ca43f5a4696ull},
    {"plaw-20k",
     0x2c5bd2c8f8f5ba6cull, 0x14a9d3e4550e55f4ull,
     0x1b66ab8a8a91d7ccull,
     0x2c5bd2c8f8f5ba6cull, 0x14a9d3e4550e55f4ull,
     0x8e5ba9944cd07acbull},
};

TEST(GoldenOutputs, TombstoneSolversAndKernelizer) {
  const auto graphs = GoldenGraphs();
  ASSERT_EQ(graphs.size(), std::size(kExpected));
  for (size_t i = 0; i < graphs.size(); ++i) {
    const auto& [name, g] = graphs[i];
    const Golden& want = kExpected[i];
    SCOPED_TRACE(name);
    ASSERT_EQ(name, want.graph);
    Golden got{};
    KernelSnapshot bdone_snap;
    got.bdone = HashSolution(RunBDOne(g, &bdone_snap));
    got.bdone_snapshot = HashSnapshot(bdone_snap);
    got.bdtwo = HashSolution(RunBDTwo(g));
    KernelSnapshot snap;
    got.lineartime = HashSolution(RunLinearTime(g, &snap));
    got.lineartime_snapshot = HashSnapshot(snap);
    Kernelizer k(g);
    k.Run();
    got.kernelizer = HashKernelizer(k);
    EXPECT_EQ(got.bdone, want.bdone);
    EXPECT_EQ(got.bdone_snapshot, want.bdone_snapshot);
    EXPECT_EQ(got.bdtwo, want.bdtwo);
    EXPECT_EQ(got.lineartime, want.lineartime);
    EXPECT_EQ(got.lineartime_snapshot, want.lineartime_snapshot);
    EXPECT_EQ(got.kernelizer, want.kernelizer);
  }
}

// NearLinear under one option set: solution hash, then snapshot hash.
struct NearLinearGolden {
  uint64_t solution;
  uint64_t snapshot;
};

struct NearLinearGoldens {
  const char* graph;
  NearLinearGolden defaults;
  NearLinearGolden no_lp;
  NearLinearGolden no_one_pass;
};

NearLinearGolden RunNearLinearGolden(const Graph& g,
                                     const NearLinearOptions& options) {
  KernelSnapshot snap;
  const MisSolution sol = RunNearLinear(g, &snap, options);
  return {HashNearLinear(sol), HashSnapshot(snap)};
}

// Options: defaults, lp_reduction off, one_pass_dominance off. LP fixes
// vertices on er-sparse, powerlaw, plcore and plaw-20k.
constexpr NearLinearGoldens kNearLinearExpected[] = {
    {"fig1",
     {0x6cce69721d31b2beull, 0x057bec519d9a0deaull},
     {0x6cce69721d31b2beull, 0x057bec519d9a0deaull},
     {0x79094dd60465041full, 0x057bec519d9a0deaull}},
    {"fig1mod",
     {0x8defd35461c82891ull, 0xc71e73e56f62d70dull},
     {0x13482960c6aed81aull, 0xc71e73e56f62d70dull},
     {0xd4165b55fd7a9b93ull, 0xc71e73e56f62d70dull}},
    {"fig2",
     {0xf9eef7f42b07a6cdull, 0xa427fd4c5c787de9ull},
     {0xf9eef7f42b07a6cdull, 0xa427fd4c5c787de9ull},
     {0x00f66e2b663f2acdull, 0xa427fd4c5c787de9ull}},
    {"fig5",
     {0xa7da51d83d28989eull, 0xe49064286cede061ull},
     {0xa7da51d83d28989eull, 0xe49064286cede061ull},
     {0xd849e1f9daa71aa4ull, 0x9af94cf1e30e664cull}},
    {"er-3k",
     {0xe05bd661e6cae829ull, 0x56388768e5d8d24bull},
     {0xe05bd661e6cae829ull, 0x56388768e5d8d24bull},
     {0x0e9c2748f6070327ull, 0x56388768e5d8d24bull}},
    {"er-sparse",
     {0x7e1af806ce3c6617ull, 0xecd66e64b3c7c902ull},
     {0xbe56ddcac34ec7e2ull, 0x15827820d4aff955ull},
     {0xb9d9ccf042ced8b1ull, 0x3979293ffa1a8491ull}},
    {"powerlaw",
     {0x1ad532c62315d5f8ull, 0x01196cd2a1b3246aull},
     {0x8496f5cff4ee7658ull, 0x5e991c80a514547aull},
     {0x280596e73b4e983dull, 0x5b978d756696062cull}},
    {"plcore",
     {0x3a710203534bc06bull, 0x93122002d254c6e2ull},
     {0x4fe48dc6391a0f6full, 0x55fff7f330e80d0dull},
     {0xdbb2cc377966d99eull, 0x642db3af6195bc22ull}},
    {"er-20k",
     {0x9ae7139b3fdc5aacull, 0xcf3e391b45b7e77full},
     {0x9ae7139b3fdc5aacull, 0xcf3e391b45b7e77full},
     {0x39e864416517e319ull, 0xb6d8d9c68e6a82bfull}},
    {"plaw-20k",
     {0x6fbd20fb866df306ull, 0xe699f1b2ce19d3b7ull},
     {0xa1f5c8604350e4b3ull, 0xabd3ccb75fde7aeaull},
     {0xcb357cc85b4e403bull, 0xb4b178778c778f11ull}},
};

// Checks NearLinear on each graph under the three option sets against
// `expected` (one row per graph, in order).
void ExpectNearLinearGoldens(const std::vector<std::pair<std::string, Graph>>& graphs,
                             std::span<const NearLinearGoldens> expected) {
  ASSERT_EQ(graphs.size(), expected.size());
  NearLinearOptions no_lp;
  no_lp.lp_reduction = false;
  NearLinearOptions no_one_pass;
  no_one_pass.one_pass_dominance = false;
  for (size_t i = 0; i < graphs.size(); ++i) {
    const auto& [name, g] = graphs[i];
    const NearLinearGoldens& want = expected[i];
    SCOPED_TRACE(name);
    ASSERT_EQ(name, want.graph);
    const struct {
      const char* label;
      NearLinearOptions options;
      NearLinearGolden want;
    } cases[] = {{"defaults", {}, want.defaults},
                 {"no_lp", no_lp, want.no_lp},
                 {"no_one_pass", no_one_pass, want.no_one_pass}};
    for (const auto& c : cases) {
      SCOPED_TRACE(c.label);
      const NearLinearGolden got = RunNearLinearGolden(g, c.options);
      EXPECT_EQ(got.solution, c.want.solution);
      EXPECT_EQ(got.snapshot, c.want.snapshot);
    }
  }
}

TEST(GoldenOutputs, NearLinear) {
  ExpectNearLinearGoldens(GoldenGraphs(), kNearLinearExpected);
}

// Planted cliques of 3-8 vertices over a sparse random background: nearly
// every edge closes a triangle, so the core's triangle counts stay
// positive and its dominance rescreens rarely find an edge they may skip.
Graph PlantedCliques(Vertex n, uint32_t cliques, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Edge> edges;
  for (Vertex i = 0; i < n; ++i) {
    edges.emplace_back(static_cast<Vertex>(rng() % n), static_cast<Vertex>(rng() % n));
  }
  std::vector<Vertex> members;
  for (uint32_t c = 0; c < cliques; ++c) {
    members.resize(3 + rng() % 6);
    for (Vertex& v : members) v = static_cast<Vertex>(rng() % n);
    for (size_t a = 0; a < members.size(); ++a) {
      for (size_t b = a + 1; b < members.size(); ++b) {
        edges.emplace_back(members[a], members[b]);
      }
    }
  }
  return Graph::FromEdges(n, edges);
}

// A caterpillar whose legs are paths: a spine 0..spine-1 with the chords
// (i, i+1) and (i, i+2), so spine edges close triangles, and two legs per
// spine vertex. A leg is a path of 1-6 fresh vertices that ends in a leaf
// or rejoins the spine at a random vertex. Once peels and deletions cut
// into it, degree-one ends meet the path rule's rewires (cases 3 and 5).
Graph PathCaterpillar(Vertex spine, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Edge> edges;
  Vertex next = spine;
  for (Vertex i = 0; i < spine; ++i) {
    if (i + 1 < spine) edges.emplace_back(i, i + 1);
    if (i + 2 < spine) edges.emplace_back(i, i + 2);
    for (int leg = 0; leg < 2; ++leg) {
      const uint64_t len = 1 + rng() % 6;
      Vertex prev = i;
      for (uint64_t k = 0; k < len; ++k) {
        edges.emplace_back(prev, next);
        prev = next++;
      }
      if (rng() % 2 == 0) edges.emplace_back(prev, static_cast<Vertex>(rng() % spine));
    }
  }
  return Graph::FromEdges(next, edges);
}

std::vector<std::pair<std::string, Graph>> TriangleAndPathGraphs() {
  std::vector<std::pair<std::string, Graph>> graphs;
  graphs.emplace_back("cliques-4k", PlantedCliques(4000, 900, 51));
  graphs.emplace_back("caterpillar-2k", PathCaterpillar(2000, 53));
  return graphs;
}

// Recorded before NearLinear's deletes became triangle-local and its
// rescreens learned to skip vertices that cannot push.
constexpr NearLinearGoldens kTriangleAndPathExpected[] = {
    {"cliques-4k",
     {0x7fbb9f598a551bdaull, 0xcea6fd1ed8fe31f9ull},
     {0xe17a4e14963163e5ull, 0x4b4203cd35dca91full},
     {0x7f4ebaf71a2a78bfull, 0x90d349efc6eb8297ull}},
    {"caterpillar-2k",
     {0x3a7c87f344d61e3bull, 0x159f4f399e6271f9ull},
     {0x94bc5a77678c0d8aull, 0xaab6be07b9042f8cull},
     {0xfd930ec3acd37a87ull, 0xda19069fa8481b16ull}},
};

TEST(GoldenOutputs, NearLinearTrianglesAndPaths) {
  ExpectNearLinearGoldens(TriangleAndPathGraphs(), kTriangleAndPathExpected);
}

// DynamicMisEngine end state after a fixed RandomUpdateStream: the
// maintained set, its size and bound, and the eviction and full re-solve
// counts. Evictions prefer peeled endpoints, so this pins the peel flags
// the engine takes from each LinearTime solve.
struct EngineGolden {
  const char* graph;
  uint64_t end_state;
};

constexpr EngineGolden kEngineExpected[] = {
    {"er-20k", 0x550fa59f611fcb59ull},
    {"plaw-20k", 0x5770bc02864e608cull},
};

TEST(GoldenOutputs, DynamicEngineAfterStream) {
  const auto graphs = GoldenGraphs();
  for (const EngineGolden& want : kEngineExpected) {
    SCOPED_TRACE(want.graph);
    const auto it = std::find_if(graphs.begin(), graphs.end(), [&](const auto& p) {
      return p.first == want.graph;
    });
    ASSERT_NE(it, graphs.end());
    const Graph& g = it->second;
    DynamicMisEngine engine(g);
    const std::vector<GraphUpdate> stream = RandomUpdateStream(g, 6000, /*seed=*/7);
    engine.ApplyUpdates(stream);
    const DynamicStats& stats = engine.stats();
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_GT(stats.full_resolves, 0u);
    Fnv1a h;
    h.AddAll(std::span<const uint8_t>(engine.Selector()));
    h.Add(engine.Size());
    h.Add(engine.UpperBound());
    h.Add(stats.evictions);
    h.Add(stats.full_resolves);
    EXPECT_EQ(h.value(), want.end_state);
  }
}

}  // namespace
}  // namespace rpmis
