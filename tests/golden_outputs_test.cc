// Golden outputs of the tombstone solvers and the kernelizer: FNV-1a
// hashes of BDOne's, BDTwo's and LinearTime's solutions, LinearTime's
// first-peel KernelSnapshot, and the Kernelizer's kernel, alpha offset and
// lift of a fixed kernel set. The hashes were recorded while these solvers
// still rebuilt their working graph mid-run (and did so on the larger
// graphs here), so they pin the outputs to what every earlier version
// produced.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"
#include "mis/bdone.h"
#include "mis/bdtwo.h"
#include "mis/kernelizer.h"
#include "mis/linear_time.h"
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
     0x6108bab5e0e62608ull, 0xd3515754cc73b26eull,
     0xd3515754cc73b26eull, 0x057bec519d9a0deaull,
     0x61637a597732f64aull},
    {"fig1mod",
     0xf1e82b21c76f546full, 0x21ddee9546bb7fecull,
     0x21ddee9546bb7fecull, 0x9b9d532a8f65be67ull,
     0xd43f64d95f9ecc69ull},
    {"fig2",
     0xf83075618d53f4c3ull, 0xb80bc3366ad08402ull,
     0xb80bc3366ad08402ull, 0xa427fd4c5c787de9ull,
     0xc814397b9d79dee0ull},
    {"fig5",
     0xbfae0d8f07d03b4cull, 0x4ad1a3ca7832b48cull,
     0x9af06b22a0fc12adull, 0xe828bd0d0ef9e0c2ull,
     0xbb009b00fa3f082aull},
    {"er-3k",
     0x3f2331f8197e3cd0ull, 0x63474d6422696392ull,
     0xa967f45422d5a6d6ull, 0x56388768e5d8d24bull,
     0x6efcf0572f8dc4a8ull},
    {"er-sparse",
     0xb9d8906c47d7ceebull, 0x09d8b8db601f808bull,
     0xb9d8906c47d7ceebull, 0xb9327781aca76456ull,
     0x28cc03985f8cfc3full},
    {"powerlaw",
     0xae45f10c6db15e0full, 0xb633885f832e6d3cull,
     0xbfe99bdd8633a152ull, 0x92307dba61d6795bull,
     0x9be7d2eeebd78497ull},
    {"plcore",
     0xecc8074fe96a7d8eull, 0x90ba1cef11da812full,
     0xf157c0213a8883f8ull, 0x07ab1e3b19060cdfull,
     0x832b84a7a69bc8ebull},
    {"er-20k",
     0x30b156d5920b1cf4ull, 0x540255ee0f40dda0ull,
     0x854b548a2edf7800ull, 0x0f665a005405758full,
     0x10a67ca43f5a4696ull},
    {"plaw-20k",
     0x2c5bd2c8f8f5ba6cull, 0x1b66ab8a8a91d7ccull,
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
    got.bdone = HashSolution(RunBDOne(g));
    got.bdtwo = HashSolution(RunBDTwo(g));
    KernelSnapshot snap;
    got.lineartime = HashSolution(RunLinearTime(g, &snap));
    got.lineartime_snapshot = HashSnapshot(snap);
    Kernelizer k(g);
    k.Run();
    got.kernelizer = HashKernelizer(k);
    EXPECT_EQ(got.bdone, want.bdone);
    EXPECT_EQ(got.bdtwo, want.bdtwo);
    EXPECT_EQ(got.lineartime, want.lineartime);
    EXPECT_EQ(got.lineartime_snapshot, want.lineartime_snapshot);
    EXPECT_EQ(got.kernelizer, want.kernelizer);
  }
}

}  // namespace
}  // namespace rpmis
