// Full-rule kernelization in the style of Akiba–Iwata [1] / ReduMIS [28].
//
// Applies a configurable set of EXACT reduction rules to fixpoint and
// returns the kernel graph plus enough bookkeeping to lift any kernel
// solution back to the input graph:
//
//   degree-0/1      : isolated vertices join I; a pendant's neighbour dies
//   degree-2        : isolation (Lemma 2.2(1)) and folding (Lemma 2.2(2))
//   dominance       : v dominates u  =>  u dies (Lemma 5.1)
//   twin            : non-adjacent u, v with N(u) = N(v), |N| = 3. With
//                     an edge inside N(u): u, v join I and N(u) dies.
//                     Without: N(u) folds into one supervertex and
//                     alpha(G) = alpha(G') + 2 (lifted on reconstruction)
//   unconfined      : the Xiao–Nagamochi confinement test; an unconfined
//                     vertex dies
//   LP              : Nemhauser–Trotter persistency (lp_reduction.h)
//
// This module is deliberately the EXPENSIVE comparison point: the paper's
// Eval-III shows that computing this kernel ("KernelReduMIS") costs far
// more than LinearTime/NearLinear, which is what motivates their design.
#ifndef RPMIS_MIS_KERNELIZER_H_
#define RPMIS_MIS_KERNELIZER_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "mis/solution.h"

namespace rpmis {

struct KernelizerOptions {
  bool degree_one = true;   // also covers degree-0
  bool degree_two = true;   // isolation + folding
  bool dominance = true;
  bool twin = true;
  bool unconfined = true;
  bool lp = true;
};

/// One-shot kernelization engine. Construct, Run(), then read the kernel.
class Kernelizer {
 public:
  /// Keeps a pointer to `g`, which must outlive the Kernelizer; binding a
  /// temporary graph is rejected at compile time.
  explicit Kernelizer(const Graph& g, const KernelizerOptions& options = {});
  Kernelizer(Graph&&, const KernelizerOptions& = {}) = delete;

  /// Applies all enabled rules to fixpoint.
  void Run();

  /// The kernel graph (valid after Run()).
  const Graph& Kernel() const { return kernel_; }
  const std::vector<Vertex>& KernelToOrig() const { return kernel_to_orig_; }

  /// alpha(G) = AlphaOffset() + alpha(Kernel()).
  uint64_t AlphaOffset() const { return alpha_offset_; }

  const RuleCounters& Rules() const { return rules_; }

  /// Lifts an independent set of the kernel to one of the input graph of
  /// size |kernel set| + AlphaOffset().
  std::vector<uint8_t> Lift(const std::vector<uint8_t>& kernel_in_set) const;

 private:
  enum class OpKind : uint8_t {
    kInclude,
    kExclude,
    kFold,             // degree-2 fold: a=u (dropped), b=merged, c=rep
    kTwinFoldPair,     // twin fold: a=u, b=v, c=rep; rep NOT in I => u,v in I
    kTwinFoldMembers,  // twin fold: a=n2, b=n3, c=rep; rep in I => a,b in I
  };
  struct Op {
    OpKind kind;
    Vertex a;
    Vertex b;
    Vertex c;
  };

  bool Alive(Vertex v) const { return alive_[v] != 0; }
  uint32_t Degree(Vertex v) const { return static_cast<uint32_t>(adj_[v].size()); }
  bool HasEdge(Vertex u, Vertex v) const;

  void Touch(Vertex v);
  void TouchNeighborhood(Vertex v);
  void ExcludeVertex(Vertex v);            // remove, no solution membership
  void IncludeVertex(Vertex v);            // take v, exclude N(v)
  void DetachFromNeighbors(Vertex v);

  bool TryDegreeRules(Vertex v);
  bool TryDominance(Vertex v);
  bool TryUnconfined(Vertex v);
  void FoldDegreeTwo(Vertex u, Vertex v, Vertex w);
  // Merges vertex b into a (b disappears; a's neighbourhood absorbs b's).
  void ContractInto(Vertex a, Vertex b);
  void FoldTwins(Vertex u, Vertex v);
  bool RunTwinPass();
  bool RunLpPass();
  void ProcessWorklist();

  const Graph* input_;
  KernelizerOptions options_;
  std::vector<std::vector<Vertex>> adj_;  // sorted alive adjacency
  std::vector<uint8_t> alive_;
  std::vector<uint8_t> in_worklist_;
  std::vector<Vertex> worklist_;
  std::vector<Op> ops_;
  uint64_t alpha_offset_ = 0;
  RuleCounters rules_;

  Graph kernel_;
  std::vector<Vertex> kernel_to_orig_;
  std::vector<Vertex> orig_to_kernel_;
  bool ran_ = false;
};

}  // namespace rpmis

#endif  // RPMIS_MIS_KERNELIZER_H_
