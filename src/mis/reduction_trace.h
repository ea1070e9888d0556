// Reduction provenance: an ordered log of which reduction rule fired on
// which vertices during a solve.
//
// The batch solvers decide vertices through chains of local rules; the
// order of the log and the vertices each event touches form a dependency
// DAG (event B depends on event A iff B touches a vertex A removed or
// rewired first). The dynamic-update engine (src/dynamic) consumes
// vertex-granular projections of this log — most importantly "was v
// decided by an exact rule or merely peeled" — to seed its per-vertex
// provenance, which steers which endpoint it evicts when an inserted edge
// lands inside the maintained set. Recording is optional and costs one
// null check when disabled (same discipline as the obs hooks).
#ifndef RPMIS_MIS_REDUCTION_TRACE_H_
#define RPMIS_MIS_REDUCTION_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace rpmis {

/// The rule behind one log entry. LinearTime emits the kDegree*/kPath*/
/// kPeel kinds; the Kernelizer export maps its replay ops onto the
/// kInclude/kExclude/kFold/kTwin* kinds.
enum class ReductionRule : uint8_t {
  // LinearTime core events.
  kDegreeZeroInclude,   // v joined I with no remaining neighbours
  kDegreeOneExclude,    // v removed as the neighbour of a pendant (a)
  kPathCycle,           // degree-two cycle: v dropped, cycle unravels
  kPathCommon,          // path case 1: common attachment v dropped
  kPathAttachments,     // path case 2: attachment v dropped ((v,w) edge)
  kPathEvenDrop,        // path case 4/5: whole even path dropped
  kPathDefer,           // v's membership deferred with partners (a, b)
  kPeel,                // inexact: max-degree v peeled out of the graph
  // Kernelizer export events.
  kInclude,             // v fixed into I (N(v) died)
  kExclude,             // v removed with no membership (dominance etc.)
  kFold,                // degree-two fold: v dropped, a merged into rep b
  kTwinFoldPair,        // twin fold: twins v, a folded under rep b
  kTwinFoldMembers,     // twin fold: members v, a folded under rep b
};

/// One rule application. `v` is the vertex the rule acted on; `a`/`b` are
/// the rule's partners when it has any (kInvalidVertex otherwise). All ids
/// are in the *input* graph's numbering.
struct ReductionEvent {
  ReductionRule rule;
  Vertex v;
  Vertex a = kInvalidVertex;
  Vertex b = kInvalidVertex;
};

/// Append-only event log plus the projections consumers need.
class ReductionTrace {
 public:
  void Clear() { events_.clear(); }
  void Reserve(size_t n) { events_.reserve(n); }

  void Append(ReductionRule rule, Vertex v, Vertex a = kInvalidVertex,
              Vertex b = kInvalidVertex) {
    events_.push_back({rule, v, a, b});
  }

  const std::vector<ReductionEvent>& Events() const { return events_; }
  bool Empty() const { return events_.empty(); }

  size_t CountRule(ReductionRule rule) const;

  /// Per-vertex flag over universe [0, n): v was the subject of a kPeel
  /// event (peeled vertices that re-enter I during the maximality pass
  /// stay flagged — that is the point: they were not *proven* in).
  std::vector<uint8_t> PeeledMask(Vertex n) const;

  /// Per-vertex flag: v's membership was decided by a deferred path
  /// replay (kPathDefer), i.e. by an exact Lemma 4.1 application.
  std::vector<uint8_t> DeferredMask(Vertex n) const;

 private:
  std::vector<ReductionEvent> events_;
};

}  // namespace rpmis

#endif  // RPMIS_MIS_REDUCTION_TRACE_H_
