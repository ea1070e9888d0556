// Mid-run subgraph compaction for NearLinear's core (the KaMIS-style
// "rebuild the kernel" trick), plus the monotone renaming primitives
// NearLinear's kernel assembly and the kernelizer's LP pass share.
//
// NearLinear deletes vertices logically (alive bitmap, cached degrees)
// while its scans keep streaming its kernel adjacency and the per-slot
// triangle counts, so once half the kernel is dead every pass still pays
// full-size memory traffic filtering corpses. The engine here rebuilds a
// compact CSR of the surviving subgraph whenever the active-vertex count
// drops below a configurable fraction of the last build (geometric
// thresholds => the total rebuild work is a constant factor of n + m).
// BDOne, BDTwo, LinearTime and the kernelizer do not compact: measured
// against the same runs without it, the rebuilds never paid for
// themselves there (DESIGN.md §7).
//
// Renaming invariants (what keeps runs byte-identical with compaction off):
//  * the renaming is MONOTONE (kept vertices keep their relative order),
//    so every increasing-id scan, sorted adjacency list, and a < b edge
//    enumeration behaves exactly as before;
//  * per-vertex slot order is preserved, so "first alive neighbour" style
//    scans pick the same vertices;
//  * worklists/queues are remapped preserving their internal order, with
//    dead entries dropped eagerly — exactly the entries the lazy staleness
//    checks would have skipped.
//
// Decisions are mapped back losslessly by a stacked old->new layer: the
// core keeps a `to_orig` array (current id -> input id) and composes it
// eagerly at every rebuild (new_to_orig[i] = to_orig[kept[i]]). The
// compositions sum to a geometric series, so the mapping stack costs
// O(n) total — no quadratic re-mapping.
#ifndef RPMIS_MIS_COMPACTION_H_
#define RPMIS_MIS_COMPACTION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace rpmis {

struct CompactionOptions {
  /// Master switch (bench_micro_compaction's A/B turns it off).
  bool enabled = true;
  /// Rebuild when active vertices < threshold * (size of last build).
  double threshold = 0.5;
  /// Never compact a working graph smaller than this (the rebuild would
  /// cost more than the scans it saves).
  Vertex min_vertices = 64;
};

/// Per-run compaction counters, surfaced through MisSolution / benchkit
/// (all zero for every solver but NearLinear).
/// The *_scanned totals count work done by the rebuilds themselves (old
/// side), the *_kept totals what the rebuilds produced (new side); under
/// geometric thresholds both stay O(n + m) for the whole run.
struct CompactionStats {
  uint64_t compactions = 0;
  uint64_t vertices_scanned = 0;  // old-side vertices walked by rebuilds
  uint64_t slots_scanned = 0;     // old-side adjacency slots walked
  uint64_t vertices_kept = 0;     // new-side vertices produced
  uint64_t slots_kept = 0;        // new-side adjacency slots produced

  CompactionStats& operator+=(const CompactionStats& other);
};

/// The threshold policy: tracks the size of the last build and says when
/// the active count has decayed enough to pay for a rebuild.
class CompactionPolicy {
 public:
  CompactionPolicy(const CompactionOptions& options, Vertex initial_n)
      : options_(options), baseline_(initial_n) {}

  bool ShouldCompact(Vertex active) const {
    return options_.enabled && active > 0 && baseline_ >= options_.min_vertices &&
           static_cast<double>(active) <
               options_.threshold * static_cast<double>(baseline_);
  }

  void NoteRebuild(Vertex new_n) { baseline_ = new_n; }

 private:
  CompactionOptions options_;
  Vertex baseline_;
};

/// A monotone old->new renaming over one keep set.
struct VertexRenaming {
  std::vector<Vertex> to_new;  // old id -> new id, kInvalidVertex if dropped
  std::vector<Vertex> kept;    // new id -> old id, increasing in old id
};

/// Builds the renaming keeping exactly the vertices with keep[v] != 0.
VertexRenaming BuildRenaming(std::span<const uint8_t> keep);

/// Composes the mapping stack one level: to_orig becomes
/// new id -> original input id.
void ComposeToOrig(const VertexRenaming& renaming, std::vector<Vertex>* to_orig);

/// Renames a worklist in place, preserving order and dropping entries of
/// dropped vertices (the lazy staleness checks would skip those anyway).
void RemapWorklist(const VertexRenaming& renaming, std::vector<Vertex>* worklist);

/// Rebuilds a CSR restricted to the kept vertices: slots whose target was
/// dropped are discarded, per-vertex slot order is preserved. Filled in
/// parallel over support/parallel (disjoint output slices — byte-identical
/// at any RPMIS_THREADS). `old_slot_to_new` receives the new slot id of
/// every surviving old slot (entries of dropped slots are untouched); it
/// requires the old slot count to fit 32 bits. `stats` accumulates the
/// scan totals.
void CompactCsr(const VertexRenaming& renaming, std::span<const uint64_t> offsets,
                std::span<const Vertex> adj, std::vector<uint64_t>* new_offsets,
                std::vector<Vertex>* new_adj,
                std::vector<uint32_t>* old_slot_to_new, CompactionStats* stats);

}  // namespace rpmis

#endif  // RPMIS_MIS_COMPACTION_H_
