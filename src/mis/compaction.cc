#include "mis/compaction.h"

#include "support/assert.h"
#include "support/parallel.h"

namespace rpmis {

namespace {

// Below this many kept vertices the parallel fan-out costs more than the
// fill; both passes run inline (still byte-identical — ParallelChunks is
// deterministic, this is purely a latency knob).
constexpr size_t kParallelGrain = 4096;

}  // namespace

CompactionStats& CompactionStats::operator+=(const CompactionStats& other) {
  compactions += other.compactions;
  vertices_scanned += other.vertices_scanned;
  slots_scanned += other.slots_scanned;
  vertices_kept += other.vertices_kept;
  slots_kept += other.slots_kept;
  return *this;
}

VertexRenaming BuildRenaming(std::span<const uint8_t> keep) {
  VertexRenaming renaming;
  const Vertex n = static_cast<Vertex>(keep.size());
  renaming.to_new.assign(n, kInvalidVertex);
  for (Vertex v = 0; v < n; ++v) {
    if (keep[v]) {
      renaming.to_new[v] = static_cast<Vertex>(renaming.kept.size());
      renaming.kept.push_back(v);
    }
  }
  return renaming;
}

void ComposeToOrig(const VertexRenaming& renaming, std::vector<Vertex>* to_orig) {
  std::vector<Vertex> composed(renaming.kept.size());
  for (size_t i = 0; i < renaming.kept.size(); ++i) {
    composed[i] = (*to_orig)[renaming.kept[i]];
  }
  *to_orig = std::move(composed);
}

void RemapWorklist(const VertexRenaming& renaming, std::vector<Vertex>* worklist) {
  size_t out = 0;
  for (size_t i = 0; i < worklist->size(); ++i) {
    const Vertex nv = renaming.to_new[(*worklist)[i]];
    if (nv != kInvalidVertex) (*worklist)[out++] = nv;
  }
  worklist->resize(out);
}

void CompactCsr(const VertexRenaming& renaming, std::span<const uint64_t> offsets,
                std::span<const Vertex> adj, std::vector<uint64_t>* new_offsets,
                std::vector<Vertex>* new_adj,
                std::vector<uint32_t>* old_slot_to_new, CompactionStats* stats) {
  const size_t new_n = renaming.kept.size();
  new_offsets->assign(new_n + 1, 0);
  // Pass 1: surviving-slot counts per kept vertex (independent reads).
  ParallelChunks(0, new_n, kParallelGrain, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      const Vertex v = renaming.kept[i];
      uint64_t count = 0;
      for (uint64_t s = offsets[v]; s < offsets[v + 1]; ++s) {
        if (renaming.to_new[adj[s]] != kInvalidVertex) ++count;
      }
      (*new_offsets)[i + 1] = count;
    }
  });
  for (size_t i = 1; i <= new_n; ++i) (*new_offsets)[i] += (*new_offsets)[i - 1];
  // Pass 2: fill disjoint slices.
  new_adj->resize((*new_offsets)[new_n]);
  RPMIS_ASSERT(adj.size() <= static_cast<uint64_t>(kInvalidVertex));
  old_slot_to_new->resize(adj.size());
  ParallelChunks(0, new_n, kParallelGrain, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      const Vertex v = renaming.kept[i];
      uint64_t pos = (*new_offsets)[i];
      for (uint64_t s = offsets[v]; s < offsets[v + 1]; ++s) {
        const Vertex target = renaming.to_new[adj[s]];
        if (target == kInvalidVertex) continue;
        (*new_adj)[pos] = target;
        (*old_slot_to_new)[s] = static_cast<uint32_t>(pos);
        ++pos;
      }
      RPMIS_DASSERT(pos == (*new_offsets)[i + 1]);
    }
  });
  ++stats->compactions;
  stats->vertices_scanned += renaming.to_new.size();
  for (const Vertex v : renaming.kept) {
    stats->slots_scanned += offsets[v + 1] - offsets[v];
  }
  stats->vertices_kept += new_n;
  stats->slots_kept += new_adj->size();
}

}  // namespace rpmis
