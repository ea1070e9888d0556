// Minimal std::thread fan-out used by the chunked edge-list scan, the
// binary reader's CSR validation and the per-component scheduler. The CSR
// build, the dominance prepass and the LP matcher are serial: their
// parallel versions did not pay at 4 threads on power-law graphs
// (DESIGN.md §5 and §7).
//
// There is deliberately no persistent thread pool: the helpers here wrap
// coarse, hundreds-of-milliseconds tasks (parsing a multi-megabyte file,
// solving a batch of components), so the cost of spawning a handful of
// threads per call is noise, and the library stays free of global
// mutable state. Thread count comes from the RPMIS_THREADS environment
// variable when set, so benchmark runs and the serial-vs-parallel
// equivalence tests can pin it without code changes.
#ifndef RPMIS_SUPPORT_PARALLEL_H_
#define RPMIS_SUPPORT_PARALLEL_H_

#include <cstddef>
#include <functional>

namespace rpmis {

/// Worker thread count for the parallel helpers: RPMIS_THREADS when set to
/// a positive integer (clamped to [1, 256]; garbage values are ignored),
/// otherwise std::thread::hardware_concurrency() (minimum 1). Re-read on
/// every call so tests can flip the environment between invocations.
size_t NumThreads();

/// Runs task(0) .. task(num_tasks - 1) on up to NumThreads() threads
/// (including the calling thread). Tasks are claimed dynamically, so
/// uneven task sizes balance. Blocks until every task finished. If tasks
/// throw, all tasks still run to completion (or throw themselves) and the
/// exception of the lowest-indexed failing task is rethrown, making error
/// reporting deterministic regardless of scheduling.
void RunParallel(size_t num_tasks, const std::function<void(size_t)>& task);

/// Splits [begin, end) into contiguous chunks of at least `min_grain`
/// items (at most NumThreads() chunks) and runs body(chunk_begin,
/// chunk_end) for each via RunParallel. Runs body inline when the range
/// fits a single chunk. `body` must tolerate concurrent invocations on
/// disjoint ranges.
void ParallelChunks(size_t begin, size_t end, size_t min_grain,
                    const std::function<void(size_t, size_t)>& body);

}  // namespace rpmis

#endif  // RPMIS_SUPPORT_PARALLEL_H_
