// Shared worker pool for intra-op kernel parallelism (the M-loop of the
// blocked GEMMs). One process-wide pool is created lazily on first use and
// reused by every kernel call, so thread creation never sits on a training
// step.
//
// Cooperation with dp::ThreadTeam: the effective thread count is read from
// a *thread-local* limit, so DataParallelTrainer can pin its replica
// workers to 1 kernel thread each (no oversubscription when n_procs > 1)
// while single-replica training on the main thread still fans out. The
// serving engine uses the same limit the other way round: it makes one
// parallel_for over row shards and runs each shard's kernels at budget 1.
// Concurrent parallel_for() calls from different threads serialize on the
// pool, which keeps the machine work-conserving rather than oversubscribed.
//
// Determinism: callers partition output rows into disjoint chunks; a
// chunk's result does not depend on which worker runs it, so results are
// bit-identical for any thread count or schedule.
#pragma once

#include <cstddef>
#include <functional>

namespace agebo::nn::kernels {

/// Rows per register tile (MR) of both GEMM families. Parallel splits of
/// the row dimension are multiples of it, so every chunk sees whole tiles.
inline constexpr std::size_t kTileRows = 6;

/// Work (flops, or int8 multiply-adds x 2) below which a split is not worth
/// a pool dispatch (~ a few microseconds): about 2 MFLOP.
inline constexpr std::size_t kParallelFlopThreshold = std::size_t{1} << 21;

/// Process-wide default for the kernel thread budget. 0 = auto:
/// hardware_concurrency, capped, resolved once per process (the same count
/// the pool is sized with). Applies to threads with no local limit.
void set_max_threads(std::size_t n);

/// Effective kernel thread budget for the calling thread (>= 1): the
/// thread-local limit if set, else the process-wide default.
std::size_t max_threads();

/// RAII thread-local override of the kernel thread budget; 0 restores
/// "inherit the process-wide default". Used by dp::DataParallelTrainer to
/// run kernels serially inside each replica worker.
class ScopedThreadLimit {
 public:
  explicit ScopedThreadLimit(std::size_t n);
  ~ScopedThreadLimit();
  ScopedThreadLimit(const ScopedThreadLimit&) = delete;
  ScopedThreadLimit& operator=(const ScopedThreadLimit&) = delete;

 private:
  std::size_t prev_;
};

/// Run fn(chunk) for chunk in [0, nchunks) across the pool; the calling
/// thread participates. Returns after every chunk finished. Runs inline
/// when nchunks <= 1 or the budget is 1. fn must not throw and must not
/// call parallel_for itself.
void parallel_for(std::size_t nchunks, const std::function<void(std::size_t)>& fn);

}  // namespace agebo::nn::kernels
