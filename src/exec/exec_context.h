#ifndef LAMBADA_EXEC_EXEC_CONTEXT_H_
#define LAMBADA_EXEC_EXEC_CONTEXT_H_

#include <cstdint>

namespace lambada::exec {

class ThreadPool;

/// Per-worker execution knobs for the morsel-driven runtime.
///
/// The default context is strictly serial: every kernel then runs inline
/// on the calling thread. Parallelism is opt-in per worker and by
/// construction changes no kernel output byte. Host threads never touch
/// virtual time, so no setting here moves a request schedule.
struct ExecContext {
  /// Worker-local kernel threads. <= 1 means run inline, no pool involved.
  int num_threads = 1;

  /// Rows per morsel for ParallelFor/ParallelReduce. Morsel boundaries are
  /// a function of (range, morsel_rows) only — never of the thread count —
  /// so per-morsel results, and anything folded from them in morsel order,
  /// are identical for 1, 2, or 64 threads.
  int64_t morsel_rows = 16 * 1024;

  /// Pool to run on; nullptr uses ThreadPool::Shared() when
  /// num_threads > 1. Borrowed, never owned.
  ThreadPool* pool = nullptr;

  static ExecContext Serial() { return ExecContext{}; }
  static ExecContext Parallel(int threads, int64_t morsel = 16 * 1024) {
    ExecContext ctx;
    ctx.num_threads = threads;
    ctx.morsel_rows = morsel;
    return ctx;
  }

  bool parallel() const { return num_threads > 1; }
};

}  // namespace lambada::exec

#endif  // LAMBADA_EXEC_EXEC_CONTEXT_H_
