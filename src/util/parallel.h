// Deterministic task-parallel execution for the expensive sweeps.
//
// Every hot loop in the reproduction (per-seed robustness sweeps, power
// replicates, recovery-sweep grid points, co-occurrence accumulation) is
// embarrassingly parallel: each task is a pure function of its index, with
// any randomness derived from an independent per-index RNG stream (see
// Rng::split in util/rng.h). This module supplies the execution layer:
// one process-wide set of default_thread_count() - 1 helper threads and
// order-preserving parallel_for/parallel_map primitives over it.
//
// A ThreadPool is a budget, not a set of threads. A batch of n tasks on a
// pool of `threads` runs on its calling thread plus at most
// min(threads - 1, n - 1) helpers, and only helpers that are idle: a
// batch never starts a thread and never waits for a busy helper. The
// helpers start with the first batch that could use one and stay up until
// the process exits, so the process holds at most cores - 1 of them
// whatever budgets its callers ask for and however their batches nest (a
// task may open a batch of its own). `threads` 0 therefore means "every
// idle helper", not "that many new threads".
//
// Tasks may run in any order on any thread, but results are keyed by index
// and callers merge them in index order, so output is bit-identical
// between serial and parallel execution — `threads <= 1` runs the same
// tasks inline on the calling thread, in index order.
#pragma once

#include <cstddef>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

namespace decompeval::util {

/// std::thread::hardware_concurrency(), clamped to at least 1: the budget
/// a config's `threads` field 0 ("auto") resolves to, and one more than
/// the number of process-wide helpers.
std::size_t default_thread_count() noexcept;

/// Resolves a config-level thread knob: 0 = auto, otherwise the value.
std::size_t resolve_thread_count(std::size_t threads) noexcept;

/// A parallelism budget over the process-wide helpers.
class ThreadPool {
 public:
  /// Total parallelism a batch may use, the calling thread included:
  /// resolve_thread_count(threads). Starts nothing.
  explicit ThreadPool(std::size_t threads = 0);

  /// The budget; always >= 1.
  std::size_t thread_count() const noexcept { return threads_; }

  /// Runs fn(0), ..., fn(n-1), blocking until all calls complete. The
  /// calling thread runs indices too, joined by up to
  /// min(thread_count() - 1, n - 1) idle helpers; indices are claimed
  /// dynamically, so long and short tasks balance. With thread_count() == 1
  /// the calls run serially in index order on the calling thread. If any
  /// call throws, the exception of the *lowest failing index* is rethrown
  /// here after the batch drains — a deterministic choice, independent of
  /// scheduling, identical in serial and parallel mode. The remaining
  /// indices still run; a task exception never escapes onto a helper (no
  /// std::terminate). Safe to call from any thread, from inside a task
  /// included.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Order-preserving map: result[i] = fn(items[i], i). Results land in
  /// their slot regardless of which thread computes them.
  template <typename T, typename Fn>
  auto parallel_map(const std::vector<T>& items, Fn&& fn)
      -> std::vector<std::decay_t<decltype(fn(items[0], std::size_t{0}))>> {
    using R = std::decay_t<decltype(fn(items[0], std::size_t{0}))>;
    std::vector<R> results(items.size());
    parallel_for(items.size(),
                 [&](std::size_t i) { results[i] = fn(items[i], i); });
    return results;
  }

 private:
  std::size_t threads_ = 1;
};

/// One-shot convenience: runs the batch on a `threads` budget.
void parallel_for(std::size_t threads, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

/// One-shot order-preserving map on a `threads` budget.
template <typename T, typename Fn>
auto parallel_map(std::size_t threads, const std::vector<T>& items, Fn&& fn)
    -> std::vector<std::decay_t<decltype(fn(items[0], std::size_t{0}))>> {
  ThreadPool pool(threads);
  return pool.parallel_map(items, std::forward<Fn>(fn));
}

}  // namespace decompeval::util
