#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>

namespace decompeval::util {

std::size_t default_thread_count() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t resolve_thread_count(std::size_t threads) noexcept {
  return threads == 0 ? default_thread_count() : threads;
}

namespace {

// A participant's first failure. Each participant claims indices in
// increasing order, so its first failure is its lowest; the batch keeps
// the lowest of all participants'. Keying on the task index (not
// completion time) makes the rethrown exception deterministic: the same
// inputs rethrow the same error however the batch was scheduled.
struct Failure {
  std::exception_ptr error;
  std::size_t index = 0;

  void keep_lowest(const Failure& other) {
    if (other.error && (!error || other.index < index)) *this = other;
  }
};

// Runs fn(i), keeping its failure in `first` unless one is already there.
void run_index(const std::function<void(std::size_t)>& fn, std::size_t i,
               Failure& first) {
  try {
    fn(i);
  } catch (...) {
    if (!first.error) first = {std::current_exception(), i};
  }
}

// A batch no helper may join: every index in order on the caller, past a
// throwing one, so the first failure is the lowest. No index is claimed,
// so a serial batch pays no atomic.
Failure run_inline(std::size_t n,
                   const std::function<void(std::size_t)>& fn) {
  Failure first;
  for (std::size_t i = 0; i < n; ++i) run_index(fn, i, first);
  return first;
}

// One parallel_for call, on its caller's stack. `fn`, `n` and `next` are
// shared lock-free with the helpers that join it; `seats`, `active` and
// `failure` are guarded by Helpers::mutex_.
struct Batch {
  Batch(const std::function<void(std::size_t)>& task, std::size_t count,
        std::size_t helper_seats)
      : fn(task), n(count), seats(helper_seats) {}

  const std::function<void(std::size_t)>& fn;
  const std::size_t n;
  std::atomic<std::size_t> next{0};
  std::size_t seats;       ///< helpers that may still join
  std::size_t active = 0;  ///< helpers that joined and have not left
  std::condition_variable drained;  ///< signalled when `active` drops to 0
  Failure failure;         ///< the helpers' lowest failure

  bool exhausted() const { return next.load(std::memory_order_relaxed) >= n; }

  // Claims indices until none is left. Keeps running past a throwing
  // index so the batch always drains (no orphaned indices).
  Failure run() {
    Failure first;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return first;
      run_index(fn, i, first);
    }
  }
};

// The process-wide helpers. A helper sleeps until a batch is open, takes
// a seat in the oldest open batch, runs that batch's indices until none
// is left, and looks again. A caller publishes its batch, runs indices
// itself, then closes the batch and waits only for the helpers that took
// a seat to finish the indices they claimed. No one ever waits for a
// helper to arrive, so a batch completes even when every helper is busy,
// and a task that opens a batch of its own cannot deadlock: the helpers
// it waits for are running indices of its batch, which is strictly
// deeper in the task tree.
class Helpers {
 public:
  static Helpers& instance() {
    // Never destroyed: the helpers run until the process exits, so no
    // static destructor can race a task still running on one.
    static Helpers* const helpers = new Helpers(default_thread_count() - 1);
    return *helpers;
  }

  Failure run(Batch& batch) {
    if (threads_.empty()) return batch.run();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      open_.push_back(&batch);
      for (std::size_t k = std::min(idle_, batch.seats); k > 0; --k)
        wake_.notify_one();
    }
    Failure failure = batch.run();
    std::unique_lock<std::mutex> lock(mutex_);
    const auto it = std::find(open_.begin(), open_.end(), &batch);
    if (it != open_.end()) open_.erase(it);
    batch.drained.wait(lock, [&] { return batch.active == 0; });
    failure.keep_lowest(batch.failure);
    return failure;
  }

 private:
  explicit Helpers(std::size_t count) {
    threads_.reserve(count);
    try {
      while (threads_.size() < count)
        threads_.emplace_back([this] { serve(); });
    } catch (const std::system_error&) {
      // Batches run on the helpers that did start.
    }
  }

  void serve() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      Batch* batch = take_seat();
      if (batch == nullptr) {
        ++idle_;
        wake_.wait(lock);
        --idle_;
        continue;
      }
      lock.unlock();
      const Failure failure = batch->run();
      lock.lock();
      batch->failure.keep_lowest(failure);
      // Under the lock: the caller cannot see `active` reach 0, return and
      // destroy the batch before this notify completes.
      if (--batch->active == 0) batch->drained.notify_one();
    }
  }

  // A seat in the oldest open batch that still has unclaimed indices, or
  // null. A batch leaves the list when its last seat is taken or its
  // indices run out. Caller holds mutex_.
  Batch* take_seat() {
    while (!open_.empty()) {
      Batch* batch = open_.front();
      if (batch->exhausted()) {
        open_.pop_front();
        continue;
      }
      if (--batch->seats == 0) open_.pop_front();
      ++batch->active;
      return batch;
    }
    return nullptr;
  }

  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<Batch*> open_;  ///< batches with free seats, oldest first
  std::size_t idle_ = 0;     ///< helpers asleep on wake_
  /// Last: the helpers use every member above. Never joined (instance()).
  std::vector<std::thread> threads_;
};

}  // namespace

ThreadPool::ThreadPool(std::size_t threads)
    : threads_(resolve_thread_count(threads)) {}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t helper_seats = std::min(threads_, n) - 1;
  Failure failure;
  if (helper_seats == 0) {
    failure = run_inline(n, fn);
  } else {
    Batch batch(fn, n, helper_seats);
    failure = Helpers::instance().run(batch);
  }
  if (failure.error) std::rethrow_exception(failure.error);
}

void parallel_for(std::size_t threads, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  ThreadPool(threads).parallel_for(n, fn);
}

}  // namespace decompeval::util
