// Thread-pool unit tests and the serial-vs-parallel determinism contract:
// every parallelized pipeline stage must produce bit-identical results at
// threads = 1 and threads = 4. The pool tests also cover the process-wide
// helpers: many callers at once, nested batches, per-caller failures, a
// tiny batch beside one that holds every helper, and the cores - 1 cap
// on the threads any budget can start.
#include <atomic>
#include <chrono>
#include <fstream>
#include <future>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/power.h"
#include "analysis/robustness.h"
#include "embed/corpus.h"
#include "embed/embedding.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace {

using namespace decompeval;
using decompeval::util::ThreadPool;

TEST(ThreadPool, ResolvesThreadCounts) {
  EXPECT_GE(util::default_thread_count(), 1u);
  EXPECT_EQ(util::resolve_thread_count(0), util::default_thread_count());
  EXPECT_EQ(util::resolve_thread_count(3), 3u);
  EXPECT_EQ(ThreadPool(1).thread_count(), 1u);
  EXPECT_EQ(ThreadPool(4).thread_count(), 4u);
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h = 0;
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyBatchIsANoop) {
  ThreadPool pool(4);
  bool touched = false;
  pool.parallel_for(0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, ParallelMapPreservesOrdering) {
  std::vector<int> items(100);
  std::iota(items.begin(), items.end(), 0);
  ThreadPool pool(4);
  const auto squares = pool.parallel_map(
      items, [](int x, std::size_t) { return x * x; });
  ASSERT_EQ(squares.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i)
    EXPECT_EQ(squares[i], items[i] * items[i]);
}

TEST(ThreadPool, MapPassesTheItemIndex) {
  const std::vector<int> items = {7, 7, 7};
  const auto indexed = util::parallel_map(
      2, items, [](int x, std::size_t i) { return x + static_cast<int>(i); });
  EXPECT_EQ(indexed, (std::vector<int>{7, 8, 9}));
}

TEST(ThreadPool, PropagatesExceptionsAndDrainsTheBatch) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.parallel_for(64,
                        [&](std::size_t i) {
                          if (i == 13) throw std::runtime_error("task 13");
                          ++completed;
                        }),
      std::runtime_error);
  EXPECT_EQ(completed.load(), 63);  // the failing index still drains the rest
}

TEST(ThreadPool, SerialModePropagatesExceptionsToo) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.parallel_for(
                   4, [](std::size_t i) {
                     if (i == 2) throw std::logic_error("serial");
                   }),
               std::logic_error);
}

TEST(ThreadPool, RethrowsTheLowestFailingIndexDeterministically) {
  // Regression: with several failing tasks, whichever worker reported
  // *first* used to win, so the surfaced exception depended on thread
  // scheduling. The contract is now first-by-index: identical at every
  // thread count, serial mode included.
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    for (int round = 0; round < 25; ++round) {
      std::string surfaced;
      try {
        pool.parallel_for(64, [](std::size_t i) {
          if (i == 7 || i == 8 || i == 40 || i == 63)
            throw std::runtime_error("task " + std::to_string(i));
        });
        FAIL() << "expected an exception";
      } catch (const std::runtime_error& e) {
        surfaced = e.what();
      }
      EXPECT_EQ(surfaced, "task 7") << "threads=" << threads;
    }
  }
}

TEST(ThreadPool, SerialModeDrainsPastTheFailingIndex) {
  // Serial mode must match the parallel drain contract: every index runs
  // even after one throws, and the first failing index's exception wins.
  ThreadPool pool(1);
  std::vector<int> hits(6, 0);
  std::string surfaced;
  try {
    pool.parallel_for(6, [&](std::size_t i) {
      ++hits[i];
      if (i == 1 || i == 4) throw std::runtime_error("idx " + std::to_string(i));
    });
  } catch (const std::runtime_error& e) {
    surfaced = e.what();
  }
  EXPECT_EQ(surfaced, "idx 1");
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, LateWorkersCannotLeakIntoTheNextBatch) {
  // Regression: a worker still asleep when a batch drained used to wake
  // during the next publish and claim indices with the previous batch's
  // (larger) n — out-of-range calls into the new fn. Alternating large and
  // tiny batches back-to-back maximizes the chance of a late wakeup; every
  // index of every batch must run exactly once, and never out of range.
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    const std::size_t n = (round % 2 == 0) ? 64 : 1;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h = 0;
    pool.parallel_for(n, [&](std::size_t i) {
      ASSERT_LT(i, n);
      ++hits[i];
    });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
  }
}

TEST(ThreadPool, UsableForConsecutiveBatches) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(round + 1, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(),
              static_cast<std::size_t>(round) * (round + 1) / 2);
  }
}

TEST(ThreadPool, SerialFallbackRunsInIndexOrderOnCallingThread) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.parallel_for(8, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  std::vector<std::size_t> expected(8);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

// --- The process-wide helpers ------------------------------------------

// The process's thread count, from the "Threads:" line of
// /proc/self/status.
std::size_t process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("Threads:", 0) == 0) return std::stoul(line.substr(8));
  return 0;
}

TEST(ThreadPool, ConcurrentCallersAndNestedBatchesRunEveryIndexOnce) {
  // Eight callers share the helpers at once; every third batch's even
  // tasks open a nested batch on the same pool. Every index of every
  // batch, nested ones included, must run exactly once.
  constexpr int kCallers = 8;
  constexpr int kBatches = 200;
  std::atomic<int> wrong{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&wrong, c] {
      ThreadPool pool(c % 2 == 0 ? 0 : 3);
      for (int b = 0; b < kBatches; ++b) {
        const auto n = static_cast<std::size_t>(1 + (c * 31 + b * 17) % 40);
        const auto inner =
            static_cast<std::size_t>(b % 3 == 0 ? 1 + b % 5 : 0);
        std::vector<std::atomic<int>> hits(n);
        std::vector<std::atomic<int>> nested(n * inner);
        for (auto& h : hits) h = 0;
        for (auto& h : nested) h = 0;
        pool.parallel_for(n, [&](std::size_t i) {
          if (i >= n) {
            ++wrong;
            return;
          }
          ++hits[i];
          if (inner > 0 && i % 2 == 0)
            pool.parallel_for(inner, [&](std::size_t j) {
              if (j >= inner) {
                ++wrong;
                return;
              }
              ++nested[i * inner + j];
            });
        });
        for (std::size_t i = 0; i < n; ++i) {
          if (hits[i].load() != 1) ++wrong;
          for (std::size_t j = 0; j < inner; ++j)
            if (nested[i * inner + j].load() != (i % 2 == 0 ? 1 : 0)) ++wrong;
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(ThreadPool, ConcurrentFailingCallersEachGetTheirOwnLowestIndex) {
  // Eight callers fail at the same time in batches that share the
  // helpers; each must be rethrown its own lowest failing index, never
  // another caller's.
  constexpr int kCallers = 8;
  std::atomic<int> ready{0};
  std::vector<std::string> surfaced(kCallers * 25);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      ++ready;
      while (ready.load() < kCallers) std::this_thread::yield();
      ThreadPool pool(0);
      for (int round = 0; round < 25; ++round) {
        const std::size_t low = 3 + static_cast<std::size_t>(c);
        try {
          pool.parallel_for(64, [&](std::size_t i) {
            if (i == low || i == low + 7 || i == 50 || i == 63)
              throw std::runtime_error("caller " + std::to_string(c) +
                                       " task " + std::to_string(i));
          });
        } catch (const std::runtime_error& e) {
          surfaced[static_cast<std::size_t>(c * 25 + round)] = e.what();
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c)
    for (int round = 0; round < 25; ++round)
      EXPECT_EQ(surfaced[static_cast<std::size_t>(c * 25 + round)],
                "caller " + std::to_string(c) + " task " +
                    std::to_string(3 + c))
          << "round " << round;
}

TEST(ThreadPool, TinyBatchFinishesWhileALongBatchHoldsEveryHelper) {
  // A long batch whose tasks block until released holds its caller and
  // every helper. A tiny batch from another caller must not wait for a
  // helper: it runs all its indices on its own thread and returns.
  const std::size_t cores = util::default_thread_count();
  std::atomic<std::size_t> inside{0};
  std::atomic<bool> release{false};
  std::thread long_caller([&] {
    ThreadPool(cores).parallel_for(2 * cores, [&](std::size_t) {
      ++inside;
      while (!release.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
  });
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (inside.load() < cores && std::chrono::steady_clock::now() < give_up)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(inside.load(), cores) << "the long batch never held every helper";

  std::atomic<int> off_caller{0};
  std::atomic<int> ran{0};
  auto tiny = std::async(std::launch::async, [&] {
    const auto caller = std::this_thread::get_id();
    ThreadPool(4).parallel_for(3, [&](std::size_t) {
      if (std::this_thread::get_id() != caller) ++off_caller;
      ++ran;
    });
  });
  const bool finished =
      tiny.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  const bool long_batch_still_held = !release.load();
  release = true;
  long_caller.join();
  tiny.get();
  EXPECT_TRUE(finished) << "the tiny batch waited for the long batch";
  EXPECT_TRUE(long_batch_still_held);
  EXPECT_EQ(ran.load(), 3);
  EXPECT_EQ(off_caller.load(), 0);
}

TEST(ThreadPool, NoBudgetStartsMoreThanCoresMinusOneHelpers) {
  // A budget far above the core count, with nested batches on it, must
  // leave the process at most cores - 1 threads above where it started:
  // batches share the process-wide helpers and never start a thread.
  std::thread([] {}).join();  // TSan's helper thread joins the baseline
  const std::size_t before = process_threads();
  ASSERT_GT(before, 0u);
  const std::size_t cores = util::default_thread_count();
  ThreadPool pool(8 * cores);
  std::atomic<std::size_t> peak{0};
  const auto sample = [&] {
    const std::size_t now = process_threads();
    std::size_t seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
  };
  pool.parallel_for(16 * cores, [&](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    sample();
    pool.parallel_for(8, [&](std::size_t) { sample(); });
  });
  sample();
  EXPECT_LE(peak.load(), before + cores - 1);
  EXPECT_LE(process_threads(), before + cores - 1);
}

TEST(RngSplit, IsPureAndDoesNotAdvanceParent) {
  util::Rng parent(21);
  const std::uint64_t before = util::Rng(parent).next_u64();
  util::Rng a = parent.split(5);
  util::Rng b = parent.split(5);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_EQ(util::Rng(parent).next_u64(), before);  // parent untouched
}

TEST(RngSplit, DistinctStreamsDiverge) {
  util::Rng parent(22);
  util::Rng a = parent.split(0);
  util::Rng b = parent.split(1);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(RngSplit, SplitSeedMatchesSplit) {
  const util::Rng parent(23);
  util::Rng via_split = parent.split(9);
  util::Rng via_seed{parent.split_seed(9)};
  for (int i = 0; i < 16; ++i)
    EXPECT_EQ(via_split.next_u64(), via_seed.next_u64());
}

// --- Determinism contracts: threads = 1 vs threads = 4 -------------------

TEST(ParallelDeterminism, RobustnessSummaryIsThreadCountInvariant) {
  analysis::RobustnessConfig config;
  config.n_seeds = 4;
  config.threads = 1;
  const auto serial = analysis::analyze_robustness(config);
  config.threads = 4;
  const auto parallel = analysis::analyze_robustness(config);
  ASSERT_EQ(serial.criteria.size(), parallel.criteria.size());
  EXPECT_EQ(serial.n_seeds, parallel.n_seeds);
  for (std::size_t i = 0; i < serial.criteria.size(); ++i) {
    EXPECT_EQ(serial.criteria[i].name, parallel.criteria[i].name);
    EXPECT_EQ(serial.criteria[i].held, parallel.criteria[i].held);
    EXPECT_EQ(serial.criteria[i].total, parallel.criteria[i].total);
  }
}

TEST(ParallelDeterminism, PowerResultIsThreadCountInvariant) {
  analysis::PowerConfig config;
  config.n_replicates = 6;
  config.threads = 1;
  const auto serial = analysis::estimate_power(config);
  config.threads = 4;
  const auto parallel = analysis::estimate_power(config);
  EXPECT_EQ(serial.power, parallel.power);
  EXPECT_EQ(serial.mean_estimate, parallel.mean_estimate);  // bit-identical
  EXPECT_EQ(serial.mean_std_error, parallel.mean_std_error);
}

TEST(ParallelDeterminism, EmbeddingModelIsThreadCountInvariant) {
  const auto corpus = embed::generate_corpus(600, 42);
  embed::EmbeddingOptions options;
  options.threads = 1;
  const auto serial = embed::EmbeddingModel::train(corpus, options);
  options.threads = 4;
  const auto parallel = embed::EmbeddingModel::train(corpus, options);
  ASSERT_EQ(serial.vocabulary_size(), parallel.vocabulary_size());
  // Every in-vocabulary vector must match bit for bit.
  for (const auto& sentence : corpus)
    for (const auto& token : sentence)
      EXPECT_EQ(serial.embed_token(token), parallel.embed_token(token))
          << token;
}

}  // namespace
