// Tests for the common substrate: rng, stats, queues, thread pool, bytes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/bytes.h"
#include "common/queue.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"

namespace shredder {
namespace {

TEST(SplitMix64, DeterministicFromSeed) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiffer) {
  SplitMix64 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next() == b.next();
  EXPECT_EQ(same, 0);
}

TEST(SplitMix64, NextBelowInRange) {
  SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(SplitMix64, NextDoubleInUnitInterval) {
  SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomBytes, SizeAndDeterminism) {
  const auto a = random_bytes(1000, 5);
  const auto b = random_bytes(1000, 5);
  EXPECT_EQ(a.size(), 1000u);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, random_bytes(1000, 6));
}

TEST(RandomBytes, HighEntropy) {
  const auto data = random_bytes(1 << 16, 11);
  std::array<int, 256> counts{};
  for (auto b : data) counts[b]++;
  // Every byte value should appear (64 KB of uniform bytes).
  for (int c : counts) EXPECT_GT(c, 0);
}

TEST(RandomText, ProducesRequestedLength) {
  const auto text = random_text(5000, 3);
  EXPECT_EQ(text.size(), 5000u);
  EXPECT_EQ(text.back(), '\n');
}

TEST(RandomText, Tokenizable) {
  const auto text = random_text(2000, 3);
  // Words are separated by spaces or newlines; no other control characters.
  for (char c : text) {
    EXPECT_TRUE((c >= 'a' && c <= 'z') || c == ' ' || c == '\n') << int(c);
  }
}

TEST(MutateBytes, ZeroFractionIsIdentity) {
  const auto data = random_bytes(4096, 1);
  EXPECT_EQ(mutate_bytes(as_bytes(data), 0.0, 9), data);
}

TEST(MutateBytes, ChangesRoughlyRequestedFraction) {
  const auto data = random_bytes(1 << 20, 1);
  const auto mutated = mutate_bytes(as_bytes(data), 0.10, 9);
  ASSERT_EQ(mutated.size(), data.size());
  std::size_t diff = 0;
  for (std::size_t i = 0; i < data.size(); ++i) diff += data[i] != mutated[i];
  const double frac = static_cast<double>(diff) / data.size();
  EXPECT_GT(frac, 0.05);
  EXPECT_LT(frac, 0.15);
}

TEST(MutateBytes, RejectsBadFraction) {
  const auto data = random_bytes(16, 1);
  EXPECT_THROW(mutate_bytes(as_bytes(data), -0.1, 1), std::invalid_argument);
  EXPECT_THROW(mutate_bytes(as_bytes(data), 1.5, 1), std::invalid_argument);
}

TEST(MutateText, StaysTokenizable) {
  const auto text = random_text(10000, 3);
  const auto mutated = mutate_text(text, 0.2, 4);
  EXPECT_EQ(mutated.size(), text.size());
  for (char c : mutated) {
    EXPECT_TRUE((c >= 'a' && c <= 'z') || c == ' ' || c == '\n');
  }
}

TEST(Summary, BasicMoments) {
  Summary s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), 1.2909944, 1e-6);
}

TEST(Summary, StddevStableUnderLargeMean) {
  // Welford regression: with sum_sq - sum^2/n the 1e18-scale squares cancel
  // catastrophically and the old code returned 0 (or garbage) here.
  Summary s;
  for (double x : {1e9 + 0.0, 1e9 + 1.0, 1e9 + 2.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 1e9 + 1.0);
  EXPECT_NEAR(s.stddev(), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(s.min(), 1e9);
  EXPECT_DOUBLE_EQ(s.max(), 1e9 + 2.0);
}

TEST(Summary, StddevZeroForConstantLargeValues) {
  Summary s;
  for (int i = 0; i < 5; ++i) s.add(1e12);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(SummaryFromWindow, CarriesFirstMomentsOnly) {
  const Summary w = Summary::from_window(4, 10.0, 1.0, 4.0);
  EXPECT_EQ(w.count(), 4u);
  EXPECT_DOUBLE_EQ(w.sum(), 10.0);
  EXPECT_DOUBLE_EQ(w.mean(), 2.5);
  EXPECT_DOUBLE_EQ(w.min(), 1.0);
  EXPECT_DOUBLE_EQ(w.max(), 4.0);
  EXPECT_DOUBLE_EQ(w.stddev(), 0.0);  // m2 not recoverable from a window
}

TEST(TablePrinter, FormatsRows) {
  TablePrinter t({"a", "b"});
  t.add_row({"1", "2"});
  const auto s = t.to_string();
  EXPECT_NE(s.find('a'), std::string::npos);
  EXPECT_NE(s.find('1'), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(TablePrinter, OversizedCellDoesNotShiftLaterColumns) {
  TablePrinter t({"col0", "col1", "col2"}, 8);
  t.add_row({"wider-cell", "x", "y"});  // 10 chars overflow the 8-wide col0
  t.add_row({"ok", "p", "q"});
  const auto s = t.to_string();
  // Find the two data lines.
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const auto nl = s.find('\n', pos);
    lines.push_back(s.substr(pos, nl - pos));
    pos = nl + 1;
  }
  ASSERT_GE(lines.size(), 4u);
  const std::string& wide = lines[2];
  const std::string& normal = lines[3];
  // col2 realigns to the 2*8 grid position in both rows: "y" lands at the
  // same column as "q" even though col0 overflowed in the row above.
  EXPECT_EQ(wide.find('y'), normal.find('q'));
  // The overflowing cell still keeps at least one space before col1.
  EXPECT_NE(wide.find("wider-cell x"), std::string::npos);
}

TEST(HumanBytes, Formats) {
  EXPECT_EQ(human_bytes(512), "512 B");
  EXPECT_EQ(human_bytes(16 * 1024 * 1024), "16 MB");
}

TEST(BoundedQueue, FifoOrder) {
  BoundedQueue<int> q(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.push(i));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(q.pop().value(), i);
}

TEST(BoundedQueue, CloseDrains) {
  BoundedQueue<int> q(4);
  q.push(1);
  q.close();
  EXPECT_FALSE(q.push(2));
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueue, RejectsZeroCapacity) {
  EXPECT_THROW(BoundedQueue<int>(0), std::invalid_argument);
}

TEST(BoundedQueue, ConcurrentProducersConsumers) {
  BoundedQueue<int> q(8);
  constexpr int kPerProducer = 500;
  std::atomic<int> sum{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < 4; ++p) {
    threads.emplace_back([&q] {
      for (int i = 1; i <= kPerProducer; ++i) q.push(i);
    });
  }
  for (int c = 0; c < 4; ++c) {
    threads.emplace_back([&] {
      while (auto v = q.pop()) sum += *v;
    });
  }
  for (int p = 0; p < 4; ++p) threads[static_cast<std::size_t>(p)].join();
  q.close();
  for (int c = 4; c < 8; ++c) threads[static_cast<std::size_t>(c)].join();
  EXPECT_EQ(sum.load(), 4 * kPerProducer * (kPerProducer + 1) / 2);
}

// TSan-targeted stress: producers and consumers running full tilt while the
// queue is closed out from under them mid-stream. Exercises the push-drop
// path (push() returning false on a closed queue), the close() broadcast
// waking blocked pushers and poppers, and the post-close drain — the
// happens-before edges the TSan CI lane exists to check.
TEST(BoundedQueue, CloseRacesProducersAndConsumers) {
  BoundedQueue<int> q(4);
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 2000;
  std::atomic<int> pushed{0};
  std::atomic<int> popped{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        if (!q.push(i)) return;  // closed under us — expected
        pushed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (q.pop()) popped.fetch_add(1, std::memory_order_relaxed);
    });
  }
  q.close();  // races both sides
  for (auto& t : threads) t.join();
  EXPECT_TRUE(q.closed());
  // A push succeeds only while the queue is open, and consumers exit only
  // once the queue is closed AND drained — so every successful push was
  // matched by a pop.
  EXPECT_EQ(popped.load(), pushed.load());
  EXPECT_EQ(q.size(), 0u);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i]++;
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ExceptionsPropagate) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(10,
                        [](std::size_t, std::size_t) {
                          throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

// Regression: an exception in one range must not unwind parallel_for while
// sibling tasks are still running — every task (even later throwers) runs to
// completion before the first error is rethrown, and the pool stays usable.
TEST(ThreadPool, ExceptionWaitsForSiblingTasks) {
  ThreadPool pool(4);
  std::atomic<int> started{0};
  EXPECT_THROW(pool.parallel_for(8,
                                 [&](std::size_t begin, std::size_t) {
                                   started++;
                                   if (begin % 2 == 0) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  EXPECT_EQ(started.load(), 4);  // one per partition, none abandoned
  std::atomic<int> after{0};
  pool.parallel_for(10, [&](std::size_t begin, std::size_t end) {
    after += static_cast<int>(end - begin);
  });
  EXPECT_EQ(after.load(), 10);
}

TEST(ThreadPool, ParallelForRunsOneRangeOnTheCaller) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  // Each range records its thread in its own slots, so no two write one.
  std::vector<std::thread::id> ran_on(8);
  pool.parallel_for(8, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      ran_on[i] = std::this_thread::get_id();
    }
  });
  // Four ranges of two: the first on the caller, the other three not.
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(ran_on[i] == caller, i < 2) << i;
  }
  std::thread::id only_range;
  pool.parallel_for(1, [&](std::size_t, std::size_t) {
    only_range = std::this_thread::get_id();
  });
  EXPECT_EQ(only_range, caller);
}

// An exception from the caller's own range must not unwind parallel_for
// while a submitted range still runs: that range captures `fn` and the
// caller's locals by reference.
TEST(ThreadPool, CallerRangeExceptionWaitsForSubmittedRanges) {
  ThreadPool pool(2);
  std::atomic<bool> submitted_done{false};
  EXPECT_THROW(pool.parallel_for(2,
                                 [&](std::size_t begin, std::size_t) {
                                   if (begin == 0) {
                                     throw std::runtime_error("caller");
                                   }
                                   std::this_thread::sleep_for(
                                       std::chrono::milliseconds(20));
                                   submitted_done = true;
                                 }),
               std::runtime_error);
  EXPECT_TRUE(submitted_done.load());
  std::atomic<int> after{0};
  pool.parallel_for(10, [&](std::size_t begin, std::size_t end) {
    after += static_cast<int>(end - begin);
  });
  EXPECT_EQ(after.load(), 10);
}

TEST(ThreadPool, ForEachIndexRunsAll) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  pool.for_each_index(57, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 57);
}

}  // namespace
}  // namespace shredder
