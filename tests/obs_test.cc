// Tests for the observability layer: metrics registry and virtual-time
// tracer (docs/observability.md).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <iomanip>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.h"
#include "obs/trace.h"

namespace shredder::obs {
namespace {

TEST(Registry, CounterRegistrationIsIdempotent) {
  Registry reg;
  Counter& a = reg.counter("svc.bytes_total");
  Counter& b = reg.counter("svc.bytes_total");
  EXPECT_EQ(&a, &b);
  a.add(3);
  b.add(4);
  EXPECT_EQ(a.value(), 7u);
}

TEST(Registry, LabelOrderDoesNotSplitMetrics) {
  Registry reg;
  Counter& a = reg.counter("m", {{"b", "2"}, {"a", "1"}});
  Counter& b = reg.counter("m", {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(&a, &b);
  Counter& other = reg.counter("m", {{"a", "1"}, {"b", "3"}});
  EXPECT_NE(&a, &other);
}

TEST(Registry, TypeMismatchThrows) {
  Registry reg;
  reg.counter("m");
  EXPECT_THROW(reg.gauge("m"), std::invalid_argument);
  EXPECT_THROW(reg.timing("m"), std::invalid_argument);
  reg.timing("t");
  EXPECT_THROW(reg.counter("t"), std::invalid_argument);
}

TEST(Registry, DisabledMutatorsFreezeValues) {
  Registry reg;
  Counter& c = reg.counter("c");
  Gauge& g = reg.gauge("g");
  Timing& t = reg.timing("t");
  c.add(5);
  g.set(2.5);
  t.observe(1.0);
  reg.set_enabled(false);
  c.add(100);
  g.set(99.0);
  t.observe(100.0);
  EXPECT_EQ(c.value(), 5u);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  EXPECT_EQ(t.summary().count(), 1u);
  reg.set_enabled(true);
  c.add(1);
  EXPECT_EQ(c.value(), 6u);
}

TEST(Registry, TimingMergesAcrossThreads) {
  Registry reg;
  Timing& t = reg.timing("stage_seconds");
  constexpr int kThreads = 6;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&t, w] {
      for (int i = 0; i < kPerThread; ++i) {
        t.observe(static_cast<double>(w) + 1.0);
      }
    });
  }
  for (auto& th : threads) th.join();
  const Summary s = t.summary();
  EXPECT_EQ(s.count(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 6.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
}

// A timing's sum depends only on the observed values and their order, not
// on which threads observed them: the same three values observed on one
// thread, and split over two threads that run one after the other, sum
// bit-identically. (Per-thread partial sums merged at snapshot time would
// read (0.1 + 0.2) + 0.3 in one case and 0.1 + (0.2 + 0.3) in the other.)
TEST(Registry, TimingSumDoesNotDependOnWriterThreads) {
  Registry reg;
  Timing& one = reg.timing("one_thread_seconds");
  std::thread([&one] {
    one.observe(0.1);
    one.observe(0.2);
    one.observe(0.3);
  }).join();
  Timing& two = reg.timing("two_threads_seconds");
  std::thread([&two] { two.observe(0.1); }).join();
  std::thread([&two] {
    two.observe(0.2);
    two.observe(0.3);
  }).join();
  const double one_thread = one.summary().sum();
  const double two_threads = two.summary().sum();
  // Exact, not NEAR; 17 digits so a failure shows the last-bit difference.
  EXPECT_EQ(one_thread, two_threads)
      << std::setprecision(17) << one_thread << " vs " << two_threads;
  EXPECT_EQ(two.summary().count(), 3u);
}

// TSan-targeted stress: writer threads observing one Timing while another
// thread repeatedly reads it via Registry::snapshot(), plus concurrent
// metric registration growing the registry's entry list. Monotonicity of
// the observed counts across snapshots is the correctness witness; TSan
// checks the memory ordering.
TEST(Registry, SnapshotRacesShardWriters) {
  Registry reg;
  Timing& t = reg.timing("hot_stage_seconds");
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 4000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&t, &reg, w] {
      // Interleave observes with fresh registrations so the snapshot thread
      // also races entries_ growth, not just shard merging.
      Counter& c = reg.counter("writer_total", {{"w", std::to_string(w)}});
      for (int i = 0; i < kPerWriter; ++i) {
        t.observe(static_cast<double>(i % 7));
        c.add(1);
      }
    });
  }
  std::uint64_t last_count = 0;
  std::thread snapshotter([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const MetricSample& s : reg.snapshot()) {
        if (s.name == "hot_stage_seconds") {
          EXPECT_GE(s.summary.count(), last_count);  // merged counts only grow
          last_count = s.summary.count();
        }
      }
    }
  });
  for (int w = 0; w < kWriters; ++w) threads[static_cast<std::size_t>(w)].join();
  stop.store(true, std::memory_order_release);
  snapshotter.join();
  EXPECT_EQ(t.summary().count(),
            static_cast<std::uint64_t>(kWriters * kPerWriter));
  EXPECT_EQ(reg.counter_sum("writer_total"),
            static_cast<std::uint64_t>(kWriters * kPerWriter));
}

TEST(Registry, CounterSumRollsUpLabelSets) {
  Registry reg;
  reg.counter("svc.retx_total", {{"tenant", "a"}}).add(2);
  reg.counter("svc.retx_total", {{"tenant", "b"}}).add(5);
  reg.counter("other").add(100);
  EXPECT_EQ(reg.counter_sum("svc.retx_total"), 7u);
  EXPECT_EQ(reg.counter_sum("absent"), 0u);
}

TEST(Registry, SnapshotAndDelta) {
  Registry reg;
  Counter& c = reg.counter("c");
  Gauge& g = reg.gauge("g");
  Timing& t = reg.timing("t");
  c.add(10);
  g.set(1.0);
  t.observe(2.0);
  const auto base = reg.snapshot();
  c.add(5);
  g.set(7.0);
  t.observe(4.0);
  t.observe(6.0);
  const auto now = reg.snapshot();
  const auto d = Registry::delta(base, now);
  ASSERT_EQ(d.size(), 3u);
  EXPECT_DOUBLE_EQ(d[0].value, 5.0);   // counter delta
  EXPECT_DOUBLE_EQ(d[1].value, 7.0);   // gauge passes through
  EXPECT_EQ(d[2].summary.count(), 2u);  // window count
  EXPECT_DOUBLE_EQ(d[2].summary.mean(), 5.0);  // (4+6)/2
}

TEST(Registry, DeltaHandlesMetricsBornAfterBase) {
  Registry reg;
  reg.counter("old").add(1);
  const auto base = reg.snapshot();
  reg.counter("new").add(9);
  const auto d = Registry::delta(base, reg.snapshot());
  ASSERT_EQ(d.size(), 2u);
  EXPECT_DOUBLE_EQ(d[1].value, 9.0);  // deltas against zero
}

TEST(Registry, JsonExportIsWellFormed) {
  Registry reg;
  reg.counter("c", {{"k", "v\"quote"}}).add(1);
  reg.gauge("g").set(2.5);
  reg.timing("t").observe(3.0);
  const std::string json = reg.to_json();
  // Structural sanity: balanced braces/brackets outside strings and the
  // escaped label survived.
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char ch = json[i];
    if (in_string) {
      if (ch == '\\') ++i;
      else if (ch == '"') in_string = false;
      continue;
    }
    if (ch == '"') in_string = true;
    else if (ch == '{' || ch == '[') ++depth;
    else if (ch == '}' || ch == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
  EXPECT_NE(json.find("\\\"quote"), std::string::npos);
  EXPECT_NE(json.find("\"c\""), std::string::npos);
}

TEST(Registry, TableExportListsEveryMetric) {
  Registry reg;
  reg.counter("alpha").add(1);
  reg.timing("beta", {{"stage", "h2d"}}).observe(0.5);
  const std::string table = reg.to_table();
  EXPECT_NE(table.find("alpha"), std::string::npos);
  EXPECT_NE(table.find("beta"), std::string::npos);
  EXPECT_NE(table.find("h2d"), std::string::npos);
}

TEST(MetricKey, CanonicalRendering) {
  EXPECT_EQ(metric_key("m", {}), "m");
  EXPECT_EQ(metric_key("m", {{"a", "1"}, {"b", "2"}}), "m{a=1,b=2}");
}

TEST(Tracer, TrackBusySumsSpans) {
  Tracer tr;
  tr.span("engine/h2d", "a", 0.0, 1.5);
  tr.span("engine/h2d", "b", 2.0, 2.25);
  tr.span("engine/compute", "c", 0.0, 10.0);
  EXPECT_DOUBLE_EQ(tr.track_busy("engine/h2d"), 1.75);
  EXPECT_DOUBLE_EQ(tr.track_busy("engine/compute"), 10.0);
  EXPECT_DOUBLE_EQ(tr.track_busy("absent"), 0.0);
}

TEST(Tracer, NegativeDurationClampsToZero) {
  Tracer tr;
  tr.span("t", "backwards", 5.0, 3.0);
  EXPECT_DOUBLE_EQ(tr.track_busy("t"), 0.0);
  EXPECT_EQ(tr.event_count(), 1u);
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer tr;
  tr.set_enabled(false);
  tr.span("t", "a", 0.0, 1.0);
  tr.instant("t", "b", 0.5);
  tr.counter("t", "c", 0.5, 1.0);
  EXPECT_EQ(tr.event_count(), 0u);
}

TEST(Tracer, JsonHasMetadataAndSortedEvents) {
  Tracer tr;
  tr.span("tenant/alpha", "late", 2.0, 3.0, {{"seq", "1"}});
  tr.span("engine/h2d", "early", 0.0, 1.0);
  tr.instant("tenant/alpha", "eos", 4.0);
  tr.counter("sched/alpha", "credit", 1.0, 0.5);
  const std::string json = tr.to_json();
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\"", 0), 0u);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // One thread_name metadata row per track.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("tenant/alpha"), std::string::npos);
  EXPECT_NE(json.find("engine/h2d"), std::string::npos);
  EXPECT_NE(json.find("sched/alpha"), std::string::npos);
  // Events sorted by timestamp: "early" (ts 0) precedes "late" (ts 2e6 us).
  EXPECT_LT(json.find("\"early\""), json.find("\"late\""));
  // Event phases present: complete span, instant, counter.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  // Span args survive.
  EXPECT_NE(json.find("\"seq\":\"1\""), std::string::npos);
}

TEST(Tracer, WriteJsonRoundTrips) {
  Tracer tr;
  tr.span("t", "a", 0.0, 1.0);
  const std::string path = ::testing::TempDir() + "obs_trace_test.json";
  tr.write_json(path);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) contents.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(contents, tr.to_json());
  EXPECT_THROW(tr.write_json("/nonexistent-dir/x/y.json"),
               std::runtime_error);
}

TEST(Tracer, ConcurrentRecordingKeepsEveryEvent) {
  Tracer tr;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&tr, w] {
      const std::string track = "track/" + std::to_string(w % 3);
      for (int i = 0; i < kPerThread; ++i) {
        tr.span(track, "op", i, i + 0.5);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(tr.event_count(),
            static_cast<std::size_t>(kThreads * kPerThread));
  const double busy = tr.track_busy("track/0") + tr.track_busy("track/1") +
                      tr.track_busy("track/2");
  EXPECT_NEAR(busy, kThreads * kPerThread * 0.5, 1e-6);
}

}  // namespace
}  // namespace shredder::obs
