// Unified metrics registry: named, labeled counters/gauges/timings shared by
// every subsystem (docs/observability.md).
//
// The repo's telemetry grew one struct per layer — TenantReport,
// BackupRunStats, TransportStats, IndexStats, KernelRunStats, LinkStats —
// each plumbed by hand to whoever wanted it. The registry is the common
// sink: a hook site increments a Counter or observes a Timing, and any
// consumer (the obs bench, perfbench, a test) reads one snapshot instead of
// six structs.
//
// Design constraints, in order:
//   * Near-zero cost when disabled: every mutator early-outs on one relaxed
//     atomic load, so hooks can live on per-buffer hot paths unconditionally
//     ("compiled in but disabled" is the <= 2% bar `microbench --obs_json`
//     enforces).
//   * Cheap when enabled: counters/gauges are single relaxed atomics;
//     a timing takes one mutex per observation, which only a concurrent
//     snapshot contends.
//   * No behavior change either way: metrics are write-only from the hot
//     path; nothing in the pipeline reads them back.
//
// Metric identity is (name, labels) with labels sorted by key, so
// `timing("stage_seconds", {{"stage","h2d"}})` always lands on the same
// object regardless of call-site label order. Naming scheme:
// `<module>.<noun>_<unit>` with `_total` for counters
// (e.g. "service.bytes_total", "pipeline.stage_seconds").
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/stats.h"

namespace shredder::obs {

// Sorted-by-key label set; the registry canonicalizes order on registration.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Registry;

// Monotonically increasing event/byte count.
class Counter {
 public:
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) noexcept {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  const std::atomic<bool>* enabled_;
  std::atomic<std::uint64_t> value_{0};
};

// Last-write-wins instantaneous value (queue depth, credit, occupancy).
class Gauge {
 public:
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(double v) noexcept {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.store(v, std::memory_order_relaxed);
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  const std::atomic<bool>* enabled_;
  std::atomic<double> value_{0.0};
};

// Distribution of observed values (stage seconds, chunk sizes): a Summary
// under one mutex. Every timing the repo registers has one writer at a time
// (a pipeline stage, a store caller, one snapshot), so the lock is contended
// only by a concurrent snapshot, and the sum is the observations' sum in the
// order they were made, whichever threads made them.
class Timing {
 public:
  Timing(const Timing&) = delete;
  Timing& operator=(const Timing&) = delete;

  void observe(double v) EXCLUDES(mu_);

  Summary summary() const EXCLUDES(mu_);

 private:
  friend class Registry;
  explicit Timing(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  const std::atomic<bool>* enabled_;
  mutable Mutex mu_;
  Summary summary_ GUARDED_BY(mu_);
};

// One metric's state at snapshot time.
struct MetricSample {
  enum class Type { kCounter, kGauge, kTiming };

  std::string name;
  Labels labels;
  Type type = Type::kCounter;
  double value = 0;   // counter (as double) or gauge
  Summary summary;    // timing only
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Disabling makes every mutator a relaxed load + branch; existing values
  // freeze but stay readable.
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  // Idempotent registration: the same (name, labels) returns the same
  // object; a type mismatch throws std::invalid_argument. Returned
  // references stay valid for the registry's lifetime.
  Counter& counter(const std::string& name, Labels labels = {});
  Gauge& gauge(const std::string& name, Labels labels = {});
  Timing& timing(const std::string& name, Labels labels = {});

  // All metrics in registration order.
  std::vector<MetricSample> snapshot() const;

  // now - base, matched by (name, labels): counters and timing
  // count/sum deltas subtract; gauges pass through; a timing delta's
  // mean is recomputed from the window while min/max stay run-cumulative
  // (windowed extrema are not recoverable from two cumulative snapshots).
  // Metrics born after `base` delta against zero.
  static std::vector<MetricSample> delta(
      const std::vector<MetricSample>& base,
      const std::vector<MetricSample>& now);

  // Sum of a counter across every label set (0 when absent): the roll-up
  // primitive for reading a labeled counter as one fleet-wide total.
  std::uint64_t counter_sum(const std::string& name) const;

  std::string to_json() const;
  static std::string to_json(const std::vector<MetricSample>& samples);
  std::string to_table() const;
  static std::string to_table(const std::vector<MetricSample>& samples);

 private:
  struct Entry {
    MetricSample::Type type = MetricSample::Type::kCounter;
    std::string name;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Timing> timing;
  };

  Entry& entry(MetricSample::Type type, const std::string& name,
               Labels labels) EXCLUDES(mu_);

  mutable Mutex mu_;
  // Registration order; entries are never removed, so pointers handed out by
  // counter()/gauge()/timing() stay valid without the lock.
  std::vector<std::unique_ptr<Entry>> entries_ GUARDED_BY(mu_);
  std::unordered_map<std::string, Entry*> by_key_ GUARDED_BY(mu_);
  std::atomic<bool> enabled_{true};
};

// Canonical "name{k=v,...}" rendering shared by exports and tests.
std::string metric_key(const std::string& name, const Labels& labels);

}  // namespace shredder::obs
