#include "obs/registry.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace shredder::obs {

namespace {

void sort_labels(Labels& labels) {
  std::sort(labels.begin(), labels.end());
}

// Minimal JSON string escaping: quotes, backslashes and control bytes —
// metric names and label values are plain identifiers in practice, but the
// export must never emit invalid JSON.
void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out += buf;
}

const char* type_name(MetricSample::Type t) {
  switch (t) {
    case MetricSample::Type::kCounter: return "counter";
    case MetricSample::Type::kGauge: return "gauge";
    case MetricSample::Type::kTiming: return "timing";
  }
  return "?";
}

}  // namespace

std::string metric_key(const std::string& name, const Labels& labels) {
  if (labels.empty()) return name;  // bare name reads better in tables
  std::string key = name;
  key += '{';
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) key += ',';
    key += labels[i].first;
    key += '=';
    key += labels[i].second;
  }
  key += '}';
  return key;
}

// --- Timing ----------------------------------------------------------------

void Timing::observe(double v) {
  if (!enabled_->load(std::memory_order_relaxed)) return;
  MutexLock lock(mu_);
  summary_.add(v);
}

Summary Timing::summary() const {
  MutexLock lock(mu_);
  return summary_;
}

// --- Registry --------------------------------------------------------------

Registry::Entry& Registry::entry(MetricSample::Type type,
                                 const std::string& name, Labels labels) {
  sort_labels(labels);
  const std::string key = metric_key(name, labels);
  MutexLock lock(mu_);
  const auto it = by_key_.find(key);
  if (it != by_key_.end()) {
    if (it->second->type != type) {
      throw std::invalid_argument("Registry: metric '" + key +
                                  "' re-registered as a different type");
    }
    return *it->second;
  }
  auto e = std::make_unique<Entry>();
  e->type = type;
  e->name = name;
  e->labels = std::move(labels);
  switch (type) {
    case MetricSample::Type::kCounter:
      e->counter.reset(new Counter(&enabled_));
      break;
    case MetricSample::Type::kGauge:
      e->gauge.reset(new Gauge(&enabled_));
      break;
    case MetricSample::Type::kTiming:
      e->timing.reset(new Timing(&enabled_));
      break;
  }
  Entry* p = e.get();
  entries_.push_back(std::move(e));
  by_key_.emplace(key, p);
  return *p;
}

Counter& Registry::counter(const std::string& name, Labels labels) {
  return *entry(MetricSample::Type::kCounter, name, std::move(labels)).counter;
}

Gauge& Registry::gauge(const std::string& name, Labels labels) {
  return *entry(MetricSample::Type::kGauge, name, std::move(labels)).gauge;
}

Timing& Registry::timing(const std::string& name, Labels labels) {
  return *entry(MetricSample::Type::kTiming, name, std::move(labels)).timing;
}

std::vector<MetricSample> Registry::snapshot() const {
  // Copy the entry list under the lock, then read metric values without it:
  // Timing::summary() takes its own lock and entries are never removed.
  std::vector<const Entry*> entries;
  {
    MutexLock lock(mu_);
    entries.reserve(entries_.size());
    for (const auto& e : entries_) entries.push_back(e.get());
  }
  std::vector<MetricSample> out;
  out.reserve(entries.size());
  for (const Entry* e : entries) {
    MetricSample s;
    s.name = e->name;
    s.labels = e->labels;
    s.type = e->type;
    switch (e->type) {
      case MetricSample::Type::kCounter:
        s.value = static_cast<double>(e->counter->value());
        break;
      case MetricSample::Type::kGauge:
        s.value = e->gauge->value();
        break;
      case MetricSample::Type::kTiming:
        s.summary = e->timing->summary();
        break;
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<MetricSample> Registry::delta(
    const std::vector<MetricSample>& base,
    const std::vector<MetricSample>& now) {
  std::unordered_map<std::string, const MetricSample*> by_key;
  for (const auto& s : base) by_key.emplace(metric_key(s.name, s.labels), &s);
  std::vector<MetricSample> out;
  out.reserve(now.size());
  for (const auto& s : now) {
    MetricSample d = s;
    const auto it = by_key.find(metric_key(s.name, s.labels));
    if (it != by_key.end()) {
      const MetricSample& b = *it->second;
      switch (s.type) {
        case MetricSample::Type::kCounter:
          d.value = s.value - b.value;
          break;
        case MetricSample::Type::kGauge:
          break;  // instantaneous: the current value IS the delta view
        case MetricSample::Type::kTiming: {
          // Window count/sum subtract exactly; the mean is recomputed from
          // them. min/max stay run-cumulative and stddev is zeroed (see
          // header: windowed second moments/extrema are not recoverable
          // from two cumulative snapshots).
          const std::uint64_t dcount =
              s.summary.count() - b.summary.count();
          const double dsum = s.summary.sum() - b.summary.sum();
          Summary w;
          if (dcount > 0) {
            w = Summary::from_window(dcount, dsum, s.summary.min(),
                                     s.summary.max());
          }
          d.summary = w;
          break;
        }
      }
    }
    out.push_back(std::move(d));
  }
  return out;
}

std::uint64_t Registry::counter_sum(const std::string& name) const {
  MutexLock lock(mu_);
  std::uint64_t sum = 0;
  for (const auto& e : entries_) {
    if (e->type == MetricSample::Type::kCounter && e->name == name) {
      sum += e->counter->value();
    }
  }
  return sum;
}

std::string Registry::to_json() const { return to_json(snapshot()); }

std::string Registry::to_json(const std::vector<MetricSample>& samples) {
  std::string out = "{\"metrics\":[";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const auto& s = samples[i];
    if (i > 0) out += ',';
    out += "{\"name\":";
    append_json_string(out, s.name);
    out += ",\"labels\":{";
    for (std::size_t k = 0; k < s.labels.size(); ++k) {
      if (k > 0) out += ',';
      append_json_string(out, s.labels[k].first);
      out += ':';
      append_json_string(out, s.labels[k].second);
    }
    out += "},\"type\":\"";
    out += type_name(s.type);
    out += '"';
    if (s.type == MetricSample::Type::kTiming) {
      out += ",\"count\":";
      append_number(out, static_cast<double>(s.summary.count()));
      out += ",\"sum\":";
      append_number(out, s.summary.sum());
      out += ",\"mean\":";
      append_number(out, s.summary.count() > 0 ? s.summary.mean() : 0.0);
      out += ",\"min\":";
      append_number(out, s.summary.count() > 0 ? s.summary.min() : 0.0);
      out += ",\"max\":";
      append_number(out, s.summary.count() > 0 ? s.summary.max() : 0.0);
      out += ",\"stddev\":";
      append_number(out, s.summary.stddev());
    } else {
      out += ",\"value\":";
      append_number(out, s.value);
    }
    out += '}';
  }
  out += "]}";
  return out;
}

std::string Registry::to_table() const { return to_table(snapshot()); }

std::string Registry::to_table(const std::vector<MetricSample>& samples) {
  TablePrinter table({"metric", "type", "value/count", "mean", "min", "max"},
                     /*col_width=*/18);
  for (const auto& s : samples) {
    std::vector<std::string> row;
    row.push_back(metric_key(s.name, s.labels));
    row.push_back(type_name(s.type));
    if (s.type == MetricSample::Type::kTiming) {
      row.push_back(std::to_string(s.summary.count()));
      row.push_back(TablePrinter::fmt(
          s.summary.count() > 0 ? s.summary.mean() : 0.0, 6));
      row.push_back(TablePrinter::fmt(
          s.summary.count() > 0 ? s.summary.min() : 0.0, 6));
      row.push_back(TablePrinter::fmt(
          s.summary.count() > 0 ? s.summary.max() : 0.0, 6));
    } else {
      row.push_back(TablePrinter::fmt(s.value, 3));
      row.push_back("-");
      row.push_back("-");
      row.push_back("-");
    }
    table.add_row(row);
  }
  return table.to_string();
}

}  // namespace shredder::obs
