#include "lbmem/obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "lbmem/util/check.hpp"

namespace lbmem::obs {

const char* to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::Counter: return "counter";
    case MetricKind::Gauge: return "gauge";
    case MetricKind::Histogram: return "histogram";
  }
  return "?";
}

// ---- LatencyHistogram -----------------------------------------------------
//
// Bucket layout: indices 0..63 hold the exact values 0..63 (width 1).
// Above that, each power-of-two range [2^e, 2^(e+1)) for e >= 6 is split
// into 32 equal sub-buckets of width 2^(e-5). The index is derived from
// the bit width alone — no loops, no floating point — and the upper edge
// reconstructs exactly.

std::size_t LatencyHistogram::bucket_index(std::int64_t value) {
  if (value < 64) return static_cast<std::size_t>(value);
  const auto v = static_cast<std::uint64_t>(value);
  const int msb = std::bit_width(v) - 1;       // >= 6
  const int shift = msb - 5;                   // sub-bucket width = 2^shift
  const auto sub = static_cast<std::size_t>(v >> shift);  // in [32, 64)
  return 64 + static_cast<std::size_t>(msb - 6) * 32 + (sub - 32);
}

std::int64_t LatencyHistogram::bucket_upper_edge(std::size_t index) {
  if (index < 64) return static_cast<std::int64_t>(index);
  const std::size_t rel = index - 64;
  const int msb = static_cast<int>(rel / 32) + 6;
  const std::size_t sub = rel % 32 + 32;
  const int shift = msb - 5;
  // Highest value mapping to this bucket: ((sub + 1) << shift) - 1.
  return static_cast<std::int64_t>(
      ((static_cast<std::uint64_t>(sub) + 1) << shift) - 1);
}

void LatencyHistogram::record(std::int64_t value) {
  if (value < 0) value = 0;  // sizes/latencies are non-negative; clamp
  const std::size_t index = bucket_index(value);
  if (index >= counts_.size()) counts_.resize(index + 1, 0);
  ++counts_[index];
  ++count_;
  sum_ += value;
  if (count_ == 1) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (other.count_ == 0) return;
  if (other.counts_.size() > counts_.size()) {
    counts_.resize(other.counts_.size(), 0);
  }
  for (std::size_t i = 0; i < other.counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

std::int64_t LatencyHistogram::percentile(double pct) const {
  if (count_ == 0) return 0;
  pct = std::min(pct, 100.0);
  // Nearest rank: the smallest rank r with r/count >= pct/100, at least 1.
  const auto rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::ceil(pct / 100.0 * static_cast<double>(count_))));
  std::int64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen >= rank) {
      // The max is exact; never report a bucket edge beyond it.
      return std::min(bucket_upper_edge(i), max_);
    }
  }
  return max_;
}

std::vector<std::pair<std::int64_t, std::int64_t>> LatencyHistogram::buckets()
    const {
  std::vector<std::pair<std::int64_t, std::int64_t>> out;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] != 0) out.emplace_back(bucket_upper_edge(i), counts_[i]);
  }
  return out;
}

// ---- Registry -------------------------------------------------------------

MetricId Registry::register_metric(const std::string& name, MetricKind kind,
                                   MetricClass cls) {
  LBMEM_REQUIRE(!name.empty(), "metric names must be non-empty");
  for (const Desc& d : descs_) {
    if (d.name == name) {
      LBMEM_REQUIRE(d.kind == kind && d.cls == cls,
                    "metric re-registered with a different kind or class: " +
                        name);
      return MetricId{d.slot, d.kind};
    }
  }
  std::uint32_t slot = 0;
  if (kind == MetricKind::Histogram) {
    slot = static_cast<std::uint32_t>(histograms_.size());
    histograms_.emplace_back();
  } else {
    slot = static_cast<std::uint32_t>(scalars_.size());
    scalars_.push_back(0);
  }
  descs_.push_back(Desc{name, kind, cls, slot});
  return MetricId{slot, kind};
}

MetricId Registry::counter(const std::string& name, MetricClass cls) {
  return register_metric(name, MetricKind::Counter, cls);
}
MetricId Registry::gauge(const std::string& name, MetricClass cls) {
  return register_metric(name, MetricKind::Gauge, cls);
}
MetricId Registry::histogram(const std::string& name, MetricClass cls) {
  return register_metric(name, MetricKind::Histogram, cls);
}

void Registry::add(MetricId id, std::int64_t delta) {
  LBMEM_REQUIRE(id.kind == MetricKind::Counter && id.slot < scalars_.size(),
                "add() takes a counter id of this registry");
  scalars_[id.slot] += delta;
}

void Registry::raise(MetricId id, std::int64_t value) {
  LBMEM_REQUIRE(id.kind == MetricKind::Gauge && id.slot < scalars_.size(),
                "raise() takes a gauge id of this registry");
  scalars_[id.slot] = std::max(scalars_[id.slot], value);
}

void Registry::record(MetricId id, std::int64_t value) {
  LBMEM_REQUIRE(
      id.kind == MetricKind::Histogram && id.slot < histograms_.size(),
      "record() takes a histogram id of this registry");
  histograms_[id.slot].record(value);
}

void Registry::merge(MetricId id, const LatencyHistogram& values) {
  LBMEM_REQUIRE(
      id.kind == MetricKind::Histogram && id.slot < histograms_.size(),
      "merge() takes a histogram id of this registry");
  histograms_[id.slot].merge(values);
}

void Registry::merge(const Registry& other) {
  for (const Desc& d : other.descs_) {
    const MetricId id = register_metric(d.name, d.kind, d.cls);
    if (d.kind == MetricKind::Histogram) {
      histograms_[id.slot].merge(other.histograms_[d.slot]);
    } else if (d.kind == MetricKind::Gauge) {
      scalars_[id.slot] = std::max(scalars_[id.slot], other.scalars_[d.slot]);
    } else {
      scalars_[id.slot] += other.scalars_[d.slot];
    }
  }
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  snap.entries.reserve(descs_.size());
  for (const Desc& d : descs_) {
    SnapshotEntry entry;
    entry.name = d.name;
    entry.kind = d.kind;
    entry.cls = d.cls;
    if (d.kind == MetricKind::Histogram) {
      entry.histogram = histograms_[d.slot];
    } else {
      entry.value = scalars_[d.slot];
    }
    snap.entries.push_back(std::move(entry));
  }
  // Name-sorted: the emitted order must not depend on which layer, or
  // which folded registry, registered a name first.
  std::sort(snap.entries.begin(), snap.entries.end(),
            [](const SnapshotEntry& a, const SnapshotEntry& b) {
              return a.name < b.name;
            });
  return snap;
}

const SnapshotEntry* Snapshot::find(const std::string& name) const {
  for (const SnapshotEntry& entry : entries) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

}  // namespace lbmem::obs
