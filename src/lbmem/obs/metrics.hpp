#pragma once
/// \file metrics.hpp
/// \brief The metrics registry: named counters, high-watermark gauges and
/// log-bucketed latency histograms, one slot per metric.
///
/// Determinism contract (DESIGN.md F25): every metric carries a class.
///  * `Deterministic` metrics depend only on the inputs (workload, seeds,
///    options) — identical for every thread count and execution schedule.
///    They are emitted under the top-level "metrics" key.
///  * `Timing` metrics depend on the wall clock. They are emitted under
///    the top-level "timing" key, mirroring the `--timing=off`
///    discipline: stripping that one subtree leaves a byte-deterministic
///    artifact.
///
/// A registry is single-threaded: it is not safe to record into one
/// registry from two threads. Concurrent work records into a registry of
/// its own and folds it into a shared one with merge(const Registry&),
/// under the caller's lock (DESIGN.md F43). The fold adds counters, maxes
/// gauges and adds histogram buckets, all commutative and associative, and
/// snapshot() sorts by name, so no snapshot depends on the order of the
/// folds.

#include <cstdint>
#include <string>
#include <vector>

namespace lbmem::obs {

/// What a metric is.
enum class MetricKind { Counter, Gauge, Histogram };

/// Determinism class (see the file comment).
enum class MetricClass { Deterministic, Timing };

const char* to_string(MetricKind kind);

/// Log-bucketed value histogram (HDR-style) with an exact nearest-rank
/// percentile contract at bucket resolution:
///  * values 0..63 land in width-1 buckets, so percentiles over them are
///    *exact* nearest-rank order statistics;
///  * larger values share power-of-two ranges split into 32 sub-buckets,
///    so a reported percentile is the upper edge of the bucket holding the
///    nearest-rank sample — an overestimate by at most a factor 1/32
///    (3.125%) of the value;
///  * negative inputs clamp to 0 (latencies and sizes are non-negative by
///    construction; a clamped record still counts).
/// merge() adds bucket counts, so it is associative and commutative —
/// registries folded in any order produce identical histograms (tested by
/// ObsMetrics.MergeIsAssociativeAndCommutative).
class LatencyHistogram {
 public:
  /// Record one value.
  void record(std::int64_t value);

  /// Fold \p other into this histogram (bucket-count addition).
  void merge(const LatencyHistogram& other);

  std::int64_t count() const { return count_; }
  std::int64_t sum() const { return sum_; }
  /// Smallest / largest recorded value, exact (0 when empty).
  std::int64_t min() const { return count_ == 0 ? 0 : min_; }
  std::int64_t max() const { return count_ == 0 ? 0 : max_; }
  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  /// Nearest-rank percentile: the value at rank ceil(pct/100 * count),
  /// reported as the upper edge of its bucket (exact below 64; see the
  /// class comment). Returns 0 on an empty histogram; pct is clamped to
  /// (0, 100].
  std::int64_t percentile(double pct) const;

  /// Non-empty buckets in ascending value order, as (upper edge, count)
  /// pairs — the run-deterministic serialization of the distribution.
  std::vector<std::pair<std::int64_t, std::int64_t>> buckets() const;

  bool operator==(const LatencyHistogram& other) const {
    return count_ == other.count_ && sum_ == other.sum_ &&
           min_ == other.min_ && max_ == other.max_ &&
           counts_ == other.counts_;
  }

 private:
  static std::size_t bucket_index(std::int64_t value);
  static std::int64_t bucket_upper_edge(std::size_t index);

  std::vector<std::int64_t> counts_;  ///< grown lazily to the top bucket
  std::int64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
};

/// Handle to a registered metric (index into the registry's slot tables).
struct MetricId {
  std::uint32_t slot = UINT32_MAX;
  MetricKind kind = MetricKind::Counter;
};

/// One merged metric in a Snapshot.
struct SnapshotEntry {
  std::string name;
  MetricKind kind = MetricKind::Counter;
  MetricClass cls = MetricClass::Deterministic;
  std::int64_t value = 0;       ///< counters: sum; gauges: high watermark
  LatencyHistogram histogram;   ///< histograms only
};

/// A name-sorted view of a registry at one point.
struct Snapshot {
  std::vector<SnapshotEntry> entries;
  /// Entry by name, or nullptr. Linear scan — snapshots are small.
  const SnapshotEntry* find(const std::string& name) const;
};

/// The registry. Registration is by name and idempotent: re-registering a
/// name returns the existing id (the kind and class must match — a
/// mismatch throws), so layers that are constructed per call (a
/// LoadBalancer per event, say) can register their ids unconditionally.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  MetricId counter(const std::string& name,
                   MetricClass cls = MetricClass::Deterministic);
  MetricId gauge(const std::string& name,
                 MetricClass cls = MetricClass::Deterministic);
  MetricId histogram(const std::string& name,
                     MetricClass cls = MetricClass::Deterministic);

  /// Add \p delta to a counter.
  void add(MetricId id, std::int64_t delta = 1);
  /// Raise a high-watermark gauge to at least \p value (max semantics:
  /// the only scalar fold that is order-free across registries).
  void raise(MetricId id, std::int64_t value);
  /// Record \p value into a histogram.
  void record(MetricId id, std::int64_t value);
  /// Fold a histogram recorded elsewhere into a histogram metric: the same
  /// result as recording each of its values.
  void merge(MetricId id, const LatencyHistogram& values);

  /// Fold \p other into this registry: register each of its names (a name
  /// already registered here with another kind or class throws), then add
  /// its counters, max its gauges and add its histogram buckets. Folding
  /// registries in any order gives the same snapshot.
  void merge(const Registry& other);

  /// Every metric, name-sorted.
  Snapshot snapshot() const;

  /// Number of registered metrics.
  std::size_t size() const { return descs_.size(); }

 private:
  struct Desc {
    std::string name;
    MetricKind kind;
    MetricClass cls;
    std::uint32_t slot;  ///< index into scalars_ or histograms_, by kind
  };

  MetricId register_metric(const std::string& name, MetricKind kind,
                           MetricClass cls);

  std::vector<Desc> descs_;
  std::vector<std::int64_t> scalars_;  ///< counters: sum; gauges: max
  std::vector<LatencyHistogram> histograms_;
};

}  // namespace lbmem::obs
