/// Tests for obs/metrics.hpp: the histogram's nearest-rank percentile
/// contract (exact below 64, bounded overestimate above), merge
/// associativity, and the registry's semantics (counter sum, gauge max,
/// idempotent name-keyed registration, order-free registry folds).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "lbmem/obs/metrics.hpp"
#include "lbmem/report/stats.hpp"
#include "lbmem/util/check.hpp"

namespace lbmem::obs {
namespace {

TEST(ObsMetrics, EmptyHistogramReportsZeros) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.sum(), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.percentile(50), 0);
  EXPECT_EQ(h.percentile(100), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_TRUE(h.buckets().empty());
}

TEST(ObsMetrics, OneSampleIsEveryPercentile) {
  LatencyHistogram h;
  h.record(42);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.min(), 42);
  EXPECT_EQ(h.max(), 42);
  EXPECT_EQ(h.percentile(1), 42);
  EXPECT_EQ(h.percentile(50), 42);
  EXPECT_EQ(h.percentile(99), 42);
  EXPECT_EQ(h.percentile(100), 42);
}

TEST(ObsMetrics, PercentilesAreExactNearestRankBelow64) {
  // Values 0..63 land in width-1 buckets, so the reported percentile IS
  // the nearest-rank order statistic.
  LatencyHistogram h;
  std::vector<std::int64_t> values;
  for (std::int64_t v = 1; v <= 50; ++v) values.push_back(v);
  for (std::int64_t v : values) h.record(v);
  // Nearest rank: the value at 1-based rank ceil(pct/100 * n).
  const auto nearest_rank = [&](double pct) {
    const std::size_t rank = static_cast<std::size_t>(
        std::max(1.0, std::ceil(pct / 100.0 * values.size())));
    return values[rank - 1];  // values are sorted 1..50
  };
  for (double pct : {1.0, 10.0, 25.0, 50.0, 90.0, 99.0, 100.0}) {
    EXPECT_EQ(h.percentile(pct), nearest_rank(pct)) << "pct=" << pct;
  }
}

TEST(ObsMetrics, LargeValuePercentileOverestimatesByAtMostOneSubBucket) {
  // One big sample: the reported p100 must be >= the sample and within a
  // 1/32 relative overestimate (the sub-bucket width), capped at max().
  for (std::int64_t v : {100LL, 1000LL, 123456LL, 1LL << 40}) {
    LatencyHistogram h;
    h.record(v);
    const std::int64_t p = h.percentile(100);
    EXPECT_GE(p, 0);
    EXPECT_LE(p, v);  // percentile() caps at the exact max
    EXPECT_EQ(h.max(), v);
    // Without the cap the bucket edge overestimates by <= v/32; with the
    // cap the answer is exact here.
    EXPECT_EQ(p, v);
  }
  // Two samples in distinct buckets: p50 reports the lower sample's bucket
  // edge, still within 1/32 of the true value.
  LatencyHistogram h;
  h.record(1000);
  h.record(1000000);
  const std::int64_t p50 = h.percentile(50);
  EXPECT_GE(p50, 1000);
  EXPECT_LE(p50, 1000 + 1000 / 32 + 1);
}

TEST(ObsMetrics, NegativeValuesClampToZero) {
  LatencyHistogram h;
  h.record(-5);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.percentile(100), 0);
}

TEST(ObsMetrics, MergeIsAssociativeAndCommutative) {
  const auto fill = [](LatencyHistogram& h, std::int64_t seed) {
    for (std::int64_t i = 0; i < 100; ++i) {
      h.record((seed * 2654435761LL + i * 97) % 100000);
    }
  };
  LatencyHistogram a, b, c;
  fill(a, 1);
  fill(b, 2);
  fill(c, 3);

  // (a + b) + c
  LatencyHistogram left = a;
  left.merge(b);
  left.merge(c);
  // a + (b + c)
  LatencyHistogram right = b;
  right.merge(c);
  LatencyHistogram right2 = a;
  right2.merge(right);
  // c + b + a (commuted)
  LatencyHistogram commuted = c;
  commuted.merge(b);
  commuted.merge(a);

  EXPECT_TRUE(left == right2);
  EXPECT_TRUE(left == commuted);
  EXPECT_EQ(left.count(), 300);
}

TEST(ObsMetrics, MergeWithEmptyIsIdentity) {
  LatencyHistogram a;
  a.record(7);
  a.record(70000);
  LatencyHistogram empty;
  LatencyHistogram merged = a;
  merged.merge(empty);
  EXPECT_TRUE(merged == a);
  LatencyHistogram other;
  other.merge(a);
  EXPECT_TRUE(other == a);
}

TEST(ObsMetrics, RegistryCountsGaugesAndRecords) {
  Registry reg;
  const MetricId hits = reg.counter("hits");
  const MetricId peak = reg.gauge("peak");
  const MetricId lat = reg.histogram("latency");
  reg.add(hits);
  reg.add(hits, 4);
  reg.raise(peak, 10);
  reg.raise(peak, 3);  // lower: the high watermark stays
  reg.record(lat, 5);
  reg.record(lat, 15);

  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.entries.size(), 3u);
  // Snapshot is name-sorted.
  EXPECT_EQ(snap.entries[0].name, "hits");
  EXPECT_EQ(snap.entries[1].name, "latency");
  EXPECT_EQ(snap.entries[2].name, "peak");
  EXPECT_EQ(snap.find("hits")->value, 5);
  EXPECT_EQ(snap.find("peak")->value, 10);
  EXPECT_EQ(snap.find("latency")->histogram.count(), 2);
  EXPECT_EQ(snap.find("missing"), nullptr);
}

TEST(ObsMetrics, RegistryMergeEqualsRecordingEachValue) {
  LatencyHistogram values;
  Registry recorded;
  const MetricId one_by_one = recorded.histogram("lat");
  recorded.record(one_by_one, 7);
  for (const std::int64_t v : {3, 90, 4000, 90}) {
    values.record(v);
    recorded.record(one_by_one, v);
  }
  Registry merged;
  const MetricId folded = merged.histogram("lat");
  merged.record(folded, 7);
  merged.merge(folded, values);
  merged.merge(folded, LatencyHistogram{});  // empty: no change
  EXPECT_TRUE(merged.snapshot().find("lat")->histogram ==
              recorded.snapshot().find("lat")->histogram);
  EXPECT_THROW(merged.merge(merged.counter("n"), values), PreconditionError);
}

TEST(ObsMetrics, RegistrationIsIdempotentByName) {
  Registry reg;
  const MetricId first = reg.counter("lb.runs");
  const MetricId again = reg.counter("lb.runs");
  EXPECT_EQ(first.slot, again.slot);
  reg.add(first);
  reg.add(again);
  EXPECT_EQ(reg.snapshot().find("lb.runs")->value, 2);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(ObsMetrics, KindOrClassMismatchThrows) {
  Registry reg;
  reg.counter("x", MetricClass::Deterministic);
  EXPECT_THROW(reg.histogram("x"), PreconditionError);
  EXPECT_THROW(reg.counter("x", MetricClass::Timing), PreconditionError);
}

TEST(ObsMetrics, RegistryMergeIsOrderFree) {
  // Three registries, each registering its names in a different order
  // (one name per registry is unique to it), fold forward and backward
  // into the snapshot of one registry that recorded every value.
  struct Part {
    std::vector<std::string> order;
    std::int64_t total, high;
    std::vector<std::int64_t> latencies;
  };
  const std::array<Part, 3> parts = {{
      {{"total", "high", "lat", "only.a"}, 3, 40, {1, 70, 5000}},
      {{"only.b", "lat", "total", "high"}, 5, 90, {2, 2}},
      {{"high", "only.c", "total", "lat"}, 7, 10, {}},
  }};
  const auto fill = [](Registry& reg, const Part& part) {
    for (const std::string& name : part.order) {
      if (name == "total") {
        reg.add(reg.counter(name), part.total);
      } else if (name == "high") {
        reg.raise(reg.gauge(name), part.high);
      } else if (name == "lat") {
        const MetricId lat = reg.histogram(name, MetricClass::Timing);
        for (const std::int64_t v : part.latencies) reg.record(lat, v);
      } else {
        reg.add(reg.counter(name), 1);
      }
    }
  };
  Registry all;
  std::array<Registry, 3> registries;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    fill(all, parts[i]);
    fill(registries[i], parts[i]);
  }
  Registry forward;
  for (const Registry& reg : registries) forward.merge(reg);
  Registry backward;
  backward.counter("total");  // a name registered before any fold
  for (auto it = registries.rbegin(); it != registries.rend(); ++it) {
    backward.merge(*it);
  }

  const std::string expected = metrics_to_json(all.snapshot());
  EXPECT_EQ(metrics_to_json(forward.snapshot()), expected);
  EXPECT_EQ(metrics_to_json(backward.snapshot()), expected);
  const Snapshot snap = forward.snapshot();
  EXPECT_EQ(snap.entries.size(), 6u);
  EXPECT_EQ(snap.find("total")->value, 15);
  EXPECT_EQ(snap.find("high")->value, 90);
  EXPECT_EQ(snap.find("lat")->histogram.count(), 5);
  EXPECT_EQ(snap.find("only.b")->value, 1);

  // A name folded in with another kind or class throws.
  Registry kind;
  kind.gauge("total");
  EXPECT_THROW(kind.merge(registries[0]), PreconditionError);
  Registry cls;
  cls.histogram("lat", MetricClass::Deterministic);
  EXPECT_THROW(cls.merge(registries[1]), PreconditionError);
}

}  // namespace
}  // namespace lbmem::obs
