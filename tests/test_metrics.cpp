// Unit tests for the metrics substrate (support/metrics.h): handle
// semantics (unbound no-ops), registry identity rules, histogram bucket
// arithmetic and quantile edge cases, snapshot merging, and both
// exporters' wire formats.
#include "support/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace confcall::support {
namespace {

// ----------------------------------------------------------- handles

TEST(MetricHandles, UnboundHandlesNoOp) {
  const Counter counter;
  const Gauge gauge;
  const Histogram histogram;
  EXPECT_FALSE(counter.bound());
  EXPECT_FALSE(gauge.bound());
  EXPECT_FALSE(histogram.bound());
  counter.inc();
  counter.inc(41);
  gauge.set(3.5);
  histogram.observe(7.0);
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(gauge.value(), 0.0);
}

TEST(MetricHandles, CounterAndGaugeReadBack) {
  MetricRegistry registry;
  const Counter counter = registry.counter("calls_total", "calls");
  const Gauge gauge = registry.gauge("tokens", "token fill");
  counter.inc();
  counter.inc(9);
  gauge.set(2.5);
  EXPECT_EQ(counter.value(), 10u);
  EXPECT_EQ(gauge.value(), 2.5);
  gauge.set(-1.0);
  EXPECT_EQ(gauge.value(), -1.0);
}

TEST(MetricHandles, CopiedHandlesShareTheCell) {
  MetricRegistry registry;
  const Counter a = registry.counter("shared_total", "help");
  const Counter b = a;
  b.inc(3);
  EXPECT_EQ(a.value(), 3u);
}

// ---------------------------------------------------------- registry

TEST(MetricRegistry, RegistrationIsIdempotent) {
  MetricRegistry registry;
  const Counter a = registry.counter("hits_total", "help");
  const Counter b = registry.counter("hits_total", "help");
  a.inc();
  b.inc();
  EXPECT_EQ(a.value(), 2u);
  EXPECT_EQ(registry.snapshot().metrics.size(), 1u);
}

TEST(MetricRegistry, LabelsMakeDistinctSeries) {
  MetricRegistry registry;
  const Counter t0 =
      registry.counter("served_total", "help", {{"tier", "0"}});
  const Counter t1 =
      registry.counter("served_total", "help", {{"tier", "1"}});
  t0.inc(5);
  t1.inc(7);
  const RegistrySnapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.metrics.size(), 2u);
  const MetricSnapshot* m0 = snapshot.find("served_total", {{"tier", "0"}});
  const MetricSnapshot* m1 = snapshot.find("served_total", {{"tier", "1"}});
  ASSERT_NE(m0, nullptr);
  ASSERT_NE(m1, nullptr);
  EXPECT_EQ(m0->counter_value, 5u);
  EXPECT_EQ(m1->counter_value, 7u);
  EXPECT_EQ(snapshot.find("served_total", {{"tier", "2"}}), nullptr);
}

TEST(MetricRegistry, TypeMismatchThrows) {
  MetricRegistry registry;
  (void)registry.counter("thing", "help");
  EXPECT_THROW((void)registry.gauge("thing", "help"), std::invalid_argument);
  EXPECT_THROW(
      (void)registry.histogram("thing", HistogramSpec::integers(4), "help"),
      std::invalid_argument);
}

TEST(MetricRegistry, HistogramSpecMismatchThrows) {
  MetricRegistry registry;
  (void)registry.histogram("lat", HistogramSpec::integers(4), "help");
  EXPECT_THROW(
      (void)registry.histogram("lat", HistogramSpec::integers(5), "help"),
      std::invalid_argument);
  // Identical spec re-registers fine.
  (void)registry.histogram("lat", HistogramSpec::integers(4), "help");
}

TEST(MetricRegistry, MalformedNamesThrow) {
  MetricRegistry registry;
  EXPECT_THROW((void)registry.counter("", "help"), std::invalid_argument);
  EXPECT_THROW((void)registry.counter("9lives", "help"),
               std::invalid_argument);
  EXPECT_THROW((void)registry.counter("has space", "help"),
               std::invalid_argument);
  EXPECT_THROW((void)registry.counter("ok_total", "help", {{"bad-label", "v"}}),
               std::invalid_argument);
  // Label VALUES are free-form (they get escaped on export).
  (void)registry.counter("ok_total", "help", {{"label", "spaces are fine"}});
}

TEST(MetricRegistry, SnapshotSortedByKey) {
  MetricRegistry registry;
  (void)registry.counter("zeta_total", "help");
  (void)registry.counter("alpha_total", "help");
  (void)registry.counter("alpha_total", "help", {{"tier", "1"}});
  const RegistrySnapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.metrics.size(), 3u);
  for (std::size_t i = 1; i < snapshot.metrics.size(); ++i) {
    EXPECT_LT(snapshot.metrics[i - 1].key(), snapshot.metrics[i].key());
  }
}

TEST(MetricRegistry, ConcurrentIncrementsAreExact) {
  MetricRegistry registry;
  const Counter counter = registry.counter("racing_total", "help");
  const Histogram histogram =
      registry.histogram("racing_hist", HistogramSpec::integers(8), "help");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.inc();
        histogram.observe(static_cast<double>(i % 8));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  const RegistrySnapshot snapshot = registry.snapshot();
  const MetricSnapshot* hist = snapshot.find("racing_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->histogram.count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

// --------------------------------------------------------- histograms

TEST(HistogramSpec, ExponentialLayout) {
  const HistogramSpec spec = HistogramSpec::exponential(1.0, 2.0, 4);
  ASSERT_EQ(spec.upper_bounds.size(), 4u);
  EXPECT_EQ(spec.upper_bounds, (std::vector<double>{1.0, 2.0, 4.0, 8.0}));
  spec.validate();
}

TEST(HistogramSpec, IntegersLayout) {
  const HistogramSpec spec = HistogramSpec::integers(3);
  EXPECT_EQ(spec.upper_bounds, (std::vector<double>{0.0, 1.0, 2.0, 3.0}));
  spec.validate();
}

TEST(HistogramSpec, ValidateRejectsBadBounds) {
  EXPECT_THROW(HistogramSpec{}.validate(), std::invalid_argument);
  EXPECT_THROW((HistogramSpec{{1.0, 1.0}}).validate(), std::invalid_argument);
  EXPECT_THROW((HistogramSpec{{2.0, 1.0}}).validate(), std::invalid_argument);
}

/// Observations land by Prometheus `le` semantics: bucket i counts
/// values <= bound[i]; anything past the last bound is overflow.
TEST(Histogram, LeBucketSemantics) {
  MetricRegistry registry;
  const Histogram histogram = registry.histogram(
      "lat", HistogramSpec{{1.0, 2.0, 4.0}}, "help");
  histogram.observe(1.0);   // == bound -> bucket 0
  histogram.observe(1.5);   // bucket 1
  histogram.observe(4.0);   // bucket 2 (le)
  histogram.observe(99.0);  // overflow
  const RegistrySnapshot snapshot = registry.snapshot();
  const MetricSnapshot* m = snapshot.find("lat");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->histogram.counts,
            (std::vector<std::uint64_t>{1, 1, 1, 1}));
  EXPECT_EQ(m->histogram.count, 4u);
  EXPECT_EQ(m->histogram.sum, 1.0 + 1.5 + 4.0 + 99.0);
}

// Edge case: a histogram nobody observed reads 0 at every quantile and
// exports without dividing by zero.
TEST(Histogram, ZeroObservationsQuantileIsZero) {
  MetricRegistry registry;
  (void)registry.histogram("empty", HistogramSpec::integers(4), "help");
  const RegistrySnapshot snapshot = registry.snapshot();
  const MetricSnapshot* m = snapshot.find("empty");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->histogram.quantile(0.0), 0.0);
  EXPECT_EQ(m->histogram.quantile(0.5), 0.0);
  EXPECT_EQ(m->histogram.quantile(1.0), 0.0);
  EXPECT_NE(to_json(registry.snapshot()).find("\"empty\""),
            std::string::npos);
}

// Edge case: all mass saturating one bucket — including the overflow
// bucket, where quantile() must clamp to the last finite bound instead
// of inventing +Inf.
TEST(Histogram, SingleBucketSaturation) {
  MetricRegistry registry;
  const Histogram mid =
      registry.histogram("mid", HistogramSpec{{1.0, 2.0, 4.0}}, "help");
  for (int i = 0; i < 100; ++i) mid.observe(1.5);
  const Histogram over =
      registry.histogram("over", HistogramSpec{{1.0, 2.0, 4.0}}, "help");
  for (int i = 0; i < 100; ++i) over.observe(1000.0);
  const RegistrySnapshot snapshot = registry.snapshot();
  const MetricSnapshot* m = snapshot.find("mid");
  const MetricSnapshot* o = snapshot.find("over");
  ASSERT_NE(m, nullptr);
  ASSERT_NE(o, nullptr);
  for (const double p : {0.01, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(m->histogram.quantile(p), 2.0) << "p=" << p;
    EXPECT_EQ(o->histogram.quantile(p), 4.0) << "p=" << p;
  }
}

TEST(Histogram, QuantileRankRounding) {
  // 10 observations of value i in bucket i (integers spec): the rank
  // target is uint64(p*total + 0.5), matching SimReport::rounds_percentile.
  MetricRegistry registry;
  const Histogram histogram =
      registry.histogram("ranks", HistogramSpec::integers(9), "help");
  for (int i = 0; i < 10; ++i) histogram.observe(static_cast<double>(i));
  const RegistrySnapshot snapshot = registry.snapshot();
  const MetricSnapshot* m = snapshot.find("ranks");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->histogram.quantile(0.0), 0.0);
  EXPECT_EQ(m->histogram.quantile(0.5), 4.0);   // target 5 -> 5th obs
  EXPECT_EQ(m->histogram.quantile(0.95), 9.0);  // target 10 (9.5 + .5)
  EXPECT_EQ(m->histogram.quantile(1.0), 9.0);
}

// ------------------------------------------------------------- merge

TEST(RegistrySnapshotMerge, CountersGaugesHistogramsFold) {
  MetricRegistry a;
  MetricRegistry b;
  a.counter("calls_total", "help").inc(3);
  b.counter("calls_total", "help").inc(4);
  a.gauge("tokens", "help").set(1.5);
  b.gauge("tokens", "help").set(2.25);
  const HistogramSpec spec = HistogramSpec::integers(4);
  a.histogram("rounds", spec, "help").observe(1.0);
  b.histogram("rounds", spec, "help").observe(1.0);
  b.histogram("rounds", spec, "help").observe(3.0);

  RegistrySnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.find("calls_total")->counter_value, 7u);
  EXPECT_EQ(merged.find("tokens")->gauge_value, 3.75);
  const HistogramSnapshot& h = merged.find("rounds")->histogram;
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.sum, 5.0);
  EXPECT_EQ(h.counts, (std::vector<std::uint64_t>{0, 2, 0, 1, 0, 0}));
}

// Edge case: merging snapshots with disjoint metric sets keeps both
// sides (a batch where only some replications tripped a breaker still
// aggregates), and the result stays key-sorted.
TEST(RegistrySnapshotMerge, DisjointRangesUnion) {
  MetricRegistry a;
  MetricRegistry b;
  a.counter("aaa_total", "help").inc(1);
  a.counter("mmm_total", "help").inc(2);
  b.counter("bbb_total", "help").inc(3);
  b.counter("zzz_total", "help").inc(4);
  RegistrySnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  ASSERT_EQ(merged.metrics.size(), 4u);
  EXPECT_EQ(merged.find("aaa_total")->counter_value, 1u);
  EXPECT_EQ(merged.find("bbb_total")->counter_value, 3u);
  EXPECT_EQ(merged.find("mmm_total")->counter_value, 2u);
  EXPECT_EQ(merged.find("zzz_total")->counter_value, 4u);
  for (std::size_t i = 1; i < merged.metrics.size(); ++i) {
    EXPECT_LT(merged.metrics[i - 1].key(), merged.metrics[i].key());
  }
}

TEST(RegistrySnapshotMerge, MergeIntoEmptyEqualsCopy) {
  MetricRegistry a;
  a.counter("calls_total", "help").inc(5);
  a.histogram("rounds", HistogramSpec::integers(2), "help").observe(1.0);
  RegistrySnapshot merged;
  merged.merge(a.snapshot());
  EXPECT_EQ(to_json(merged), to_json(a.snapshot()));
}

TEST(RegistrySnapshotMerge, MismatchesThrow) {
  MetricRegistry a;
  MetricRegistry b;
  MetricRegistry c;
  a.counter("thing", "help").inc();
  b.gauge("thing", "help").set(1.0);
  RegistrySnapshot merged = a.snapshot();
  EXPECT_THROW(merged.merge(b.snapshot()), std::invalid_argument);

  MetricRegistry d;
  MetricRegistry e;
  (void)d.histogram("lat", HistogramSpec::integers(4), "help");
  (void)e.histogram("lat", HistogramSpec::integers(5), "help");
  RegistrySnapshot dm = d.snapshot();
  EXPECT_THROW(dm.merge(e.snapshot()), std::invalid_argument);
}

// ------------------------------------------------------------- delta

TEST(RegistrySnapshotDelta, CountersAndBucketsSubtractGaugesStay) {
  MetricRegistry registry;
  const Counter calls = registry.counter("calls_total", "help");
  const Gauge tokens = registry.gauge("tokens", "help");
  const Histogram rounds =
      registry.histogram("rounds", HistogramSpec::integers(4), "help");
  calls.inc(3);
  tokens.set(10.0);
  rounds.observe(1.0);
  const RegistrySnapshot before = registry.snapshot();
  calls.inc(4);
  tokens.set(2.5);
  rounds.observe(1.0);
  rounds.observe(3.0);

  const RegistrySnapshot window = registry.snapshot().delta(before);
  // Counters and histogram buckets are rates over the window; a gauge
  // is a level and keeps its CURRENT value.
  EXPECT_EQ(window.find("calls_total")->counter_value, 4u);
  EXPECT_EQ(window.find("tokens")->gauge_value, 2.5);
  const HistogramSnapshot& h = window.find("rounds")->histogram;
  EXPECT_EQ(h.count, 2u);
  EXPECT_EQ(h.sum, 4.0);
  EXPECT_EQ(h.counts, (std::vector<std::uint64_t>{0, 1, 0, 1, 0, 0}));
}

// Edge case: a series that appeared DURING the window (registered after
// `prev` was cut — the SLO controller binds its own metrics after
// taking its baseline) is kept verbatim, while a key `prev` holds that
// the current snapshot lacks means the snapshots come from different
// registries and must throw rather than fabricate a rate.
TEST(RegistrySnapshotDelta, DisjointKeysAppearOrThrow) {
  MetricRegistry registry;
  registry.counter("early_total", "help").inc(2);
  const RegistrySnapshot before = registry.snapshot();
  registry.counter("late_total", "help").inc(7);
  const RegistrySnapshot window = registry.snapshot().delta(before);
  EXPECT_EQ(window.find("early_total")->counter_value, 0u);
  EXPECT_EQ(window.find("late_total")->counter_value, 7u);

  MetricRegistry other;
  other.counter("other_total", "help").inc(1);
  EXPECT_THROW((void)registry.snapshot().delta(other.snapshot()),
               std::invalid_argument);
}

// Edge case: a counter or histogram that went BACKWARDS relative to
// `prev` means the registry restarted between the snapshots; a silent
// negative delta would poison every percentile computed from the
// window, so delta refuses.
TEST(RegistrySnapshotDelta, ResetRegistriesThrow) {
  MetricRegistry before_registry;
  before_registry.counter("calls_total", "help").inc(10);
  const RegistrySnapshot before = before_registry.snapshot();
  MetricRegistry restarted;
  restarted.counter("calls_total", "help").inc(3);  // 3 < 10
  EXPECT_THROW((void)restarted.snapshot().delta(before),
               std::invalid_argument);

  MetricRegistry h_before;
  h_before.histogram("rounds", HistogramSpec::integers(4), "help")
      .observe(2.0);
  const RegistrySnapshot h_prev = h_before.snapshot();
  MetricRegistry h_restarted;
  h_restarted.histogram("rounds", HistogramSpec::integers(4), "help")
      .observe(1.0);  // same count, but bucket 2 went 1 -> 0
  EXPECT_THROW((void)h_restarted.snapshot().delta(h_prev),
               std::invalid_argument);
}

TEST(RegistrySnapshotDelta, TypeMismatchThrows) {
  MetricRegistry a;
  MetricRegistry b;
  a.counter("thing", "help").inc();
  b.gauge("thing", "help").set(1.0);
  EXPECT_THROW((void)b.snapshot().delta(a.snapshot()),
               std::invalid_argument);
}

TEST(RegistrySnapshotDelta, IdenticalSnapshotsGiveZeroWindow) {
  MetricRegistry registry;
  registry.counter("calls_total", "help").inc(5);
  registry.histogram("rounds", HistogramSpec::integers(2), "help")
      .observe(1.0);
  const RegistrySnapshot cut = registry.snapshot();
  const RegistrySnapshot window = registry.snapshot().delta(cut);
  EXPECT_EQ(window.find("calls_total")->counter_value, 0u);
  EXPECT_EQ(window.find("rounds")->histogram.count, 0u);
  EXPECT_EQ(window.find("rounds")->histogram.sum, 0.0);
}

// Labelled series appearing or disappearing between windows (areas come
// and go, a fleet restarts a lane): an appearing series is kept
// verbatim with its labels, every surviving series subtracts
// key-aligned, and nothing in the window may ever be negative.
TEST(RegistrySnapshotDelta, LabelledSeriesAppearWithoutNegativeDeltas) {
  MetricRegistry registry;
  registry.counter("calls_total", "help", {{"shard", "0"}}).inc(5);
  const RegistrySnapshot before = registry.snapshot();
  registry.counter("calls_total", "help", {{"shard", "0"}}).inc(2);
  registry.counter("calls_total", "help", {{"shard", "1"}}).inc(9);
  const RegistrySnapshot window = registry.snapshot().delta(before);
  EXPECT_EQ(window.find("calls_total", {{"shard", "0"}})->counter_value,
            2u);
  EXPECT_EQ(window.find("calls_total", {{"shard", "1"}})->counter_value,
            9u);
  for (const MetricSnapshot& metric : window.metrics) {
    if (metric.type == MetricType::kCounter) {
      EXPECT_GE(metric.counter_value, 0u);
    }
  }
}

// A labelled series present in `prev` but absent now means the
// registries differ (a shard's series cannot unregister): delta must
// throw, never fabricate a window.
TEST(RegistrySnapshotDelta, LabelledSeriesDisappearThrows) {
  MetricRegistry wide;
  wide.counter("calls_total", "help", {{"shard", "0"}}).inc(1);
  wide.counter("calls_total", "help", {{"shard", "1"}}).inc(1);
  const RegistrySnapshot before = wide.snapshot();
  MetricRegistry narrow;
  narrow.counter("calls_total", "help", {{"shard", "0"}}).inc(2);
  EXPECT_THROW((void)narrow.snapshot().delta(before),
               std::invalid_argument);
}

// ----------------------------------------------------- label algebra

TEST(RegistrySnapshotLabelAlgebra, SumByFoldsWholeFamily) {
  MetricRegistry registry;
  const HistogramSpec spec = HistogramSpec::integers(4);
  registry.histogram("rounds", spec, "help", {{"shard", "0"}}).observe(1.0);
  registry.histogram("rounds", spec, "help", {{"shard", "1"}}).observe(1.0);
  registry.histogram("rounds", spec, "help", {{"shard", "1"}}).observe(3.0);
  registry.counter("unrelated_total", "help").inc(9);

  const std::optional<MetricSnapshot> summed =
      registry.snapshot().sum_by("rounds");
  ASSERT_TRUE(summed.has_value());
  EXPECT_TRUE(summed->labels.empty());
  EXPECT_EQ(summed->histogram.count, 3u);
  EXPECT_EQ(summed->histogram.counts,
            (std::vector<std::uint64_t>{0, 2, 0, 1, 0, 0}));
  EXPECT_FALSE(registry.snapshot().sum_by("missing").has_value());
}

// The invariance the fleet-wide SLO sensor rests on: however the same
// observations are split across label sets, the label-summed family is
// the same histogram — so quantiles over it cannot depend on the shard
// count.
TEST(RegistrySnapshotLabelAlgebra, SumByIsShardingInvariant) {
  const HistogramSpec spec = HistogramSpec::integers(4);
  const std::vector<double> observations{1.0, 1.0, 2.0, 3.0, 3.0, 3.0};

  MetricRegistry one;
  for (const double v : observations) {
    one.histogram("rounds", spec, "help", {{"shard", "0"}}).observe(v);
  }
  MetricRegistry three;
  for (std::size_t i = 0; i < observations.size(); ++i) {
    three
        .histogram("rounds", spec, "help",
                   {{"shard", std::to_string(i % 3)}})
        .observe(observations[i]);
  }
  const std::optional<MetricSnapshot> a = one.snapshot().sum_by("rounds");
  const std::optional<MetricSnapshot> b =
      three.snapshot().sum_by("rounds");
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->histogram.counts, b->histogram.counts);
  EXPECT_EQ(a->histogram.count, b->histogram.count);
  EXPECT_EQ(a->histogram.sum, b->histogram.sum);
  EXPECT_EQ(a->histogram.quantile(0.99), b->histogram.quantile(0.99));
}

// Unlabelled families degenerate gracefully: sum_by of a single
// label-less series is that series (what the SLO controller reads on
// the single-service path).
TEST(RegistrySnapshotLabelAlgebra, SumByOfUnlabelledSeriesIsIdentity) {
  MetricRegistry registry;
  registry.histogram("rounds", HistogramSpec::integers(2), "help")
      .observe(1.0);
  const std::optional<MetricSnapshot> summed =
      registry.snapshot().sum_by("rounds");
  ASSERT_TRUE(summed.has_value());
  EXPECT_EQ(summed->histogram.count, 1u);
}

// ---------------------------------------------------------- exemplars

TEST(HistogramExemplars, AnnotateRecordsBucketExemplar) {
  MetricRegistry registry;
  const Histogram rounds =
      registry.histogram("rounds", HistogramSpec::integers(4), "help");
  rounds.observe(2.0);
  rounds.annotate(2.0, 0xabcdULL);
  rounds.observe(9.0);           // overflow bucket
  rounds.annotate(9.0, 0x99ULL);
  const HistogramSnapshot h = registry.snapshot().find("rounds")->histogram;
  ASSERT_EQ(h.exemplars.size(), h.counts.size());
  EXPECT_EQ(h.exemplars[2].trace_id, 0xabcdULL);
  EXPECT_EQ(h.exemplars[2].value, 2.0);
  EXPECT_EQ(h.exemplars.back().trace_id, 0x99ULL);  // +Inf bucket
  EXPECT_FALSE(h.exemplars[0].valid());
}

// trace_id 0 means "this call was not sampled": annotate must be a
// no-op, and a histogram never annotated snapshots with an EMPTY
// exemplar vector (the common path stays allocation-free).
TEST(HistogramExemplars, ZeroTraceIdAndUnannotatedStayEmpty) {
  MetricRegistry registry;
  const Histogram rounds =
      registry.histogram("rounds", HistogramSpec::integers(4), "help");
  rounds.observe(1.0);
  rounds.annotate(1.0, 0);
  EXPECT_TRUE(registry.snapshot().find("rounds")->histogram.exemplars
                  .empty());
}

TEST(HistogramExemplars, MergeKeepsFirstOperandAndFillsGaps) {
  MetricRegistry a;
  MetricRegistry b;
  const HistogramSpec spec = HistogramSpec::integers(4);
  a.histogram("rounds", spec, "help").observe(1.0);
  a.histogram("rounds", spec, "help").annotate(1.0, 0x1ULL);
  b.histogram("rounds", spec, "help").observe(1.0);
  b.histogram("rounds", spec, "help").annotate(1.0, 0x2ULL);
  b.histogram("rounds", spec, "help").observe(3.0);
  b.histogram("rounds", spec, "help").annotate(3.0, 0x3ULL);

  RegistrySnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  const HistogramSnapshot& h = merged.find("rounds")->histogram;
  ASSERT_FALSE(h.exemplars.empty());
  EXPECT_EQ(h.exemplars[1].trace_id, 0x1ULL);  // first operand wins
  EXPECT_EQ(h.exemplars[3].trace_id, 0x3ULL);  // gap filled from second
}

TEST(Exporters, PrometheusExemplarsAreOptIn) {
  MetricRegistry registry;
  const Histogram lat =
      registry.histogram("confcall_lat_ns", HistogramSpec{{1.0, 2.0}},
                         "latency");
  lat.observe(1.5);
  const std::string before_annotation = to_prometheus(registry.snapshot());
  lat.annotate(1.5, 0xdeadbeefULL);

  // Default exposition: byte-for-byte identical to the pre-annotation
  // render — the E16 scrape-identity gate must not notice annotations.
  const std::string plain = to_prometheus(registry.snapshot());
  EXPECT_EQ(plain, before_annotation);
  EXPECT_EQ(plain.find("trace_id"), std::string::npos);

  lat.observe(9.0);
  lat.annotate(9.0, 0x7ULL);

  PrometheusOptions options;
  options.exemplars = true;
  const std::string annotated =
      to_prometheus(registry.snapshot(), options);
  EXPECT_NE(annotated.find(
                "confcall_lat_ns_bucket{le=\"2\"} 1 "
                "# {trace_id=\"00000000deadbeef\"} 1.5"),
            std::string::npos)
      << annotated;
  EXPECT_NE(annotated.find(
                "confcall_lat_ns_bucket{le=\"+Inf\"} 2 "
                "# {trace_id=\"0000000000000007\"} 9"),
            std::string::npos)
      << annotated;
}

// --------------------------------------------------------- exporters

TEST(Exporters, JsonShapeAndStability) {
  MetricRegistry registry;
  registry.counter("confcall_x_total", "help").inc(2);
  registry.gauge("confcall_fill", "help").set(0.5);
  registry.histogram("confcall_lat", HistogramSpec{{1.0, 2.0}}, "help")
      .observe(1.5);
  const std::string json = to_json(registry.snapshot());
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"confcall_x_total\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\": [0, 1, 0]"), std::string::npos);
  // Same registry state -> byte-identical export (the E15 determinism
  // gate rests on this).
  EXPECT_EQ(json, to_json(registry.snapshot()));
}

TEST(Exporters, PrometheusTextFormat) {
  MetricRegistry registry;
  registry
      .counter("confcall_served_total", "served calls", {{"tier", "0"}})
      .inc(3);
  registry.histogram("confcall_lat_ns", HistogramSpec{{1.0, 2.0}}, "latency")
      .observe(1.5);
  registry.histogram("confcall_lat_ns", HistogramSpec{{1.0, 2.0}}, "latency")
      .observe(9.0);
  const std::string text = to_prometheus(registry.snapshot());
  EXPECT_NE(text.find("# HELP confcall_served_total served calls"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE confcall_served_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("confcall_served_total{tier=\"0\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE confcall_lat_ns histogram"),
            std::string::npos);
  // Cumulative le buckets: 0 <= 1.0, 1 <= 2.0, 2 total at +Inf.
  EXPECT_NE(text.find("confcall_lat_ns_bucket{le=\"1\"} 0"),
            std::string::npos);
  EXPECT_NE(text.find("confcall_lat_ns_bucket{le=\"2\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("confcall_lat_ns_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("confcall_lat_ns_count 2"), std::string::npos);
  EXPECT_NE(text.find("confcall_lat_ns_sum 10.5"), std::string::npos);
}

// The exporters format numbers without iostreams. These are the bytes
// an ostream at setprecision(17) gives — what every earlier release
// served, and what the E16 byte-identity gate and scrapers compare.
std::string ostream_number(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

std::string reference_prom_number(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  return ostream_number(v);
}

std::string reference_json_number(double v) {
  return std::isfinite(v) ? ostream_number(v) : "null";
}

TEST(Exporters, NumbersMatchTheOstreamRendering) {
  const double values[] = {
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      -0.0, 0.0, 0.1, 1e21, 9007199254740992.0 /* 2^53 */,
      4.9406564584124654e-324 /* the least denormal */,
      std::numeric_limits<double>::max(), 1e17, 99999999999999984.0, 1e16,
      -3.0, 1.0 / 3.0, 2.5e-7, 123456.789, -1e300, 4096.0};
  MetricRegistry registry;
  for (std::size_t i = 0; i < std::size(values); ++i) {
    registry.gauge("value", "", {{"i", std::to_string(i)}}).set(values[i]);
  }
  const std::uint64_t counts[] = {0, 9007199254740993ULL,
                                  std::numeric_limits<std::uint64_t>::max()};
  for (std::size_t i = 0; i < std::size(counts); ++i) {
    registry.counter("count", "", {{"i", std::to_string(i)}}).inc(counts[i]);
  }
  // Finite values double as bucket bounds (le labels) and observations
  // (the _sum line).
  HistogramSpec spec;
  spec.upper_bounds = {-1e300, -3.0, 4.9406564584124654e-324, 0.1, 2.5e-7 * 1e6,
                       4096.0, 9007199254740992.0, 1e21};
  const Histogram histogram = registry.histogram("hist", spec, "");
  histogram.observe(0.1);
  histogram.observe(1e21);
  const RegistrySnapshot snapshot = registry.snapshot();
  const std::string prom = to_prometheus(snapshot);
  const std::string json = to_json(snapshot);
  for (std::size_t i = 0; i < std::size(values); ++i) {
    const std::string key = "value{i=\"" + std::to_string(i) + "\"}";
    EXPECT_NE(prom.find("\n" + key + " " + reference_prom_number(values[i]) +
                        "\n"),
              std::string::npos)
        << key;
    EXPECT_NE(json.find("\"value{i=\\\"" + std::to_string(i) + "\\\"}\": " +
                        reference_json_number(values[i])),
              std::string::npos)
        << key;
  }
  for (std::size_t i = 0; i < std::size(counts); ++i) {
    std::ostringstream os;
    os << counts[i];
    EXPECT_NE(prom.find("count{i=\"" + std::to_string(i) + "\"} " + os.str() +
                        "\n"),
              std::string::npos);
  }
  std::uint64_t cumulative = 0;
  const HistogramSnapshot& h = snapshot.find("hist")->histogram;
  for (std::size_t b = 0; b < spec.upper_bounds.size(); ++b) {
    cumulative += h.counts[b];
    EXPECT_NE(prom.find("hist_bucket{le=\"" +
                        reference_prom_number(spec.upper_bounds[b]) + "\"} " +
                        std::to_string(cumulative) + "\n"),
              std::string::npos)
        << spec.upper_bounds[b];
  }
  EXPECT_NE(prom.find("hist_sum " + reference_prom_number(0.1 + 1e21) + "\n"),
            std::string::npos);
  EXPECT_NE(json.find("\"sum\": " + reference_json_number(0.1 + 1e21)),
            std::string::npos);
}

TEST(Exporters, PrometheusEscapesLabelValuesAndHelp) {
  // The exposition format requires backslash, double-quote and newline
  // escaped inside label values, and backslash/newline inside HELP text
  // — an unescaped value silently corrupts the whole scrape for parsers.
  MetricRegistry registry;
  registry
      .counter("confcall_escape_total", "line one\nwith a \\ backslash",
               {{"path", "C:\\temp\n\"quoted\""}})
      .inc(1);
  const std::string text = to_prometheus(registry.snapshot());
  EXPECT_NE(
      text.find(
          "confcall_escape_total{path=\"C:\\\\temp\\n\\\"quoted\\\"\"} 1"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("# HELP confcall_escape_total "
                      "line one\\nwith a \\\\ backslash"),
            std::string::npos)
      << text;
  // No raw newline may survive inside any line: every line starts with
  // '#' or the metric name.
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    if (!line.empty()) {
      EXPECT_TRUE(line[0] == '#' ||
                  line.rfind("confcall_escape_total", 0) == 0)
          << line;
    }
    pos = end + 1;
  }
}

}  // namespace
}  // namespace confcall::support
