// Metrics substrate: a lock-sharded registry of named counters, gauges
// and fixed-bucket histograms, with mergeable snapshots and two
// exporters (JSON for the bench/CI flow, Prometheus text format for
// scrapers).
//
// This header is the one place the stack counts anything. A component
// takes a MetricRegistry* at construction (nullptr = a private registry
// it owns), registers its series there once, counts each event only in
// those series, and its getters read them back. Design rules:
//
//   * Handles, not lookups, on the hot path. Registration (name ->
//     handle) takes a shard lock once; after that a Counter::inc is one
//     relaxed fetch_add and a Gauge::set one atomic store. Handles are
//     cheap value types and may be copied freely; a default-constructed
//     handle is UNBOUND and every operation on it is a no-op, so
//     optional instrumentation (ServiceMetrics without a registry) can
//     hold handles unconditionally and pay nothing.
//   * Snapshots are the only read path for aggregate output. snapshot()
//     walks the shards under their locks and returns a RegistrySnapshot
//     sorted by metric key — one consistent cut, instead of N racing
//     getter calls (the bug confcall_plan's printout used to have).
//   * Snapshots merge deterministically. Counter/histogram-bucket merges
//     are integer sums (order-free); gauge and histogram-sum merges are
//     floating-point adds, so callers that need bit-identical aggregates
//     merge in a fixed order (run_simulation_batch merges in replication
//     order — the E15 gate holds merged snapshots bit-identical across
//     thread counts).
//   * Histograms are fixed-bucket. HistogramSpec::exponential gives the
//     log-scale latency buckets; HistogramSpec::integers gives unit
//     buckets whose quantile() agrees EXACTLY with the simulator's
//     rounds_percentile (same rounding, tested) — so percentile-driven
//     tuning can read either source and see the same number.
//
// Metric naming follows the Prometheus conventions: snake_case, a
// `confcall_` prefix, unit suffix (`_ns`, `_cells`, `_rounds`),
// `_total` on counters. Every name emitted by the instrumented
// components is catalogued in docs/OBSERVABILITY.md, and a test diffs
// the runtime registry listing against that catalogue.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace confcall::support {

/// Label set attached to a metric at registration ("tier" -> "greedy").
/// Labels are part of the metric's identity: the same name with
/// different labels is a different time series.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

enum class MetricType { kCounter, kGauge, kHistogram };

[[nodiscard]] const char* metric_type_name(MetricType type) noexcept;

/// Bucket layout of a histogram: strictly increasing upper bounds with
/// Prometheus "le" semantics (bucket i counts observations <= bound[i]),
/// plus an implicit overflow bucket above the last bound.
struct HistogramSpec {
  std::vector<double> upper_bounds;

  /// Log-scale buckets: start, start*factor, start*factor^2, ... —
  /// the default layout for latency in nanoseconds.
  [[nodiscard]] static HistogramSpec exponential(double start, double factor,
                                                 std::size_t count);
  /// Unit buckets 0, 1, 2, ..., max_value. quantile() over these is
  /// exact for integer-valued observations (rounds, retries) and agrees
  /// with cellular::SimReport::rounds_percentile by construction.
  [[nodiscard]] static HistogramSpec integers(std::size_t max_value);

  /// Throws std::invalid_argument unless there is at least one bound and
  /// the bounds are finite and strictly increasing.
  void validate() const;
};

/// OpenMetrics-style exemplar: the trace id of one recent observation
/// that landed in a bucket, bridging a metric percentile to the trace
/// that produced it. trace_id == 0 means "no exemplar recorded" (span
/// ids are never 0 for sampled traces).
struct Exemplar {
  double value = 0.0;
  std::uint64_t trace_id = 0;
  [[nodiscard]] bool valid() const noexcept { return trace_id != 0; }
};

namespace detail {
struct CounterCell {
  std::atomic<std::uint64_t> value{0};
};
struct GaugeCell {
  std::atomic<double> value{0.0};
};
struct HistogramCell {
  explicit HistogramCell(HistogramSpec spec);
  HistogramSpec spec;
  // Lock-free: one relaxed fetch_add per field keeps observe() cheap
  // enough for the locate hot path (the E15 overhead gate). The total
  // count is NOT kept as its own atomic — every observe lands in
  // exactly one bucket, so snapshots derive it by summing the buckets,
  // saving one locked RMW per observe on the hot path. A snapshot
  // mid-observation may see sum/bucket slightly out of step;
  // single-threaded runs (each simulation replication owns its
  // registry) snapshot exactly.
  std::vector<std::atomic<std::uint64_t>> counts;  // +1 overflow bucket
  std::atomic<double> sum{0.0};
  // Exemplars are mutex-guarded, NOT lock-free: annotate() runs only
  // for traced-and-sampled calls (1-in-N of observes), so the lock is
  // off the common path and observe() stays three relaxed adds.
  std::mutex exemplar_mutex;
  std::vector<Exemplar> exemplars;  // parallel to counts, overflow last
};
}  // namespace detail

/// Monotonic counter handle. Unbound (default-constructed) handles
/// no-op; value() on them reads 0.
class Counter {
 public:
  constexpr Counter() noexcept = default;
  void inc(std::uint64_t n = 1) const noexcept {
    if (cell_ != nullptr) cell_->value.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return cell_ == nullptr ? 0
                            : cell_->value.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool bound() const noexcept { return cell_ != nullptr; }

 private:
  friend class MetricRegistry;
  explicit constexpr Counter(detail::CounterCell* cell) noexcept
      : cell_(cell) {}
  detail::CounterCell* cell_ = nullptr;
};

/// Last-value gauge handle (token-bucket fill, queue depth, ...).
class Gauge {
 public:
  constexpr Gauge() noexcept = default;
  void set(double value) const noexcept {
    if (cell_ != nullptr) cell_->value.store(value, std::memory_order_relaxed);
  }
  [[nodiscard]] double value() const noexcept {
    return cell_ == nullptr ? 0.0
                            : cell_->value.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool bound() const noexcept { return cell_ != nullptr; }

 private:
  friend class MetricRegistry;
  explicit constexpr Gauge(detail::GaugeCell* cell) noexcept : cell_(cell) {}
  detail::GaugeCell* cell_ = nullptr;
};

/// Fixed-bucket histogram handle. observe() is lock-free: a bucket
/// lower_bound plus three relaxed atomic adds per observation — cheap
/// against the paging work it instruments, measured by
/// bench_e15_observability.
class Histogram {
 public:
  constexpr Histogram() noexcept = default;
  void observe(double value) const noexcept;
  /// Records `trace_id` as the exemplar of the bucket `value` lands in
  /// (latest annotation wins — a hot bucket naturally carries the trace
  /// id of its most recent sampled observation). Call AFTER observe(),
  /// only when the observation's trace was actually sampled; a zero
  /// trace_id (unsampled span) is a no-op, as is an unbound handle.
  /// Takes a per-histogram mutex — rare by construction (1-in-N
  /// sampling), so the locate hot path never sees the lock.
  void annotate(double value, std::uint64_t trace_id) const noexcept;
  [[nodiscard]] bool bound() const noexcept { return cell_ != nullptr; }

 private:
  friend class MetricRegistry;
  explicit constexpr Histogram(detail::HistogramCell* cell) noexcept
      : cell_(cell) {}
  detail::HistogramCell* cell_ = nullptr;
};

/// Point-in-time copy of one histogram, mergeable with another taken
/// from an identically-specced histogram.
struct HistogramSnapshot {
  std::vector<double> upper_bounds;
  std::vector<std::uint64_t> counts;  ///< per bucket, overflow last
  std::uint64_t count = 0;
  double sum = 0.0;
  /// Per-bucket exemplars (parallel to counts, overflow last), or empty
  /// when the histogram has never been annotated. Merges keep the
  /// first-operand exemplar when both sides have one (deterministic
  /// given the merge order, like the floating-point sums); deltas keep
  /// the current side's exemplars verbatim (an annotation is a level,
  /// not a rate).
  std::vector<Exemplar> exemplars;

  /// Smallest bucket upper bound with at least `p` of the observation
  /// mass at or below it; 0 when empty; the last finite bound for mass
  /// in the overflow bucket. Rounds its rank target exactly like
  /// cellular::SimReport::rounds_percentile, so the two agree on unit
  /// (integers()) buckets.
  [[nodiscard]] double quantile(double p) const noexcept;
};

/// One metric inside a RegistrySnapshot. Exactly one of the value
/// fields is meaningful, selected by `type`.
struct MetricSnapshot {
  std::string name;
  MetricLabels labels;
  std::string help;
  MetricType type = MetricType::kCounter;
  std::uint64_t counter_value = 0;
  double gauge_value = 0.0;
  HistogramSnapshot histogram;

  /// "name" or "name{k=\"v\",...}" — the identity used for sorting,
  /// merging and the Prometheus exposition.
  [[nodiscard]] std::string key() const;
};

/// A consistent cut of a whole registry, sorted by key. This is what
/// exporters consume and what SimReport carries across replication
/// merges.
struct RegistrySnapshot {
  std::vector<MetricSnapshot> metrics;

  /// Folds `other` in by key: counters and histogram buckets add,
  /// gauges and histogram sums add as doubles, metrics missing on
  /// either side are kept. Throws std::invalid_argument on a type or
  /// bucket-layout mismatch under the same key. Deterministic given the
  /// merge order (integer parts are order-free).
  void merge(const RegistrySnapshot& other);

  /// The windowed view: what happened between `prev` (an earlier
  /// snapshot of the SAME registry) and this one. Counters and histogram
  /// buckets subtract key-aligned; gauges keep their CURRENT value (a
  /// gauge is a level, not a rate). Metrics absent from `prev` are kept
  /// verbatim (the series appeared during the window). Throws
  /// std::invalid_argument when `prev` holds a key this snapshot lacks,
  /// or when any counter/bucket went backwards — both mean `prev` came
  /// from a different or restarted registry, and a silent negative rate
  /// would poison every percentile computed from the delta. This is what
  /// the SLO controller and interval-rate reporting consume: interval
  /// p99s instead of lifetime aggregates.
  [[nodiscard]] RegistrySnapshot delta(const RegistrySnapshot& prev) const;

  /// `sum by ()` over one family: every series named `name`, all labels
  /// erased, folded into a single label-less snapshot with the merge()
  /// semantics (histograms merge bucket-wise). nullopt when no series has
  /// that name; throws std::invalid_argument if the series disagree on
  /// type or bucket layout. Per-shard series are cuts of one workload, so
  /// the sum is INVARIANT across shard counts (resharding redistributes
  /// labels, never totals). This is the fleet SLO sensor:
  /// sum_by("confcall_locate_rounds") over a delta window reads the
  /// fleet-wide interval rounds distribution whatever the shard count.
  [[nodiscard]] std::optional<MetricSnapshot> sum_by(
      std::string_view name) const;

  /// Lookup by name + labels; nullptr when absent.
  [[nodiscard]] const MetricSnapshot* find(
      std::string_view name, const MetricLabels& labels = {}) const noexcept;

  [[nodiscard]] bool empty() const noexcept { return metrics.empty(); }
};

/// The registry: named metrics behind lock-sharded registration.
/// Registration is idempotent — the same (name, labels) returns the
/// same cell, so independent components can share a series — but a
/// type or bucket-spec mismatch throws instead of silently aliasing.
/// Handles stay valid for the registry's lifetime; the registry is
/// neither copyable nor movable for that reason.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Throws std::invalid_argument on a malformed name/label (metric and
  /// label names must match [a-zA-Z_][a-zA-Z0-9_]*) or a type mismatch
  /// with an existing registration.
  [[nodiscard]] Counter counter(const std::string& name,
                                const std::string& help,
                                const MetricLabels& labels = {});
  [[nodiscard]] Gauge gauge(const std::string& name, const std::string& help,
                            const MetricLabels& labels = {});
  [[nodiscard]] Histogram histogram(const std::string& name,
                                    const HistogramSpec& spec,
                                    const std::string& help,
                                    const MetricLabels& labels = {});

  /// One consistent cut of every registered metric, sorted by key.
  [[nodiscard]] RegistrySnapshot snapshot() const;

 private:
  struct Entry {
    MetricType type;
    std::string name;
    MetricLabels labels;
    std::string help;
    detail::CounterCell* counter = nullptr;
    detail::GaugeCell* gauge = nullptr;
    detail::HistogramCell* histogram = nullptr;
  };
  struct Shard {
    mutable std::mutex mutex;
    // Deques: grow-stable addresses, so handles never dangle.
    std::deque<detail::CounterCell> counters;
    std::deque<detail::GaugeCell> gauges;
    std::deque<detail::HistogramCell> histograms;
    std::map<std::string, Entry> by_key;
  };
  static constexpr std::size_t kNumShards = 16;

  Shard& shard_for(const std::string& name) noexcept;
  Entry& find_or_create(Shard& shard, MetricType type,
                        const std::string& name, const MetricLabels& labels,
                        const std::string& help, const HistogramSpec* spec);

  Shard shards_[kNumShards];
};

/// Renders a snapshot as pretty-printed JSON with stable key order:
/// {"counters": {...}, "gauges": {...}, "histograms": {name: {count,
/// sum, p50, p99, buckets}}}. Numeric leaves pair by path, which is
/// exactly what tools/bench_compare.py walks — bench JSON built from a
/// snapshot feeds the existing artifact-comparison flow unchanged.
[[nodiscard]] std::string to_json(const RegistrySnapshot& snapshot);

/// Exposition options. Defaults render the classic Prometheus text
/// format byte-identically to every prior release (the E16 scrape
/// byte-identity gate pins this); exemplars opt in to the OpenMetrics
/// `... # {trace_id="<16-hex>"} value` suffix on _bucket samples.
struct PrometheusOptions {
  bool exemplars = false;
};

/// Renders a snapshot in the Prometheus text exposition format
/// (# HELP / # TYPE lines, cumulative `le` buckets, +Inf, _sum/_count).
[[nodiscard]] std::string to_prometheus(const RegistrySnapshot& snapshot);
[[nodiscard]] std::string to_prometheus(const RegistrySnapshot& snapshot,
                                        const PrometheusOptions& options);

}  // namespace confcall::support
