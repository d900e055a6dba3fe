#include "support/metrics.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <stdexcept>

#include "support/json.h"
#include "support/text.h"

namespace confcall::support {
namespace {

bool valid_identifier(const std::string& s) {
  if (s.empty()) return false;
  const auto head = static_cast<unsigned char>(s.front());
  if (!(std::isalpha(head) != 0 || s.front() == '_')) return false;
  return std::all_of(s.begin(), s.end(), [](char c) {
    const auto u = static_cast<unsigned char>(c);
    return std::isalnum(u) != 0 || c == '_';
  });
}

void validate_identity(const std::string& name, const MetricLabels& labels) {
  if (!valid_identifier(name)) {
    throw std::invalid_argument("metric name '" + name +
                                "' must match [a-zA-Z_][a-zA-Z0-9_]*");
  }
  for (const auto& [key, value] : labels) {
    (void)value;
    if (!valid_identifier(key)) {
      throw std::invalid_argument("label name '" + key + "' on metric '" +
                                  name +
                                  "' must match [a-zA-Z_][a-zA-Z0-9_]*");
    }
  }
}

MetricLabels sorted_labels(MetricLabels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

void append_label_value(std::string& out, std::string_view value) {
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
}

// The exposition format's HELP escaping: backslash and newline only
// (label VALUES additionally escape the double quote — see
// append_label_value above; both run before anything reaches a scraper,
// which the /metrics endpoint now makes externally visible).
void append_help(std::string& out, std::string_view help) {
  for (const char c : help) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
}

void append_label(std::string& out, const std::pair<std::string, std::string>&
                                        label) {
  out += label.first;
  out += "=\"";
  append_label_value(out, label.second);
  out += '"';
}

/// Appends `{k="v",...}`, or nothing when there are no labels.
void append_labels(std::string& out, const MetricLabels& labels) {
  if (labels.empty()) return;
  out += '{';
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ',';
    append_label(out, labels[i]);
  }
  out += '}';
}

/// Appends a series key: the name, then its labels.
void append_key(std::string& out, std::string_view name,
                const MetricLabels& labels) {
  out += name;
  append_labels(out, labels);
}

std::string metric_key(const std::string& name, const MetricLabels& labels) {
  std::string key;
  append_key(key, name, labels);
  return key;
}

// %.17g is the portable round-trip precision; it renders the same bytes
// an ostream at setprecision(17) does, and keeps exports bit-stable for
// the E15 gate. snprintf, not std::to_chars(double): the latter pulls
// its shortest-round-trip tables into the daemon's resident set.
void append_double(std::string& out, double v) {
  // A whole number below 1e17 (every bucket bound of an integers() or
  // whole-number exponential layout) prints under %.17g as its plain
  // digits; render those from the integer and skip printf's machinery.
  if (v == std::trunc(v) && std::abs(v) < 1e17 && !std::signbit(v)) {
    append_uint(out, static_cast<std::uint64_t>(v));
    return;
  }
  char buffer[32];
  const int n = std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  out.append(buffer, static_cast<std::size_t>(n));
}

// JSON has no NaN or infinities.
void append_json_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  append_double(out, v);
}

void append_prom_number(std::string& out, double v) {
  if (std::isnan(v)) {
    out += "NaN";
  } else if (std::isinf(v)) {
    out += v > 0 ? "+Inf" : "-Inf";
  } else {
    append_double(out, v);
  }
}

// Exemplar fold for merges: first operand wins when both buckets carry
// one (deterministic given the merge order, matching the documented
// floating-point-sum contract). Either side may be entirely empty —
// histograms that were never annotated snapshot without exemplars.
void fold_exemplars(HistogramSnapshot& mine, const HistogramSnapshot& theirs) {
  if (theirs.exemplars.empty()) return;
  if (mine.exemplars.empty()) {
    mine.exemplars = theirs.exemplars;
    return;
  }
  for (std::size_t i = 0; i < mine.exemplars.size(); ++i) {
    if (!mine.exemplars[i].valid()) mine.exemplars[i] = theirs.exemplars[i];
  }
}

}  // namespace

const char* metric_type_name(MetricType type) noexcept {
  switch (type) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "unknown";
}

HistogramSpec HistogramSpec::exponential(double start, double factor,
                                         std::size_t count) {
  if (!(start > 0.0) || !(factor > 1.0) || count == 0) {
    throw std::invalid_argument(
        "HistogramSpec::exponential requires start > 0, factor > 1, "
        "count >= 1");
  }
  HistogramSpec spec;
  spec.upper_bounds.reserve(count);
  double bound = start;
  for (std::size_t i = 0; i < count; ++i) {
    spec.upper_bounds.push_back(bound);
    bound *= factor;
  }
  spec.validate();
  return spec;
}

HistogramSpec HistogramSpec::integers(std::size_t max_value) {
  HistogramSpec spec;
  spec.upper_bounds.reserve(max_value + 1);
  for (std::size_t v = 0; v <= max_value; ++v) {
    spec.upper_bounds.push_back(static_cast<double>(v));
  }
  spec.validate();
  return spec;
}

void HistogramSpec::validate() const {
  if (upper_bounds.empty()) {
    throw std::invalid_argument("HistogramSpec needs at least one bound");
  }
  for (std::size_t i = 0; i < upper_bounds.size(); ++i) {
    if (!std::isfinite(upper_bounds[i])) {
      throw std::invalid_argument("HistogramSpec bounds must be finite");
    }
    if (i > 0 && !(upper_bounds[i] > upper_bounds[i - 1])) {
      throw std::invalid_argument(
          "HistogramSpec bounds must be strictly increasing");
    }
  }
}

namespace detail {
HistogramCell::HistogramCell(HistogramSpec spec_in)
    : spec(std::move(spec_in)),
      counts(spec.upper_bounds.size() + 1),
      exemplars(spec.upper_bounds.size() + 1) {}
}  // namespace detail

void Histogram::observe(double value) const noexcept {
  if (cell_ == nullptr) return;
  const auto& bounds = cell_->spec.upper_bounds;
  // First bound >= value; past-the-end means the overflow bucket.
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), value);
  const auto index = static_cast<std::size_t>(it - bounds.begin());
  cell_->counts[index].fetch_add(1, std::memory_order_relaxed);
  cell_->sum.fetch_add(value, std::memory_order_relaxed);
}

void Histogram::annotate(double value, std::uint64_t trace_id) const noexcept {
  if (cell_ == nullptr || trace_id == 0) return;
  const auto& bounds = cell_->spec.upper_bounds;
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), value);
  const auto index = static_cast<std::size_t>(it - bounds.begin());
  std::lock_guard<std::mutex> lock(cell_->exemplar_mutex);
  cell_->exemplars[index] = Exemplar{value, trace_id};
}

double HistogramSnapshot::quantile(double p) const noexcept {
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  if (total == 0 || upper_bounds.empty()) return 0.0;
  p = std::min(std::max(p, 0.0), 1.0);
  // Same rank rounding as cellular::SimReport::rounds_percentile, so the
  // two percentile sources agree on integers() buckets.
  const auto target = static_cast<std::uint64_t>(
      p * static_cast<double>(total) + 0.5);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (seen >= target) {
      return i < upper_bounds.size() ? upper_bounds[i] : upper_bounds.back();
    }
  }
  return upper_bounds.back();
}

std::string MetricSnapshot::key() const { return metric_key(name, labels); }

void RegistrySnapshot::merge(const RegistrySnapshot& other) {
  for (const auto& theirs : other.metrics) {
    const std::string key = theirs.key();
    auto it = std::lower_bound(
        metrics.begin(), metrics.end(), key,
        [](const MetricSnapshot& m, const std::string& k) {
          return m.key() < k;
        });
    if (it == metrics.end() || it->key() != key) {
      metrics.insert(it, theirs);
      continue;
    }
    if (it->type != theirs.type) {
      throw std::invalid_argument("RegistrySnapshot::merge: metric '" + key +
                                  "' has mismatched types");
    }
    switch (theirs.type) {
      case MetricType::kCounter:
        it->counter_value += theirs.counter_value;
        break;
      case MetricType::kGauge:
        it->gauge_value += theirs.gauge_value;
        break;
      case MetricType::kHistogram: {
        auto& mine = it->histogram;
        if (mine.upper_bounds != theirs.histogram.upper_bounds) {
          throw std::invalid_argument("RegistrySnapshot::merge: histogram '" +
                                      key + "' has mismatched bucket bounds");
        }
        for (std::size_t i = 0; i < mine.counts.size(); ++i) {
          mine.counts[i] += theirs.histogram.counts[i];
        }
        mine.count += theirs.histogram.count;
        mine.sum += theirs.histogram.sum;
        fold_exemplars(mine, theirs.histogram);
        break;
      }
    }
  }
}

RegistrySnapshot RegistrySnapshot::delta(const RegistrySnapshot& prev) const {
  RegistrySnapshot out = *this;
  std::size_t prev_matched = 0;
  for (MetricSnapshot& mine : out.metrics) {
    const MetricSnapshot* theirs = prev.find(mine.name, mine.labels);
    if (theirs == nullptr) continue;  // series appeared during the window
    ++prev_matched;
    if (theirs->type != mine.type) {
      throw std::invalid_argument("RegistrySnapshot::delta: metric '" +
                                  mine.key() + "' has mismatched types");
    }
    switch (mine.type) {
      case MetricType::kCounter:
        if (theirs->counter_value > mine.counter_value) {
          throw std::invalid_argument(
              "RegistrySnapshot::delta: counter '" + mine.key() +
              "' went backwards (was the registry reset?)");
        }
        mine.counter_value -= theirs->counter_value;
        break;
      case MetricType::kGauge:
        break;  // levels, not rates: the delta reports the current value
      case MetricType::kHistogram: {
        if (mine.histogram.upper_bounds != theirs->histogram.upper_bounds) {
          throw std::invalid_argument("RegistrySnapshot::delta: histogram '" +
                                      mine.key() +
                                      "' has mismatched bucket bounds");
        }
        if (theirs->histogram.count > mine.histogram.count) {
          throw std::invalid_argument(
              "RegistrySnapshot::delta: histogram '" + mine.key() +
              "' went backwards (was the registry reset?)");
        }
        for (std::size_t i = 0; i < mine.histogram.counts.size(); ++i) {
          if (theirs->histogram.counts[i] > mine.histogram.counts[i]) {
            throw std::invalid_argument(
                "RegistrySnapshot::delta: histogram '" + mine.key() +
                "' went backwards (was the registry reset?)");
          }
          mine.histogram.counts[i] -= theirs->histogram.counts[i];
        }
        mine.histogram.count -= theirs->histogram.count;
        mine.histogram.sum -= theirs->histogram.sum;
        break;
      }
    }
  }
  // Every key of prev must still exist here: the registry never drops a
  // series, so a leftover means the snapshots are from different
  // registries.
  if (prev_matched != prev.metrics.size()) {
    for (const MetricSnapshot& theirs : prev.metrics) {
      if (find(theirs.name, theirs.labels) == nullptr) {
        throw std::invalid_argument(
            "RegistrySnapshot::delta: metric '" + theirs.key() +
            "' from the previous snapshot is missing here (snapshots of "
            "different registries?)");
      }
    }
  }
  return out;
}

std::optional<MetricSnapshot> RegistrySnapshot::sum_by(
    std::string_view name) const {
  RegistrySnapshot acc;
  for (const MetricSnapshot& metric : metrics) {
    if (metric.name != name) continue;
    RegistrySnapshot one;
    one.metrics.push_back(metric);
    one.metrics.front().labels.clear();
    acc.merge(one);
  }
  if (acc.metrics.empty()) return std::nullopt;
  return std::move(acc.metrics.front());
}

const MetricSnapshot* RegistrySnapshot::find(
    std::string_view name, const MetricLabels& labels) const noexcept {
  for (const auto& metric : metrics) {
    if (metric.name == name && metric.labels == labels) return &metric;
  }
  return nullptr;
}

MetricRegistry::Shard& MetricRegistry::shard_for(
    const std::string& name) noexcept {
  return shards_[std::hash<std::string>{}(name) % kNumShards];
}

MetricRegistry::Entry& MetricRegistry::find_or_create(
    Shard& shard, MetricType type, const std::string& name,
    const MetricLabels& labels, const std::string& help,
    const HistogramSpec* spec) {
  const std::string key = metric_key(name, labels);
  auto it = shard.by_key.find(key);
  if (it != shard.by_key.end()) {
    Entry& entry = it->second;
    if (entry.type != type) {
      throw std::invalid_argument(
          "metric '" + key + "' already registered as " +
          metric_type_name(entry.type) + ", requested " +
          metric_type_name(type));
    }
    if (type == MetricType::kHistogram &&
        entry.histogram->spec.upper_bounds != spec->upper_bounds) {
      throw std::invalid_argument("histogram '" + key +
                                  "' re-registered with different buckets");
    }
    return entry;
  }
  Entry entry;
  entry.type = type;
  entry.name = name;
  entry.labels = labels;
  entry.help = help;
  switch (type) {
    case MetricType::kCounter:
      entry.counter = &shard.counters.emplace_back();
      break;
    case MetricType::kGauge:
      entry.gauge = &shard.gauges.emplace_back();
      break;
    case MetricType::kHistogram:
      entry.histogram = &shard.histograms.emplace_back(*spec);
      break;
  }
  return shard.by_key.emplace(key, std::move(entry)).first->second;
}

Counter MetricRegistry::counter(const std::string& name,
                                const std::string& help,
                                const MetricLabels& labels) {
  validate_identity(name, labels);
  const MetricLabels canonical = sorted_labels(labels);
  Shard& shard = shard_for(name);
  std::lock_guard<std::mutex> lock(shard.mutex);
  return Counter(find_or_create(shard, MetricType::kCounter, name, canonical,
                                help, nullptr)
                     .counter);
}

Gauge MetricRegistry::gauge(const std::string& name, const std::string& help,
                            const MetricLabels& labels) {
  validate_identity(name, labels);
  const MetricLabels canonical = sorted_labels(labels);
  Shard& shard = shard_for(name);
  std::lock_guard<std::mutex> lock(shard.mutex);
  return Gauge(
      find_or_create(shard, MetricType::kGauge, name, canonical, help, nullptr)
          .gauge);
}

Histogram MetricRegistry::histogram(const std::string& name,
                                    const HistogramSpec& spec,
                                    const std::string& help,
                                    const MetricLabels& labels) {
  validate_identity(name, labels);
  spec.validate();
  const MetricLabels canonical = sorted_labels(labels);
  Shard& shard = shard_for(name);
  std::lock_guard<std::mutex> lock(shard.mutex);
  return Histogram(find_or_create(shard, MetricType::kHistogram, name,
                                  canonical, help, &spec)
                       .histogram);
}

RegistrySnapshot MetricRegistry::snapshot() const {
  RegistrySnapshot snapshot;
  std::vector<MetricSnapshot> taken;
  std::vector<const std::string*> keys;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [key, entry] : shard.by_key) {
      MetricSnapshot metric;
      metric.name = entry.name;
      metric.labels = entry.labels;
      metric.help = entry.help;
      metric.type = entry.type;
      switch (entry.type) {
        case MetricType::kCounter:
          metric.counter_value =
              entry.counter->value.load(std::memory_order_relaxed);
          break;
        case MetricType::kGauge:
          metric.gauge_value =
              entry.gauge->value.load(std::memory_order_relaxed);
          break;
        case MetricType::kHistogram: {
          metric.histogram.upper_bounds = entry.histogram->spec.upper_bounds;
          metric.histogram.counts.reserve(entry.histogram->counts.size());
          for (const auto& bucket : entry.histogram->counts) {
            metric.histogram.counts.push_back(
                bucket.load(std::memory_order_relaxed));
          }
          metric.histogram.count = 0;
          for (const std::uint64_t bucket : metric.histogram.counts) {
            metric.histogram.count += bucket;
          }
          metric.histogram.sum =
              entry.histogram->sum.load(std::memory_order_relaxed);
          {
            std::lock_guard<std::mutex> exemplar_lock(
                entry.histogram->exemplar_mutex);
            const auto& cells = entry.histogram->exemplars;
            // Never-annotated histograms snapshot with an empty exemplar
            // vector, keeping the common path allocation-free.
            if (std::any_of(cells.begin(), cells.end(),
                            [](const Exemplar& e) { return e.valid(); })) {
              metric.histogram.exemplars = cells;
            }
          }
          break;
        }
      }
      taken.push_back(std::move(metric));
      keys.push_back(&key);
    }
  }
  // Order by the keys the shard maps already hold (a map never drops a
  // node, so they outlive the locks) instead of rebuilding key() per
  // comparison.
  std::vector<std::size_t> order(taken.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&keys](std::size_t a, std::size_t b) {
    return *keys[a] < *keys[b];
  });
  snapshot.metrics.reserve(taken.size());
  for (const std::size_t i : order) {
    snapshot.metrics.push_back(std::move(taken[i]));
  }
  return snapshot;
}

std::string to_json(const RegistrySnapshot& snapshot) {
  std::string out = "{\n";
  std::string key;
  const char* section_names[] = {"counters", "gauges", "histograms"};
  const MetricType section_types[] = {MetricType::kCounter, MetricType::kGauge,
                                      MetricType::kHistogram};
  for (int section = 0; section < 3; ++section) {
    out += "  \"";
    out += section_names[section];
    out += "\": {";
    bool first = true;
    for (const auto& metric : snapshot.metrics) {
      if (metric.type != section_types[section]) continue;
      if (!first) out += ',';
      first = false;
      key.clear();
      append_key(key, metric.name, metric.labels);
      out += "\n    \"";
      out += json_escape(key);
      out += "\": ";
      switch (metric.type) {
        case MetricType::kCounter:
          append_uint(out, metric.counter_value);
          break;
        case MetricType::kGauge:
          append_json_number(out, metric.gauge_value);
          break;
        case MetricType::kHistogram: {
          const auto& h = metric.histogram;
          out += "{\"count\": ";
          append_uint(out, h.count);
          out += ", \"sum\": ";
          append_json_number(out, h.sum);
          out += ", \"p50\": ";
          append_json_number(out, h.quantile(0.50));
          out += ", \"p99\": ";
          append_json_number(out, h.quantile(0.99));
          out += ", \"buckets\": [";
          for (std::size_t i = 0; i < h.counts.size(); ++i) {
            if (i > 0) out += ", ";
            append_uint(out, h.counts[i]);
          }
          out += "]}";
          break;
        }
      }
    }
    out += first ? "}" : "\n  }";
    if (section < 2) out += ',';
    out += '\n';
  }
  out += "}\n";
  return out;
}

std::string to_prometheus(const RegistrySnapshot& snapshot) {
  return to_prometheus(snapshot, PrometheusOptions{});
}

std::string to_prometheus(const RegistrySnapshot& snapshot,
                          const PrometheusOptions& options) {
  std::string out;
  // Bucket lines of one series differ only in their le value, so the
  // label text around it is built once per series.
  std::string bucket_head;
  std::string bucket_tail;
  // HELP/TYPE are per metric family (name), emitted once even when many
  // label sets share the name; the sorted snapshot groups them already.
  const std::string* last_family = nullptr;
  for (const auto& metric : snapshot.metrics) {
    if (last_family == nullptr || metric.name != *last_family) {
      last_family = &metric.name;
      if (!metric.help.empty()) {
        out += "# HELP ";
        out += metric.name;
        out += ' ';
        append_help(out, metric.help);
        out += '\n';
      }
      out += "# TYPE ";
      out += metric.name;
      out += ' ';
      out += metric_type_name(metric.type);
      out += '\n';
    }
    switch (metric.type) {
      case MetricType::kCounter:
        append_key(out, metric.name, metric.labels);
        out += ' ';
        append_uint(out, metric.counter_value);
        out += '\n';
        break;
      case MetricType::kGauge:
        append_key(out, metric.name, metric.labels);
        out += ' ';
        append_prom_number(out, metric.gauge_value);
        out += '\n';
        break;
      case MetricType::kHistogram: {
        const auto& h = metric.histogram;
        const MetricLabels& labels = metric.labels;
        // "le" joins the (sorted) labels where sorting would put it: after
        // every name below "le", and among labels named "le" — which no
        // registered series carries — by value.
        const auto le_first = std::find_if(
            labels.begin(), labels.end(),
            [](const auto& label) { return label.first >= "le"; });
        const auto le_last = std::find_if(
            le_first, labels.end(),
            [](const auto& label) { return label.first > "le"; });
        bucket_head = metric.name;
        bucket_head += "_bucket{";
        for (auto it = labels.begin(); it != le_first; ++it) {
          append_label(bucket_head, *it);
          bucket_head += ',';
        }
        bucket_tail.clear();
        for (auto it = le_last; it != labels.end(); ++it) {
          bucket_tail += ',';
          append_label(bucket_tail, *it);
        }
        bucket_tail += "} ";
        const std::size_t le_at = bucket_head.size();
        std::uint64_t cumulative = 0;
        // One bucket line; bound == nullptr is the +Inf bucket.
        auto bucket_line = [&](std::size_t i, const double* bound) {
          cumulative += h.counts[i];
          bucket_head.resize(le_at);
          if (bound != nullptr) {
            append_prom_number(bucket_head, *bound);
          } else {
            bucket_head += "+Inf";
          }
          const std::string_view le(bucket_head.data() + le_at,
                                    bucket_head.size() - le_at);
          out.append(bucket_head, 0, le_at);
          for (auto it = le_first; it != le_last; ++it) {
            if (it->second < le) {
              append_label(out, *it);
              out += ',';
            }
          }
          out += "le=\"";
          out += le;
          out += '"';
          for (auto it = le_first; it != le_last; ++it) {
            if (!(it->second < le)) {
              out += ',';
              append_label(out, *it);
            }
          }
          out += bucket_tail;
          append_uint(out, cumulative);
          // OpenMetrics exemplar suffix on _bucket samples only, behind
          // the opt-in: the default exposition must stay byte-identical
          // release over release (the E16 scrape gate).
          if (options.exemplars && i < h.exemplars.size() &&
              h.exemplars[i].valid()) {
            out += " # {trace_id=\"";
            append_hex16(out, h.exemplars[i].trace_id);
            out += "\"} ";
            append_prom_number(out, h.exemplars[i].value);
          }
          out += '\n';
        };
        for (std::size_t i = 0; i < h.upper_bounds.size(); ++i) {
          bucket_line(i, &h.upper_bounds[i]);
        }
        bucket_line(h.counts.size() - 1, nullptr);
        out += metric.name;
        out += "_sum";
        append_labels(out, labels);
        out += ' ';
        append_prom_number(out, h.sum);
        out += '\n';
        out += metric.name;
        out += "_count";
        append_labels(out, labels);
        out += ' ';
        append_uint(out, h.count);
        out += '\n';
        break;
      }
    }
  }
  return out;
}

}  // namespace confcall::support
