// Span tracing: a ring-buffer sink plus an RAII Span guard, built on the
// same injectable ClockSource as the overload primitives so traces are
// deterministic under ManualClock (every span in a simulated locate gets
// exact virtual-time bounds, reproducible bit-for-bit).
//
// This is deliberately tiny — not OpenTelemetry. The system needs to
// answer "where did this locate's budget go: planning, paging rounds, or
// recovery?", which takes a name, a parent, and two timestamps. Spans
// nest via a thread_local parent stack: a Span opened while another Span
// on the same thread is alive records that span as its parent, so the
// plan / page-rounds / recovery children hang off the per-call locate
// span without any context plumbing through the call graph.
//
// The sink is a fixed-capacity ring: tracing N spans costs one short
// locked append each and the memory never grows, so a Tracer can stay
// attached to a long simulation and keep only the most recent window.
// A null Tracer* disables tracing at the call site for free — the Span
// constructor does not even read the clock.
//
// Always-on tracing of every call costs ~29% of locate() throughput
// (four spans × two clock reads each; E15 measures the traced side at
// ~71% of the untraced throughput). SamplingTracer recovers the budget:
// a deterministic counter keeps 1 in N ROOT spans, and the decision is
// made exactly once per trace — children of an unsampled root are
// suppressed through a thread-local depth counter, so a retained trace
// is always a complete tree (never torn) and an unsampled call pays no
// clock read and no lock, only a thread-local increment.
//
// Fleet-lane audit (one tracer shared by every ServiceFleet shard):
//   * the root-sampling decision is a single relaxed fetch_add on
//     roots_seen_ — atomic across lanes, so exactly 1 in N roots is
//     kept fleet-wide regardless of which shard threads race;
//   * the parent stack and the suppressed-depth counter are
//     thread_local, and fleet tasks run each locate to completion on
//     one pool thread (spans never migrate mid-trace), so a lane's
//     span tree can neither parent into nor suppress another lane's;
//   * ring appends and span-id allocation are mutex'd / atomic.
// The Fleet tracing storm test runs under the TSan CI row to keep this
// audit honest.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "support/overload.h"

namespace confcall::support {

/// One finished span. `name` must be a string literal (or otherwise
/// outlive the Tracer) — spans are recorded on hot paths and must not
/// allocate.
struct SpanRecord {
  const char* name = "";
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  ///< 0 = root
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;

  [[nodiscard]] std::uint64_t duration_ns() const noexcept {
    return end_ns - start_ns;
  }
};

/// Fixed-capacity ring-buffer span sink. Internally locked; spans may
/// finish on any thread. The clock must outlive the tracer. The base
/// class keeps every trace; SamplingTracer below keeps 1 in N.
class Tracer {
 public:
  explicit Tracer(std::size_t capacity = 1024,
                  const ClockSource& clock = SteadyClockSource::shared());
  virtual ~Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The retained spans, oldest first. At most `capacity` of them — the
  /// ring overwrites, which recorded() exposes.
  [[nodiscard]] std::vector<SpanRecord> snapshot() const;

  /// Total spans ever recorded (>= snapshot().size(); the difference is
  /// how many the ring has dropped).
  [[nodiscard]] std::uint64_t recorded() const;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] const ClockSource& clock() const noexcept { return *clock_; }

 protected:
  /// The per-trace sampling decision, consulted exactly once, by the
  /// ROOT Span of each trace. The base tracer keeps everything; an
  /// override that returns false suppresses the whole tree (children
  /// inherit the root's verdict through the thread-local depth counter,
  /// never re-deciding — see Span).
  [[nodiscard]] virtual bool sample_root() noexcept { return true; }

 private:
  friend class Span;
  [[nodiscard]] std::uint64_t next_span_id() noexcept;
  void record(const SpanRecord& span);

  const ClockSource* clock_;
  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> ring_;
  std::size_t next_slot_ = 0;
  std::uint64_t recorded_ = 0;
  std::atomic<std::uint64_t> next_id_{1};
};

/// Deterministic 1-in-N tracer: a relaxed atomic counter over root spans
/// keeps roots 0, N, 2N, ... and drops the rest, so the retained stream
/// is a strided, reproducible subsample of the call sequence (no RNG —
/// under a ManualClock the whole trace set is bit-identical run to run;
/// across threads the counter still guarantees exactly one trace kept
/// per N roots, with which calls win decided by arrival order).
/// sample_every == 1 keeps everything (== the base Tracer).
class SamplingTracer final : public Tracer {
 public:
  /// Throws std::invalid_argument when sample_every == 0 (use 1 to keep
  /// everything) or capacity == 0.
  explicit SamplingTracer(std::size_t sample_every,
                          std::size_t capacity = 1024,
                          const ClockSource& clock =
                              SteadyClockSource::shared());

  /// Root spans that consulted the sampler / that it kept.
  [[nodiscard]] std::uint64_t roots_seen() const noexcept {
    return roots_seen_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t roots_sampled() const noexcept {
    return roots_sampled_.load(std::memory_order_relaxed);
  }

 protected:
  [[nodiscard]] bool sample_root() noexcept override;

 private:
  std::size_t every_;
  std::atomic<std::uint64_t> roots_seen_{0};
  std::atomic<std::uint64_t> roots_sampled_{0};
};

/// RAII span guard: records [construction, destruction) into the tracer.
/// Constructing with a null tracer is a no-op (the standard pattern for
/// optionally-traced code paths). Non-copyable, non-movable — a Span is
/// pinned to the scope it measures, and the thread_local parent stack
/// requires destruction on the constructing thread in LIFO order, which
/// scoping guarantees.
class Span {
 public:
  Span(Tracer* tracer, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// This span's id while open (0 when the tracer is null or the trace
  /// was not sampled).
  [[nodiscard]] std::uint64_t id() const noexcept { return record_.span_id; }

 private:
  Tracer* tracer_;
  /// This span belongs to a trace whose root was NOT sampled: it holds a
  /// slot in the thread-local suppressed-depth counter (so descendants
  /// inherit the verdict) but records nothing.
  bool suppressed_ = false;
  SpanRecord record_;
};

/// Spans as a JSON array (oldest first), fields name/span_id/parent_id/
/// start_ns/end_ns — consumed by tests and dumpable from benches.
[[nodiscard]] std::string to_json(const std::vector<SpanRecord>& spans);

/// Spans in the Chrome trace_event JSON format (the `chrome://tracing` /
/// Perfetto "JSON Array Format"): one complete event (`"ph": "X"`) per
/// span with microsecond `ts`/`dur` carrying the full nanosecond
/// precision as fixed three-decimal fractions, and span/parent ids under
/// `args`. Load the output directly in a trace viewer. Deterministic
/// byte-for-byte given the spans.
[[nodiscard]] std::string to_trace_event_json(
    const std::vector<SpanRecord>& spans);

}  // namespace confcall::support
