#include "support/trace.h"

#include <stdexcept>

#include "support/json.h"
#include "support/text.h"

namespace confcall::support {
namespace {

// Parent stack per thread: the innermost open span, if any, parents the
// next one constructed on the same thread.
thread_local std::vector<std::uint64_t> t_span_stack;

// Open spans (on this thread) belonging to a trace whose root was not
// sampled. While nonzero, every new Span joins the suppressed trace
// instead of consulting the sampler — the root's verdict covers the
// whole tree, so sampling can never tear a trace apart.
thread_local std::size_t t_suppressed_depth = 0;

// Nanoseconds as a microsecond count with a fixed three-digit fraction
// ("1234.567"): trace_event ts/dur are conventionally microseconds, and
// the fixed-point rendering keeps full ns precision while staying
// byte-deterministic (no double formatting involved).
void append_us(std::string& out, std::uint64_t ns) {
  append_uint(out, ns / 1000);
  out += '.';
  const auto frac = static_cast<unsigned>(ns % 1000);
  out += static_cast<char>('0' + frac / 100);
  out += static_cast<char>('0' + (frac / 10) % 10);
  out += static_cast<char>('0' + frac % 10);
}

}  // namespace

Tracer::Tracer(std::size_t capacity, const ClockSource& clock)
    : clock_(&clock), capacity_(capacity) {
  if (capacity_ == 0) {
    throw std::invalid_argument("Tracer capacity must be >= 1");
  }
  ring_.reserve(capacity_);
}

std::vector<SpanRecord> Tracer::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.size() < capacity_) return ring_;  // not yet wrapped
  std::vector<SpanRecord> out;
  out.reserve(capacity_);
  for (std::size_t i = 0; i < capacity_; ++i) {
    out.push_back(ring_[(next_slot_ + i) % capacity_]);
  }
  return out;
}

std::uint64_t Tracer::recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recorded_;
}

std::uint64_t Tracer::next_span_id() noexcept {
  return next_id_.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::record(const SpanRecord& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.size() < capacity_) {
    ring_.push_back(span);
  } else {
    ring_[next_slot_] = span;
    next_slot_ = (next_slot_ + 1) % capacity_;
  }
  ++recorded_;
}

SamplingTracer::SamplingTracer(std::size_t sample_every, std::size_t capacity,
                               const ClockSource& clock)
    : Tracer(capacity, clock), every_(sample_every) {
  if (every_ == 0) {
    throw std::invalid_argument(
        "SamplingTracer sample_every must be >= 1 (1 keeps everything)");
  }
}

bool SamplingTracer::sample_root() noexcept {
  const std::uint64_t seen =
      roots_seen_.fetch_add(1, std::memory_order_relaxed);
  const bool keep = seen % every_ == 0;
  if (keep) roots_sampled_.fetch_add(1, std::memory_order_relaxed);
  return keep;
}

Span::Span(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  if (t_suppressed_depth > 0) {
    // Inside an unsampled trace: inherit the root's verdict, pay nothing.
    ++t_suppressed_depth;
    suppressed_ = true;
    return;
  }
  if (t_span_stack.empty() && !tracer_->sample_root()) {
    t_suppressed_depth = 1;
    suppressed_ = true;
    return;
  }
  record_.name = name;
  record_.span_id = tracer_->next_span_id();
  record_.parent_id = t_span_stack.empty() ? 0 : t_span_stack.back();
  record_.start_ns = tracer_->clock().now_ns();
  t_span_stack.push_back(record_.span_id);
}

Span::~Span() {
  if (suppressed_) {
    --t_suppressed_depth;
    return;
  }
  if (tracer_ == nullptr) return;
  record_.end_ns = tracer_->clock().now_ns();
  // Scoping guarantees LIFO, so our id is on top.
  t_span_stack.pop_back();
  tracer_->record(record_);
}

std::string to_json(const std::vector<SpanRecord>& spans) {
  std::string out = "[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    if (i > 0) out += ',';
    out += "\n  {\"name\": \"";
    out += json_escape(span.name);
    out += "\", \"span_id\": ";
    append_uint(out, span.span_id);
    out += ", \"parent_id\": ";
    append_uint(out, span.parent_id);
    out += ", \"start_ns\": ";
    append_uint(out, span.start_ns);
    out += ", \"end_ns\": ";
    append_uint(out, span.end_ns);
    out += '}';
  }
  out += spans.empty() ? "]\n" : "\n]\n";
  return out;
}

std::string to_trace_event_json(const std::vector<SpanRecord>& spans) {
  std::string out = "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    if (i > 0) out += ',';
    out += "\n  {\"name\": \"";
    out += json_escape(span.name);
    out += "\", \"cat\": \"confcall\", \"ph\": \"X\", \"ts\": ";
    append_us(out, span.start_ns);
    out += ", \"dur\": ";
    append_us(out, span.duration_ns());
    out += ", \"pid\": 1, \"tid\": 1, \"args\": {\"span_id\": ";
    append_uint(out, span.span_id);
    out += ", \"parent_id\": ";
    append_uint(out, span.parent_id);
    out += "}}";
  }
  out += spans.empty() ? "]" : "\n]";
  out += ", \"displayTimeUnit\": \"ns\"}\n";
  return out;
}

}  // namespace confcall::support
