// Unit tests for the span tracer (support/trace.h): RAII timing against
// a ManualClock, parent linkage through the thread_local stack, ring
// eviction, null-tracer no-ops, the deterministic 1-in-N SamplingTracer
// (whole-tree suppression, wraparound, thread-pool integrity), and the
// JSON / trace_event dumps (parseable for any span name).
#include "support/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/json.h"
#include "support/thread_pool.h"

namespace confcall::support {
namespace {

TEST(Tracer, RejectsZeroCapacity) {
  EXPECT_THROW(Tracer tracer(0), std::invalid_argument);
}

TEST(Tracer, NullTracerSpansAreFreeNoOps) {
  const Span span(nullptr, "nothing");
  EXPECT_EQ(span.id(), 0u);
}

TEST(Tracer, SpanRecordsManualClockBounds) {
  ManualClock clock(1'000);
  Tracer tracer(8, clock);
  {
    const Span span(&tracer, "work");
    clock.advance(250);
  }
  const std::vector<SpanRecord> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "work");
  EXPECT_EQ(spans[0].start_ns, 1'000u);
  EXPECT_EQ(spans[0].end_ns, 1'250u);
  EXPECT_EQ(spans[0].duration_ns(), 250u);
  EXPECT_EQ(spans[0].parent_id, 0u);
  EXPECT_EQ(tracer.recorded(), 1u);
}

TEST(Tracer, NestedSpansLinkToParent) {
  ManualClock clock(0);
  Tracer tracer(8, clock);
  std::uint64_t outer_id = 0;
  {
    const Span outer(&tracer, "locate");
    outer_id = outer.id();
    clock.advance(10);
    {
      const Span inner(&tracer, "plan");
      clock.advance(5);
    }
    {
      const Span inner(&tracer, "page_rounds");
      clock.advance(7);
    }
  }
  // Children close (and record) before the parent: plan, page_rounds,
  // locate, oldest first.
  const std::vector<SpanRecord> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_STREQ(spans[0].name, "plan");
  EXPECT_STREQ(spans[1].name, "page_rounds");
  EXPECT_STREQ(spans[2].name, "locate");
  EXPECT_EQ(spans[0].parent_id, outer_id);
  EXPECT_EQ(spans[1].parent_id, outer_id);
  EXPECT_EQ(spans[2].parent_id, 0u);
  EXPECT_EQ(spans[2].span_id, outer_id);
  EXPECT_EQ(spans[0].start_ns, 10u);
  EXPECT_EQ(spans[0].end_ns, 15u);
  EXPECT_EQ(spans[2].duration_ns(), 22u);
}

TEST(Tracer, RingEvictsOldestAndCountsAll) {
  ManualClock clock(0);
  Tracer tracer(3, clock);
  for (int i = 0; i < 5; ++i) {
    const Span span(&tracer, i % 2 == 0 ? "even" : "odd");
    clock.advance(1);
  }
  EXPECT_EQ(tracer.recorded(), 5u);
  const std::vector<SpanRecord> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 3u);
  // Oldest-first window over the last three spans (indices 2, 3, 4).
  EXPECT_EQ(spans[0].start_ns, 2u);
  EXPECT_EQ(spans[1].start_ns, 3u);
  EXPECT_EQ(spans[2].start_ns, 4u);
}

TEST(Tracer, ParentStackIsPerThread) {
  ManualClock clock(0);
  Tracer tracer(8, clock);
  const Span outer(&tracer, "main_thread_root");
  std::thread worker([&] {
    // A span on another thread must NOT pick up this thread-unrelated
    // open span as its parent.
    const Span span(&tracer, "worker_root");
  });
  worker.join();
  const std::vector<SpanRecord> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "worker_root");
  EXPECT_EQ(spans[0].parent_id, 0u);
}

TEST(SamplingTracer, RejectsZeroSampleRateAndCapacity) {
  EXPECT_THROW(SamplingTracer tracer(0), std::invalid_argument);
  EXPECT_THROW(SamplingTracer tracer(4, 0), std::invalid_argument);
}

TEST(SamplingTracer, KeepsExactlyOneInN) {
  ManualClock clock(0);
  SamplingTracer tracer(4, 64, clock);
  for (int i = 0; i < 16; ++i) {
    const Span span(&tracer, "root");
    clock.advance(1);
  }
  // Deterministic stride: roots 0, 4, 8, 12 of the 16 are kept.
  EXPECT_EQ(tracer.roots_seen(), 16u);
  EXPECT_EQ(tracer.roots_sampled(), 4u);
  const std::vector<SpanRecord> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].start_ns, 0u);
  EXPECT_EQ(spans[1].start_ns, 4u);
  EXPECT_EQ(spans[2].start_ns, 8u);
  EXPECT_EQ(spans[3].start_ns, 12u);
}

TEST(SamplingTracer, SampleEveryOneKeepsEverything) {
  ManualClock clock(0);
  SamplingTracer tracer(1, 64, clock);
  for (int i = 0; i < 5; ++i) {
    const Span span(&tracer, "root");
  }
  EXPECT_EQ(tracer.roots_sampled(), 5u);
  EXPECT_EQ(tracer.recorded(), 5u);
}

TEST(SamplingTracer, TracesAreNeverTorn) {
  // The sampling decision is made once, at the root: children of a kept
  // root are all kept, children of a dropped root are all dropped — a
  // retained trace is always a complete tree.
  ManualClock clock(0);
  SamplingTracer tracer(2, 64, clock);
  for (int call = 0; call < 6; ++call) {
    const Span locate(&tracer, "locate");
    clock.advance(1);
    {
      const Span plan(&tracer, "plan");
      {
        const Span inner(&tracer, "dp");
        clock.advance(1);
      }
    }
    const Span pages(&tracer, "page_rounds");
    clock.advance(1);
  }
  // Calls 0, 2, 4 are kept, each contributing the full 4-span tree.
  EXPECT_EQ(tracer.roots_seen(), 6u);
  EXPECT_EQ(tracer.roots_sampled(), 3u);
  const std::vector<SpanRecord> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 12u);
  std::set<std::uint64_t> roots;
  std::map<std::uint64_t, int> children_of;
  for (const SpanRecord& span : spans) {
    if (span.parent_id == 0) {
      EXPECT_STREQ(span.name, "locate");
      roots.insert(span.span_id);
    }
  }
  EXPECT_EQ(roots.size(), 3u);
  for (const SpanRecord& span : spans) {
    if (span.parent_id == 0) continue;
    // Every non-root span hangs off a kept locate (directly or through
    // the kept plan span) — never off a dropped trace.
    const bool parent_present =
        std::any_of(spans.begin(), spans.end(), [&](const SpanRecord& other) {
          return other.span_id == span.parent_id;
        });
    EXPECT_TRUE(parent_present) << span.name;
    ++children_of[span.parent_id];
  }
  // Each kept locate parents plan + page_rounds, each kept plan parents
  // the dp span.
  for (const std::uint64_t root : roots) {
    EXPECT_EQ(children_of[root], 2);
  }
}

TEST(SamplingTracer, SuppressedSpansPayNoClockReads) {
  // An unsampled trace must not touch the clock: with every_ = 2 and two
  // calls, only the first call's spans read the ManualClock.
  ManualClock clock(0);
  SamplingTracer tracer(2, 64, clock);
  {
    const Span kept(&tracer, "kept");
    clock.advance(10);
  }
  {
    const Span dropped(&tracer, "dropped");
    const Span child(&tracer, "dropped_child");
    EXPECT_EQ(dropped.id(), 0u);
    EXPECT_EQ(child.id(), 0u);
  }
  const std::vector<SpanRecord> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "kept");
}

TEST(SamplingTracer, RingWrapsUnderSampling) {
  // Capacity 3, keep 1 in 2 over 10 roots -> 5 recorded, ring keeps the
  // newest 3 (roots 4, 6, 8) and recorded() exposes the drop.
  ManualClock clock(0);
  SamplingTracer tracer(2, 3, clock);
  for (int i = 0; i < 10; ++i) {
    const Span span(&tracer, "root");
    clock.advance(1);
  }
  EXPECT_EQ(tracer.roots_sampled(), 5u);
  EXPECT_EQ(tracer.recorded(), 5u);
  const std::vector<SpanRecord> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].start_ns, 4u);
  EXPECT_EQ(spans[1].start_ns, 6u);
  EXPECT_EQ(spans[2].start_ns, 8u);
}

TEST(SamplingTracer, ThreadPoolWorkersKeepTreesIntact) {
  // Spans opened concurrently on thread-pool workers: the suppressed
  // depth and parent stack are thread-local, so every kept trace is a
  // complete root+child pair and exactly one trace per N roots survives
  // in total (arrival order decides which).
  SamplingTracer tracer(4, 4096);
  const ThreadPool pool(4);
  constexpr std::size_t kCalls = 400;
  pool.parallel_for(kCalls, [&](std::size_t) {
    const Span root(&tracer, "locate");
    const Span child(&tracer, "plan");
  });
  EXPECT_EQ(tracer.roots_seen(), kCalls);
  EXPECT_EQ(tracer.roots_sampled(), kCalls / 4);
  const std::vector<SpanRecord> spans = tracer.snapshot();
  EXPECT_EQ(spans.size(), 2 * (kCalls / 4));
  std::set<std::uint64_t> root_ids;
  for (const SpanRecord& span : spans) {
    if (span.parent_id == 0) {
      EXPECT_STREQ(span.name, "locate");
      root_ids.insert(span.span_id);
    }
  }
  EXPECT_EQ(root_ids.size(), kCalls / 4);
  for (const SpanRecord& span : spans) {
    if (span.parent_id == 0) continue;
    EXPECT_STREQ(span.name, "plan");
    // Each child's parent is one of the kept roots — never a dropped one.
    EXPECT_TRUE(root_ids.count(span.parent_id) == 1) << span.parent_id;
  }
}

TEST(Tracer, JsonDump) {
  ManualClock clock(100);
  Tracer tracer(4, clock);
  {
    const Span span(&tracer, "work");
    clock.advance(11);
  }
  const std::string json = to_json(tracer.snapshot());
  EXPECT_NE(json.find("\"name\": \"work\""), std::string::npos);
  EXPECT_NE(json.find("\"start_ns\": 100"), std::string::npos);
  EXPECT_NE(json.find("\"end_ns\": 111"), std::string::npos);
  EXPECT_EQ(to_json(std::vector<SpanRecord>{}), "[]\n");
}

TEST(Tracer, TraceEventJsonDump) {
  ManualClock clock(1'234'567);
  Tracer tracer(4, clock);
  {
    const Span outer(&tracer, "locate");
    clock.advance(2'500);
    const Span inner(&tracer, "plan \"quoted\"");
    clock.advance(499);
  }
  const std::string json = to_trace_event_json(tracer.snapshot());
  // Complete events with microsecond ts/dur carrying full ns precision
  // as fixed three-decimal fractions.
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"locate\", \"cat\": \"confcall\""),
            std::string::npos);
  EXPECT_NE(json.find("\"ts\": 1234.567"), std::string::npos);   // start
  EXPECT_NE(json.find("\"dur\": 2.999"), std::string::npos);     // locate
  EXPECT_NE(json.find("\"ts\": 1237.067"), std::string::npos);   // plan
  EXPECT_NE(json.find("\"dur\": 0.499"), std::string::npos);
  EXPECT_NE(json.find("plan \\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ns\""), std::string::npos);
  EXPECT_EQ(to_trace_event_json({}),
            "{\"traceEvents\": [], \"displayTimeUnit\": \"ns\"}\n");
}

// The ostream renderings the exporters used before they appended to a
// std::string; the string path must produce these bytes exactly.
void reference_append_us(std::ostringstream& os, std::uint64_t ns) {
  os << ns / 1000 << '.';
  const auto frac = static_cast<unsigned>(ns % 1000);
  os << static_cast<char>('0' + frac / 100)
     << static_cast<char>('0' + (frac / 10) % 10)
     << static_cast<char>('0' + frac % 10);
}

std::string reference_to_json(const std::vector<SpanRecord>& spans) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    if (i > 0) os << ",";
    os << "\n  {\"name\": \"" << json_escape(span.name)
       << "\", \"span_id\": " << span.span_id
       << ", \"parent_id\": " << span.parent_id
       << ", \"start_ns\": " << span.start_ns
       << ", \"end_ns\": " << span.end_ns << "}";
  }
  os << (spans.empty() ? "]" : "\n]");
  os << "\n";
  return os.str();
}

std::string reference_to_trace_event_json(
    const std::vector<SpanRecord>& spans) {
  std::ostringstream os;
  os << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    if (i > 0) os << ",";
    os << "\n  {\"name\": \"" << json_escape(span.name)
       << "\", \"cat\": \"confcall\", \"ph\": \"X\", \"ts\": ";
    reference_append_us(os, span.start_ns);
    os << ", \"dur\": ";
    reference_append_us(os, span.duration_ns());
    os << ", \"pid\": 1, \"tid\": 1, \"args\": {\"span_id\": "
       << span.span_id << ", \"parent_id\": " << span.parent_id << "}}";
  }
  os << (spans.empty() ? "]" : "\n]") << ", \"displayTimeUnit\": \"ns\"}\n";
  return os.str();
}

TEST(Tracer, ExportersMatchTheStreamRendering) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::vector<std::vector<SpanRecord>> cases = {
      {},
      {{"locate", 1, 0, 0, 0}},
      {{"plan \"quoted\"\\", 7, 3, 999, 1'000},
       {"a\tb\r\x01", 8, 7, 1'234'567, 1'237'066},
       {"", kMax, kMax - 1, 5, kMax}},
  };
  for (const std::vector<SpanRecord>& spans : cases) {
    EXPECT_EQ(to_json(spans), reference_to_json(spans));
    EXPECT_EQ(to_trace_event_json(spans),
              reference_to_trace_event_json(spans));
  }
  // And spans a live tracer recorded.
  ManualClock clock(1'234'567);
  Tracer tracer(8, clock);
  for (int i = 0; i < 5; ++i) {
    const Span outer(&tracer, "locate");
    clock.advance(2'500 + static_cast<std::uint64_t>(i) * 37);
    const Span inner(&tracer, "plan");
    clock.advance(499);
  }
  const std::vector<SpanRecord> recorded = tracer.snapshot();
  ASSERT_EQ(recorded.size(), 8u);
  EXPECT_EQ(to_json(recorded), reference_to_json(recorded));
  EXPECT_EQ(to_trace_event_json(recorded),
            reference_to_trace_event_json(recorded));
}

TEST(Tracer, ControlCharactersInNamesStayParseableJson) {
  ManualClock clock(100);
  Tracer tracer(4, clock);
  {
    const Span span(&tracer, "a\tb\r\x01");
    clock.advance(7);
  }
  const std::vector<SpanRecord> spans = tracer.snapshot();
  const JsonValue plain = JsonValue::parse(to_json(spans));
  ASSERT_EQ(plain.as_array().size(), 1u);
  EXPECT_EQ(plain.as_array()[0].find("name")->as_string(), "a\tb\r\x01");
  const JsonValue events = JsonValue::parse(to_trace_event_json(spans));
  const JsonValue::Array& list = events.find("traceEvents")->as_array();
  ASSERT_EQ(list.size(), 1u);
  EXPECT_EQ(list[0].find("name")->as_string(), "a\tb\r\x01");
}

}  // namespace
}  // namespace confcall::support
