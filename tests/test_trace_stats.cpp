#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "obs/trace_stats.hpp"

namespace taamr::obs {
namespace {

std::string wrap(const std::string& events) {
  return "{\"traceEvents\":[" + events + "]}";
}

std::string span(const char* name, int ts, int dur, int tid = 1) {
  return std::string("{\"name\":\"") + name + "\",\"ph\":\"X\",\"ts\":" +
         std::to_string(ts) + ",\"dur\":" + std::to_string(dur) +
         ",\"tid\":" + std::to_string(tid) + "}";
}

TEST(TraceStats, ParsesCompleteEvents) {
  const TraceDocument doc =
      parse_trace_document(wrap(span("a", 0, 100) + "," + span("b", 10, 20)));
  EXPECT_EQ(doc.total_events(), 2u);
  ASSERT_EQ(doc.by_tid.count(1), 1u);
  EXPECT_EQ(doc.by_tid.at(1).size(), 2u);
}

TEST(TraceStats, RejectsEmptyFile) {
  try {
    parse_trace_document("   \n  ");
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
}

TEST(TraceStats, RejectsTruncatedJson) {
  // A file cut off mid-array, the classic killed-writer artifact.
  const std::string truncated = "{\"traceEvents\":[" + span("a", 0, 1) + ",";
  EXPECT_THROW(parse_trace_document(truncated), std::runtime_error);
}

TEST(TraceStats, RejectsMissingTraceEvents) {
  EXPECT_THROW(parse_trace_document("{\"foo\":1}"), std::runtime_error);
  EXPECT_THROW(parse_trace_document("{\"traceEvents\":{}}"), std::runtime_error);
}

TEST(TraceStats, RejectsEventMissingKeys) {
  EXPECT_THROW(parse_trace_document(wrap("{\"name\":\"a\",\"ph\":\"X\"}")),
               std::runtime_error);
}

TEST(TraceStats, RejectsIllTypedFields) {
  // ts as a string used to be silently read as 0.
  EXPECT_THROW(
      parse_trace_document(wrap(
          "{\"name\":\"a\",\"ph\":\"X\",\"ts\":\"zero\",\"dur\":1,\"tid\":1}")),
      std::runtime_error);
  EXPECT_THROW(
      parse_trace_document(
          wrap("{\"name\":7,\"ph\":\"X\",\"ts\":0,\"dur\":1,\"tid\":1}")),
      std::runtime_error);
}

TEST(TraceStats, RejectsNegativeTimes) {
  EXPECT_THROW(parse_trace_document(wrap(
                   "{\"name\":\"a\",\"ph\":\"X\",\"ts\":-5,\"dur\":1,\"tid\":1}")),
               std::runtime_error);
}

TEST(TraceStats, SkipsNonCompleteEvents) {
  const TraceDocument doc = parse_trace_document(wrap(
      span("a", 0, 10) +
      ",{\"name\":\"m\",\"ph\":\"M\",\"ts\":0,\"dur\":0,\"tid\":1}"));
  EXPECT_EQ(doc.total_events(), 1u);
}

TEST(TraceStats, SelfTimeSubtractsNestedChildren) {
  // parent [0,100) contains child [10,40): parent self = 70.
  const TraceDocument doc = parse_trace_document(
      wrap(span("parent", 0, 100) + "," + span("child", 10, 30)));
  const auto ranked = trace_top_spans(doc, 10);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].first, "parent");
  EXPECT_EQ(ranked[0].second.wall_us, 100u);
  EXPECT_EQ(ranked[0].second.self_us, 70u);
  EXPECT_EQ(ranked[1].second.self_us, 30u);
}

TEST(TraceStats, ThreadsAccumulateIndependently) {
  // Same span name on two threads; overlap across threads is not nesting.
  const TraceDocument doc = parse_trace_document(
      wrap(span("work", 0, 50, 1) + "," + span("work", 0, 50, 2)));
  const auto ranked = trace_top_spans(doc, 10);
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(ranked[0].second.count, 2u);
  EXPECT_EQ(ranked[0].second.wall_us, 100u);
  EXPECT_EQ(ranked[0].second.self_us, 100u);
}

TEST(TraceStats, TopKTruncates) {
  const TraceDocument doc = parse_trace_document(
      wrap(span("a", 0, 30) + "," + span("b", 40, 20) + "," + span("c", 70, 10)));
  EXPECT_EQ(trace_top_spans(doc, 2).size(), 2u);
  EXPECT_EQ(trace_top_spans(doc, 99).size(), 3u);
}

// ---- flow events ----

std::string flow(const char* ph, int id, int ts, int tid = 1) {
  return std::string("{\"name\":\"serve/coalesce\",\"ph\":\"") + ph +
         "\",\"ts\":" + std::to_string(ts) + ",\"tid\":" + std::to_string(tid) +
         ",\"id\":" + std::to_string(id) + "}";
}

TEST(TraceStats, ParsesFlowEvents) {
  const TraceDocument doc = parse_trace_document(
      wrap(span("a", 0, 10) + "," + flow("s", 7, 2) + "," + flow("f", 7, 8, 2)));
  EXPECT_EQ(doc.total_events(), 1u);  // spans only
  ASSERT_EQ(doc.flows.size(), 2u);
  EXPECT_EQ(doc.flows[0].id, 7u);
  EXPECT_TRUE(doc.flows[0].start);
  EXPECT_FALSE(doc.flows[1].start);
  EXPECT_EQ(doc.flows[1].tid, 2);
}

TEST(TraceStats, FlowEventsRequireNumericId) {
  EXPECT_THROW(parse_trace_document(wrap(
                   "{\"name\":\"c\",\"ph\":\"s\",\"ts\":1,\"tid\":1}")),
               std::runtime_error);
  EXPECT_THROW(
      parse_trace_document(wrap(
          "{\"name\":\"c\",\"ph\":\"f\",\"ts\":1,\"tid\":1,\"id\":\"x\"}")),
      std::runtime_error);
  EXPECT_THROW(
      parse_trace_document(
          wrap("{\"name\":\"c\",\"ph\":\"f\",\"ts\":1,\"tid\":1,\"id\":-2}")),
      std::runtime_error);
}

}  // namespace
}  // namespace taamr::obs
