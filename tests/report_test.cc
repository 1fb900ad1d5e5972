// Tests for the run-report subsystem: the Json writer, the report schema
// (pinned by a golden string — changing the layout must bump
// kReportSchemaVersion), metrics serialization, and the Chrome trace_event
// export of span timelines.

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/metrics.h"
#include "common/report.h"
#include "common/span.h"

namespace nonserial {
namespace {

// --- Json writer ---------------------------------------------------------

TEST(JsonTest, ScalarsRender) {
  EXPECT_EQ(Json().Dump(), "null");
  EXPECT_EQ(Json(true).Dump(), "true");
  EXPECT_EQ(Json(false).Dump(), "false");
  EXPECT_EQ(Json(42).Dump(), "42");
  EXPECT_EQ(Json(int64_t{-7}).Dump(), "-7");
  EXPECT_EQ(Json(2.5).Dump(), "2.5");
  EXPECT_EQ(Json("hi").Dump(), "\"hi\"");
}

TEST(JsonTest, NonFiniteDoublesRenderAsNull) {
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).Dump(), "null");
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).Dump(), "null");
}

TEST(JsonTest, StringsEscape) {
  EXPECT_EQ(Json("a\"b\\c").Dump(), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(Json("line\nbreak\ttab").Dump(), "\"line\\nbreak\\ttab\"");
  EXPECT_EQ(Json(std::string("\x01")).Dump(), "\"\\u0001\"");
}

TEST(JsonTest, EmptyContainersRenderCompact) {
  EXPECT_EQ(Json::Array().Dump(), "[]");
  EXPECT_EQ(Json::Object().Dump(), "{}");
  EXPECT_EQ(Json::Array().Dump(2), "[]");
  EXPECT_EQ(Json::Object().Dump(2), "{}");
}

TEST(JsonTest, ObjectsPreserveInsertionOrder) {
  Json o = Json::Object();
  o["zulu"] = 1;
  o["alpha"] = 2;
  o["mike"] = 3;
  EXPECT_EQ(o.Dump(), "{\"zulu\":1,\"alpha\":2,\"mike\":3}");
  // Re-assigning an existing key updates in place, not re-appends.
  o["alpha"] = 9;
  EXPECT_EQ(o.Dump(), "{\"zulu\":1,\"alpha\":9,\"mike\":3}");
  EXPECT_EQ(o.size(), 3u);
}

TEST(JsonTest, NestedPrettyPrint) {
  Json o = Json::Object();
  o["a"] = 1;
  Json arr = Json::Array();
  arr.Push(true);
  arr.Push("x");
  o["b"] = std::move(arr);
  EXPECT_EQ(o.Dump(2),
            "{\n"
            "  \"a\": 1,\n"
            "  \"b\": [\n"
            "    true,\n"
            "    \"x\"\n"
            "  ]\n"
            "}");
}

// --- Report schema (golden) ----------------------------------------------

TEST(ReportTest, SchemaVersionIsOne) {
  // Bump this expectation together with kReportSchemaVersion whenever the
  // report layout changes incompatibly.
  EXPECT_EQ(kReportSchemaVersion, 1);
}

TEST(ReportTest, MinimalReportGolden) {
  ReportBuilder report("unit");
  // Key order is part of the schema; this golden string pins it.
  EXPECT_EQ(report.Dump(0),
            "{\"schema_version\":1,\"bench\":\"unit\",\"ok\":true,"
            "\"config\":{},\"results\":[]}");
}

TEST(ReportTest, FullReportGolden) {
  ReportBuilder report("unit");
  report.SetOk(false);
  report.config()["threads"] = 4;
  Json row = Json::Object();
  row["name"] = "point0";
  row["ops_per_sec"] = 10.5;
  report.AddResult(std::move(row));
  report.AttachEventTallies({{"CEP", {{"committed", 16}, {"read", 3}}}});

  EXPECT_EQ(report.Dump(0),
            "{\"schema_version\":1,\"bench\":\"unit\",\"ok\":false,"
            "\"config\":{\"threads\":4},"
            "\"results\":[{\"name\":\"point0\",\"ops_per_sec\":10.5}],"
            "\"events\":{\"CEP\":{\"committed\":16,\"read\":3}}}");
}

TEST(ReportTest, MetricsSectionAppearsWhenAttached) {
  ReportBuilder report("unit");
  ProtocolMetrics metrics;
  metrics.lock_grants.Add(3);
  metrics.span_validate.Record(10);
  report.AttachMetrics(metrics);

  std::string dump = report.Dump(0);
  EXPECT_NE(dump.find("\"metrics\":{"), std::string::npos);
  EXPECT_NE(dump.find("\"locks\":{\"grants\":3"), std::string::npos);
  EXPECT_NE(dump.find("\"spans\":{\"validate\":{\"count\":1"),
            std::string::npos);
  // Attached metrics come before events in the key order.
  report.AttachEventTallies({{"CEP", {{"committed", 1}}}});
  dump = report.Dump(0);
  EXPECT_LT(dump.find("\"metrics\""), dump.find("\"events\""));
}

TEST(ReportTest, MetricsToJsonIsSelfContained) {
  ProtocolMetrics metrics;
  metrics.po_aborts.Add(2);
  std::string json = metrics.ToJson();
  EXPECT_NE(json.find("\"aborts\""), std::string::npos);
  EXPECT_NE(json.find("\"partial_order\": 2"), std::string::npos);
}

TEST(ReportTest, HistogramJsonShape) {
  ProtocolMetrics metrics;
  for (int i = 1; i <= 100; ++i) metrics.span_execute.Record(i);
  Json j = MetricsJson(metrics);
  std::string dump = j.Dump(0);
  EXPECT_NE(dump.find("\"execute\":{\"count\":100,\"mean\":50.5,"),
            std::string::npos);
  EXPECT_NE(dump.find("\"max\":100"), std::string::npos);
}

TEST(ReportTest, FullMetricsSectionGolden) {
  // Every member gets a distinct value, so a member rendered under the
  // wrong key, twice, or not at all changes this string. Each histogram
  // records one value that is its own bucket's upper bound, so the
  // approximate percentiles are exact.
  ProtocolMetrics m;
  int64_t next = 1;
  for (Counter* c :
       {&m.lock_grants, &m.lock_blocks, &m.lock_reevals, &m.reevals,
        &m.reassigns, &m.po_aborts, &m.cascade_aborts, &m.output_aborts,
        &m.injected_aborts, &m.deadline_aborts, &m.validations,
        &m.validation_fails, &m.validation_rescans, &m.validation_starved,
        &m.cache_hits, &m.cache_misses, &m.cache_invalidations,
        &m.delta_rescans, &m.delta_fallbacks, &m.commit_waits,
        &m.crash_restarts, &m.recovered_txs, &m.recovery_frames_scanned,
        &m.recovery_frames_truncated, &m.recovery_frames_salvaged,
        &m.checkpoint_compactions, &m.group_commit_batches,
        &m.group_commit_frames, &m.group_commit_commits,
        &m.group_commit_stalls, &m.group_commit_failed_acks,
        &m.group_staged_dropped, &m.wal_device_flushes, &m.server_accepted,
        &m.server_shed, &m.server_requests, &m.server_sessions_opened,
        &m.server_sessions_closed, &m.server_wire_errors, &m.server_retries,
        &m.server_lease_expired, &m.engine_retired_tx}) {
    c->Add(next++);
  }
  int bits = 1;
  for (Histogram* h :
       {&m.search_nodes, &m.wait_micros, &m.span_validate, &m.span_execute,
        &m.span_commit_wait, &m.span_terminate, &m.recovery_micros,
        &m.server_queue_depth, &m.server_inflight}) {
    for (int i = 0; i < bits; ++i) h->Record((int64_t{1} << bits) - 1);
    ++bits;
  }
  EXPECT_EQ(
      MetricsJson(m).Dump(0),
      "{\"locks\":{\"grants\":1,\"blocks\":2,\"reevals\":3},"
      "\"figure4\":{\"reevals\":4,\"reassigns\":5},"
      "\"aborts\":{\"partial_order\":6,\"cascade\":7,\"output\":8,"
      "\"injected\":9,\"deadline\":10},"
      "\"validation\":{\"ok\":11,\"fail\":12,\"rescans\":13,"
      "\"starved\":14,\"search_nodes\":{\"count\":1,\"mean\":1,"
      "\"p50\":1,\"p99\":1,\"max\":1}},"
      "\"eval_cache\":{\"hits\":15,\"misses\":16,\"invalidations\":17,"
      "\"hit_rate\":0.483871,\"delta_rescans\":18,"
      "\"delta_fallbacks\":19},"
      "\"commit_waits\":20,"
      "\"wait_micros\":{\"count\":2,\"mean\":3,\"p50\":3,\"p99\":3,"
      "\"max\":3},"
      "\"spans\":{\"validate\":{\"count\":3,\"mean\":7,\"p50\":7,"
      "\"p99\":7,\"max\":7},"
      "\"execute\":{\"count\":4,\"mean\":15,\"p50\":15,\"p99\":15,"
      "\"max\":15},"
      "\"commit_wait\":{\"count\":5,\"mean\":31,\"p50\":31,"
      "\"p99\":31,\"max\":31},"
      "\"terminate\":{\"count\":6,\"mean\":63,\"p50\":63,\"p99\":63,"
      "\"max\":63}},"
      "\"recovery\":{\"crash_restarts\":21,\"recovered_txs\":22,"
      "\"frames_scanned\":23,\"frames_truncated\":24,"
      "\"frames_salvaged\":25,\"checkpoint_compactions\":26,"
      "\"recovery_micros\":{\"count\":7,\"mean\":127,\"p50\":127,"
      "\"p99\":127,\"max\":127}},"
      "\"group_commit\":{\"batches\":27,\"frames\":28,\"commits\":29,"
      "\"stalls\":30,\"failed_acks\":31,\"staged_dropped\":32,"
      "\"device_flushes\":33},"
      "\"server\":{\"accepted\":34,\"shed\":35,\"requests\":36,"
      "\"sessions_opened\":37,\"sessions_closed\":38,"
      "\"active_sessions\":-1,\"wire_errors\":39,"
      "\"queue_depth\":{\"count\":8,\"mean\":255,\"p50\":255,"
      "\"p99\":255,\"max\":255},"
      "\"inflight\":{\"count\":9,\"mean\":511,\"p50\":511,"
      "\"p99\":511,\"max\":511},"
      "\"retries\":40,\"lease_expired\":41,\"retired_tx\":42}}");
}

// --- Chrome trace export -------------------------------------------------

TEST(ChromeTraceTest, TimelineRendersCompleteEventsAndLaneNames) {
  SpanTimeline timeline;
  timeline.SetLaneName(0, "tx0");
  timeline.Add({/*lane=*/0, /*attempt=*/0, "validate", /*start_us=*/5,
                /*dur_us=*/10, /*ok=*/true});
  timeline.Add({/*lane=*/0, /*attempt=*/1, "execute", /*start_us=*/20,
                /*dur_us=*/7, /*ok=*/false});

  Json doc = ChromeTraceJson(timeline);
  std::string dump = doc.Dump(0);
  // Metadata names the lane's pseudo-thread.
  EXPECT_NE(dump.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(dump.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(dump.find("\"tx0\""), std::string::npos);
  // Phase spans are complete events with timestamps and duration.
  EXPECT_NE(
      dump.find("{\"name\":\"validate\",\"ph\":\"X\",\"ts\":5,\"dur\":10"),
      std::string::npos);
  EXPECT_NE(dump.find("\"args\":{\"attempt\":1,\"ok\":false}"),
            std::string::npos);
  EXPECT_NE(dump.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

TEST(ChromeTraceTest, EmptyTimelineStillAValidDocument) {
  SpanTimeline timeline;
  Json doc = ChromeTraceJson(timeline);
  EXPECT_EQ(doc.Dump(0),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}");
}

// --- SpanTimeline --------------------------------------------------------

TEST(SpanTimelineTest, RecordsSpansInArrivalOrder) {
  SpanTimeline timeline;
  EXPECT_GE(timeline.ElapsedUs(), 0);
  timeline.Add({1, 0, "validate", 0, 3, true});
  timeline.Add({2, 0, "validate", 1, 4, true});
  ASSERT_EQ(timeline.size(), 2u);
  EXPECT_EQ(timeline.spans()[0].lane, 1);
  EXPECT_EQ(timeline.spans()[1].lane, 2);
  timeline.SetLaneName(1, "alpha");
  EXPECT_EQ(timeline.lane_names().at(1), "alpha");
}

}  // namespace
}  // namespace nonserial
