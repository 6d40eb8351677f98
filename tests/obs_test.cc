// Tests for the observability subsystem (src/obs): histogram bucket math
// and percentile estimation, registry collision rules, Prometheus rendering
// (including the wall-provenance filter), the bounded trace ring, and the
// determinism contract — two identical simulated sessions must render a
// byte-identical sim-only /metrics body.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>

#include "src/core/session.h"
#include "src/net/profiles.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/obs/trace_export.h"
#include "src/sites/corpus.h"
#include "src/util/json.h"

namespace rcb {
namespace obs {
namespace {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, BucketsCountInclusiveUpperBounds) {
  Histogram histogram({10, 100, 1000});
  // One value per region: <=10, (10,100], (100,1000], overflow.
  histogram.Record(10);    // boundary value lands in its bucket (inclusive)
  histogram.Record(11);
  histogram.Record(100);
  histogram.Record(1000);
  histogram.Record(1001);  // overflow
  ASSERT_EQ(histogram.bucket_counts().size(), 4u);
  EXPECT_EQ(histogram.bucket_counts()[0], 1u);
  EXPECT_EQ(histogram.bucket_counts()[1], 2u);
  EXPECT_EQ(histogram.bucket_counts()[2], 1u);
  EXPECT_EQ(histogram.bucket_counts()[3], 1u);
  EXPECT_EQ(histogram.count(), 5u);
  EXPECT_EQ(histogram.sum(), 10 + 11 + 100 + 1000 + 1001);
  EXPECT_EQ(histogram.min(), 10);
  EXPECT_EQ(histogram.max(), 1001);
}

TEST(HistogramTest, EmptyHistogramIsAllZero) {
  Histogram histogram({10, 100});
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.min(), 0);
  EXPECT_EQ(histogram.max(), 0);
  EXPECT_EQ(histogram.mean(), 0.0);
  EXPECT_EQ(histogram.Percentile(50.0), 0.0);
  EXPECT_EQ(histogram.p99(), 0.0);
}

TEST(HistogramTest, SingleValuePercentilesCollapseToIt) {
  Histogram histogram(LatencyBoundsUs());
  histogram.Record(777);
  EXPECT_EQ(histogram.p50(), 777.0);
  EXPECT_EQ(histogram.p95(), 777.0);
  EXPECT_EQ(histogram.p99(), 777.0);
}

TEST(HistogramTest, PercentilesClampToObservedRange) {
  Histogram histogram({1000, 2000, 4000});
  for (int64_t v : {1500, 1600, 1700, 1800}) {
    histogram.Record(v);
  }
  // All mass in the (1000, 2000] bucket: every percentile estimate must stay
  // inside the observed [1500, 1800] window, and be monotone in p.
  double p50 = histogram.p50();
  double p99 = histogram.p99();
  EXPECT_GE(p50, 1500.0);
  EXPECT_LE(p99, 1800.0);
  EXPECT_LE(p50, p99);
}

TEST(HistogramTest, PercentileSpreadAcrossBuckets) {
  Histogram histogram({100, 200, 300, 400});
  // 100 values uniform in [1, 400]: p50 near 200, p99 near 400.
  for (int64_t v = 1; v <= 400; v += 4) {
    histogram.Record(v);
  }
  EXPECT_NEAR(histogram.p50(), 200.0, 60.0);
  EXPECT_GT(histogram.p99(), 300.0);
  EXPECT_LE(histogram.p99(), 400.0);
}

TEST(HistogramTest, ExponentialBoundsShape) {
  std::vector<int64_t> bounds = Histogram::ExponentialBounds(10, 2.0, 5);
  ASSERT_EQ(bounds.size(), 5u);
  EXPECT_EQ(bounds[0], 10);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_GT(bounds[i], bounds[i - 1]);
  }
  EXPECT_EQ(bounds[4], 160);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, ValidAndInvalidNames) {
  EXPECT_TRUE(MetricsRegistry::IsValidMetricName("rcb_agent_polls_total"));
  EXPECT_TRUE(MetricsRegistry::IsValidMetricName("a:b_c9"));
  EXPECT_FALSE(MetricsRegistry::IsValidMetricName(""));
  EXPECT_FALSE(MetricsRegistry::IsValidMetricName("9starts_with_digit"));
  EXPECT_FALSE(MetricsRegistry::IsValidMetricName("has-dash"));
  EXPECT_FALSE(MetricsRegistry::IsValidMetricName("has space"));
}

// Every registry instrument is callback-backed; these fixed sources stand in
// for the struct fields the program's instruments read.
Counter* AddFixedCounter(MetricsRegistry& registry, std::string_view name,
                         std::string_view help, Provenance provenance,
                         uint64_t value = 0, std::string_view labels = "") {
  return registry.AddCallbackCounter(
      name, help, provenance, [value] { return value; }, labels);
}

Gauge* AddFixedGauge(MetricsRegistry& registry, std::string_view name,
                     std::string_view help, Provenance provenance,
                     double value = 0.0) {
  return registry.AddCallbackGauge(name, help, provenance,
                                   [value] { return value; });
}

TEST(MetricsRegistryTest, DuplicateRegistrationRejected) {
  MetricsRegistry registry;
  Counter* first = AddFixedCounter(registry, "dup", "help", Provenance::kSim);
  ASSERT_NE(first, nullptr);
  // Same (name, labels) again: rejected.
  EXPECT_EQ(AddFixedCounter(registry, "dup", "help", Provenance::kSim),
            nullptr);
  // Same name as another kind / provenance / help: rejected.
  EXPECT_EQ(AddFixedGauge(registry, "dup", "help", Provenance::kSim), nullptr);
  EXPECT_EQ(AddFixedCounter(registry, "dup", "help", Provenance::kWall),
            nullptr);
  EXPECT_EQ(AddFixedCounter(registry, "dup", "other help", Provenance::kSim),
            nullptr);
  // Same family, new label set: fine.
  EXPECT_NE(AddFixedCounter(registry, "dup", "help", Provenance::kSim, 0,
                            "stage=\"x\""),
            nullptr);
  EXPECT_EQ(AddFixedCounter(registry, "bad name", "help", Provenance::kSim),
            nullptr);
  EXPECT_EQ(registry.family_count(), 1u);
}

TEST(MetricsRegistryTest, FindHonorsKindAndLabels) {
  MetricsRegistry registry;
  AddFixedCounter(registry, "c", "help", Provenance::kSim, 3, "k=\"v\"");
  EXPECT_EQ(registry.FindCounter("c", "k=\"v\"")->value(), 3u);
  EXPECT_EQ(registry.FindCounter("c"), nullptr);       // label mismatch
  EXPECT_EQ(registry.FindGauge("c", "k=\"v\""), nullptr);  // kind mismatch
}

TEST(MetricsRegistryTest, CallbackInstrumentsReadSourceAtRenderTime) {
  MetricsRegistry registry;
  uint64_t source = 0;
  registry.AddCallbackCounter("cb", "help", Provenance::kSim,
                              [&source] { return source; });
  EXPECT_NE(registry.RenderPrometheus().find("cb 0\n"), std::string::npos);
  source = 42;
  EXPECT_NE(registry.RenderPrometheus().find("cb 42\n"), std::string::npos);
}

TEST(MetricsRegistryTest, PrometheusRenderFormat) {
  MetricsRegistry registry;
  AddFixedCounter(registry, "requests_total", "Requests.", Provenance::kSim, 7);
  AddFixedGauge(registry, "level", "Level.", Provenance::kSim, 2.5);
  Histogram* histogram = registry.AddHistogram(
      "latency_us", "Latency.", Provenance::kSim, {10, 100}, "op=\"x\"");
  histogram->Record(5);
  histogram->Record(50);
  histogram->Record(500);

  std::string body = registry.RenderPrometheus();
  EXPECT_NE(body.find("# HELP requests_total Requests.\n"), std::string::npos);
  EXPECT_NE(body.find("# TYPE requests_total counter\n"), std::string::npos);
  EXPECT_NE(body.find("requests_total 7\n"), std::string::npos);
  EXPECT_NE(body.find("# TYPE level gauge\n"), std::string::npos);
  EXPECT_NE(body.find("level 2.5\n"), std::string::npos);
  EXPECT_NE(body.find("# TYPE latency_us histogram\n"), std::string::npos);
  EXPECT_NE(body.find("latency_us_bucket{op=\"x\",le=\"10\"} 1\n"),
            std::string::npos);
  EXPECT_NE(body.find("latency_us_bucket{op=\"x\",le=\"100\"} 2\n"),
            std::string::npos);
  EXPECT_NE(body.find("latency_us_bucket{op=\"x\",le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(body.find("latency_us_sum{op=\"x\"} 555\n"), std::string::npos);
  EXPECT_NE(body.find("latency_us_count{op=\"x\"} 3\n"), std::string::npos);
}

TEST(MetricsRegistryTest, CombinedRenderLabelsEachPartAndTypesFamiliesOnce) {
  MetricsRegistry host;
  AddFixedCounter(host, "requests_total", "Requests.", Provenance::kSim, 7);
  MetricsRegistry session;
  AddFixedCounter(session, "requests_total", "Requests.", Provenance::kSim, 2);
  session.AddHistogram("latency_us", "Latency.", Provenance::kSim, {10},
                       "op=\"x\"")
      ->Record(5);
  // A family that disagrees with the first appearance of its name is left
  // out of the later part, so the body stays one valid exposition.
  AddFixedGauge(session, "requests_total_mismatch", "M.", Provenance::kSim, 1);
  MetricsRegistry other;
  AddFixedGauge(other, "requests_total", "Requests.", Provenance::kSim, 9);
  AddFixedGauge(other, "requests_total_mismatch", "M.", Provenance::kWall, 3);

  const std::vector<RenderPart> parts = {{&host, ""},
                                         {&session, "session=\"s1\""},
                                         {&other, "session=\"s2\""}};
  EXPECT_EQ(RenderPrometheus(parts),
            "# HELP requests_total Requests.\n"
            "# TYPE requests_total counter\n"
            "requests_total 7\n"
            "requests_total{session=\"s1\"} 2\n"
            "# HELP latency_us Latency.\n"
            "# TYPE latency_us histogram\n"
            "latency_us_bucket{session=\"s1\",op=\"x\",le=\"10\"} 1\n"
            "latency_us_bucket{session=\"s1\",op=\"x\",le=\"+Inf\"} 1\n"
            "latency_us_sum{session=\"s1\",op=\"x\"} 5\n"
            "latency_us_count{session=\"s1\",op=\"x\"} 1\n"
            "# HELP requests_total_mismatch M.\n"
            "# TYPE requests_total_mismatch gauge\n"
            "requests_total_mismatch{session=\"s1\"} 1\n");
  // The sim view leaves wall families out; a single registry renders as its
  // one-part case.
  EXPECT_EQ(RenderPrometheus({{&other, ""}}, {.include_wall = false}),
            "# HELP requests_total Requests.\n"
            "# TYPE requests_total gauge\n"
            "requests_total 9\n");
  EXPECT_EQ(RenderPrometheus({{&session, ""}}), session.RenderPrometheus());
}

// Structural conformance over the whole exposition, not just pinned lines:
// for every histogram family, bucket counts must be cumulative
// non-decreasing in bound order, end with le="+Inf", and the +Inf bucket
// must equal the family's _count; every family must also carry _sum.
TEST(MetricsRegistryTest, PrometheusHistogramConformance) {
  MetricsRegistry registry;
  Histogram* plain = registry.AddHistogram("plain_us", "Plain.",
                                           Provenance::kSim, {10, 100, 1000});
  for (int64_t value : {5, 10, 11, 150, 99999}) {
    plain->Record(value);
  }
  Histogram* labeled = registry.AddHistogram(
      "labeled_us", "Labeled.", Provenance::kSim, {50, 500}, "op=\"poll\"");
  for (int64_t value : {1, 499, 501, 502}) {
    labeled->Record(value);
  }
  AddFixedCounter(registry, "noise_total", "Not a histogram.",
                  Provenance::kSim, 3);

  struct Family {
    std::vector<std::pair<std::string, double>> buckets;  // (le, count)
    double count = -1;
    double sum = -1;
  };
  std::map<std::string, Family> families;  // keyed by name + non-le labels
  std::string body = registry.RenderPrometheus();
  size_t start = 0;
  while (start < body.size()) {
    size_t end = body.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    std::string line = body.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    std::string series = line.substr(0, space);
    double value = std::strtod(line.c_str() + space + 1, nullptr);
    std::string name = series;
    std::string labels;
    if (size_t brace = series.find('{'); brace != std::string::npos) {
      name = series.substr(0, brace);
      ASSERT_EQ(series.back(), '}') << line;
      labels = series.substr(brace + 1, series.size() - brace - 2);
    }
    auto strip_suffix = [&name](const char* suffix) {
      std::string_view view(suffix);
      if (name.size() > view.size() &&
          name.compare(name.size() - view.size(), view.size(), view) == 0) {
        name.resize(name.size() - view.size());
        return true;
      }
      return false;
    };
    // Splits the label block, pulling le out and normalizing the rest (the
    // family key), so bucket and _count/_sum lines key identically.
    std::string le;
    std::string rest;
    size_t pos = 0;
    while (pos < labels.size()) {
      size_t eq = labels.find('=', pos);
      ASSERT_NE(eq, std::string::npos) << line;
      size_t open = labels.find('"', eq);
      size_t close = labels.find('"', open + 1);
      ASSERT_NE(close, std::string::npos) << line;
      std::string key = labels.substr(pos, eq - pos);
      std::string val = labels.substr(open + 1, close - open - 1);
      if (key == "le") {
        le = val;
      } else {
        if (!rest.empty()) {
          rest += ",";
        }
        rest += key + "=" + val;
      }
      pos = close + 1;
      if (pos < labels.size() && labels[pos] == ',') {
        ++pos;
      }
    }
    if (strip_suffix("_bucket")) {
      ASSERT_FALSE(le.empty()) << "bucket line without le label: " << line;
      families[name + "{" + rest + "}"].buckets.emplace_back(le, value);
    } else if (strip_suffix("_count")) {
      families[name + "{" + rest + "}"].count = value;
    } else if (strip_suffix("_sum")) {
      families[name + "{" + rest + "}"].sum = value;
    }
  }

  ASSERT_EQ(families.size(), 2u) << "expected exactly the two histograms";
  for (const auto& [key, family] : families) {
    ASSERT_GE(family.buckets.size(), 2u) << key;
    // Render order is bound-ascending; counts must be cumulative.
    for (size_t i = 1; i < family.buckets.size(); ++i) {
      EXPECT_GE(family.buckets[i].second, family.buckets[i - 1].second)
          << key << " le=" << family.buckets[i].first;
    }
    EXPECT_EQ(family.buckets.back().first, "+Inf") << key;
    EXPECT_GE(family.count, 0) << key << " missing _count";
    EXPECT_GE(family.sum, 0) << key << " missing _sum";
    EXPECT_EQ(family.buckets.back().second, family.count)
        << key << " +Inf bucket must equal _count";
  }
  EXPECT_EQ(families.count("plain_us{}"), 1u);
  EXPECT_EQ(families.count("labeled_us{op=poll}"), 1u);
  EXPECT_EQ(families["plain_us{}"].count, 5);
  EXPECT_EQ(families["labeled_us{op=poll}"].sum, 1 + 499 + 501 + 502);
}

TEST(MetricsRegistryTest, SimViewOmitsWallFamilies) {
  MetricsRegistry registry;
  AddFixedCounter(registry, "sim_metric", "Sim.", Provenance::kSim, 1);
  AddFixedCounter(registry, "wall_metric", "Wall.", Provenance::kWall, 1);
  std::string all = registry.RenderPrometheus();
  EXPECT_NE(all.find("wall_metric"), std::string::npos);
  std::string sim_only = registry.RenderPrometheus({.include_wall = false});
  EXPECT_NE(sim_only.find("sim_metric"), std::string::npos);
  EXPECT_EQ(sim_only.find("wall_metric"), std::string::npos);
}

// The status pages' read path: every sim counter and gauge series in
// registration order, valued as the exposition values it; wall families
// and histograms are left out.
TEST(MetricsRegistryTest, SimValueLinesListSimCountersAndGaugesOnly) {
  MetricsRegistry registry;
  AddFixedCounter(registry, "wall_metric", "Wall.", Provenance::kWall, 7);
  registry.AddCallbackCounter("hits", "Hits.", Provenance::kSim,
                              [] { return uint64_t{3}; }, "kind=\"a\"");
  registry.AddCallbackGauge("bytes", "Bytes.", Provenance::kSim,
                            [] { return 2.5; });
  registry.AddHistogram("sizes", "Sizes.", Provenance::kSim, {1, 2});
  registry.AddCallbackCounter("hits", "Hits.", Provenance::kSim,
                              [] { return uint64_t{4}; }, "kind=\"b\"");
  EXPECT_EQ(RenderSimValueLines(registry),
            "hits{kind=\"a\"} 3\nhits{kind=\"b\"} 4\nbytes 2.5\n");
}

// ---------------------------------------------------------------------------
// Trace ring
// ---------------------------------------------------------------------------

TEST(TraceLogTest, RetainsNewestAndCountsDropped) {
  TraceLog log(4);
  for (int i = 0; i < 10; ++i) {
    log.Append("span" + std::to_string(i), Provenance::kSim, i * 100, 1);
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.total_appended(), 10u);
  EXPECT_EQ(log.dropped(), 6u);
  std::vector<TraceEvent> events = log.Events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-to-newest window over the last four appends, seq monotone.
  EXPECT_EQ(events.front().name, "span6");
  EXPECT_EQ(events.back().name, "span9");
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
  }
  EXPECT_EQ(events.back().sim_start_us, 900);
}

TEST(TraceLogTest, UnderCapacityKeepsEverything) {
  TraceLog log(8);
  log.Append("a", Provenance::kWall, 0, 10);
  log.Append("b", Provenance::kSim, 5, 20);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.dropped(), 0u);
  std::vector<TraceEvent> events = log.Events();
  EXPECT_EQ(events[0].name, "a");
  EXPECT_EQ(events[0].provenance, Provenance::kWall);
  EXPECT_EQ(events[1].duration_us, 20);
}

TEST(TraceLogTest, WallSpanRecordsIntoLogAndHistogram) {
  TraceLog log(8);
  Histogram histogram(LatencyBoundsUs());
  {
    WallSpan span(&log, "unit.work", /*sim_now_us=*/1234, &histogram);
  }
  ASSERT_EQ(log.size(), 1u);
  std::vector<TraceEvent> events = log.Events();
  EXPECT_EQ(events[0].name, "unit.work");
  EXPECT_EQ(events[0].provenance, Provenance::kWall);
  EXPECT_EQ(events[0].sim_start_us, 1234);
  EXPECT_GE(events[0].duration_us, 0);
  EXPECT_EQ(histogram.count(), 1u);
}

// ---------------------------------------------------------------------------
// Causal spans (DESIGN.md §11)
// ---------------------------------------------------------------------------

TEST(TraceLogTest, CausalAppendParentsChildrenDeterministically) {
  TraceLog log(8);
  TraceContext root_ctx{"p1-7", 0};
  uint64_t parent = log.ReserveSpanId();
  EXPECT_EQ(parent, 1u);
  TraceContext child_ctx{"p1-7", parent};
  uint64_t child =
      log.Append("agent.generate.clone", Provenance::kWall, 100, 5, child_ctx,
                 {{"ts", "3"}});
  EXPECT_EQ(child, 2u);
  uint64_t root = log.Append("agent.generate", Provenance::kWall, 100, 9,
                             root_ctx, {}, parent);
  EXPECT_EQ(root, parent);

  std::vector<TraceEvent> events = log.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].trace_id, "p1-7");
  EXPECT_EQ(events[0].span_id, 2u);
  EXPECT_EQ(events[0].parent_span_id, parent);
  ASSERT_EQ(events[0].attrs.size(), 1u);
  EXPECT_EQ(events[0].attrs[0].first, "ts");
  EXPECT_EQ(events[1].span_id, parent);
  EXPECT_EQ(events[1].parent_span_id, 0u);
}

TEST(TraceLogTest, InactiveContextDegradesToFlatSpan) {
  TraceLog log(8);
  TraceContext inactive;  // empty trace id
  EXPECT_EQ(log.Append("x", Provenance::kSim, 0, 1, inactive, {{"k", "v"}}),
            0u);
  std::vector<TraceEvent> events = log.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].trace_id.empty());
  EXPECT_EQ(events[0].span_id, 0u);
  EXPECT_TRUE(events[0].attrs.empty());
}

TEST(TraceLogTest, WraparoundKeepsCausalFieldsAndMonotoneIds) {
  TraceLog log(4);
  TraceContext ctx{"p1-1", 0};
  for (int i = 0; i < 10; ++i) {
    log.Append("span" + std::to_string(i), Provenance::kSim, i * 100, 1, ctx);
  }
  EXPECT_EQ(log.dropped(), 6u);
  std::vector<TraceEvent> events = log.Events();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].trace_id, "p1-1");
    // Span ids are 1-based and monotone with the appends: the retained
    // window holds appends 6..9, i.e. span ids 7..10.
    EXPECT_EQ(events[i].span_id, 7 + i);
    if (i > 0) {
      EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
    }
  }
}

TEST(TraceLogTest, WallSpanWithContextDoubleSinksAndParents) {
  TraceLog log(8);
  Histogram histogram(LatencyBoundsUs());
  TraceContext ctx{"p2-3", 0};
  {
    WallSpan span(&log, "snippet.apply", /*sim_now_us=*/500, &histogram, &ctx,
                  {{"ts", "4"}});
    EXPECT_EQ(span.span_id(), 1u);
    // A child created while the parent is open parents to the reserved id.
    TraceContext stage_ctx{"p2-3", span.span_id()};
    log.Append("snippet.apply.parse", Provenance::kWall, 500, 2, stage_ctx);
  }
  EXPECT_EQ(histogram.count(), 1u);
  std::vector<TraceEvent> events = log.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "snippet.apply.parse");
  EXPECT_EQ(events[0].parent_span_id, 1u);
  EXPECT_EQ(events[1].name, "snippet.apply");
  EXPECT_EQ(events[1].span_id, 1u);
  ASSERT_EQ(events[1].attrs.size(), 1u);
}

TEST(TraceLogTest, WallSpanWithoutContextStaysFlat) {
  TraceLog log(8);
  TraceContext inactive;
  {
    WallSpan span(&log, "unit.work", 0, nullptr, &inactive);
    EXPECT_EQ(span.span_id(), 0u);
  }
  ASSERT_EQ(log.size(), 1u);
  EXPECT_TRUE(log.Events()[0].trace_id.empty());
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

TEST(TraceExportTest, JsonLineRoundTripsThroughParser) {
  TraceLog log(8);
  TraceContext ctx{"p1-2", 0};
  uint64_t id = log.Append("snippet.poll_rtt", Provenance::kSim, 1000, 250,
                           ctx, {{"status", "200"}, {"bytes", "812"}});
  std::string line = TraceEventJsonLine(log.Events()[0], "snippet-p1");
  auto parsed = ParseJson(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("type")->string_value, "span");
  EXPECT_EQ(parsed->Find("component")->string_value, "snippet-p1");
  EXPECT_EQ(parsed->Find("name")->string_value, "snippet.poll_rtt");
  EXPECT_EQ(parsed->Find("prov")->string_value, "sim");
  EXPECT_EQ(parsed->Find("sim_start_us")->number_value, 1000);
  EXPECT_EQ(parsed->Find("duration_us")->number_value, 250);
  EXPECT_EQ(parsed->Find("trace")->string_value, "p1-2");
  EXPECT_EQ(parsed->Find("span")->number_value, static_cast<double>(id));
  EXPECT_EQ(parsed->Find("parent")->number_value, 0);
  const JsonValue* attrs = parsed->Find("attrs");
  ASSERT_NE(attrs, nullptr);
  EXPECT_EQ(attrs->Find("status")->string_value, "200");
  EXPECT_EQ(attrs->Find("bytes")->string_value, "812");
}

TEST(TraceExportTest, FlatSpanLineOmitsCausalKeys) {
  TraceLog log(8);
  log.Append("agent.request", Provenance::kWall, 10, 3);
  std::string line = TraceEventJsonLine(log.Events()[0], "agent");
  auto parsed = ParseJson(line);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("trace"), nullptr);
  EXPECT_EQ(parsed->Find("span"), nullptr);
  EXPECT_EQ(parsed->Find("attrs"), nullptr);
}

TEST(TraceExportTest, ChromeTraceIsValidJsonWithMetadata) {
  TraceLog log(8);
  TraceContext ctx{"p1-1", 0};
  log.Append("snippet.apply", Provenance::kWall, 100, 7, ctx);
  log.Append("flat.span", Provenance::kSim, 200, 3);
  std::string doc = ExportChromeTrace({{"snippet-p1", log.Events()}});
  auto parsed = ParseJson(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed->is_array());
  // process_name metadata, thread_name for the trace id, two X events.
  ASSERT_EQ(parsed->items.size(), 4u);
  EXPECT_EQ(parsed->items[0].Find("ph")->string_value, "M");
  EXPECT_EQ(parsed->items[0].Find("name")->string_value, "process_name");
  EXPECT_EQ(parsed->items[1].Find("name")->string_value, "thread_name");
  EXPECT_EQ(parsed->items[2].Find("ph")->string_value, "X");
  EXPECT_EQ(parsed->items[2].Find("name")->string_value, "snippet.apply");
  // The context-free span shares tid 0.
  EXPECT_EQ(parsed->items[3].Find("tid")->number_value, 0);
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

TEST(FlightRecorderTest, CountsWithoutDirAndNeverWrites) {
  TraceLog log(8);
  MetricsRegistry registry;
  FlightRecorder recorder(&log, &registry, {});
  recorder.Trigger("resync", 1000);
  recorder.Trigger("resync", 2000);
  recorder.Trigger("overload", 3000);
  EXPECT_EQ(recorder.total_triggers(), 3u);
  EXPECT_EQ(recorder.triggers("resync"), 2u);
  EXPECT_EQ(recorder.triggers("overload"), 1u);
  EXPECT_EQ(recorder.triggers("never"), 0u);
  EXPECT_EQ(recorder.dumps_written(), 0u);
  EXPECT_TRUE(recorder.last_dump_path().empty());
}

TEST(FlightRecorderTest, DumpsJsonlArtifactAndHonorsCap) {
  TraceLog log(8);
  TraceContext ctx{"p1-4", 0};
  log.Append("snippet.poll_rtt", Provenance::kSim, 100, 40, ctx);
  MetricsRegistry registry;
  AddFixedCounter(registry, "rcb_test_polls", "help", Provenance::kSim, 1);
  FlightRecorder::Options options;
  options.dir = ::testing::TempDir();
  options.component = "snippet-p1";
  FlightRecorder recorder(&log, &registry, options);
  recorder.Trigger("poll_timeout", 5000);
  ASSERT_EQ(recorder.dumps_written(), 1u);
  const std::string first_dump = recorder.last_dump_path();
  EXPECT_NE(first_dump.find("FLIGHT_snippet-p1_1_poll_timeout"),
            std::string::npos);
  // Triggers past the cap are counted, not dumped.
  for (uint64_t i = 1; i <= FlightRecorder::kMaxDumps; ++i) {
    recorder.Trigger("poll_timeout", 5000 + static_cast<int64_t>(i) * 1000);
  }
  EXPECT_EQ(recorder.total_triggers(), FlightRecorder::kMaxDumps + 1);
  EXPECT_EQ(recorder.triggers("poll_timeout"), FlightRecorder::kMaxDumps + 1);
  EXPECT_EQ(recorder.dumps_written(), FlightRecorder::kMaxDumps);
  EXPECT_NE(recorder.last_dump_path().find("FLIGHT_snippet-p1_16_poll_timeout"),
            std::string::npos);

  std::FILE* file = std::fopen(first_dump.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  std::string body;
  char buffer[4096];
  size_t got;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    body.append(buffer, got);
  }
  std::fclose(file);
  // Every line is standalone JSON; header, one span, one metrics snapshot.
  size_t start = 0;
  std::vector<JsonValue> lines;
  while (start < body.size()) {
    size_t end = body.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    auto parsed = ParseJson(body.substr(start, end - start));
    ASSERT_TRUE(parsed.ok()) << body.substr(start, end - start);
    lines.push_back(*parsed);
    start = end + 1;
  }
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].Find("type")->string_value, "flight");
  EXPECT_EQ(lines[0].Find("reason")->string_value, "poll_timeout");
  EXPECT_EQ(lines[0].Find("sim_now_us")->number_value, 5000);
  EXPECT_EQ(lines[1].Find("type")->string_value, "span");
  EXPECT_EQ(lines[1].Find("trace")->string_value, "p1-4");
  EXPECT_EQ(lines[2].Find("type")->string_value, "metrics");
  EXPECT_NE(lines[2].Find("prometheus")->string_value.find("rcb_test_polls 1"),
            std::string::npos);
}

TEST(FlightRecorderTest, RepeatedReasonDumpsEveryTrigger) {
  TraceLog log(8);
  MetricsRegistry registry;
  FlightRecorder::Options options;
  options.dir = ::testing::TempDir();
  options.component = "repeat-agent";
  FlightRecorder recorder(&log, &registry, options);
  recorder.Trigger("resync", 1'000);
  recorder.Trigger("resync", 1'001);
  EXPECT_EQ(recorder.dumps_written(), 2u);
  EXPECT_NE(recorder.last_dump_path().find("FLIGHT_repeat-agent_2_resync"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Determinism: the sim-only exposition of two identical simulated sessions
// must be byte-identical (the contract /metrics?view=sim serves).
// ---------------------------------------------------------------------------

std::string RunSessionAndRenderSimMetrics() {
  EventLoop loop;
  Network network(&loop);
  SessionOptions options;
  options.profile = LanProfile();
  const SiteSpec* spec = FindSite("google.com");
  AddOriginServer(&network, options.profile, spec->host, spec->server_bps,
                  spec->server_latency, options.host_machine,
                  options.participant_machine_prefix + "-1");
  auto server = InstallSite(&loop, &network, *spec);
  CoBrowsingSession session(&loop, &network, options);
  EXPECT_TRUE(session.Start().ok());
  auto stats = session.CoNavigate(Url::Make("http", spec->host, 80, "/"));
  EXPECT_TRUE(stats.ok());
  // Let a few poll cycles pass so counters move beyond the initial sync.
  loop.RunFor(Duration::Seconds(5.0));
  session.host_browser()->MutateDocument([](Document* document) {
    auto marker = MakeElement("div");
    marker->SetAttribute("id", "probe");
    document->body()->AppendChild(std::move(marker));
  });
  loop.RunFor(Duration::Seconds(3.0));
  RenderOptions sim_only{.include_wall = false};
  return session.agent()->metrics_registry().RenderPrometheus(sim_only);
}

TEST(ObsDeterminismTest, TwoIdenticalSessionsRenderIdenticalSimMetrics) {
  std::string agent_first = RunSessionAndRenderSimMetrics();
  std::string agent_second = RunSessionAndRenderSimMetrics();
  EXPECT_FALSE(agent_first.empty());
  EXPECT_EQ(agent_first, agent_second);
  // The deterministic body must carry real activity, not just zeros.
  EXPECT_NE(agent_first.find("rcb_agent_generations"), std::string::npos);
  EXPECT_EQ(agent_first.find("rcb_agent_generations 0\n"), std::string::npos)
      << agent_first;
}

}  // namespace
}  // namespace obs
}  // namespace rcb
