#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/cost_model.h"
#include "gtest/gtest.h"
#include "net/wire.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipeline/templates.h"
#include "pipeline/zillow.h"
#include "service/query_service.h"
#include "test_util.h"

namespace mistique {
namespace {

/// Restores the global kill switch so one test cannot silence metrics
/// for the rest of the binary.
class EnabledGuard {
 public:
  EnabledGuard() : was_(obs::Enabled()) {}
  ~EnabledGuard() { obs::SetEnabled(was_); }

 private:
  bool was_;
};

// --- Counter / Gauge ---

TEST(CounterTest, ConcurrentAddsSumExactly) {
  obs::Counter counter;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kIncrements; ++i) counter.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.Value(),
            static_cast<uint64_t>(kThreads) * kIncrements);
}

TEST(CounterTest, KillSwitchDropsUpdates) {
  EnabledGuard guard;
  obs::Counter counter;
  counter.Add(5);
  obs::SetEnabled(false);
  counter.Add(100);
  obs::SetEnabled(true);
  counter.Add(2);
  EXPECT_EQ(counter.Value(), 7u);
}

TEST(GaugeTest, SetAddSub) {
  obs::Gauge gauge;
  gauge.Set(10);
  gauge.Add(5);
  gauge.Sub(3);
  EXPECT_EQ(gauge.Value(), 12);
}

// --- Histogram ---

TEST(HistogramTest, BucketBoundsAreExponential) {
  EXPECT_DOUBLE_EQ(obs::Histogram::BucketUpperBound(0), 1e-6);
  EXPECT_DOUBLE_EQ(obs::Histogram::BucketUpperBound(1), 2e-6);
  EXPECT_DOUBLE_EQ(obs::Histogram::BucketUpperBound(10), 1024e-6);
  EXPECT_TRUE(std::isinf(
      obs::Histogram::BucketUpperBound(obs::Histogram::kNumBuckets - 1)));
  for (size_t i = 1; i < obs::Histogram::kNumBuckets; ++i) {
    EXPECT_GT(obs::Histogram::BucketUpperBound(i),
              obs::Histogram::BucketUpperBound(i - 1));
  }
}

TEST(HistogramTest, QuantilesBracketTheSamples) {
  obs::Histogram hist;
  EXPECT_EQ(hist.Quantile(0.5), 0.0);  // empty
  // 1000 samples at 1ms, 10 at 100ms: p50 must land in the 1ms bucket
  // (within its factor-of-2 width), p99.5 near 100ms.
  for (int i = 0; i < 1000; ++i) hist.Record(1e-3);
  for (int i = 0; i < 10; ++i) hist.Record(0.1);
  EXPECT_EQ(hist.Count(), 1010u);
  EXPECT_NEAR(hist.SumSeconds(), 2.0, 0.01);
  const double p50 = hist.Quantile(0.5);
  EXPECT_GE(p50, 0.5e-3);
  EXPECT_LE(p50, 2e-3);
  const double p999 = hist.Quantile(0.999);
  EXPECT_GE(p999, 0.05);
  EXPECT_LE(p999, 0.2);
  // Monotone in q.
  EXPECT_LE(hist.Quantile(0.5), hist.Quantile(0.95));
  EXPECT_LE(hist.Quantile(0.95), hist.Quantile(0.99));
}

TEST(HistogramTest, ExtremesClampToEdgeBuckets) {
  obs::Histogram hist;
  hist.Record(0);      // below the first bucket
  hist.Record(-1);     // nonsense input must not crash or underflow
  hist.Record(1e9);    // far beyond the last finite bound
  EXPECT_EQ(hist.Count(), 3u);
  const obs::Histogram::Snapshot snap = hist.TakeSnapshot();
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[obs::Histogram::kNumBuckets - 1], 1u);
}

TEST(HistogramTest, ConcurrentRecordsKeepTotalCount) {
  obs::Histogram hist;
  constexpr int kThreads = 8;
  constexpr int kRecords = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kRecords; ++i) {
        hist.Record(1e-6 * static_cast<double>((t + 1) * (i % 100 + 1)));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(hist.Count(), static_cast<uint64_t>(kThreads) * kRecords);
  uint64_t bucket_sum = 0;
  for (uint64_t c : hist.TakeSnapshot().counts) bucket_sum += c;
  EXPECT_EQ(bucket_sum, hist.Count());
}

// --- Registry / exposition ---

TEST(RegistryTest, SameNameSameObjectWrongKindNull) {
  obs::MetricsRegistry registry;
  obs::Counter* a = registry.GetCounter("test_total", "help a");
  obs::Counter* b = registry.GetCounter("test_total", "ignored");
  EXPECT_EQ(a, b);
  EXPECT_EQ(registry.GetGauge("test_total", "wrong kind"), nullptr);
  EXPECT_NE(registry.GetHistogram("test_seconds", "h"), nullptr);
}

TEST(RegistryTest, TextExpositionFormat) {
  obs::MetricsRegistry registry;
  registry.GetCounter("zz_total", "A counter.")->Add(3);
  registry.GetGauge("aa_gauge", "A gauge.")->Set(-7);
  registry.GetHistogram("mm_seconds", "A histogram.")->Record(1e-3);
  const std::string text = registry.TextExposition();
  EXPECT_NE(text.find("# HELP zz_total A counter.\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE zz_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("zz_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("aa_gauge -7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE mm_seconds histogram\n"), std::string::npos);
  EXPECT_NE(text.find("mm_seconds_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("mm_seconds_count 1\n"), std::string::npos);
  // Name order: aa_ before mm_ before zz_.
  EXPECT_LT(text.find("aa_gauge"), text.find("mm_seconds"));
  EXPECT_LT(text.find("mm_seconds"), text.find("zz_total"));
}

TEST(RegistryTest, CumulativeBucketCounts) {
  obs::Histogram hist;
  hist.Record(1.5e-6);  // bucket 1
  hist.Record(3e-6);    // bucket 2
  std::string text;
  obs::AppendHistogramText("h_seconds", "h", hist, &text);
  // le="2e-06" sees only the first sample; le="4e-06" both (cumulative).
  EXPECT_NE(text.find("h_seconds_bucket{le=\"2e-06\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("h_seconds_bucket{le=\"4e-06\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("h_seconds_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
}

/// Regression: HELP text containing a raw line feed or backslash used to
/// pass through unescaped, and every raw "\n" inside the help string made
/// the Prometheus parser read the remainder as a malformed sample line,
/// corrupting the whole scrape.
TEST(RegistryTest, HelpTextEscapesNewlinesAndBackslashes) {
  obs::MetricsRegistry registry;
  registry.GetCounter("esc_total", "first line\nsecond \\ line")->Add(1);
  const std::string text = registry.TextExposition();
  EXPECT_NE(text.find("# HELP esc_total first line\\nsecond \\\\ line\n"),
            std::string::npos);
  EXPECT_EQ(text.find("first line\nsecond"), std::string::npos);
  EXPECT_NE(text.find("esc_total 1\n"), std::string::npos);
}

// --- Trace spans ---

TEST(TraceTest, NoTraceInstalledSpansAreInert) {
  EXPECT_EQ(obs::CurrentTrace(), nullptr);
  obs::TraceSpan span("orphan");  // must not crash
  obs::AccumSpan accum("orphan");
}

TEST(TraceTest, SpansNestAndRestore) {
  obs::QueryTrace trace(42, "test.query");
  {
    obs::TraceScope scope(&trace);
    EXPECT_EQ(obs::CurrentTrace(), &trace);
    {
      obs::TraceSpan outer("outer");
      {
        obs::TraceSpan inner("inner");
        inner.set_bytes(128);
      }
    }
  }
  EXPECT_EQ(obs::CurrentTrace(), nullptr);
  ASSERT_EQ(trace.events().size(), 2u);
  // inner ended first, so it was recorded first; depths reflect nesting.
  EXPECT_EQ(trace.events()[0].name, "inner");
  EXPECT_EQ(trace.events()[0].depth, 1u);
  EXPECT_EQ(trace.events()[0].bytes, 128u);
  EXPECT_EQ(trace.events()[1].name, "outer");
  EXPECT_EQ(trace.events()[1].depth, 0u);
  EXPECT_GE(trace.events()[1].duration_sec, trace.events()[0].duration_sec);
  EXPECT_EQ(trace.depth, 0u);
}

TEST(TraceTest, AccumSpansMergeByName) {
  obs::QueryTrace trace;
  {
    obs::TraceScope scope(&trace);
    for (int i = 0; i < 3; ++i) {
      obs::AccumSpan span("decode");
      span.add_bytes(100);
    }
  }
  ASSERT_EQ(trace.stage_totals().size(), 1u);
  EXPECT_EQ(trace.stage_totals()[0].name, "decode");
  EXPECT_EQ(trace.stage_totals()[0].count, 3u);
  EXPECT_EQ(trace.stage_totals()[0].bytes, 300u);
  EXPECT_GT(trace.StageSeconds("decode"), 0.0);
}

TEST(TraceTest, FormatShowsDecisionAndStages) {
  obs::QueryTrace trace(7, "proj.model.interm");
  trace.strategy = "read";
  trace.est_read_sec = 0.001;
  trace.est_rerun_sec = 0.05;
  trace.total_sec = 0.002;
  trace.AddEvent("disk_read", 0, 0.0, 0.0015, 4096);
  trace.Accumulate("decode", 0.0002, 512);
  const std::string text = trace.Format();
  EXPECT_NE(text.find("proj.model.interm"), std::string::npos);
  EXPECT_NE(text.find("read"), std::string::npos);
  EXPECT_NE(text.find("t_read"), std::string::npos);
  EXPECT_NE(text.find("t_rerun"), std::string::npos);
  EXPECT_NE(text.find("disk_read"), std::string::npos);
  EXPECT_NE(text.find("decode"), std::string::npos);
}

// --- Cost-model misprediction rule ---

TEST(MispredictionTest, ChosenStrategyJudgedAgainstAlternative) {
  // Chose read, actual beat the rerun estimate: correct call.
  EXPECT_FALSE(CostModel::Mispredicted(/*used_read=*/true, 0.01, 0.005, 0.5));
  // Chose read, took longer than rerunning was estimated to take.
  EXPECT_TRUE(CostModel::Mispredicted(true, 1.0, 0.005, 0.5));
  // Chose rerun, actual beat the read estimate: correct call.
  EXPECT_FALSE(CostModel::Mispredicted(false, 0.01, 0.5, 0.02));
  // Chose rerun, slower than reading was estimated to be.
  EXPECT_TRUE(CostModel::Mispredicted(false, 1.0, 0.5, 0.02));
  // Unknown actual time never counts.
  EXPECT_FALSE(CostModel::Mispredicted(true, -1.0, 0.005, 0.5));
}

// --- Wire round-trips ---

TEST(WireObsTest, MetricsTextRoundtrips) {
  const std::string text =
      "# HELP x_total help\n# TYPE x_total counter\nx_total 9\n";
  const std::string payload = wire::EncodeMetricsText(text);
  std::string decoded;
  ASSERT_OK(wire::DecodeMetricsText(payload, &decoded));
  EXPECT_EQ(decoded, text);
}

TEST(WireObsTest, QueryTraceRoundtrips) {
  obs::QueryTrace trace(99, "zillow.P1_v0.pred_test");
  trace.strategy = "rerun";
  trace.est_read_sec = 0.25;
  trace.est_rerun_sec = 0.125;
  trace.queue_wait_sec = 0.001;
  trace.total_sec = 0.13;
  trace.cache_hit = false;
  trace.materialized_now = true;
  trace.mispredicted = true;
  trace.AddEvent("lock_wait_shared", 0, 0.0, 0.0001, 0);
  trace.AddEvent("rerun", 0, 0.0002, 0.12, 0);
  trace.Accumulate("decode", 0.003, 2048);
  trace.Accumulate("decode", 0.001, 1024);

  // A single trace rides the kTracedResp envelope.
  const std::string payload =
      wire::EncodeTracedResponse(wire::MsgType::kFetchResp, "rows", &trace);
  wire::MsgType inner = wire::MsgType::kErrorResp;
  std::string body;
  bool has_trace = false;
  obs::QueryTrace got;
  ASSERT_OK(
      wire::DecodeTracedResponse(payload, &inner, &body, &has_trace, &got));
  EXPECT_EQ(inner, wire::MsgType::kFetchResp);
  EXPECT_EQ(body, "rows");
  ASSERT_TRUE(has_trace);

  EXPECT_EQ(got.trace_id, 99u);
  EXPECT_EQ(got.description, "zillow.P1_v0.pred_test");
  EXPECT_EQ(got.strategy, "rerun");
  EXPECT_DOUBLE_EQ(got.est_read_sec, 0.25);
  EXPECT_DOUBLE_EQ(got.est_rerun_sec, 0.125);
  EXPECT_DOUBLE_EQ(got.queue_wait_sec, 0.001);
  EXPECT_DOUBLE_EQ(got.total_sec, 0.13);
  EXPECT_FALSE(got.cache_hit);
  EXPECT_TRUE(got.materialized_now);
  EXPECT_TRUE(got.mispredicted);
  ASSERT_EQ(got.events().size(), 2u);
  EXPECT_EQ(got.events()[1].name, "rerun");
  EXPECT_DOUBLE_EQ(got.events()[1].duration_sec, 0.12);
  ASSERT_EQ(got.stage_totals().size(), 1u);
  EXPECT_EQ(got.stage_totals()[0].count, 2u);
  EXPECT_EQ(got.stage_totals()[0].bytes, 3072u);
}

TEST(WireObsTest, TruncatedTracePayloadRejected) {
  obs::QueryTrace trace(1, "d");
  const std::string payload =
      wire::EncodeTracedResponse(wire::MsgType::kFetchResp, "", &trace);
  wire::MsgType inner = wire::MsgType::kErrorResp;
  std::string body;
  bool has_trace = false;
  obs::QueryTrace got;
  EXPECT_FALSE(wire::DecodeTracedResponse(payload.substr(0, payload.size() - 3),
                                          &inner, &body, &has_trace, &got)
                   .ok());
}

/// Old clients decode the stats payload with a trailing ExpectEnd(), so
/// its byte layout is frozen at 129 bytes (13 u64 counters, u8 draining,
/// f64 p50/p95, u64 open_sessions). p99 and everything newer must ride
/// the metrics frame instead. This test is the tripwire.
TEST(WireObsTest, StatsPayloadLayoutFrozen) {
  ServiceStats stats;
  stats.submitted = 10;
  stats.p99_latency_sec = 0.5;  // must NOT be encoded
  const std::string payload = wire::EncodeStats(stats);
  EXPECT_EQ(payload.size(), 13 * 8 + 1 + 2 * 8 + 8);
  ServiceStats decoded;
  ASSERT_OK(wire::DecodeStats(payload, &decoded));
  EXPECT_EQ(decoded.submitted, 10u);
  EXPECT_EQ(decoded.p99_latency_sec, 0.0);
}

TEST(WireObsTest, NewMsgTypesAreValid) {
  EXPECT_TRUE(wire::IsValidMsgType(
      static_cast<uint8_t>(wire::MsgType::kMetricsReq)));
  EXPECT_TRUE(wire::IsValidMsgType(
      static_cast<uint8_t>(wire::MsgType::kCatalogResp)));
  // The retired one-hop trace frames (16, 17, 24) stay reserved inside the
  // range: they parse, and handlers answer them with an error.
  EXPECT_TRUE(wire::IsValidMsgType(16));
  EXPECT_TRUE(wire::IsValidMsgType(17));
  EXPECT_TRUE(wire::IsValidMsgType(24));
  EXPECT_TRUE(wire::IsValidMsgType(
      static_cast<uint8_t>(wire::MsgType::kTracedReq)));
  EXPECT_TRUE(wire::IsValidMsgType(
      static_cast<uint8_t>(wire::MsgType::kSlowLogResp)));
  EXPECT_FALSE(wire::IsValidMsgType(
      static_cast<uint8_t>(wire::MsgType::kSlowLogResp) + 1));
}

// --- Distributed-trace identity and tree payloads ---

TEST(TraceTest, NewTraceIdsAreNonZeroAndDistinct) {
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t id = obs::NewTraceId();
    EXPECT_NE(id, 0u);
    EXPECT_TRUE(seen.insert(id).second) << "duplicate trace id " << id;
  }
}

TEST(TraceTest, ChromeJsonExportCoversNodesAndEvents) {
  obs::QueryTrace root(3, "router fetch");
  root.node = "router";
  root.sampled = true;
  root.total_sec = 0.01;
  root.AddEvent("forward shard-0", 0, 0.0, 0.01, 0);
  obs::QueryTrace child(3, "shard fetch");
  child.node = "shard-0";
  child.AddEvent("dedup_resolve", 0, 0.0, 0.004, 128);
  root.children.push_back(std::move(child));

  const std::string json = obs::TraceToChromeJson(root);
  // A bare trace_event array chrome://tracing / Perfetto load directly.
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("forward shard-0"), std::string::npos);
  EXPECT_NE(json.find("dedup_resolve"), std::string::npos);
  // Each node becomes a named process so shards separate visually.
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("router"), std::string::npos);
  EXPECT_NE(json.find("shard-0"), std::string::npos);
}

TEST(WireObsTest, TraceTreeRoundTripsWithChildren) {
  obs::QueryTrace root(7001, "router scan");
  root.node = "router";
  root.parent_span_id = 42;
  root.sampled = true;
  root.strategy = "scatter-gather";
  root.total_sec = 0.5;
  root.AddEvent("scatter 3 shards", 0, 0.0, 0.5, 0);

  obs::QueryTrace child(7001, "shard scan");
  child.node = "shard-0";
  child.parent_span_id = 9001;
  child.sampled = true;
  child.Accumulate("scan_packed", 0.01, 4096);
  obs::QueryTrace grandchild(7001, "leaf");
  grandchild.node = "shard-0";
  grandchild.sampled = true;
  child.children.push_back(std::move(grandchild));
  root.children.push_back(std::move(child));

  obs::QueryTrace sibling(7001, "no rows on this shard");
  sibling.node = "shard-1";
  sibling.strategy = "not-found";
  sibling.sampled = true;
  root.children.push_back(std::move(sibling));

  const std::string payload = wire::EncodeTraceList({root});
  std::vector<obs::QueryTrace> list;
  ASSERT_OK(wire::DecodeTraceList(payload, &list));
  ASSERT_EQ(list.size(), 1u);
  const obs::QueryTrace& got = list[0];

  EXPECT_EQ(got.node, "router");
  EXPECT_EQ(got.parent_span_id, 42u);
  EXPECT_TRUE(got.sampled);
  ASSERT_EQ(got.children.size(), 2u);
  EXPECT_EQ(got.children[0].node, "shard-0");
  EXPECT_EQ(got.children[0].parent_span_id, 9001u);
  ASSERT_EQ(got.children[0].stage_totals().size(), 1u);
  EXPECT_EQ(got.children[0].stage_totals()[0].name, "scan_packed");
  EXPECT_EQ(got.children[0].stage_totals()[0].bytes, 4096u);
  ASSERT_EQ(got.children[0].children.size(), 1u);
  EXPECT_EQ(got.children[0].children[0].description, "leaf");
  EXPECT_EQ(got.children[1].strategy, "not-found");
  EXPECT_EQ(got.children[1].node, "shard-1");

  // Every truncation of a tree payload is rejected, never misparsed.
  for (size_t len = 0; len < payload.size(); ++len) {
    std::vector<obs::QueryTrace> out;
    EXPECT_FALSE(wire::DecodeTraceList(payload.substr(0, len), &out).ok())
        << "tree decoded at truncation " << len;
  }
}

TEST(WireObsTest, TraceListRoundTripsAndRejectsTruncation) {
  std::vector<obs::QueryTrace> traces;
  traces.emplace_back(1, "first");
  traces.back().node = "shard-a";
  traces.emplace_back(2, "second");
  traces.back().sampled = true;
  traces.back().total_sec = 0.2;

  const std::string payload = wire::EncodeTraceList(traces);
  std::vector<obs::QueryTrace> got;
  ASSERT_OK(wire::DecodeTraceList(payload, &got));
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].trace_id, 1u);
  EXPECT_EQ(got[0].node, "shard-a");
  EXPECT_TRUE(got[1].sampled);
  EXPECT_DOUBLE_EQ(got[1].total_sec, 0.2);

  for (size_t len = 0; len < payload.size(); ++len) {
    std::vector<obs::QueryTrace> out;
    EXPECT_FALSE(wire::DecodeTraceList(payload.substr(0, len), &out).ok())
        << "list decoded at truncation " << len;
  }
}

TEST(WireObsTest, TracedEnvelopeRoundTripsAndRejectsNesting) {
  wire::TraceContext ctx;
  ctx.trace_id = 0xDEADBEEFull;
  ctx.parent_span_id = 77;
  ctx.sampled = true;
  const std::string inner = wire::EncodeTraceQuery(5);
  const std::string payload =
      wire::EncodeTracedRequest(ctx, wire::MsgType::kTraceDumpReq, inner);

  wire::TraceContext got_ctx;
  auto inner_type = wire::MsgType::kErrorResp;
  std::string inner_payload;
  ASSERT_OK(wire::DecodeTracedRequest(payload, &got_ctx, &inner_type,
                                      &inner_payload));
  EXPECT_EQ(got_ctx.trace_id, 0xDEADBEEFull);
  EXPECT_EQ(got_ctx.parent_span_id, 77u);
  EXPECT_TRUE(got_ctx.sampled);
  EXPECT_EQ(inner_type, wire::MsgType::kTraceDumpReq);
  EXPECT_EQ(inner_payload, inner);

  uint32_t max = 0;
  ASSERT_OK(wire::DecodeTraceQuery(inner_payload, &max));
  EXPECT_EQ(max, 5u);

  // An envelope wrapping an envelope is always a malformed frame.
  const std::string nested =
      wire::EncodeTracedRequest(ctx, wire::MsgType::kTracedReq, payload);
  EXPECT_FALSE(wire::DecodeTracedRequest(nested, &got_ctx, &inner_type,
                                         &inner_payload)
                   .ok());
}

TEST(WireObsTest, TracedResponseCarriesOptionalTrace) {
  obs::QueryTrace trace(5, "hop");
  trace.node = "store";
  trace.sampled = true;
  const std::string with =
      wire::EncodeTracedResponse(wire::MsgType::kFetchResp, "body", &trace);
  auto type = wire::MsgType::kErrorResp;
  std::string body;
  bool has_trace = false;
  obs::QueryTrace got;
  ASSERT_OK(wire::DecodeTracedResponse(with, &type, &body, &has_trace, &got));
  EXPECT_EQ(type, wire::MsgType::kFetchResp);
  EXPECT_EQ(body, "body");
  EXPECT_TRUE(has_trace);
  EXPECT_EQ(got.node, "store");

  const std::string without =
      wire::EncodeTracedResponse(wire::MsgType::kErrorResp, "err", nullptr);
  ASSERT_OK(
      wire::DecodeTracedResponse(without, &type, &body, &has_trace, &got));
  EXPECT_EQ(type, wire::MsgType::kErrorResp);
  EXPECT_EQ(body, "err");
  EXPECT_FALSE(has_trace);
}

// --- Flight recorder ---

obs::QueryTrace MakeRecorderTrace(uint64_t id, double total, bool sampled) {
  obs::QueryTrace trace(id, "q" + std::to_string(id));
  trace.node = "store";
  trace.sampled = sampled;
  trace.total_sec = total;
  return trace;
}

TEST(FlightRecorderTest, SamplePolicyExtremes) {
  obs::FlightRecorderOptions options;
  options.sample_rate = 0.0;
  obs::FlightRecorder recorder(options);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(recorder.Sample());
  recorder.SetPolicy(1.0, 0.1);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(recorder.Sample());
  EXPECT_DOUBLE_EQ(recorder.sample_rate(), 1.0);
  EXPECT_DOUBLE_EQ(recorder.slow_threshold_sec(), 0.1);
}

TEST(FlightRecorderTest, RecordRoutesSlowAndSampledSeparately) {
  obs::FlightRecorderOptions options;
  options.slow_threshold_sec = 0.05;
  obs::FlightRecorder recorder(options);

  recorder.Record(MakeRecorderTrace(1, 0.01, /*sampled=*/true));   // ring only
  recorder.Record(MakeRecorderTrace(2, 0.01, /*sampled=*/false));  // dropped
  recorder.Record(MakeRecorderTrace(3, 0.20, /*sampled=*/false));  // slow only
  recorder.Record(MakeRecorderTrace(4, 0.30, /*sampled=*/true));   // both

  EXPECT_EQ(recorder.recorded(), 2u);
  EXPECT_EQ(recorder.slow_recorded(), 2u);
  EXPECT_EQ(recorder.dropped(), 1u);

  const std::vector<obs::QueryTrace> dump = recorder.Dump();
  ASSERT_EQ(dump.size(), 2u);
  EXPECT_EQ(dump[0].trace_id, 4u);  // newest first
  EXPECT_EQ(dump[1].trace_id, 1u);

  const std::vector<obs::QueryTrace> slow = recorder.SlowLog();
  ASSERT_EQ(slow.size(), 2u);
  EXPECT_EQ(slow[0].trace_id, 4u);  // slowest first
  EXPECT_EQ(slow[1].trace_id, 3u);
}

TEST(FlightRecorderTest, DumpIsNewestFirstAndCapacityBounded) {
  obs::FlightRecorderOptions options;
  options.capacity = 8;  // 2 slots per internal shard
  options.slow_threshold_sec = 0.0;  // disable the slow log
  obs::FlightRecorder recorder(options);
  for (uint64_t id = 1; id <= 100; ++id) {
    recorder.Record(MakeRecorderTrace(id, 10.0, /*sampled=*/true));
  }
  const std::vector<obs::QueryTrace> dump = recorder.Dump();
  ASSERT_FALSE(dump.empty());
  ASSERT_LE(dump.size(), 8u);
  EXPECT_EQ(dump[0].trace_id, 100u);
  for (size_t i = 1; i < dump.size(); ++i) {
    EXPECT_GT(dump[i - 1].trace_id, dump[i].trace_id);
  }
  EXPECT_EQ(recorder.slow_recorded(), 0u);  // threshold 0 = never slow
  const std::vector<obs::QueryTrace> capped = recorder.Dump(1);
  ASSERT_EQ(capped.size(), 1u);
  EXPECT_EQ(capped[0].trace_id, 100u);
}

TEST(FlightRecorderTest, SlowLogIsSlowestFirstAndClearEmptiesRings) {
  obs::FlightRecorderOptions options;
  options.slow_threshold_sec = 0.01;
  obs::FlightRecorder recorder(options);
  const double totals[] = {0.02, 0.5, 0.1, 0.3};
  for (size_t i = 0; i < 4; ++i) {
    recorder.Record(MakeRecorderTrace(i + 1, totals[i], /*sampled=*/true));
  }
  const std::vector<obs::QueryTrace> slow = recorder.SlowLog();
  ASSERT_EQ(slow.size(), 4u);
  EXPECT_DOUBLE_EQ(slow[0].total_sec, 0.5);
  EXPECT_DOUBLE_EQ(slow[1].total_sec, 0.3);
  EXPECT_DOUBLE_EQ(slow[2].total_sec, 0.1);
  EXPECT_DOUBLE_EQ(slow[3].total_sec, 0.02);
  EXPECT_EQ(recorder.SlowLog(2).size(), 2u);

  recorder.Clear();
  EXPECT_TRUE(recorder.Dump().empty());
  EXPECT_TRUE(recorder.SlowLog().empty());
}

/// Traces move whole under a shard mutex, so a concurrent dump must
/// never observe a half-written (torn) trace: the description, span
/// events, and id always agree.
TEST(FlightRecorderTest, ConcurrentRecordAndDumpSeeNoTornTraces) {
  obs::FlightRecorderOptions options;
  options.capacity = 32;
  options.slow_threshold_sec = 0.5;
  obs::FlightRecorder recorder(options);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};

  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&recorder, &stop, t] {
      uint64_t id = static_cast<uint64_t>(t) * 1000000 + 1;
      while (!stop.load(std::memory_order_relaxed)) {
        obs::QueryTrace trace(id, "q" + std::to_string(id));
        trace.node = "store";
        trace.sampled = true;
        trace.total_sec = 1.0;  // also exercises the slow-log copy
        const size_t n_events = static_cast<size_t>(id % 4) + 1;
        for (size_t e = 0; e < n_events; ++e) {
          trace.AddEvent("ev" + std::to_string(id % 4), 0, 0.0, 0.001, 0);
        }
        recorder.Record(std::move(trace));
        ++id;
      }
    });
  }
  std::thread reader([&recorder, &stop, &torn] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<obs::QueryTrace> traces = recorder.Dump();
      std::vector<obs::QueryTrace> slow = recorder.SlowLog();
      traces.insert(traces.end(), slow.begin(), slow.end());
      for (const obs::QueryTrace& trace : traces) {
        const size_t want_events =
            static_cast<size_t>(trace.trace_id % 4) + 1;
        if (trace.description != "q" + std::to_string(trace.trace_id) ||
            trace.node != "store" ||
            trace.events().size() != want_events) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  stop.store(true);
  for (auto& w : writers) w.join();
  reader.join();
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(recorder.recorded(), 0u);
}

// --- End-to-end: engine + service ---

class ObsServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("obs_service");
    ZillowConfig config;
    config.num_properties = 200;
    config.num_train = 150;
    config.num_test = 50;
    ASSERT_OK(WriteZillowCsvs(GenerateZillow(config), dir_->path()));

    MistiqueOptions opts;
    opts.store.directory = dir_->path() + "/store";
    opts.strategy = StorageStrategy::kDedup;
    opts.row_block_size = 64;
    ASSERT_OK(mq_.Open(opts));
    ASSERT_OK_AND_ASSIGN(pipeline_, BuildZillowPipeline(1, 0, dir_->path()));
    ASSERT_OK(mq_.LogPipeline(pipeline_.get(), "zillow").status());
    ASSERT_OK(mq_.Flush());
  }

  FetchRequest ForcedReadReq() {
    FetchRequest req;
    req.project = "zillow";
    req.model = "P1_v0";
    req.intermediate = "pred_test";
    req.force_read = true;
    return req;
  }

  std::unique_ptr<TempDir> dir_;
  Mistique mq_;
  std::unique_ptr<Pipeline> pipeline_;
};

/// Submits one fetch and waits for its answer.
Answer<FetchResult> SubmitAndWait(QueryService* service, SessionId session,
                                  const FetchRequest& request,
                                  std::optional<obs::TraceParent> parent) {
  std::promise<Answer<FetchResult>> answered;
  service->Submit(session, request, /*deadline_sec=*/-1, parent,
                  [&answered](Answer<FetchResult> answer) {
                    answered.set_value(std::move(answer));
                  });
  return answered.get_future().get();
}

TEST_F(ObsServiceTest, TracedFetchRecordsDecisionAndStages) {
  obs::FlightRecorderOptions recorder_options;
  recorder_options.sample_rate = 0.0;  // only the parent makes it traced
  obs::FlightRecorder recorder(recorder_options);
  QueryServiceOptions options;
  options.num_workers = 2;
  options.session_cache_entries = 4;
  options.flight_recorder = &recorder;
  QueryService service(&mq_, options);
  const SessionId session = service.OpenSession();

  Answer<FetchResult> traced =
      SubmitAndWait(&service, session, ForcedReadReq(), {{77, 5}});
  ASSERT_OK(traced.result.status());
  EXPECT_FALSE(traced.result->columns.empty());
  EXPECT_TRUE(traced.result->used_read);
  ASSERT_TRUE(traced.trace.has_value());

  const obs::QueryTrace& trace = *traced.trace;
  EXPECT_EQ(trace.trace_id, 77u);
  EXPECT_EQ(trace.parent_span_id, 5u);
  EXPECT_TRUE(trace.sampled);
  EXPECT_EQ(trace.description, "zillow.P1_v0.pred_test");
  EXPECT_EQ(trace.strategy, "forced-read");
  // The cost model ran before the decision: both estimates recorded.
  EXPECT_GE(trace.est_read_sec, 0.0);
  EXPECT_GE(trace.est_rerun_sec, 0.0);
  EXPECT_GE(trace.queue_wait_sec, 0.0);
  EXPECT_GT(trace.total_sec, 0.0);
  EXPECT_FALSE(trace.events().empty());
  // The forced read resolved chunks through the dedup index.
  EXPECT_GT(trace.StageSeconds("dedup_resolve"), 0.0);

  // Second identical fetch: served from the session cache with a
  // minimal trace.
  Answer<FetchResult> cached =
      SubmitAndWait(&service, session, ForcedReadReq(), {{78, 6}});
  ASSERT_OK(cached.result.status());
  EXPECT_TRUE(cached.result->from_cache);
  ASSERT_TRUE(cached.trace.has_value());
  EXPECT_TRUE(cached.trace->cache_hit);
  EXPECT_EQ(cached.trace->strategy, "session-cache");
  EXPECT_EQ(cached.trace->trace_id, 78u);

  // Both traces landed in the recorder as the caller got them.
  const std::vector<obs::QueryTrace> dump = recorder.Dump();
  ASSERT_EQ(dump.size(), 2u);
  EXPECT_EQ(dump[0].trace_id, 78u);
  EXPECT_EQ(dump[0].parent_span_id, 6u);
  EXPECT_EQ(dump[1].trace_id, 77u);

  // Without a parent (and sampling off) the answer carries no trace.
  FetchRequest plain = ForcedReadReq();
  plain.n_ex = 3;
  Answer<FetchResult> untraced =
      SubmitAndWait(&service, session, plain, std::nullopt);
  ASSERT_OK(untraced.result.status());
  EXPECT_FALSE(untraced.trace.has_value());
  EXPECT_EQ(recorder.Dump().size(), 2u);
}

TEST_F(ObsServiceTest, StatsPercentilesComeFromHistogram) {
  QueryService service(&mq_, {});
  const SessionId session = service.OpenSession();
  FetchRequest req = ForcedReadReq();
  for (int i = 0; i < 5; ++i) {
    req.n_ex = 10 + i;  // distinct keys: no session-cache hits
    ASSERT_OK(service.Fetch(session, req).status());
  }
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.completed, 5u);
  EXPECT_GT(stats.p50_latency_sec, 0.0);
  EXPECT_LE(stats.p50_latency_sec, stats.p95_latency_sec);
  EXPECT_LE(stats.p95_latency_sec, stats.p99_latency_sec);
}

TEST_F(ObsServiceTest, MetricsTextCoversEngineAndService) {
  QueryService service(&mq_, {});
  const SessionId session = service.OpenSession();
  ASSERT_OK(service.Fetch(session, ForcedReadReq()).status());
  const std::string text = service.MetricsText();
  EXPECT_NE(text.find("# TYPE mistique_fetch_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("mistique_disk_read_bytes_total"), std::string::npos);
  EXPECT_NE(text.find("mistique_service_latency_seconds_bucket"),
            std::string::npos);
  EXPECT_NE(text.find("mistique_service_queue_wait_seconds_count"),
            std::string::npos);
  // Zero-valued gauges still appear (scrapers assert on them).
  EXPECT_NE(text.find("mistique_corruptions_detected 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("mistique_service_open_sessions 1\n"),
            std::string::npos);
}

}  // namespace
}  // namespace mistique
