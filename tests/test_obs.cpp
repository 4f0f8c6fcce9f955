// mrs::obs unit + integration coverage: metrics registry semantics (kill
// switch included), histogram bucketing, the trace span ring, Chrome
// export, the /metrics + /status + /trace endpoints on a live HttpServer,
// and the retry-policy edge cases whose counters land in the registry.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/retry.h"
#include "fs/file_io.h"
#include "http/client.h"
#include "http/server.h"
#include "obs/endpoints.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mrs {
namespace {

// ---- Registry + instruments ---------------------------------------------

TEST(ObsMetrics, CounterCountsAndRegistryPointerIsStable) {
  obs::Registry& reg = obs::Registry::Instance();
  obs::Counter* c = reg.GetCounter("test.obs.counter");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(reg.GetCounter("test.obs.counter"), c);  // same instrument
  int64_t before = c->value();
  c->Inc();
  c->Inc(4);
  EXPECT_EQ(c->value() - before, 5);
  EXPECT_EQ(reg.CounterValues().at("test.obs.counter"), c->value());
}

TEST(ObsMetrics, GaugeSetAndAdd) {
  obs::Gauge* g = obs::Registry::Instance().GetGauge("test.obs.gauge");
  g->Set(2.5);
  EXPECT_DOUBLE_EQ(g->value(), 2.5);
  g->Add(1.5);
  EXPECT_DOUBLE_EQ(g->value(), 4.0);
}

TEST(ObsMetrics, KillSwitchFreezesEveryInstrument) {
  obs::Registry& reg = obs::Registry::Instance();
  obs::Counter* c = reg.GetCounter("test.obs.kill.counter");
  obs::Gauge* g = reg.GetGauge("test.obs.kill.gauge");
  obs::Histogram* h = reg.GetHistogram("test.obs.kill.hist");
  g->Set(7.0);
  int64_t c_before = c->value();
  int64_t h_before = h->count();

  ASSERT_TRUE(obs::MetricsEnabled());
  obs::SetMetricsEnabled(false);
  c->Inc(100);
  g->Set(99.0);
  h->Observe(0.5);
  obs::SetMetricsEnabled(true);

  EXPECT_EQ(c->value(), c_before);
  EXPECT_DOUBLE_EQ(g->value(), 7.0);
  EXPECT_EQ(h->count(), h_before);

  c->Inc();  // updates flow again once re-enabled
  EXPECT_EQ(c->value(), c_before + 1);
}

TEST(ObsMetrics, HistogramLogScaleBuckets) {
  obs::Histogram h(/*base=*/1e-6);
  // Bucket 0 is (-inf, base]; bucket i is (base*2^(i-1), base*2^i].
  EXPECT_EQ(h.BucketIndex(0.0), 0);
  EXPECT_EQ(h.BucketIndex(1e-6), 0);
  EXPECT_EQ(h.BucketIndex(1.5e-6), 1);
  EXPECT_EQ(h.BucketIndex(2e-6), 1);
  EXPECT_EQ(h.BucketIndex(2.1e-6), 2);
  // Monster value lands in the +Inf overflow bucket.
  EXPECT_EQ(h.BucketIndex(1e12), obs::Histogram::kNumBuckets - 1);
  // Bounds are monotone doubling.
  for (int i = 1; i < obs::Histogram::kNumBuckets - 1; ++i) {
    EXPECT_DOUBLE_EQ(h.BucketBound(i), h.BucketBound(i - 1) * 2);
  }

  h.Observe(1e-6);
  h.Observe(3e-6);
  h.Observe(42.0);
  EXPECT_EQ(h.count(), 3);
  EXPECT_NEAR(h.sum(), 42.0 + 4e-6, 1e-9);
  EXPECT_EQ(h.bucket_count(0), 1);
  EXPECT_EQ(h.bucket_count(2), 1);
}

TEST(ObsMetrics, PrometheusRenderingIsCumulativeAndSanitized) {
  obs::Registry& reg = obs::Registry::Instance();
  reg.GetCounter("test.obs.prom-counter")->Inc(3);
  obs::Histogram* h = reg.GetHistogram("test.obs.prom.hist");
  h->Observe(1e-6);
  h->Observe(3e-6);

  std::string text = reg.RenderPrometheus();
  // Names sanitized for Prometheus ('.' and '-' -> '_').
  EXPECT_NE(text.find("# TYPE test_obs_prom_counter counter"),
            std::string::npos);
  EXPECT_NE(text.find("test_obs_prom_counter"), std::string::npos);
  EXPECT_EQ(text.find("test.obs.prom-counter"), std::string::npos);
  // Histogram exposition: cumulative buckets, +Inf, _sum and _count.
  EXPECT_NE(text.find("test_obs_prom_hist_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("test_obs_prom_hist_count 2"), std::string::npos);
  EXPECT_NE(text.find("test_obs_prom_hist_sum"), std::string::npos);
}

TEST(ObsMetrics, JsonRenderingAndEscape) {
  obs::Registry& reg = obs::Registry::Instance();
  reg.GetCounter("test.obs.json.counter")->Inc();
  std::string json = reg.RenderJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"test.obs.json.counter\""), std::string::npos);

  EXPECT_EQ(obs::JsonEscape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
}

// ---- Trace spans ---------------------------------------------------------

TEST(ObsTrace, RingRetainsNewestAndCountsTotal) {
  obs::TraceBuffer& buf = obs::TraceBuffer::Instance();
  buf.SetCapacity(4);
  int64_t total_before = buf.total_recorded();
  for (int i = 0; i < 10; ++i) {
    obs::TraceSpan s;
    s.name = "span" + std::to_string(i);
    s.cat = "test";
    buf.Record(std::move(s));
  }
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.total_recorded() - total_before, 10);
  std::vector<obs::TraceSpan> spans = buf.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest-first of the retained tail: 6, 7, 8, 9.
  EXPECT_EQ(spans.front().name, "span6");
  EXPECT_EQ(spans.back().name, "span9");
  buf.SetCapacity(obs::TraceBuffer::kDefaultCapacity);
}

TEST(ObsTrace, ScopedSpanRecordsTaskLabelsAndBytes) {
  obs::TraceBuffer& buf = obs::TraceBuffer::Instance();
  buf.SetCapacity(16);
  {
    obs::ScopedSpan span("wordcount", "map");
    span.set_task(/*dataset_id=*/3, /*source=*/1, /*attempt=*/2);
    span.add_bytes_in(128);
    span.add_bytes_out(64);
  }
  std::vector<obs::TraceSpan> spans = buf.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  const obs::TraceSpan& s = spans[0];
  EXPECT_EQ(s.name, "wordcount");
  EXPECT_EQ(s.cat, "map");
  EXPECT_EQ(s.dataset_id, 3);
  EXPECT_EQ(s.source, 1);
  EXPECT_EQ(s.attempt, 2);
  EXPECT_EQ(s.bytes_in, 128);
  EXPECT_EQ(s.bytes_out, 64);
  EXPECT_GE(s.wall_seconds, 0.0);
  buf.SetCapacity(obs::TraceBuffer::kDefaultCapacity);
}

TEST(ObsTrace, DisabledTracingRecordsNothing) {
  obs::TraceBuffer& buf = obs::TraceBuffer::Instance();
  buf.SetCapacity(16);
  obs::SetTracingEnabled(false);
  { obs::ScopedSpan span("ignored", "map"); }
  obs::SetTracingEnabled(true);
  EXPECT_EQ(buf.size(), 0u);
  buf.SetCapacity(obs::TraceBuffer::kDefaultCapacity);
}

TEST(ObsTrace, ChromeExportIsWellFormed) {
  obs::TraceBuffer& buf = obs::TraceBuffer::Instance();
  buf.SetCapacity(16);
  {
    obs::ScopedSpan span("map:count", "map");
    span.set_task(1, 0, 1);
  }
  std::string doc = obs::RenderChromeTrace();
  EXPECT_NE(doc.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"map:count\""), std::string::npos);
  EXPECT_NE(doc.find("\"cat\":\"map\""), std::string::npos);
  EXPECT_NE(doc.find("\"args\":{\"dataset\":1,\"source\":0,\"attempt\":1"),
            std::string::npos);

  auto tmp = MakeTempDir("mrs_obs_trace_");
  ASSERT_TRUE(tmp.ok());
  std::string path = JoinPath(*tmp, "trace.json");
  ASSERT_TRUE(obs::WriteChromeTraceFile(path));
  auto written = ReadFileToString(path);
  ASSERT_TRUE(written.ok());
  EXPECT_EQ(*written, doc);
  RemoveTree(*tmp);
  buf.SetCapacity(obs::TraceBuffer::kDefaultCapacity);
}

// ---- Endpoints on a live HttpServer -------------------------------------

TEST(ObsEndpoints, MetricsStatusTraceAndFallback) {
  obs::Registry::Instance().GetCounter("test.obs.endpoint.counter")->Inc();
  auto server = HttpServer::Start(
      "127.0.0.1", 0,
      obs::MakeObsHandler(
          [] { return std::string("{\"role\":\"test\",\"tasks\":7}"); },
          [](const HttpRequest& req) {
            if (req.target == "/data") {
              return HttpResponse::Ok("payload", "application/octet-stream");
            }
            return HttpResponse::NotFound();
          }));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  std::string base = "http://" + (*server)->addr().ToString();

  auto metrics = HttpFetch(base + "/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_NE(metrics->find("test_obs_endpoint_counter"), std::string::npos);
  EXPECT_NE(metrics->find("# TYPE"), std::string::npos);

  auto status = HttpFetch(base + "/status");
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  EXPECT_EQ(*status, "{\"role\":\"test\",\"tasks\":7}");

  auto trace = HttpFetch(base + "/trace");
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_NE(trace->find("\"traceEvents\""), std::string::npos);

  // Non-obs paths fall through to the wrapped handler.
  auto data = HttpFetch(base + "/data");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "payload");
  EXPECT_FALSE(HttpFetch(base + "/nothing-here").ok());
  (*server)->Shutdown();
}

TEST(ObsEndpoints, NullProviderAndNullFallback) {
  auto server = HttpServer::Start(
      "127.0.0.1", 0, obs::MakeObsHandler(nullptr, nullptr));
  ASSERT_TRUE(server.ok());
  std::string base = "http://" + (*server)->addr().ToString();
  auto status = HttpFetch(base + "/status");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(*status, "{}");
  EXPECT_FALSE(HttpFetch(base + "/other").ok());  // no fallback -> 404
  (*server)->Shutdown();
}

// ---- Retry edge cases (satellite: budget, jitter, clamp, counters) ------

TEST(RetryEdge, BackoffJitterStaysInsideFraction) {
  RetryPolicy policy;
  policy.initial_backoff_seconds = 0.01;
  policy.max_backoff_seconds = 10.0;  // no clamp in this range
  policy.backoff_multiplier = 2.0;
  policy.jitter_fraction = 0.25;
  for (int trial = 0; trial < 200; ++trial) {
    double d = BackoffDelaySeconds(policy, /*failures=*/3);
    double nominal = 0.01 * 4;  // multiplier^(failures-1)
    EXPECT_GE(d, nominal * 0.75 - 1e-12);
    EXPECT_LE(d, nominal * 1.25 + 1e-12);
  }
}

TEST(RetryEdge, ZeroJitterIsDeterministic) {
  RetryPolicy policy;
  policy.initial_backoff_seconds = 0.02;
  policy.max_backoff_seconds = 10.0;
  policy.backoff_multiplier = 2.0;
  policy.jitter_fraction = 0.0;
  EXPECT_DOUBLE_EQ(BackoffDelaySeconds(policy, 1), 0.02);
  EXPECT_DOUBLE_EQ(BackoffDelaySeconds(policy, 2), 0.04);
  EXPECT_DOUBLE_EQ(BackoffDelaySeconds(policy, 3), 0.08);
}

TEST(RetryEdge, BackoffClampsAtMaxEvenForHugeFailureCounts) {
  RetryPolicy policy;
  policy.initial_backoff_seconds = 0.01;
  policy.max_backoff_seconds = 0.05;
  policy.backoff_multiplier = 2.0;
  policy.jitter_fraction = 0.0;
  EXPECT_DOUBLE_EQ(BackoffDelaySeconds(policy, 10), 0.05);
  // 2^62 would overflow a naive pow-based delay; must still clamp.
  EXPECT_DOUBLE_EQ(BackoffDelaySeconds(policy, 63), 0.05);
}

TEST(RetryEdge, ExhaustedBudgetCountsRetriesIntoRegistry) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_seconds = 0.001;
  policy.max_backoff_seconds = 0.002;
  // GetCounter registers on first use — CounterValues() would miss the
  // name if no retry has happened yet in this process.
  obs::Counter* reg_counter =
      obs::Registry::Instance().GetCounter("mrs.retry.rpc");
  int64_t reg_before = reg_counter->value();
  int64_t acc_before = RpcRetryCount();
  int calls = 0;
  Result<std::string> r = CallWithRetry(
      policy, &CountRpcRetry, [&]() -> Result<std::string> {
        ++calls;
        return UnavailableError("always down");
      });
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(calls, 4);  // the full attempt budget
  // The retries were counted into the process registry — the same numbers
  // /metrics and Master::stats() read.
  EXPECT_EQ(reg_counter->value() - reg_before, 3);
  EXPECT_EQ(obs::Registry::Instance().CounterValues().at("mrs.retry.rpc"),
            reg_counter->value());
  EXPECT_EQ(RpcRetryCount() - acc_before, 3);
}

TEST(RetryEdge, SingleAttemptPolicyNeverRetries) {
  RetryPolicy policy;
  policy.max_attempts = 1;
  int64_t before = FetchRetryCount();
  int calls = 0;
  Result<std::string> r = CallWithRetry(
      policy, &CountFetchRetry, [&]() -> Result<std::string> {
        ++calls;
        return UnavailableError("down");
      });
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(FetchRetryCount() - before, 0);
}

}  // namespace
}  // namespace mrs
