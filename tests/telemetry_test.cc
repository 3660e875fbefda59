// Serving telemetry: the log-bucketed latency histogram (bucket math,
// quantile error bound, lock-free concurrent recording), the flight
// recorder ring, slow-query capture with retroactive traces, Prometheus
// text exposition, and the QueryService wiring that ties them together.
// Service tests run pumped (workers=0) so latencies are injected
// deterministically via ServiceOptions::test_delay_marker.
#include <atomic>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "srv/service.h"
#include "srv/telemetry.h"
#include "testutil.h"

namespace eds::srv {
namespace {

using obs::Histogram;
using obs::HistogramSnapshot;
using obs::MetricsRegistry;

// ---------------- histogram bucket math ----------------

TEST(HistogramTest, SmallValuesGetExactUnitBuckets) {
  for (uint64_t v = 0; v < 2 * Histogram::kSubCount; ++v) {
    EXPECT_EQ(Histogram::BucketIndex(v), v);
    EXPECT_EQ(Histogram::BucketLowerBound(v), v);
    EXPECT_EQ(Histogram::BucketUpperBound(v), v);
  }
}

TEST(HistogramTest, BucketBoundsContainTheirValues) {
  std::vector<uint64_t> probes = {0, 1, 31, 32, 33, 47, 48, 63, 64, 100,
                                  1000, 4095, 4096, 4097, 1u << 20,
                                  (1u << 20) + 12345, uint64_t{1} << 40,
                                  std::numeric_limits<uint64_t>::max()};
  for (uint64_t v : probes) {
    size_t idx = Histogram::BucketIndex(v);
    ASSERT_LT(idx, Histogram::kBuckets) << v;
    EXPECT_LE(Histogram::BucketLowerBound(idx), v) << v;
    EXPECT_GE(Histogram::BucketUpperBound(idx), v) << v;
  }
}

TEST(HistogramTest, BucketIndexIsMonotoneAndContiguous) {
  // Walk every bucket boundary: index must never decrease as values grow,
  // and consecutive buckets must tile the axis with no gap or overlap.
  size_t prev = Histogram::BucketIndex(0);
  EXPECT_EQ(prev, 0u);
  for (size_t idx = 1; idx < Histogram::kBuckets; ++idx) {
    uint64_t lower = Histogram::BucketLowerBound(idx);
    EXPECT_EQ(Histogram::BucketUpperBound(idx - 1) + 1, lower) << idx;
    EXPECT_EQ(Histogram::BucketIndex(lower), idx);
    EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketUpperBound(idx)), idx);
  }
  EXPECT_EQ(Histogram::BucketUpperBound(Histogram::kBuckets - 1),
            std::numeric_limits<uint64_t>::max());
}

TEST(HistogramTest, CountSumMaxAreExact) {
  Histogram h;
  uint64_t sum = 0;
  for (uint64_t v = 1; v <= 100; ++v) {
    h.Record(v * 7);
    sum += v * 7;
  }
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_EQ(snap.sum, sum);
  EXPECT_EQ(snap.max, 700u);
  EXPECT_DOUBLE_EQ(snap.mean(), static_cast<double>(sum) / 100.0);
  // p100 clamps to the observed max exactly, not a bucket bound.
  EXPECT_EQ(snap.ValueAtQuantile(1.0), 700u);
}

TEST(HistogramTest, QuantileRelativeErrorIsBounded) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  HistogramSnapshot snap = h.Snapshot();
  for (double q : {0.5, 0.9, 0.99}) {
    uint64_t exact =
        static_cast<uint64_t>(q * 1000.0 + 0.9999);  // ceil(q * count)
    uint64_t got = snap.ValueAtQuantile(q);
    // Upper-bucket-bound estimate: never below the true order statistic,
    // and within the 1/kSubCount log-linear relative-error bound.
    EXPECT_GE(got, exact) << q;
    EXPECT_LE(got, exact + exact / Histogram::kSubCount + 1) << q;
  }
}

TEST(HistogramTest, EmptySnapshotIsAllZeros) {
  Histogram h;
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum, 0u);
  EXPECT_EQ(snap.max, 0u);
  EXPECT_EQ(snap.ValueAtQuantile(0.5), 0u);
  EXPECT_DOUBLE_EQ(snap.mean(), 0.0);
}

// Run under the tsan preset this is the data-race check for the sharded
// relaxed-atomic record path; under any preset it checks the cross-shard
// tally invariant (count == sum of bucket counts, sum and max exact).
TEST(HistogramTest, ConcurrentRecordsAllLand) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, &ready, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (uint64_t i = 0; i < kPerThread; ++i) {
        h.Record((i % 1000) + static_cast<uint64_t>(t));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t c : snap.counts) bucket_total += c;
  EXPECT_EQ(bucket_total, snap.count);
  EXPECT_EQ(snap.max, 999u + kThreads - 1);
  uint64_t expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (uint64_t i = 0; i < kPerThread; ++i) {
      expected_sum += (i % 1000) + static_cast<uint64_t>(t);
    }
  }
  EXPECT_EQ(snap.sum, expected_sum);
}

// ---------------- Prometheus text exposition ----------------

TEST(PrometheusTest, RendersTypedAndSanitizedMetrics) {
  MetricsRegistry registry;
  registry.Counter("srv.completed", 42);
  registry.Gauge("srv.latency.serve.p99", 1234.5);
  std::string out = registry.ToPrometheus();
  EXPECT_NE(out.find("# TYPE srv_completed counter"), std::string::npos)
      << out;
  EXPECT_NE(out.find("srv_completed 42"), std::string::npos) << out;
  EXPECT_NE(out.find("# TYPE srv_latency_serve_p99 gauge"), std::string::npos)
      << out;
  // No dotted names may survive sanitization.
  for (size_t pos = 0; (pos = out.find("srv.", pos)) != std::string::npos;
       ++pos) {
    FAIL() << "unsanitized name at " << pos << ": " << out;
  }
}

TEST(PrometheusTest, HistogramSeriesIsCumulativeAndEndsAtInf) {
  MetricsRegistry registry;
  Histogram h;
  for (uint64_t v = 1; v <= 500; ++v) h.Record(v * 3);
  registry.Histogram("srv.latency.serve", h.Snapshot());
  std::string out = registry.ToPrometheus();
  EXPECT_NE(out.find("# TYPE srv_latency_serve histogram"), std::string::npos)
      << out;
  EXPECT_NE(out.find("srv_latency_serve_sum"), std::string::npos) << out;
  EXPECT_NE(out.find("srv_latency_serve_count 500"), std::string::npos) << out;

  // Walk the _bucket series: le strictly increasing, counts cumulative
  // (non-decreasing), final +Inf bucket equal to the total count.
  std::istringstream lines(out);
  std::string line;
  double prev_le = -1.0;
  uint64_t prev_count = 0;
  uint64_t inf_count = 0;
  size_t buckets = 0;
  while (std::getline(lines, line)) {
    const std::string prefix = "srv_latency_serve_bucket{le=\"";
    if (line.rfind(prefix, 0) != 0) continue;
    ++buckets;
    size_t quote = line.find('"', prefix.size());
    ASSERT_NE(quote, std::string::npos) << line;
    std::string le = line.substr(prefix.size(), quote - prefix.size());
    uint64_t count = std::stoull(line.substr(line.find('}') + 2));
    EXPECT_GE(count, prev_count) << line;
    prev_count = count;
    if (le == "+Inf") {
      inf_count = count;
    } else {
      double le_value = std::stod(le);
      EXPECT_GT(le_value, prev_le) << line;
      prev_le = le_value;
    }
  }
  EXPECT_GT(buckets, 2u) << out;
  EXPECT_EQ(inf_count, 500u) << out;
}

// ---------------- flight recorder ----------------

QueryRecord MakeRecord(const std::string& text, uint64_t serve_ns) {
  QueryRecord rec;
  rec.text = text;
  rec.serve_ns = serve_ns;
  return rec;
}

TEST(FlightRecorderTest, BoundsRetentionAndStampsSeq) {
  FlightRecorder recorder(4);
  for (int i = 1; i <= 10; ++i) {
    uint64_t seq = recorder.Add(MakeRecord("q" + std::to_string(i), i));
    EXPECT_EQ(seq, static_cast<uint64_t>(i));
  }
  EXPECT_EQ(recorder.total_added(), 10u);
  std::vector<QueryRecord> recent = recorder.Recent();
  ASSERT_EQ(recent.size(), 4u);  // capacity bound
  // Newest first, seq monotone in admission order.
  EXPECT_EQ(recent[0].seq, 10u);
  EXPECT_EQ(recent[1].seq, 9u);
  EXPECT_EQ(recent[3].seq, 7u);
  EXPECT_EQ(recorder.Recent(2).size(), 2u);
}

TEST(FlightRecorderTest, SlowestRanksByServeTime) {
  FlightRecorder recorder(8);
  recorder.Add(MakeRecord("fast", 5));
  recorder.Add(MakeRecord("slowest", 50));
  recorder.Add(MakeRecord("middle", 20));
  std::vector<QueryRecord> slowest = recorder.Slowest(2);
  ASSERT_EQ(slowest.size(), 2u);
  EXPECT_EQ(slowest[0].text, "slowest");
  EXPECT_EQ(slowest[1].text, "middle");
}

TEST(FlightRecorderTest, CapacityZeroCountsWithoutRetaining) {
  FlightRecorder recorder(0);
  EXPECT_EQ(recorder.Add(MakeRecord("a", 1)), 1u);
  EXPECT_EQ(recorder.Add(MakeRecord("b", 2)), 2u);
  EXPECT_TRUE(recorder.Recent().empty());
  EXPECT_EQ(recorder.total_added(), 2u);
}

// ---------------- record JSON + slow log ----------------

TEST(QueryRecordJsonTest, EscapesTextAndEmbedsTraceVerbatim) {
  QueryRecord rec;
  rec.seq = 7;
  rec.text = "SELECT \"x\\y\"";
  rec.slow = true;
  rec.trace_json = "{\"traceEvents\":[]}\n";
  std::string json = QueryRecordToJson(rec);
  EXPECT_NE(json.find("\"text\":\"SELECT \\\"x\\\\y\\\"\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"slow\":true"), std::string::npos) << json;
  // Embedded as a JSON object, trailing newline stripped, no escaping.
  EXPECT_NE(json.find("\"trace\":{\"traceEvents\":[]}"), std::string::npos)
      << json;
  EXPECT_EQ(json.find('\n'), std::string::npos) << json;
  EXPECT_EQ(json.back(), '}');
}

TEST(QueryRecordJsonTest, FailedQueryCarriesErrorAndOutcome) {
  QueryRecord rec;
  rec.ok = false;
  rec.error = "RuntimeError: boom";
  EXPECT_STREQ(CacheOutcomeName(rec), "error");
  std::string json = QueryRecordToJson(rec);
  EXPECT_NE(json.find("\"ok\":false"), std::string::npos) << json;
  EXPECT_NE(json.find("\"error\":\"RuntimeError: boom\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"outcome\":\"error\""), std::string::npos) << json;
  // No trace key without a captured trace.
  EXPECT_EQ(json.find("\"trace\":"), std::string::npos) << json;
}

TEST(QueryRecordJsonTest, OutcomeNamesFollowCachePrecedence) {
  QueryRecord rec;
  EXPECT_STREQ(CacheOutcomeName(rec), "miss");
  rec.cache_hit = true;
  EXPECT_STREQ(CacheOutcomeName(rec), "tmpl");
  rec.l0_hit = true;  // L0 outranks the template cache
  EXPECT_STREQ(CacheOutcomeName(rec), "l0");
  rec.ok = false;  // errors outrank everything
  EXPECT_STREQ(CacheOutcomeName(rec), "error");
}

TEST(SlowQueryLogTest, AppendsOneJsonLinePerRecord) {
  std::string path = testing::TempDir() + "/eds_slow_log_test.jsonl";
  std::remove(path.c_str());
  SlowQueryLog log(path);
  EXPECT_EQ(log.appended(), 0u);
  EDS_ASSERT_OK(log.Append(MakeRecord("SELECT 1", 100)));
  EDS_ASSERT_OK(log.Append(MakeRecord("SELECT 2", 200)));
  EXPECT_EQ(log.appended(), 2u);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
  }
  EXPECT_EQ(lines, 2u);
  std::remove(path.c_str());
}

// ---------------- service wiring (workers=0, pumped) ----------------

ServiceOptions PumpedOptions() {
  ServiceOptions options;
  options.workers = 0;
  return options;
}

Result<ServedQuery> PumpOne(QueryService* service,
                            std::future<Result<ServedQuery>> future) {
  EXPECT_TRUE(service->ServeQueuedForTesting());
  return future.get();
}

TEST(ServiceTelemetryTest, RecorderTracksOutcomesNewestFirst) {
  testutil::FilmDb db;
  QueryService service(&db.session, PumpedOptions());
  EDS_ASSERT_OK(service.Start());
  EXPECT_TRUE(service.telemetry_enabled());

  const char* q = "SELECT Winner FROM BEATS WHERE Winner > 7";
  EDS_ASSERT_OK_RESULT(PumpOne(&service, service.Submit(q)));
  EDS_ASSERT_OK_RESULT(PumpOne(&service, service.Submit(q)));

  std::vector<QueryRecord> recent = service.RecentQueries();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_STREQ(CacheOutcomeName(recent[0]), "l0");   // newest: exact repeat
  EXPECT_STREQ(CacheOutcomeName(recent[1]), "miss");  // first sighting
  EXPECT_EQ(recent[1].seq, 1u);
  EXPECT_EQ(recent[0].seq, 2u);
  EXPECT_NE(recent[1].template_hash, 0u);  // miss path fingerprints
  EXPECT_EQ(recent[0].template_hash, 0u);  // L0 path never fingerprints
  EXPECT_EQ(recent[1].text, q);
  EXPECT_GT(recent[1].serve_ns, 0u);
  EXPECT_GT(recent[1].phases.total_ns, 0u);
  service.Stop();
}

TEST(ServiceTelemetryTest, TemplateHitSharesTheMissesHash) {
  testutil::FilmDb db;
  QueryService service(&db.session, PumpedOptions());
  EDS_ASSERT_OK(service.Start());
  EDS_ASSERT_OK_RESULT(PumpOne(
      &service, service.Submit("SELECT Winner FROM BEATS WHERE Winner > 1")));
  EDS_ASSERT_OK_RESULT(PumpOne(
      &service, service.Submit("SELECT Winner FROM BEATS WHERE Winner > 2")));
  std::vector<QueryRecord> recent = service.RecentQueries();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_STREQ(CacheOutcomeName(recent[0]), "tmpl");
  EXPECT_NE(recent[0].template_hash, 0u);
  // Same structure, different literal: the workload grouping key matches.
  EXPECT_EQ(recent[0].template_hash, recent[1].template_hash);
  service.Stop();
}

TEST(ServiceTelemetryTest, TelemetryOffCostsAndRecordsNothing) {
  testutil::FilmDb db;
  ServiceOptions options = PumpedOptions();
  options.telemetry = false;
  QueryService service(&db.session, options);
  EDS_ASSERT_OK(service.Start());
  EXPECT_FALSE(service.telemetry_enabled());
  EDS_ASSERT_OK_RESULT(PumpOne(
      &service, service.Submit("SELECT Winner FROM BEATS WHERE Winner > 7")));
  EXPECT_TRUE(service.RecentQueries().empty());
  EXPECT_TRUE(service.SlowestQueries(5).empty());
  EXPECT_EQ(service.slow_queries_logged(), 0u);

  MetricsRegistry registry;
  service.ExportMetrics(&registry);
  EXPECT_TRUE(registry.Has("srv.submitted"));  // tallies still export
  EXPECT_FALSE(registry.Has("srv.latency.serve.count"));
  EXPECT_FALSE(registry.Has("srv.flight_recorder.total"));
  service.Stop();
}

TEST(ServiceTelemetryTest, FailedQueryRecordedAsError) {
  testutil::FilmDb db;
  QueryService service(&db.session, PumpedOptions());
  EDS_ASSERT_OK(service.Start());
  auto future = service.Submit("SELECT Nope FROM NOWHERE");
  auto served = PumpOne(&service, std::move(future));
  EXPECT_FALSE(served.ok());

  std::vector<QueryRecord> recent = service.RecentQueries();
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_FALSE(recent[0].ok);
  EXPECT_STREQ(CacheOutcomeName(recent[0]), "error");
  EXPECT_FALSE(recent[0].error.empty());
  service.Stop();
}

// The acceptance pin: inject a known delay, assert it shows up in the
// latency quantiles, the slowest-queries view, the attached trace, and
// the JSONL slow log.
TEST(ServiceTelemetryTest, InjectedSlowQueryIsCapturedEndToEnd) {
  constexpr uint64_t kDelayNs = 20'000'000;  // 20ms
  testutil::FilmDb db;
  ServiceOptions options = PumpedOptions();
  options.test_delay_marker = "777";
  options.test_delay_ns = kDelayNs;
  options.slow_query_ns = kDelayNs / 2;
  options.slow_query_log_path =
      testing::TempDir() + "/eds_telemetry_slow.jsonl";
  std::remove(options.slow_query_log_path.c_str());
  QueryService service(&db.session, options);
  EDS_ASSERT_OK(service.Start());

  for (int i = 0; i < 8; ++i) {
    EDS_ASSERT_OK_RESULT(PumpOne(
        &service, service.Submit("SELECT Winner FROM BEATS WHERE Winner > " +
                                 std::to_string(i))));
  }
  EDS_ASSERT_OK_RESULT(PumpOne(
      &service,
      service.Submit("SELECT Winner FROM BEATS WHERE Winner > 777")));

  // The slowest retained query is the delayed one, flagged slow, with its
  // retroactively captured span trace attached.
  std::vector<QueryRecord> slowest = service.SlowestQueries(1);
  ASSERT_EQ(slowest.size(), 1u);
  EXPECT_NE(slowest[0].text.find("777"), std::string::npos);
  EXPECT_TRUE(slowest[0].slow);
  EXPECT_GE(slowest[0].serve_ns, kDelayNs);
  ASSERT_FALSE(slowest[0].trace_json.empty());
  EXPECT_NE(slowest[0].trace_json.find("srv.injected_delay"),
            std::string::npos)
      << slowest[0].trace_json;

  // None of the fast queries were flagged.
  for (const QueryRecord& rec : service.RecentQueries()) {
    if (rec.text.find("777") == std::string::npos) EXPECT_FALSE(rec.slow);
  }

  // The latency quantiles see the injection: p50 stays fast, p99 and max
  // absorb the delayed query (9 samples: p99 is the slowest, p50 is not).
  MetricsRegistry registry;
  service.ExportMetrics(&registry);
  EXPECT_EQ(registry.Get("srv.latency.serve.count"), 9.0);
  EXPECT_LT(registry.Get("srv.latency.serve.p50"),
            static_cast<double>(kDelayNs));
  EXPECT_GE(registry.Get("srv.latency.serve.p99"),
            static_cast<double>(kDelayNs));
  EXPECT_GE(registry.Get("srv.latency.serve.max"),
            static_cast<double>(kDelayNs));
  EXPECT_EQ(registry.Get("srv.slow_queries.logged"), 1.0);

  // And the JSONL log has exactly the one slow line, trace included.
  EXPECT_EQ(service.slow_queries_logged(), 1u);
  std::ifstream in(options.slow_query_log_path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"slow\":true"), std::string::npos) << line;
  EXPECT_NE(line.find("\"trace\":"), std::string::npos) << line;
  EXPECT_NE(line.find("777"), std::string::npos) << line;
  EXPECT_FALSE(std::getline(in, line));  // exactly one
  service.Stop();
  std::remove(options.slow_query_log_path.c_str());
}

TEST(ServiceTelemetryTest, P99MultipleFlagsOutlierAfterWarmup) {
  constexpr uint64_t kDelayNs = 50'000'000;  // 50ms, >> any fast serve p99
  testutil::FilmDb db;
  ServiceOptions options = PumpedOptions();
  options.test_delay_marker = "777";
  options.test_delay_ns = kDelayNs;
  options.slow_query_p99_multiple = 3.0;  // no absolute threshold
  QueryService service(&db.session, options);
  EDS_ASSERT_OK(service.Start());

  // 40 fast queries establish the trailing p99 (the policy needs >= 32
  // samples before the relative threshold can fire at all).
  for (int i = 0; i < 40; ++i) {
    EDS_ASSERT_OK_RESULT(PumpOne(
        &service, service.Submit("SELECT Winner FROM BEATS WHERE Winner > " +
                                 std::to_string(i % 10))));
  }
  EDS_ASSERT_OK_RESULT(PumpOne(
      &service,
      service.Submit("SELECT Winner FROM BEATS WHERE Winner > 777")));

  std::vector<QueryRecord> recent = service.RecentQueries(1);
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_NE(recent[0].text.find("777"), std::string::npos);
  EXPECT_TRUE(recent[0].slow);
  EXPECT_FALSE(recent[0].trace_json.empty());
  service.Stop();
}

TEST(ServiceTelemetryTest, ExportMetricsCoversEverySurface) {
  testutil::FilmDb db;
  QueryService service(&db.session, PumpedOptions());
  EDS_ASSERT_OK(service.Start());
  const char* q = "SELECT Winner FROM BEATS WHERE Winner > 7";
  EDS_ASSERT_OK_RESULT(PumpOne(&service, service.Submit(q)));
  EDS_ASSERT_OK_RESULT(PumpOne(&service, service.Submit(q)));

  MetricsRegistry registry;
  service.ExportMetrics(&registry);
  for (const char* name :
       {"srv.submitted", "srv.admitted", "srv.completed", "srv.failed",
        "srv.queue_depth", "srv.max_queue_depth", "srv.flight_recorder.total",
        "srv.slow_queries.logged", "cache.hits", "cache.misses",
        "srv.l0.hits", "srv.l0.misses", "gov.deadline_trips",
        "srv.latency.queue.count", "srv.latency.serve.p50",
        "srv.latency.serve.p90", "srv.latency.serve.p99",
        "srv.latency.serve.max", "srv.latency.serve.l0_hit.count",
        "srv.latency.execute.count"}) {
    EXPECT_TRUE(registry.Has(name)) << name;
  }
  EXPECT_EQ(registry.Get("srv.completed"), 2.0);
  EXPECT_EQ(registry.Get("srv.queue_depth"), 0.0);
  EXPECT_EQ(registry.Get("srv.flight_recorder.total"), 2.0);
  EXPECT_EQ(registry.Get("srv.l0.hits"), 1.0);
  // One L0 hit, one miss: the serve split buckets each exactly once.
  EXPECT_EQ(registry.Get("srv.latency.serve.l0_hit.count"), 1.0);
  EXPECT_EQ(registry.Get("srv.latency.serve.miss.count"), 1.0);
  // The L0 hit skipped the parser, so parse has one sample, not two.
  EXPECT_EQ(registry.Get("srv.latency.parse.count"), 1.0);
  service.Stop();
}

TEST(ServiceTelemetryTest, WriteTelemetrySnapshotRendersPrometheus) {
  testutil::FilmDb db;
  QueryService service(&db.session, PumpedOptions());
  EDS_ASSERT_OK(service.Start());
  EDS_ASSERT_OK_RESULT(PumpOne(
      &service, service.Submit("SELECT Winner FROM BEATS WHERE Winner > 7")));

  std::string path = testing::TempDir() + "/eds_telemetry_snapshot.prom";
  EDS_ASSERT_OK(service.WriteTelemetrySnapshot(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string out = buffer.str();
  EXPECT_EQ(out.rfind("# TYPE", 0), 0u) << out.substr(0, 80);
  EXPECT_NE(out.find("srv_completed 1"), std::string::npos);
  EXPECT_NE(out.find("srv_latency_serve_count 1"), std::string::npos);
  EXPECT_NE(out.find("srv_latency_serve_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  service.Stop();
  std::remove(path.c_str());
}

// The periodic exporter thread: the final snapshot written at Stop() must
// reflect the full tally even if no interval ever elapsed.
TEST(ServiceTelemetryTest, ExportThreadWritesFinalSnapshotOnStop) {
  testutil::FilmDb db;
  ServiceOptions options;
  options.workers = 1;
  options.telemetry_export_path =
      testing::TempDir() + "/eds_telemetry_periodic.prom";
  options.telemetry_export_interval_ms = 3'600'000;  // only the Stop() write
  std::remove(options.telemetry_export_path.c_str());
  QueryService service(&db.session, options);
  EDS_ASSERT_OK(service.Start());
  auto future =
      service.Submit("SELECT Winner FROM BEATS WHERE Winner > 7");
  auto served = future.get();
  EDS_ASSERT_OK_RESULT(served);
  service.Stop();

  std::ifstream in(options.telemetry_export_path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("srv_completed 1"), std::string::npos)
      << buffer.str();
  std::remove(options.telemetry_export_path.c_str());
}

// Stop() drains, saves, then exports: the last metrics file counts the
// final persist save.
TEST(ServiceTelemetryTest, FinalExportCountsTheFinalPersistSave) {
  testutil::FilmDb db;
  ServiceOptions options;
  options.workers = 1;
  options.persist_path = testing::TempDir() + "/eds_telemetry_final.eds";
  options.persist_interval_ms = 3'600'000;  // only the Stop() save
  options.telemetry_export_path =
      testing::TempDir() + "/eds_telemetry_final.prom";
  options.telemetry_export_interval_ms = 3'600'000;  // only the Stop() write
  std::remove(options.persist_path.c_str());
  std::remove(options.telemetry_export_path.c_str());
  QueryService service(&db.session, options);
  EDS_ASSERT_OK(service.Start());
  EDS_ASSERT_OK_RESULT(
      service.Submit("SELECT Winner FROM BEATS WHERE Winner > 7").get());
  service.Stop();

  std::ifstream in(options.telemetry_export_path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("persist_save_count 1\n"), std::string::npos)
      << buffer.str();
  std::remove(options.persist_path.c_str());
  std::remove(options.telemetry_export_path.c_str());
}

}  // namespace
}  // namespace eds::srv
