// The serving layer: fingerprinting, the plan cache, admission
// control, and the cached query pipeline. Deterministic tests run with
// workers=0 and pump the queue on the test thread; the threaded paths live
// in srv_stress_test.cc.
#include <sstream>

#include "esql/parser.h"
#include "esql/translator.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "srv/fingerprint.h"
#include "srv/plan_cache.h"
#include "srv/service.h"
#include "term/term.h"
#include "testutil.h"

namespace eds::srv {
namespace {

using value::Value;

// Translates one SELECT against the FilmDb catalog without rewriting.
term::TermRef RawPlan(exec::Session* session, const std::string& esql) {
  auto stmt = esql::ParseStatement(esql);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  esql::Translator translator(&session->catalog());
  auto plan = translator.TranslateQuery(*stmt->select);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return *plan;
}

// ---------------- fingerprinting ----------------

TEST(FingerprintTest, LiteralVariantsShareOneTemplate) {
  testutil::FilmDb db;
  term::TermRef a =
      RawPlan(&db.session, "SELECT Winner FROM BEATS WHERE Winner > 7");
  term::TermRef b =
      RawPlan(&db.session, "SELECT Winner FROM BEATS WHERE Winner > 3");
  Fingerprint fa = FingerprintPlan(a);
  Fingerprint fb = FingerprintPlan(b);
  ASSERT_TRUE(fa.parameterized);
  ASSERT_TRUE(fb.parameterized);
  // Hash-consing makes structurally identical templates pointer-identical.
  EXPECT_EQ(fa.tmpl.get(), fb.tmpl.get());
  ASSERT_EQ(fa.params.size(), 1u);
  ASSERT_EQ(fb.params.size(), 1u);
  EXPECT_EQ(fa.params[0]->constant(), Value::Int(7));
  EXPECT_EQ(fb.params[0]->constant(), Value::Int(3));
}

TEST(FingerprintTest, StructuralConstantsStayInline) {
  testutil::FilmDb db;
  term::TermRef raw =
      RawPlan(&db.session, "SELECT Winner FROM BEATS WHERE Winner > 7");
  Fingerprint fp = FingerprintPlan(raw);
  std::string tmpl = fp.tmpl->ToString();
  // The relation name survives; the literal became a $CQ parameter.
  EXPECT_NE(tmpl.find("BEATS"), std::string::npos) << tmpl;
  EXPECT_NE(tmpl.find(kParamPrefix), std::string::npos) << tmpl;
  EXPECT_EQ(tmpl.find("7"), std::string::npos) << tmpl;
}

TEST(FingerprintTest, DistinctOccurrencesGetDistinctParameters) {
  testutil::FilmDb db;
  // Two occurrences of the same literal value must not alias: a rule
  // firing off "these two constants are equal" would bake that accident
  // into the template.
  term::TermRef raw = RawPlan(
      &db.session, "SELECT Winner FROM BEATS WHERE Winner > 5 AND Loser > 5");
  Fingerprint fp = FingerprintPlan(raw);
  ASSERT_EQ(fp.params.size(), 2u);
  std::string tmpl = fp.tmpl->ToString();
  EXPECT_NE(tmpl.find("$CQ0"), std::string::npos) << tmpl;
  EXPECT_NE(tmpl.find("$CQ1"), std::string::npos) << tmpl;
}

TEST(FingerprintTest, InstantiateRoundTripsToRawPlan) {
  testutil::FilmDb db;
  term::TermRef raw = RawPlan(
      &db.session,
      "SELECT Title FROM FILM WHERE Numf > 1 AND Title <> 'Zorba'");
  Fingerprint fp = FingerprintPlan(raw);
  ASSERT_TRUE(fp.parameterized);
  auto back = InstantiatePlan(fp.tmpl, fp.params);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->get(), raw.get());  // hash-consed: same node
}

TEST(FingerprintTest, RecursivePlansAreLiteralSensitive) {
  testutil::FilmDb db;
  EDS_ASSERT_OK(db.session.ExecuteScript(R"(
    CREATE VIEW BETTER_THAN (W, L) AS (
      SELECT Winner, Loser FROM BEATS
      UNION
      SELECT B1.W, B2.L FROM BETTER_THAN B1, BETTER_THAN B2
      WHERE B1.L = B2.W );
  )"));
  term::TermRef raw =
      RawPlan(&db.session, "SELECT W FROM BETTER_THAN WHERE W = 1");
  Fingerprint fp = FingerprintPlan(raw);
  // FIX plans keep literals inline: magic-set adornment depends on them.
  EXPECT_FALSE(fp.parameterized);
  EXPECT_EQ(fp.tmpl.get(), raw.get());
  EXPECT_TRUE(fp.params.empty());
}

TEST(FingerprintTest, InstantiateRejectsMissingParameter) {
  // A malformed cache entry: normal form mentions $CQ1 but only one
  // parameter was extracted. Callers treat this as a miss.
  term::TermRef nf = term::Term::Apply(
      "EQ", {term::Term::Var("$CQ0"), term::Term::Var("$CQ1")});
  term::TermList params = {term::Term::Constant(Value::Int(1))};
  auto r = InstantiatePlan(nf, params);
  EXPECT_FALSE(r.ok());
}

// ---------------- plan cache ----------------

PlanCache::Key MakeKey(const term::TermRef& tmpl, uint64_t cat = 0,
                       uint64_t rules = 0) {
  return PlanCache::Key{tmpl, cat, rules};
}

term::TermRef T(int i) {
  return term::Term::Apply("PLAN", {term::Term::Constant(Value::Int(i))});
}

TEST(PlanCacheTest, HitAfterInsertMissBefore) {
  PlanCache cache;
  term::TermRef tmpl = T(1);
  EXPECT_FALSE(cache.Lookup(MakeKey(tmpl)).has_value());
  cache.Insert(MakeKey(tmpl), T(100));
  auto hit = cache.Lookup(MakeKey(tmpl));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->get(), T(100).get());
  PlanCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.nodes, 0u);
}

TEST(PlanCacheTest, EpochMismatchMisses) {
  PlanCache cache;
  term::TermRef tmpl = T(1);
  cache.Insert(MakeKey(tmpl, /*cat=*/1, /*rules=*/1), T(100));
  EXPECT_TRUE(cache.Lookup(MakeKey(tmpl, 1, 1)).has_value());
  // DDL bumped the catalog epoch: the entry stops matching.
  EXPECT_FALSE(cache.Lookup(MakeKey(tmpl, 2, 1)).has_value());
  // A rule-library change does the same.
  EXPECT_FALSE(cache.Lookup(MakeKey(tmpl, 1, 2)).has_value());
}

TEST(PlanCacheTest, LruEvictionUnderNodeCeiling) {
  PlanCache::Config config;
  config.max_nodes = 12;  // each entry charges 2 + 2 = 4 nodes
  PlanCache cache(config);
  cache.Insert(MakeKey(T(1)), T(101));
  cache.Insert(MakeKey(T(2)), T(102));
  cache.Insert(MakeKey(T(3)), T(103));
  // Touch T(1) so T(2) is the least recently used.
  EXPECT_TRUE(cache.Lookup(MakeKey(T(1))).has_value());
  cache.Insert(MakeKey(T(4)), T(104));
  PlanCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_LE(stats.nodes, 12u);
  EXPECT_FALSE(cache.Lookup(MakeKey(T(2))).has_value());
  EXPECT_TRUE(cache.Lookup(MakeKey(T(1))).has_value());
  EXPECT_TRUE(cache.Lookup(MakeKey(T(4))).has_value());
}

TEST(PlanCacheTest, OversizedEntryStillCached) {
  PlanCache::Config config;
  config.max_nodes = 1;  // smaller than any entry
  PlanCache cache(config);
  cache.Insert(MakeKey(T(1)), T(101));
  // The lone entry survives even though it exceeds the budget.
  EXPECT_TRUE(cache.Lookup(MakeKey(T(1))).has_value());
}

TEST(PlanCacheTest, InsertRefreshesExistingKey) {
  PlanCache cache;
  cache.Insert(MakeKey(T(1)), T(101));
  cache.Insert(MakeKey(T(1)), T(102));  // racing double-miss refresh
  auto hit = cache.Lookup(MakeKey(T(1)));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->get(), T(102).get());
  EXPECT_EQ(cache.GetStats().entries, 1u);
}

TEST(PlanCacheTest, InvalidateAllDropsEverything) {
  PlanCache cache;
  cache.Insert(MakeKey(T(1)), T(101));
  cache.Insert(MakeKey(T(2)), T(102));
  cache.InvalidateAll();
  PlanCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.nodes, 0u);
  EXPECT_EQ(stats.invalidations, 2u);
  EXPECT_FALSE(cache.Lookup(MakeKey(T(1))).has_value());
}

TEST(PlanCacheTest, RefreshThatGrowsAnEntryEvictsBackUnderTheCeiling) {
  PlanCache::Config config;
  config.max_nodes = 12;  // three 2 + 2 = 4-node entries fill it exactly
  PlanCache cache(config);
  cache.Insert(MakeKey(T(1)), T(101));
  cache.Insert(MakeKey(T(2)), T(102));
  cache.Insert(MakeKey(T(3)), T(103));
  ASSERT_EQ(cache.GetStats().nodes, 12u);
  // Refresh T(1) with a 4-node normal form: its charge grows 4 -> 6.
  term::TermRef bigger =
      term::Term::Apply("PLAN", {T(201), term::Term::Constant(Value::Int(7))});
  ASSERT_GE(bigger->node_count(), 4u);
  cache.Insert(MakeKey(T(1)), bigger);
  PlanCache::Stats stats = cache.GetStats();
  EXPECT_LE(stats.nodes, 12u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  // The refreshed entry survives; the least recently used one went.
  auto hit = cache.Lookup(MakeKey(T(1)));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->get(), bigger.get());
  EXPECT_FALSE(cache.Lookup(MakeKey(T(2))).has_value());
}

// ---------------- admission policy ----------------

TEST(DeriveLimitsTest, IdleQueueGrantsFullBudget) {
  gov::GovernorLimits base;
  base.deadline_ms = 1000;
  base.max_term_nodes = 100000;
  base.max_rows = 5000;
  gov::GovernorLimits got = DeriveLimits(base, 0, 64);
  EXPECT_EQ(got.deadline_ms, 1000u);
  EXPECT_EQ(got.max_term_nodes, 100000u);
  EXPECT_EQ(got.max_rows, 5000u);
  EXPECT_EQ(got.cancel, nullptr);
}

TEST(DeriveLimitsTest, SaturatedQueueGrantsQuarterBudget) {
  gov::GovernorLimits base;
  base.deadline_ms = 1000;
  base.max_term_nodes = 100000;
  base.max_rows = 5000;
  gov::GovernorLimits got = DeriveLimits(base, 64, 64);
  EXPECT_EQ(got.deadline_ms, 250u);
  EXPECT_EQ(got.max_term_nodes, 25000u);
  // Row ceiling is a result-size bound, not a load knob.
  EXPECT_EQ(got.max_rows, 5000u);
}

TEST(DeriveLimitsTest, UnlimitedStaysUnlimited) {
  gov::GovernorLimits base;  // all zero: unlimited
  gov::GovernorLimits got = DeriveLimits(base, 64, 64);
  EXPECT_EQ(got.deadline_ms, 0u);
  EXPECT_EQ(got.max_term_nodes, 0u);
}

// ---------------- the service (workers=0, pumped) ----------------

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

TEST(QueryServiceTest, ServesSameRowsAsDirectSession) {
  testutil::FilmDb db;
  const char* q = "SELECT Winner, Loser FROM BEATS WHERE Winner > 7";
  auto direct = db.session.Query(q);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  QueryService service(&db.session, PumpedOptions());
  EDS_ASSERT_OK(service.Start());
  auto served = PumpOne(&service, service.Submit(q));
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->result.columns, direct->columns);
  EXPECT_EQ(served->result.rows, direct->rows);
  EXPECT_FALSE(served->cache_hit);
  EXPECT_TRUE(served->cache_stored);
  service.Stop();
  ServiceStats stats = service.GetStats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(QueryServiceTest, WarmCacheSkipsRewriteAndStaysCorrect) {
  testutil::FilmDb db;
  QueryService service(&db.session, PumpedOptions());
  EDS_ASSERT_OK(service.Start());

  auto first = PumpOne(
      &service, service.Submit("SELECT Winner FROM BEATS WHERE Winner > 7"));
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->cache_hit);
  EXPECT_GT(first->result.phase_times.rewrite_ns, 0u);

  // Different literal, same template: a hit, with the *right* answer for
  // the new literal.
  auto second = PumpOne(
      &service, service.Submit("SELECT Winner FROM BEATS WHERE Winner > 3"));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
  EXPECT_EQ(second->result.phase_times.rewrite_ns, 0u);
  auto direct = db.session.Query("SELECT Winner FROM BEATS WHERE Winner > 3");
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(second->result.rows, direct->rows);
  EXPECT_NE(second->result.rows, first->result.rows);

  PlanCache::Stats cs = service.cache().GetStats();
  EXPECT_EQ(cs.hits, 1u);
  EXPECT_GE(cs.misses, 1u);
}

TEST(QueryServiceTest, DdlBumpsEpochAndInvalidatesLazily) {
  testutil::FilmDb db;
  QueryService service(&db.session, PumpedOptions());
  EDS_ASSERT_OK(service.Start());
  const char* q = "SELECT Winner FROM BEATS WHERE Winner > 7";
  auto first = PumpOne(&service, service.Submit(q));
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->cache_stored);

  // With workers=0 nothing runs concurrently, so DDL between pumps is
  // within the service's concurrency contract.
  uint64_t epoch_before = db.session.catalog().epoch();
  EDS_ASSERT_OK(db.session.ExecuteScript("CREATE TABLE EPOCH_T (A : INT);"));
  EXPECT_GT(db.session.catalog().epoch(), epoch_before);

  auto second = PumpOne(&service, service.Submit(q));
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->cache_hit);  // stale entry stopped matching
  EXPECT_EQ(second->result.rows, first->result.rows);
}

TEST(QueryServiceTest, QueueFullShedsLoad) {
  testutil::FilmDb db;
  ServiceOptions options = PumpedOptions();
  options.queue_capacity = 2;
  QueryService service(&db.session, options);
  EDS_ASSERT_OK(service.Start());
  auto f1 = service.Submit("SELECT Winner FROM BEATS");
  auto f2 = service.Submit("SELECT Loser FROM BEATS");
  auto f3 = service.Submit("SELECT Winner FROM BEATS");  // shed
  auto r3 = f3.get();
  ASSERT_FALSE(r3.ok());
  EXPECT_EQ(r3.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r3.status().message().find("load shed"), std::string::npos);
  while (service.ServeQueuedForTesting()) {
  }
  EXPECT_TRUE(f1.get().ok());
  EXPECT_TRUE(f2.get().ok());
  ServiceStats stats = service.GetStats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.max_queue_depth, 2u);
}

TEST(QueryServiceTest, AdmissionScalesGrantedBudgetByLoad) {
  testutil::FilmDb db;
  ServiceOptions options = PumpedOptions();
  options.queue_capacity = 2;
  options.base_limits.deadline_ms = 1000;
  QueryService service(&db.session, options);
  EDS_ASSERT_OK(service.Start());
  auto f1 = service.Submit("SELECT Winner FROM BEATS");  // queue depth 0
  auto f2 = service.Submit("SELECT Winner FROM BEATS");  // queue depth 1
  while (service.ServeQueuedForTesting()) {
  }
  auto r1 = f1.get();
  auto r2 = f2.get();
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->granted.deadline_ms, 1000u);
  EXPECT_LT(r2->granted.deadline_ms, 1000u);  // admitted under load
}

TEST(QueryServiceTest, SubmitBeforeStartAndAfterStopFails) {
  testutil::FilmDb db;
  QueryService service(&db.session, PumpedOptions());
  EXPECT_FALSE(service.Submit("SELECT Winner FROM BEATS").get().ok());
  EDS_ASSERT_OK(service.Start());
  service.Stop();
  EXPECT_FALSE(service.Submit("SELECT Winner FROM BEATS").get().ok());
}

TEST(QueryServiceTest, StopDrainsQueuedWorkWithError) {
  testutil::FilmDb db;
  QueryService service(&db.session, PumpedOptions());
  EDS_ASSERT_OK(service.Start());
  auto f = service.Submit("SELECT Winner FROM BEATS");
  service.Stop();
  auto r = f.get();
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("stopping"), std::string::npos);
}

TEST(QueryServiceTest, CancelledWhileQueuedFailsFast) {
  testutil::FilmDb db;
  QueryService service(&db.session, PumpedOptions());
  EDS_ASSERT_OK(service.Start());
  gov::CancelToken cancel;
  auto f = service.Submit("SELECT Winner FROM BEATS", &cancel);
  cancel.Cancel();
  auto r = PumpOne(&service, std::move(f));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("cancelled"), std::string::npos);
}

TEST(QueryServiceTest, RecursiveQueriesCacheOnExactMatch) {
  testutil::FilmDb db;
  EDS_ASSERT_OK(db.session.ExecuteScript(R"(
    CREATE VIEW BETTER_THAN (W, L) AS (
      SELECT Winner, Loser FROM BEATS
      UNION
      SELECT B1.W, B2.L FROM BETTER_THAN B1, BETTER_THAN B2
      WHERE B1.L = B2.W );
  )"));
  ServiceOptions recursive_options = PumpedOptions();
  recursive_options.l0_capacity = 0;  // exercise the structural cache layer
  QueryService service(&db.session, recursive_options);
  EDS_ASSERT_OK(service.Start());
  const char* q = "SELECT W FROM BETTER_THAN WHERE W = 1";
  auto first = PumpOne(&service, service.Submit(q));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->cache_hit);
  // Same literal: exact-match hit (FIX plans skip parameterization).
  auto second = PumpOne(&service, service.Submit(q));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
  EXPECT_EQ(second->result.rows, first->result.rows);
  // Different literal: distinct template, a miss.
  auto third = PumpOne(
      &service, service.Submit("SELECT W FROM BETTER_THAN WHERE W = 2"));
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third->cache_hit);
}

// Session::Query and the service share one pipeline tail, so a safety
// stop reads the same to a client either way.
TEST(QueryServiceTest, DegradationWarningsMatchSessionQuery) {
  testutil::FilmDb db;
  EDS_ASSERT_OK(db.session.ExecuteScript(R"(
    CREATE VIEW BETTER_THAN (W, L) AS (
      SELECT Winner, Loser FROM BEATS
      UNION
      SELECT B1.W, B2.L FROM BETTER_THAN B1, BETTER_THAN B2
      WHERE B1.L = B2.W );
  )"));
  // A recursive plan keeps its literals inline, so the template the
  // service rewrites is the raw plan Session::Query rewrites.
  const char* q = "SELECT W FROM BETTER_THAN WHERE W = 1";
  exec::QueryOptions direct_options;
  direct_options.rewrite_options.max_applications = 1;
  auto direct = db.session.Query(q, direct_options);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  ASSERT_TRUE(direct->rewrite_stats.safety_stop);
  ASSERT_FALSE(direct->warnings.empty());

  ServiceOptions options = PumpedOptions();
  options.rewrite_options.max_applications = 1;
  QueryService service(&db.session, options);
  EDS_ASSERT_OK(service.Start());
  auto served = PumpOne(&service, service.Submit(q));
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->result.warnings, direct->warnings);
  EXPECT_TRUE(served->cache_bypass);  // degraded: never cached
  EXPECT_EQ(served->result.rows, direct->rows);
}

// The governor budget binds the L0 replay too: both the first serve and
// the second (an L0 hit) fail on the row ceiling.
TEST(QueryServiceTest, RowBudgetGovernsTheL0Replay) {
  testutil::FilmDb db;
  ServiceOptions options = PumpedOptions();
  options.base_limits.max_rows = 1;
  QueryService service(&db.session, options);
  EDS_ASSERT_OK(service.Start());
  const char* q = "SELECT Winner, Loser FROM BEATS";
  for (int i = 0; i < 2; ++i) {
    auto r = PumpOne(&service, service.Submit(q));
    ASSERT_FALSE(r.ok()) << "serve " << i;
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  }
  L0Cache::Stats ls = service.l0_cache().GetStats();
  EXPECT_EQ(ls.inserts, 1u);
  EXPECT_EQ(ls.hits, 1u);  // the second serve replayed the L0 plan
}

// ---------------- the L0 exact-text cache ----------------

TEST(L0CacheTest, NormalizeCollapsesLexicalNoise) {
  // Case folds, whitespace collapses, comments vanish...
  EXPECT_EQ(NormalizeQueryText("select  Winner\n FROM beats -- hm\n"),
            "SELECT WINNER FROM BEATS");
  EXPECT_EQ(NormalizeQueryText("SELECT WINNER FROM BEATS"),
            NormalizeQueryText("  select\twinner\n\nfrom  Beats  "));
  // ...but string literals pass through verbatim, '' doubling included.
  EXPECT_EQ(NormalizeQueryText("SELECT t FROM f WHERE t = 'a  b'"),
            "SELECT T FROM F WHERE T = 'a  b'");
  EXPECT_NE(NormalizeQueryText("SELECT t FROM f WHERE t = 'abc'"),
            NormalizeQueryText("SELECT t FROM f WHERE t = 'ABC'"));
  EXPECT_EQ(NormalizeQueryText("SELECT 'it''s  fine' FROM f"),
            "SELECT 'it''s  fine' FROM F");
  // Different literals stay different keys (that is what L1 is for).
  EXPECT_NE(NormalizeQueryText("SELECT w FROM b WHERE w > 7"),
            NormalizeQueryText("SELECT w FROM b WHERE w > 3"));
}

TEST(QueryServiceTest, L0HitSkipsFrontHalfOfPipeline) {
  testutil::FilmDb db;
  QueryService service(&db.session, PumpedOptions());
  EDS_ASSERT_OK(service.Start());
  const char* q = "SELECT Winner, Loser FROM BEATS WHERE Winner > 7";
  auto first = PumpOne(&service, service.Submit(q));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->l0_hit);
  EXPECT_GT(first->result.phase_times.parse_ns, 0u);

  // Lexical variants of the same text hit L0: parse/translate/rewrite/
  // schema never run, and the answer is byte-identical.
  auto second = PumpOne(
      &service,
      service.Submit("select winner,  Loser\nFROM beats WHERE winner > 7"));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second->l0_hit);
  EXPECT_FALSE(second->cache_hit);
  EXPECT_EQ(second->result.phase_times.parse_ns, 0u);
  EXPECT_EQ(second->result.phase_times.translate_ns, 0u);
  EXPECT_EQ(second->result.phase_times.rewrite_ns, 0u);
  EXPECT_EQ(second->result.phase_times.schema_ns, 0u);
  EXPECT_GT(second->result.phase_times.exec_ns, 0u);
  EXPECT_EQ(second->result.rows, first->result.rows);
  EXPECT_EQ(second->result.columns, first->result.columns);

  L0Cache::Stats ls = service.l0_cache().GetStats();
  EXPECT_EQ(ls.hits, 1u);
  EXPECT_EQ(ls.misses, 1u);
  EXPECT_EQ(ls.inserts, 1u);
  EXPECT_EQ(ls.entries, 1u);
}

TEST(QueryServiceTest, L0EntriesDieOnEpochBump) {
  testutil::FilmDb db;
  QueryService service(&db.session, PumpedOptions());
  EDS_ASSERT_OK(service.Start());
  const char* q = "SELECT Winner FROM BEATS WHERE Winner > 7";
  ASSERT_TRUE(PumpOne(&service, service.Submit(q)).ok());
  // DDL bumps the catalog epoch (safe here: workers=0, nothing in flight).
  EDS_ASSERT_OK(db.session.ExecuteScript("CREATE TABLE L0T (X:INT);"));
  auto after = PumpOne(&service, service.Submit(q));
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->l0_hit);  // stale entry dropped, full pipeline reran
  L0Cache::Stats ls = service.l0_cache().GetStats();
  EXPECT_EQ(ls.hits, 0u);
  EXPECT_EQ(ls.invalidations, 1u);
  // The rerun repopulated L0 under the new epoch.
  auto warm = PumpOne(&service, service.Submit(q));
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->l0_hit);
}

TEST(QueryServiceTest, L0EvictsLeastRecentlyUsedAtCapacity) {
  testutil::FilmDb db;
  ServiceOptions options = PumpedOptions();
  options.l0_capacity = 1;
  QueryService service(&db.session, options);
  EDS_ASSERT_OK(service.Start());
  const char* a = "SELECT Winner FROM BEATS WHERE Winner > 7";
  const char* b = "SELECT Loser FROM BEATS WHERE Loser > 2";
  ASSERT_TRUE(PumpOne(&service, service.Submit(a)).ok());
  ASSERT_TRUE(PumpOne(&service, service.Submit(b)).ok());  // evicts `a`
  auto again = PumpOne(&service, service.Submit(a));
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->l0_hit);
  L0Cache::Stats ls = service.l0_cache().GetStats();
  EXPECT_GE(ls.evictions, 1u);
  EXPECT_EQ(ls.entries, 1u);
}

TEST(QueryServiceTest, L0DisabledNeverConsultsTheCache) {
  testutil::FilmDb db;
  ServiceOptions options = PumpedOptions();
  options.l0_capacity = 0;
  QueryService service(&db.session, options);
  EDS_ASSERT_OK(service.Start());
  const char* q = "SELECT Winner FROM BEATS WHERE Winner > 7";
  ASSERT_TRUE(PumpOne(&service, service.Submit(q)).ok());
  auto repeat = PumpOne(&service, service.Submit(q));
  ASSERT_TRUE(repeat.ok());
  EXPECT_FALSE(repeat->l0_hit);
  L0Cache::Stats ls = service.l0_cache().GetStats();
  EXPECT_EQ(ls.hits + ls.misses + ls.inserts, 0u);
}

TEST(QueryServiceTest, MetricsExportersUseDottedNames) {
  obs::MetricsRegistry registry;
  PlanCache::Stats cs;
  cs.hits = 3;
  ServiceStats ss;
  ss.admitted = 5;
  ExportCacheStats(cs, &registry);
  ExportServiceStats(ss, &registry);
  L0Cache::Stats ls;
  ls.hits = 2;
  ExportL0Stats(ls, &registry);
  std::string json = registry.ToJson();
  EXPECT_NE(json.find("cache.hits"), std::string::npos) << json;
  EXPECT_NE(json.find("srv.admitted"), std::string::npos) << json;
  EXPECT_NE(json.find("srv.l0.hits"), std::string::npos) << json;
}

TEST(QueryServiceTest, MergedTraceCarriesWorkerTids) {
  testutil::FilmDb db;
  ServiceOptions options;
  options.workers = 1;
  options.collect_traces = true;
  QueryService service(&db.session, options);
  EDS_ASSERT_OK(service.Start());
  auto r = service.Submit("SELECT Winner FROM BEATS WHERE Winner > 7").get();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  service.Stop();
  std::ostringstream os;
  service.WriteMergedTrace(os);
  std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("srv.query"), std::string::npos);
  EXPECT_NE(json.find("phase.parse"), std::string::npos);
}

}  // namespace
}  // namespace eds::srv
