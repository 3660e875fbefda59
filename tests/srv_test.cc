// The serving layer: fingerprinting, the plan cache, admission
// control, and the cached query pipeline. Deterministic tests run with
// workers=0 and pump the queue on the test thread; the threaded paths live
// in srv_stress_test.cc.
#include <sstream>

#include "esql/parser.h"
#include "esql/translator.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
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
  ASSERT_FALSE(fp.params.empty());
  auto back = InstantiatePlan(fp.tmpl, fp.params);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->get(), raw.get());  // hash-consed: same node
}

TEST(FingerprintTest, RecursivePlansShareOneTemplate) {
  testutil::FilmDb db;
  EDS_ASSERT_OK(db.session.ExecuteScript(R"(
    CREATE VIEW BETTER_THAN (W, L) AS (
      SELECT Winner, Loser FROM BEATS
      UNION
      SELECT B1.W, B2.L FROM BETTER_THAN B1, BETTER_THAN B2
      WHERE B1.L = B2.W );
  )"));
  Fingerprint f1 = FingerprintPlan(
      RawPlan(&db.session, "SELECT W FROM BETTER_THAN WHERE W = 1"));
  Fingerprint f2 = FingerprintPlan(
      RawPlan(&db.session, "SELECT W FROM BETTER_THAN WHERE W = 2"));
  // A FIX plan is parameterized like any other: magic-set adornment reads
  // which column a literal binds, never its value.
  EXPECT_EQ(f1.tmpl.get(), f2.tmpl.get());
  ASSERT_EQ(f1.params.size(), 1u);
  ASSERT_EQ(f2.params.size(), 1u);
  EXPECT_EQ(f1.params[0]->constant(), Value::Int(1));
  EXPECT_EQ(f2.params[0]->constant(), Value::Int(2));
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
  config.max_nodes = 12;  // three 4-node entries
  PlanCache cache(config);
  cache.Insert(MakeKey(T(1)), T(101));
  cache.Insert(MakeKey(T(2)), T(102));
  cache.Insert(MakeKey(T(3)), T(103));
  // T(1)'s hit moves it to the head, so T(2) is now least recently used.
  EXPECT_TRUE(cache.Lookup(MakeKey(T(1))).has_value());
  cache.Insert(MakeKey(T(4)), T(104));
  PlanCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.nodes, 12u);
  EXPECT_FALSE(cache.Lookup(MakeKey(T(2))).has_value());
  EXPECT_TRUE(cache.Lookup(MakeKey(T(1))).has_value());
  EXPECT_TRUE(cache.Lookup(MakeKey(T(3))).has_value());
  EXPECT_TRUE(cache.Lookup(MakeKey(T(4))).has_value());
}

TEST(PlanCacheTest, NodesStayUnderTheCeilingUnlessOneEntryExceedsIt) {
  PlanCache::Config config;
  config.max_nodes = 64;
  PlanCache cache(config);
  for (int i = 1; i <= 100; ++i) {
    // Entries of varying size: i % 7 extra constants charge 4 + i % 7.
    term::TermList args = {term::Term::Constant(Value::Int(i))};
    for (int k = 0; k < i % 7; ++k) {
      args.push_back(term::Term::Constant(Value::Int(k)));
    }
    cache.Insert(MakeKey(T(i)), term::Term::Apply("PLAN", args));
    ASSERT_LE(cache.GetStats().nodes, 64u) << "after insert " << i;
  }
  // One entry that alone exceeds the ceiling is still cached, and the
  // cache then holds it and nothing else.
  term::TermList wide;
  for (int k = 0; k < 100; ++k) {
    wide.push_back(term::Term::Constant(Value::Int(k)));
  }
  term::TermRef big = term::Term::Apply("PLAN", wide);
  cache.Insert(MakeKey(T(1000)), big);
  PlanCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.nodes, 2 + big->node_count());
  auto hit = cache.Lookup(MakeKey(T(1000)));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->get(), big.get());
}

TEST(PlanCacheTest, DropStaleAndInvalidateAllReclaimEveryNode) {
  PlanCache cache;
  // A and B under epochs (1, 1), C and D under (2, 1); A and C are hit.
  cache.Insert(MakeKey(T(1), 1, 1), T(101));
  cache.Insert(MakeKey(T(2), 1, 1), T(102));
  cache.Insert(MakeKey(T(3), 2, 1), T(103));
  cache.Insert(MakeKey(T(4), 2, 1), T(104));
  ASSERT_TRUE(cache.Lookup(MakeKey(T(1), 1, 1)).has_value());
  ASSERT_TRUE(cache.Lookup(MakeKey(T(3), 2, 1)).has_value());
  PlanCache::Stats stats = cache.GetStats();
  ASSERT_EQ(stats.entries, 4u);
  ASSERT_EQ(stats.nodes, 16u);

  cache.DropStale(2, 1);  // drops A and B
  stats = cache.GetStats();
  EXPECT_EQ(stats.invalidations, 2u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.nodes, 8u);  // C + D
  EXPECT_EQ(cache.Snapshot().size(), 2u);
  EXPECT_FALSE(cache.Lookup(MakeKey(T(1), 1, 1)).has_value());
  EXPECT_FALSE(cache.Lookup(MakeKey(T(2), 1, 1)).has_value());
  EXPECT_TRUE(cache.Lookup(MakeKey(T(3), 2, 1)).has_value());

  cache.InvalidateAll();  // C and D
  stats = cache.GetStats();
  EXPECT_EQ(stats.invalidations, 4u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.nodes, 0u);
  EXPECT_TRUE(cache.Snapshot().empty());
  EXPECT_FALSE(cache.Lookup(MakeKey(T(3), 2, 1)).has_value());
  EXPECT_FALSE(cache.Lookup(MakeKey(T(4), 2, 1)).has_value());
}

// Hits and refreshes both move an entry to the head; a snapshot lists
// the entries most recently used first.
TEST(PlanCacheTest, SnapshotListsMostRecentlyUsedFirst) {
  PlanCache cache;
  for (int i = 1; i <= 3; ++i) cache.Insert(MakeKey(T(i)), T(100 + i));
  ASSERT_TRUE(cache.Lookup(MakeKey(T(1))).has_value());
  cache.Insert(MakeKey(T(2)), T(202));
  std::vector<PlanCache::SnapshotEntry> snap = cache.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].tmpl.get(), T(2).get());
  EXPECT_EQ(snap[0].normal_form.get(), T(202).get());
  EXPECT_EQ(snap[1].tmpl.get(), T(1).get());
  EXPECT_EQ(snap[1].hits, 1u);
  EXPECT_EQ(snap[2].tmpl.get(), T(3).get());
}

TEST(PlanCacheTest, OversizedEntryStillCached) {
  PlanCache::Config config;
  config.max_nodes = 1;  // smaller than any entry
  PlanCache cache(config);
  cache.Insert(MakeKey(T(1)), T(101));
  // The lone entry survives even though it exceeds the budget.
  EXPECT_TRUE(cache.Lookup(MakeKey(T(1))).has_value());
}

// Every entry exceeds a one-node ceiling, so the cache holds exactly one:
// the next insert evicts even an entry that has been hit.
TEST(PlanCacheTest, OneNodeCeilingHoldsOneEntry) {
  PlanCache::Config config;
  config.max_nodes = 1;
  PlanCache cache(config);
  cache.Insert(MakeKey(T(1)), T(101));
  ASSERT_TRUE(cache.Lookup(MakeKey(T(1))).has_value());
  cache.Insert(MakeKey(T(2)), T(102));
  PlanCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_FALSE(cache.Lookup(MakeKey(T(1))).has_value());
  EXPECT_TRUE(cache.Lookup(MakeKey(T(2))).has_value());
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
  config.max_nodes = 64;  // sixteen 4-node entries
  PlanCache cache(config);
  for (int i = 1; i <= 16; ++i) cache.Insert(MakeKey(T(i)), T(100 + i));
  ASSERT_EQ(cache.GetStats().nodes, 64u);
  ASSERT_EQ(cache.GetStats().evictions, 0u);
  // Refresh T(1) with a 4-node normal form: its charge grows 4 -> 6, and
  // the refresh moves it to the head.
  term::TermRef bigger =
      term::Term::Apply("PLAN", {T(201), term::Term::Constant(Value::Int(7))});
  ASSERT_EQ(bigger->node_count(), 4u);
  cache.Insert(MakeKey(T(1)), bigger);
  // The cache went over its 64 nodes, so its least recently used entry,
  // T(2), was evicted.
  PlanCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 15u);
  EXPECT_EQ(stats.nodes, 62u);
  auto hit = cache.Lookup(MakeKey(T(1)));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->get(), bigger.get());
  EXPECT_FALSE(cache.Lookup(MakeKey(T(2))).has_value());
  EXPECT_TRUE(cache.Lookup(MakeKey(T(3))).has_value());
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
  // A template's first sighting is served but not stored.
  EXPECT_FALSE(served->cache_stored);
  EXPECT_EQ(service.admission_deferrals(), 1u);
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
  // The template's second sighting stores its plan.
  auto stored = PumpOne(
      &service, service.Submit("SELECT Winner FROM BEATS WHERE Winner > 5"));
  ASSERT_TRUE(stored.ok());
  EXPECT_FALSE(stored->cache_hit);
  EXPECT_TRUE(stored->cache_stored);

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

// The latency histograms allocate their shards on first use, so a service
// kept on the stack (bench_e2e's server) is small until its workers record.
TEST(QueryServiceTest, ServiceObjectStaysSmall) {
  EXPECT_LE(sizeof(QueryService), 64u * 1024);
}

// ---------------- admission on a template's second sighting -----------

// A stream of one-shot templates is served, rewritten once each, and
// stores nothing: each first sighting leaves only its hash behind.
TEST(QueryServiceTest, OneShotTemplateFloodStoresNothing) {
  testutil::FilmDb db;
  QueryService service(&db.session, PumpedOptions());
  EDS_ASSERT_OK(service.Start());
  constexpr int kTemplates = 10000;
  for (int i = 0; i < kTemplates; ++i) {
    // The bits of i + 2 below its leading one pick Winner/Loser for each
    // projected column: every i gets its own projection list, hence its
    // own template.
    std::string cols;
    for (int bit = 31 - __builtin_clz(static_cast<unsigned>(i + 2)) - 1;
         bit >= 0; --bit) {
      if (!cols.empty()) cols += ", ";
      cols += ((i + 2) >> bit) & 1 ? "Loser" : "Winner";
    }
    auto served = PumpOne(
        &service, service.Submit("SELECT " + cols + " FROM BEATS"));
    ASSERT_TRUE(served.ok()) << cols << ": " << served.status().ToString();
    ASSERT_FALSE(served->cache_hit) << cols;
    ASSERT_FALSE(served->cache_stored) << cols;
    ASSERT_EQ(served->result.rows.size(), 9u) << cols;
  }
  obs::MetricsRegistry registry;
  service.ExportMetrics(&registry);
  EXPECT_EQ(registry.Get("cache.entries"), 0.0);
  EXPECT_EQ(registry.Get("cache.nodes"), 0.0);
  EXPECT_EQ(registry.Get("cache.inserts"), 0.0);
  EXPECT_EQ(registry.Get("cache.admission_deferrals"),
            static_cast<double>(kTemplates));
  EXPECT_EQ(service.admission_deferrals(), static_cast<uint64_t>(kTemplates));
}

// First sighting: rewritten, not stored. Second: rewritten and stored.
// Third: a hit that skips the rewrite and answers for its own literal.
TEST(QueryServiceTest, TemplateHitsFromItsThirdSighting) {
  testutil::FilmDb db;
  QueryService service(&db.session, PumpedOptions());
  EDS_ASSERT_OK(service.Start());
  auto first = PumpOne(
      &service, service.Submit("SELECT Winner FROM BEATS WHERE Winner > 7"));
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->cache_hit);
  EXPECT_FALSE(first->cache_stored);
  EXPECT_EQ(service.cache().GetStats().entries, 0u);
  EXPECT_EQ(service.admission_deferrals(), 1u);

  auto second = PumpOne(
      &service, service.Submit("SELECT Winner FROM BEATS WHERE Winner > 5"));
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->cache_hit);
  EXPECT_TRUE(second->cache_stored);
  EXPECT_GT(second->result.phase_times.rewrite_ns, 0u);
  EXPECT_EQ(service.cache().GetStats().entries, 1u);

  auto third = PumpOne(
      &service, service.Submit("SELECT Winner FROM BEATS WHERE Winner > 3"));
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third->cache_hit);
  EXPECT_EQ(third->result.phase_times.rewrite_ns, 0u);
  auto direct = db.session.Query("SELECT Winner FROM BEATS WHERE Winner > 3");
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(third->result.rows, direct->rows);
  EXPECT_EQ(service.admission_deferrals(), 1u);
}

// The ghost list keys on the template alone, not the epochs: a DDL between
// a template's two sightings does not make the second a first again.
TEST(QueryServiceTest, DdlBetweenSightingsStillAdmits) {
  testutil::FilmDb db;
  QueryService service(&db.session, PumpedOptions());
  EDS_ASSERT_OK(service.Start());
  auto first = PumpOne(
      &service, service.Submit("SELECT Winner FROM BEATS WHERE Winner > 7"));
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->cache_stored);
  EDS_ASSERT_OK(db.session.ExecuteScript("CREATE TABLE ADMIT_T (A : INT);"));

  auto second = PumpOne(
      &service, service.Submit("SELECT Winner FROM BEATS WHERE Winner > 5"));
  ASSERT_TRUE(second.ok());
  EXPECT_GT(second->catalog_epoch, first->catalog_epoch);
  EXPECT_FALSE(second->cache_hit);
  EXPECT_TRUE(second->cache_stored);
  auto third = PumpOne(
      &service, service.Submit("SELECT Winner FROM BEATS WHERE Winner > 3"));
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third->cache_hit);
  EXPECT_EQ(service.admission_deferrals(), 1u);
}

TEST(QueryServiceTest, DdlBumpsEpochAndInvalidatesLazily) {
  testutil::FilmDb db;
  QueryService service(&db.session, PumpedOptions());
  EDS_ASSERT_OK(service.Start());
  const char* q = "SELECT Winner FROM BEATS WHERE Winner > 7";
  // The template's first sighting, so that `q` is its second and stored.
  const char* first_sighting = "SELECT Winner FROM BEATS WHERE Winner > 8";
  ASSERT_TRUE(PumpOne(&service, service.Submit(first_sighting)).ok());
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
  SubmitOptions opts;
  opts.cancel = &cancel;
  auto f = service.Submit("SELECT Winner FROM BEATS", opts);
  cancel.Cancel();
  auto r = PumpOne(&service, std::move(f));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("cancelled"), std::string::npos);
}

TEST(QueryServiceTest, RecursiveQueriesHitAcrossLiterals) {
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
  // The template's second sighting stores its focused fixpoint.
  auto stored = PumpOne(&service, service.Submit(q));
  ASSERT_TRUE(stored.ok());
  EXPECT_FALSE(stored->cache_hit);
  EXPECT_TRUE(stored->cache_stored);
  EXPECT_EQ(stored->result.rewrite_stats.applications_by_rule.count(
                "push_search_fixpoint"),
            1u);
  // Another literal: the same template, a hit that skips the rewrite and
  // answers for its own literal.
  const char* other = "SELECT W FROM BETTER_THAN WHERE W = 2";
  auto hit = PumpOne(&service, service.Submit(other));
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_TRUE(hit->cache_hit);
  EXPECT_EQ(hit->result.phase_times.rewrite_ns, 0u);
  auto direct = db.session.Query(other);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_FALSE(direct->rows.empty());
  EXPECT_EQ(hit->result.rows, direct->rows);
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
  // The service rewrites the parameterized template and Session::Query
  // the literal plan; the safety stop must read the same from both.
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

// The governor budget binds the L0 replay too: the first serves and the
// third (an L0 hit) all fail on the row ceiling.
TEST(QueryServiceTest, RowBudgetGovernsTheL0Replay) {
  testutil::FilmDb db;
  ServiceOptions options = PumpedOptions();
  options.base_limits.max_rows = 1;
  QueryService service(&db.session, options);
  EDS_ASSERT_OK(service.Start());
  const char* q = "SELECT Winner, Loser FROM BEATS";
  // The text's first sighting, then its second (stored), then the hit.
  for (int i = 0; i < 3; ++i) {
    auto r = PumpOne(&service, service.Submit(q));
    ASSERT_FALSE(r.ok()) << "serve " << i;
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  }
  L0Cache::Stats ls = service.l0_cache().GetStats();
  EXPECT_EQ(ls.inserts, 1u);
  EXPECT_EQ(ls.hits, 1u);  // the last serve replayed the L0 plan
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

// A one-entry L0 is a one-entry LRU: an insert evicts even an entry that
// has been hit.
TEST(L0CacheTest, CapacityBoundsEntriesAfterAHit) {
  L0Cache l0(1);
  l0.Insert("A", L0Cache::Entry{});
  ASSERT_TRUE(l0.Lookup("A", 0, 0).has_value());
  l0.Insert("B", L0Cache::Entry{});
  L0Cache::Stats stats = l0.GetStats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_FALSE(l0.Lookup("A", 0, 0).has_value());
  EXPECT_TRUE(l0.Lookup("B", 0, 0).has_value());
}

TEST(L0CacheTest, EvictsLeastRecentlyUsedAndSnapshotsMostRecentFirst) {
  L0Cache l0(3);
  for (const char* text : {"A", "B", "C"}) l0.Insert(text, L0Cache::Entry{});
  ASSERT_TRUE(l0.Lookup("A", 0, 0).has_value());  // B is now the tail
  l0.Insert("D", L0Cache::Entry{});
  EXPECT_EQ(l0.GetStats().evictions, 1u);
  std::vector<L0Cache::SnapshotEntry> snap = l0.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].key, "D");
  EXPECT_EQ(snap[1].key, "A");
  EXPECT_EQ(snap[1].hits, 1u);
  EXPECT_EQ(snap[2].key, "C");
}

// ---------------- L0 admission on a text's second sighting ------------

// 10k distinct texts, each seen once, leave L0 empty: every one is a
// deferred first sighting. They share one template, which the plan cache
// stores on its second sighting as usual.
TEST(QueryServiceTest, OneShotTextFloodStoresNothingInL0) {
  testutil::FilmDb db;
  QueryService service(&db.session, PumpedOptions());
  EDS_ASSERT_OK(service.Start());
  constexpr int kTexts = 10000;
  for (int i = 0; i < kTexts; ++i) {
    auto served = PumpOne(
        &service, service.Submit("SELECT Winner FROM BEATS WHERE Winner > " +
                                 std::to_string(i)));
    ASSERT_TRUE(served.ok()) << i << ": " << served.status().ToString();
    ASSERT_FALSE(served->l0_hit) << i;
  }
  obs::MetricsRegistry registry;
  service.ExportMetrics(&registry);
  EXPECT_EQ(registry.Get("srv.l0.entries"), 0.0);
  EXPECT_EQ(registry.Get("srv.l0.inserts"), 0.0);
  EXPECT_EQ(registry.Get("srv.l0.admission_deferrals"),
            static_cast<double>(kTexts));
  EXPECT_EQ(service.l0_admission_deferrals(), static_cast<uint64_t>(kTexts));
  EXPECT_EQ(registry.Get("cache.entries"), 1.0);
}

// First sighting: served, not stored. Second: stored. Third: an L0 hit.
TEST(QueryServiceTest, TextHitsL0FromItsThirdSighting) {
  testutil::FilmDb db;
  QueryService service(&db.session, PumpedOptions());
  EDS_ASSERT_OK(service.Start());
  const char* q = "SELECT Winner FROM BEATS WHERE Winner > 7";
  auto first = PumpOne(&service, service.Submit(q));
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->l0_hit);
  EXPECT_EQ(service.l0_cache().GetStats().entries, 0u);
  EXPECT_EQ(service.l0_admission_deferrals(), 1u);

  auto second = PumpOne(&service, service.Submit(q));
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->l0_hit);
  EXPECT_EQ(service.l0_cache().GetStats().entries, 1u);

  auto third = PumpOne(&service, service.Submit(q));
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third->l0_hit);
  EXPECT_EQ(third->result.rows, first->result.rows);
  EXPECT_EQ(service.l0_admission_deferrals(), 1u);
}

// The text ghost list keys on the normalized text alone, not the epochs:
// a DDL between a text's two sightings does not make the second a first.
TEST(QueryServiceTest, DdlBetweenTextSightingsStillAdmits) {
  testutil::FilmDb db;
  QueryService service(&db.session, PumpedOptions());
  EDS_ASSERT_OK(service.Start());
  const char* q = "SELECT Winner FROM BEATS WHERE Winner > 7";
  auto first = PumpOne(&service, service.Submit(q));
  ASSERT_TRUE(first.ok());
  EDS_ASSERT_OK(db.session.ExecuteScript("CREATE TABLE ADMIT_L0 (A : INT);"));

  auto second = PumpOne(&service, service.Submit(q));
  ASSERT_TRUE(second.ok());
  EXPECT_GT(second->catalog_epoch, first->catalog_epoch);
  EXPECT_FALSE(second->l0_hit);
  EXPECT_EQ(service.l0_cache().GetStats().inserts, 1u);
  auto third = PumpOne(&service, service.Submit(q));
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third->l0_hit);
  EXPECT_EQ(service.l0_admission_deferrals(), 1u);
}

// The text ghost list holds the last `l0_capacity` deferred texts: a text
// whose second sighting comes after that many other first sightings is
// deferred again.
TEST(QueryServiceTest, TextGhostListIsBoundedByL0Capacity) {
  testutil::FilmDb db;
  ServiceOptions options = PumpedOptions();
  options.l0_capacity = 4;
  QueryService service(&db.session, options);
  EDS_ASSERT_OK(service.Start());
  auto serve = [&](const std::string& text) {
    auto served = PumpOne(&service, service.Submit(text));
    EXPECT_TRUE(served.ok()) << text << ": " << served.status().ToString();
  };
  auto other = [](int i) {
    return "SELECT Loser FROM BEATS WHERE Loser > " + std::to_string(i);
  };
  const std::string old = "SELECT Winner FROM BEATS WHERE Winner > 7";
  serve(old);
  for (int i = 0; i < 4; ++i) serve(other(i));
  // Four later first sightings pushed OLD out of the ghost list.
  serve(old);
  EXPECT_EQ(service.l0_admission_deferrals(), 6u);
  EXPECT_EQ(service.l0_cache().GetStats().entries, 0u);
  // Its third sighting finds it remembered again.
  serve(old);
  EXPECT_EQ(service.l0_cache().GetStats().entries, 1u);
  // other(0) has been forgotten too, so it is deferred again; other(3) is
  // still remembered, so its second sighting is stored.
  serve(other(0));
  EXPECT_EQ(service.l0_cache().GetStats().entries, 1u);
  serve(other(3));
  EXPECT_EQ(service.l0_cache().GetStats().entries, 2u);
  EXPECT_EQ(service.l0_admission_deferrals(), 7u);
}

TEST(QueryServiceTest, L0HitSkipsFrontHalfOfPipeline) {
  testutil::FilmDb db;
  QueryService service(&db.session, PumpedOptions());
  EDS_ASSERT_OK(service.Start());
  const char* q = "SELECT Winner, Loser FROM BEATS WHERE Winner > 7";
  // The text's first sighting, so that `first` is its second and stored.
  ASSERT_TRUE(PumpOne(&service, service.Submit(q)).ok());
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
  EXPECT_EQ(ls.misses, 2u);
  EXPECT_EQ(ls.inserts, 1u);
  EXPECT_EQ(ls.entries, 1u);
}

TEST(QueryServiceTest, L0EntriesDieOnEpochBump) {
  testutil::FilmDb db;
  QueryService service(&db.session, PumpedOptions());
  EDS_ASSERT_OK(service.Start());
  const char* q = "SELECT Winner FROM BEATS WHERE Winner > 7";
  // The text's first sighting, so that the next one stores it.
  ASSERT_TRUE(PumpOne(&service, service.Submit(q)).ok());
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
  // Each text's first sighting, so that its second is stored.
  ASSERT_TRUE(PumpOne(&service, service.Submit(a)).ok());
  ASSERT_TRUE(PumpOne(&service, service.Submit(a)).ok());
  ASSERT_TRUE(PumpOne(&service, service.Submit(b)).ok());
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

// A query whose L0 key is over the size cap is still served, through the
// full front half, and never lands in L0.
TEST(QueryServiceTest, OversizeTextBypassesL0AndIsStillServed) {
  testutil::FilmDb db;
  const std::string q =
      "SELECT Title FROM FILM WHERE Title <> '" +
      std::string(L0Cache::kDefaultMaxKeyBytes + 1, 'x') + "'";
  auto expected = db.session.Query(q);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  QueryService service(&db.session, PumpedOptions());
  EDS_ASSERT_OK(service.Start());
  for (int i = 0; i < 2; ++i) {
    auto served = PumpOne(&service, service.Submit(q));
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_FALSE(served->l0_hit);
    EXPECT_EQ(served->result.rows, expected->rows);
  }
  obs::MetricsRegistry registry;
  service.ExportMetrics(&registry);
  EXPECT_GE(registry.Get("srv.l0.oversize_rejects"), 2.0);
  EXPECT_EQ(registry.Get("srv.l0.entries"), 0.0);
}

size_t CountOccurrences(const std::string& text, const std::string& needle) {
  size_t n = 0;
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

// Merges the worker sinks into one Chrome trace, tid = worker id + 2 (tid 1
// is the submitting thread's, as in eds_shell's --trace-out).
void WriteWorkerTrace(const QueryService& service, std::ostream& os) {
  std::vector<obs::SinkWithTid> sinks;
  std::vector<const obs::TraceSink*> workers = service.worker_sinks();
  for (size_t i = 0; i < workers.size(); ++i) {
    sinks.push_back({workers[i], static_cast<int>(i) + 2});
  }
  obs::WriteMergedChromeTrace(os, sinks);
}

// With collect_traces on, a slow query's trace is only its own spans (the
// events after its mark in the worker sink), while the worker sink keeps
// every query for the merged trace.
TEST(QueryServiceTest, SlowCaptureWithCollectTracesKeepsBoth) {
  testutil::FilmDb db;
  ServiceOptions options = PumpedOptions();
  options.collect_traces = true;
  options.slow_query_ns = 1;  // every query is slow
  QueryService service(&db.session, options);
  EDS_ASSERT_OK(service.Start());
  constexpr int kQueries = 5;
  for (int i = 0; i < kQueries; ++i) {
    ASSERT_TRUE(PumpOne(&service,
                        service.Submit("SELECT Winner FROM BEATS WHERE "
                                       "Winner > " + std::to_string(i)))
                    .ok());
  }
  const std::string query_event = "\"name\":\"srv.query\"";
  std::vector<QueryRecord> records = service.RecentQueries();
  ASSERT_EQ(records.size(), static_cast<size_t>(kQueries));
  for (const QueryRecord& rec : records) {
    ASSERT_TRUE(rec.slow);
    EXPECT_EQ(CountOccurrences(rec.trace_json, query_event), 1u)
        << rec.trace_json;
    EXPECT_NE(rec.trace_json.find(rec.text), std::string::npos)
        << rec.trace_json;
  }
  std::ostringstream merged;
  WriteWorkerTrace(service, merged);
  EXPECT_EQ(CountOccurrences(merged.str(), query_event),
            static_cast<size_t>(kQueries));
  service.Stop();
}

// With only a slow threshold, the worker sink holds one query at a time.
TEST(QueryServiceTest, SlowCaptureWithoutCollectTracesEmptiesTheSink) {
  testutil::FilmDb db;
  ServiceOptions options = PumpedOptions();
  options.slow_query_ns = 1;
  QueryService service(&db.session, options);
  EDS_ASSERT_OK(service.Start());
  std::vector<const obs::TraceSink*> sinks = service.worker_sinks();
  ASSERT_EQ(sinks.size(), 1u);  // the workers == 0 pump's sink
  ASSERT_NE(sinks[0], nullptr);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(PumpOne(&service,
                        service.Submit("SELECT Loser FROM BEATS WHERE "
                                       "Loser > " + std::to_string(i)))
                    .ok());
    EXPECT_EQ(sinks[0]->size(), 0u);
    EXPECT_FALSE(service.RecentQueries(1)[0].trace_json.empty());
  }
  service.Stop();
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

TEST(QueryServiceTest, LevelMetricsExportAsGauges) {
  // Sizes fall on eviction and sweeps; typed as counters, Prometheus
  // rate() would read every drop as a counter reset.
  obs::MetricsRegistry registry;
  ExportCacheStats(PlanCache::Stats{}, &registry);
  ExportL0Stats(L0Cache::Stats{}, &registry);
  obs::ExportInternerStats(term::Interner::Stats{}, &registry);
  const std::string prom = registry.ToPrometheus();
  for (const char* gauge :
       {"cache_entries", "cache_nodes", "srv_l0_entries", "interner_entries"}) {
    EXPECT_NE(prom.find(std::string("# TYPE ") + gauge + " gauge\n"),
              std::string::npos)
        << gauge << "\n" << prom;
  }
  for (const char* counter : {"cache_evictions", "srv_l0_evictions"}) {
    EXPECT_NE(prom.find(std::string("# TYPE ") + counter + " counter\n"),
              std::string::npos)
        << counter << "\n" << prom;
  }
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
  WriteWorkerTrace(service, os);
  std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("srv.query"), std::string::npos);
  EXPECT_NE(json.find("phase.parse"), std::string::npos);
}

}  // namespace
}  // namespace eds::srv
