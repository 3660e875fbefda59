// Threaded serving-layer suites: N workers x M queries asserting results
// identical to the single-threaded pipeline, interner contention, and
// chaos in the cache insert path. Run these under the tsan preset — they
// are the repo's data-race detector — and under asan like everything else.
#include <string>
#include <thread>
#include <vector>

#include "gov/failpoint.h"
#include "gtest/gtest.h"
#include "srv/service.h"
#include "term/interner.h"
#include "term/term.h"
#include "testutil.h"

namespace eds::srv {
namespace {

using value::Value;

// The workload: literal variants over a few templates, cycled so every
// template is served by several threads and hits the cache after its first
// miss.
std::vector<std::string> MakeWorkload(size_t n) {
  std::vector<std::string> queries;
  queries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    switch (i % 4) {
      case 0:
        queries.push_back("SELECT Winner FROM BEATS WHERE Winner > " +
                          std::to_string(i % 9));
        break;
      case 1:
        queries.push_back("SELECT Winner, Loser FROM BEATS WHERE Loser < " +
                          std::to_string(1 + (i % 9)));
        break;
      case 2:
        queries.push_back("SELECT Title FROM FILM WHERE Numf > " +
                          std::to_string(i % 3));
        break;
      default:
        queries.push_back(
            "SELECT Numf FROM FILM WHERE Title <> 'Zorba' AND Numf < " +
            std::to_string(1 + (i % 4)));
        break;
    }
  }
  return queries;
}

class SrvStressTest : public ::testing::Test {
 protected:
  void SetUp() override { gov::FailPoints::Global().Clear(); }
  void TearDown() override { gov::FailPoints::Global().Clear(); }
};

// N worker threads x M queries: every served result must be byte-identical
// to the single-threaded Session::Query answer for the same statement.
TEST_F(SrvStressTest, ConcurrentResultsMatchSingleThreadedPipeline) {
  testutil::FilmDb db;
  const size_t kQueries = 120;
  std::vector<std::string> workload = MakeWorkload(kQueries);

  // Reference answers first, single-threaded.
  std::vector<exec::QueryResult> expected;
  expected.reserve(workload.size());
  for (const std::string& q : workload) {
    auto r = db.session.Query(q);
    ASSERT_TRUE(r.ok()) << q << ": " << r.status().ToString();
    expected.push_back(*std::move(r));
  }

  ServiceOptions options;
  options.workers = 4;
  options.queue_capacity = kQueries;  // no shedding in the comparison run
  options.l0_capacity = 0;  // the plan-cache hit tally below is the point
  QueryService service(&db.session, options);
  EDS_ASSERT_OK(service.Start());

  std::vector<std::future<Result<ServedQuery>>> futures;
  futures.reserve(workload.size());
  for (const std::string& q : workload) futures.push_back(service.Submit(q));
  for (size_t i = 0; i < futures.size(); ++i) {
    auto r = futures[i].get();
    ASSERT_TRUE(r.ok()) << workload[i] << ": " << r.status().ToString();
    EXPECT_EQ(r->result.columns, expected[i].columns) << workload[i];
    EXPECT_EQ(r->result.rows, expected[i].rows) << workload[i];
  }
  service.Stop();

  ServiceStats stats = service.GetStats();
  EXPECT_EQ(stats.admitted, kQueries);
  EXPECT_EQ(stats.completed, kQueries);
  PlanCache::Stats cs = service.cache().GetStats();
  // Four templates, many literal variants: the cache must carry the bulk.
  EXPECT_GT(cs.hits, kQueries / 2);
}

// Multiple client threads submitting against a small queue: shed requests
// fail with ResourceExhausted, everything admitted completes correctly.
TEST_F(SrvStressTest, ConcurrentSubmittersWithLoadShedding) {
  testutil::FilmDb db;
  ServiceOptions options;
  options.workers = 2;
  options.queue_capacity = 4;
  QueryService service(&db.session, options);
  EDS_ASSERT_OK(service.Start());

  const size_t kThreads = 4;
  const size_t kPerThread = 25;
  std::vector<std::thread> clients;
  std::vector<uint64_t> ok_counts(kThreads, 0);
  std::vector<uint64_t> shed_counts(kThreads, 0);
  for (size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        auto r = service
                     .Submit("SELECT Winner FROM BEATS WHERE Winner > " +
                             std::to_string(i % 9))
                     .get();
        if (r.ok()) {
          ++ok_counts[t];
        } else {
          ASSERT_EQ(r.status().code(), StatusCode::kResourceExhausted);
          ++shed_counts[t];
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  service.Stop();

  uint64_t ok_total = 0, shed_total = 0;
  for (size_t t = 0; t < kThreads; ++t) {
    ok_total += ok_counts[t];
    shed_total += shed_counts[t];
  }
  EXPECT_EQ(ok_total + shed_total, kThreads * kPerThread);
  EXPECT_GT(ok_total, 0u);
  ServiceStats stats = service.GetStats();
  EXPECT_EQ(stats.submitted, kThreads * kPerThread);
  EXPECT_EQ(stats.completed, ok_total);
  EXPECT_EQ(stats.rejected, shed_total);
  EXPECT_LE(stats.max_queue_depth, options.queue_capacity);
}

// Chaos: every cache insert fails. The service degrades to a plain rewrite
// per query — same answers, zero hits, counted insert failures.
TEST_F(SrvStressTest, CacheInsertChaosDegradesToNormalRewrite) {
  testutil::FilmDb db;
  EDS_ASSERT_OK(
      gov::FailPoints::Global().Configure("srv.cache.insert=error"));
  ServiceOptions options;
  options.workers = 2;
  options.queue_capacity = 64;
  options.l0_capacity = 0;  // every repeat must reach the plan cache
  QueryService service(&db.session, options);
  EDS_ASSERT_OK(service.Start());

  const char* q = "SELECT Winner FROM BEATS WHERE Winner > 7";
  auto direct = db.session.Query(q);
  ASSERT_TRUE(direct.ok());
  // The template's first sighting defers admission and tries no insert;
  // every serve of `q` below then tries one.
  ASSERT_TRUE(service.Submit("SELECT Winner FROM BEATS WHERE Winner > 8")
                  .get()
                  .ok());
  for (int i = 0; i < 6; ++i) {
    auto r = service.Submit(q).get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(r->cache_hit);  // nothing ever lands in the cache
    EXPECT_EQ(r->result.rows, direct->rows);
  }
  service.Stop();
  PlanCache::Stats cs = service.cache().GetStats();
  EXPECT_EQ(cs.hits, 0u);
  EXPECT_EQ(cs.entries, 0u);
  EXPECT_EQ(cs.insert_failures, 6u);
}

// Chaos only on the first insert (the template's second sighting; the
// first defers admission): the next serve repopulates and later serves
// hit — a transient insert failure heals itself.
TEST_F(SrvStressTest, TransientInsertFailureHeals) {
  testutil::FilmDb db;
  EDS_ASSERT_OK(
      gov::FailPoints::Global().Configure("srv.cache.insert=once"));
  ServiceOptions options;
  options.workers = 1;
  options.l0_capacity = 0;  // every repeat must reach the plan cache
  QueryService service(&db.session, options);
  EDS_ASSERT_OK(service.Start());
  const char* q = "SELECT Winner FROM BEATS WHERE Winner > 7";
  for (int i = 0; i < 4; ++i) {
    auto r = service.Submit(q).get();
    ASSERT_TRUE(r.ok());
  }
  service.Stop();
  PlanCache::Stats cs = service.cache().GetStats();
  EXPECT_EQ(cs.insert_failures, 1u);
  EXPECT_EQ(cs.inserts, 1u);
  EXPECT_GE(cs.hits, 1u);
}

// Hammer the sharded interner from several threads: identical structures
// built concurrently must intern to one node, and distinct streams must
// not corrupt each other. (Run under tsan: this is satellite coverage for
// the per-shard mutex split.)
TEST_F(SrvStressTest, InternerConcurrentHashConsing) {
  const size_t kThreads = 4;
  const size_t kTerms = 400;
  std::vector<std::vector<term::TermRef>> built(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      built[t].reserve(kTerms);
      for (size_t i = 0; i < kTerms; ++i) {
        // Same structure on every thread for even i; thread-distinct for
        // odd i (contention plus divergence on one table).
        int64_t v = (i % 2 == 0) ? static_cast<int64_t>(i)
                                 : static_cast<int64_t>(t * 1000 + i);
        built[t].push_back(term::Term::Apply(
            "NODE", {term::Term::Int(v),
                     term::Term::Apply("INNER", {term::Term::Int(v / 2)})}));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t i = 0; i < kTerms; i += 2) {
    for (size_t t = 1; t < kThreads; ++t) {
      ASSERT_EQ(built[0][i].get(), built[t][i].get())
          << "hash-consing diverged at term " << i;
    }
  }
  term::Interner::Stats stats = term::Interner::Global().GetStats();
  EXPECT_GT(stats.entries, 0u);
  EXPECT_GT(stats.hits, 0u);  // the even-i duplicates were consed
}

}  // namespace
}  // namespace eds::srv
