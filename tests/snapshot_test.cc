// Snapshot-isolated serving: ServingSnapshot immutability, atomic
// publication on DDL, snapshot pinning (in-flight queries drain on the
// snapshot they were admitted under while DDL publishes the successor),
// epoch-keyed cache invalidation, and per-tenant weighted admission.
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "gtest/gtest.h"
#include "srv/service.h"
#include "srv/snapshot.h"
#include "testutil.h"

namespace eds::srv {
namespace {

using value::Value;

ServiceOptions ThreadedOptions(size_t workers) {
  ServiceOptions options;
  options.workers = workers;
  return options;
}

// ---------------- snapshot construction ----------------

TEST(SnapshotTest, BuildClonesTheCatalog) {
  testutil::FilmDb db;
  Result<SnapshotRef> snap =
      BuildSnapshot(db.session.catalog(), db.session.optimizer_options(),
                    db.session.rules_epoch());
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  ASSERT_NE((*snap)->catalog, nullptr);
  ASSERT_NE((*snap)->optimizer, nullptr);
  EXPECT_EQ((*snap)->catalog_epoch, db.session.catalog().epoch());
  // The clone is frozen: later DDL on the live catalog is invisible to it.
  ASSERT_TRUE(db.session.ExecuteScript("TABLE LATER (x : NUMERIC);").ok());
  EXPECT_TRUE(db.session.catalog().FindTable("LATER").ok());
  EXPECT_FALSE((*snap)->catalog->FindTable("LATER").ok());
  EXPECT_NE((*snap)->catalog_epoch, db.session.catalog().epoch());
}

TEST(SnapshotTest, PublisherSwapsAtomically) {
  testutil::FilmDb db;
  SnapshotPublisher publisher;
  EXPECT_EQ(publisher.Current(), nullptr);
  Result<SnapshotRef> a =
      BuildSnapshot(db.session.catalog(), db.session.optimizer_options(), 0);
  ASSERT_TRUE(a.ok());
  publisher.Publish(*a);
  EXPECT_EQ(publisher.Current(), *a);
  EXPECT_EQ(publisher.publish_count(), 1u);
  Result<SnapshotRef> b =
      BuildSnapshot(db.session.catalog(), db.session.optimizer_options(), 1);
  ASSERT_TRUE(b.ok());
  publisher.Publish(*b);
  EXPECT_EQ(publisher.Current(), *b);
  EXPECT_EQ(publisher.publish_count(), 2u);
  // The old ref stays valid for whoever pinned it (shared ownership).
  EXPECT_NE((*a)->catalog, nullptr);
}

// ---------------- ApplyDdl publication ----------------

TEST(SnapshotTest, ApplyDdlPublishesNewSnapshot) {
  testutil::FilmDb db;
  QueryService service(&db.session, ThreadedOptions(1));
  ASSERT_TRUE(service.Start().ok());
  SnapshotRef before = service.current_snapshot();
  ASSERT_NE(before, nullptr);
  ASSERT_TRUE(service.ApplyDdl("TABLE EXTRA (x : NUMERIC);").ok());
  SnapshotRef after = service.current_snapshot();
  ASSERT_NE(after, nullptr);
  EXPECT_NE(before, after);
  EXPECT_GT(after->catalog_epoch, before->catalog_epoch);
  EXPECT_TRUE(after->catalog->FindTable("EXTRA").ok());
  EXPECT_FALSE(before->catalog->FindTable("EXTRA").ok());
  EXPECT_EQ(service.GetStats().ddl_applied, 1u);
  service.Stop();
}

TEST(SnapshotTest, ApplyDdlRejectsSelect) {
  testutil::FilmDb db;
  QueryService service(&db.session, ThreadedOptions(1));
  ASSERT_TRUE(service.Start().ok());
  Status s = service.ApplyDdl("SELECT Winner FROM BEATS;");
  EXPECT_FALSE(s.ok());
  // Nothing was applied and no new snapshot published for a rejected
  // script.
  EXPECT_EQ(service.GetStats().ddl_applied, 0u);
  service.Stop();
}

TEST(SnapshotTest, DirectSessionDdlWhileIdleIsPickedUpOnNextSubmit) {
  testutil::FilmDb db;
  QueryService service(&db.session, ThreadedOptions(1));
  ASSERT_TRUE(service.Start().ok());
  const uint64_t epoch_before = service.current_snapshot()->catalog_epoch;
  // The legacy pattern (shell DDL between serves, workers idle): mutate
  // the live session directly, then submit — MaybeRefreshSnapshot notices
  // the epoch divergence at admission.
  ASSERT_TRUE(db.session.ExecuteScript("TABLE SIDE (x : NUMERIC);").ok());
  auto served =
      service.Submit("SELECT Winner FROM BEATS WHERE Winner > 1").get();
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_GT(served->catalog_epoch, epoch_before);
  EXPECT_EQ(served->catalog_epoch, db.session.catalog().epoch());
  service.Stop();
}

// ---------------- DDL under load: the drain guarantee ----------------

// In-flight queries pinned to the pre-DDL snapshot must complete with
// byte-identical results while ApplyDdl runs and returns WITHOUT waiting
// for them; queries submitted after see the new epoch.
TEST(SnapshotTest, DdlUnderLoadDrainsWithoutBlocking) {
  testutil::FilmDb db;
  ServiceOptions options = ThreadedOptions(3);
  // Queries mentioning BEATS sleep 150ms inside the serve, holding their
  // pinned snapshot in flight while the test applies DDL.
  options.test_delay_marker = "BEATS";
  options.test_delay_ns = 150'000'000ULL;
  QueryService service(&db.session, options);
  ASSERT_TRUE(service.Start().ok());
  const uint64_t old_epoch = service.current_snapshot()->catalog_epoch;

  // The expected rows, computed before any concurrency.
  auto expected = db.session.Query("SELECT Winner FROM BEATS WHERE Winner > 2");
  ASSERT_TRUE(expected.ok());

  std::vector<std::future<Result<ServedQuery>>> inflight;
  for (int i = 0; i < 3; ++i) {
    inflight.push_back(
        service.Submit("SELECT Winner FROM BEATS WHERE Winner > 2"));
  }
  // Give the workers time to dequeue and enter the injected delay.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  // Schema DDL never takes the serve gate: it must return while the
  // delayed queries are still sleeping (i.e. in well under 150ms).
  const auto ddl_start = std::chrono::steady_clock::now();
  ASSERT_TRUE(service.ApplyDdl("TABLE MID_DDL (x : NUMERIC);").ok());
  const auto ddl_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - ddl_start)
                          .count();
  EXPECT_LT(ddl_ms, 120) << "schema DDL blocked behind in-flight queries";

  // A post-DDL query (no marker -> no delay) sees the new epoch.
  auto fresh = service.Submit("SELECT Numf FROM FILM WHERE Numf > 1").get();
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_GT(fresh->catalog_epoch, old_epoch);

  // The pinned queries drain on the OLD snapshot, byte-identical.
  for (auto& f : inflight) {
    auto served = f.get();
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_EQ(served->catalog_epoch, old_epoch);
    testutil::ExpectSameRows(served->result.rows, expected->rows);
  }
  service.Stop();
}

// Both cache tiers key on the snapshot epochs: after DDL the old entries
// are dropped exactly once per reused key, then the new-epoch entries
// serve hits again.
TEST(SnapshotTest, BothCacheTiersInvalidateExactlyOnceAcrossDdl) {
  testutil::FilmDb db;
  QueryService service(&db.session, ThreadedOptions(1));
  ASSERT_TRUE(service.Start().ok());
  const std::string q = "SELECT Winner FROM BEATS WHERE Winner > 4";

  // Populate both tiers, then prove hits.
  ASSERT_TRUE(service.Submit(q).get().ok());
  auto warm = service.Submit(q).get();
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->l0_hit);

  const uint64_t plan_inv_before = service.cache().GetStats().invalidations;
  const uint64_t l0_inv_before = service.l0_cache().GetStats().invalidations;

  // The plan cache sweeps its stale-epoch entry at snapshot publication
  // (DropStale inside ApplyDdl) — eagerly, because the epoch in the key
  // makes the entry unreachable the moment the publish lands.
  ASSERT_TRUE(service.ApplyDdl("TABLE CACHE_DDL (x : NUMERIC);").ok());
  EXPECT_EQ(service.cache().GetStats().invalidations, plan_inv_before + 1);

  // The L0 tier drops its stale entry lazily at the first post-DDL lookup
  // of the same text; both tiers then repopulate under the new epochs.
  auto miss = service.Submit(q).get();
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->l0_hit);
  EXPECT_FALSE(miss->cache_hit);
  EXPECT_EQ(service.l0_cache().GetStats().invalidations, l0_inv_before + 1);
  EXPECT_EQ(service.cache().GetStats().invalidations, plan_inv_before + 1);

  // Second serve: hits again, and no further invalidations — exactly once.
  auto hit = service.Submit(q).get();
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->l0_hit);
  EXPECT_EQ(service.l0_cache().GetStats().invalidations, l0_inv_before + 1);
  EXPECT_EQ(service.cache().GetStats().invalidations, plan_inv_before + 1);
  service.Stop();
}

// ---------------- per-tenant weighted admission ----------------

TEST(TenantAdmissionTest, WeightOneReproducesBasePolicy) {
  gov::GovernorLimits base_limits;
  base_limits.deadline_ms = 1000;
  for (size_t depth : {size_t{0}, size_t{10}, size_t{32}, size_t{63}}) {
    gov::GovernorLimits base = DeriveLimits(base_limits, depth, 64);
    gov::GovernorLimits weighted =
        DeriveLimits(base_limits, depth, 64, 1.0);
    EXPECT_EQ(base.deadline_ms, weighted.deadline_ms) << "depth " << depth;
    EXPECT_EQ(base.max_rows, weighted.max_rows) << "depth " << depth;
  }
}

TEST(TenantAdmissionTest, LighterWeightTightensBudgetsUnderLoad) {
  gov::GovernorLimits base_limits;
  base_limits.deadline_ms = 1000;
  // At half capacity a weight-0.25 tenant sees the load as if the queue
  // were 4x fuller: its derived deadline must be strictly shorter than the
  // default tenant's.
  gov::GovernorLimits heavy = DeriveLimits(base_limits, 32, 64, 1.0);
  gov::GovernorLimits light = DeriveLimits(base_limits, 32, 64, 0.25);
  EXPECT_LT(light.deadline_ms, heavy.deadline_ms);
  EXPECT_LT(light.deadline_ms, base_limits.deadline_ms);
  // Nonpositive weights fall back to the default share rather than
  // dividing by zero.
  gov::GovernorLimits zero = DeriveLimits(base_limits, 32, 64, 0.0);
  EXPECT_EQ(zero.deadline_ms, heavy.deadline_ms);
}

TEST(TenantAdmissionTest, PerTenantAdmissionsAreCounted) {
  testutil::FilmDb db;
  ServiceOptions options = ThreadedOptions(1);
  options.tenant_weights["analytics"] = 0.5;
  QueryService service(&db.session, options);
  ASSERT_TRUE(service.Start().ok());
  SubmitOptions analytics;
  analytics.tenant = "analytics";
  ASSERT_TRUE(
      service.Submit("SELECT Winner FROM BEATS WHERE Winner > 1", analytics)
          .get()
          .ok());
  ASSERT_TRUE(
      service.Submit("SELECT Winner FROM BEATS WHERE Winner > 2").get().ok());
  ServiceStats stats = service.GetStats();
  EXPECT_EQ(stats.tenant_admitted["analytics"], 1u);
  EXPECT_EQ(stats.tenant_admitted[""], 1u);
  service.Stop();
}

// Tenant ids are client-supplied (HELLO), so the per-tenant tally must not
// grow without bound: past kMaxTrackedTenants distinct ids, unconfigured
// newcomers fold into "other" — while configured tenants always keep
// their own entry.
TEST(TenantAdmissionTest, TenantStatsCardinalityIsBounded) {
  testutil::FilmDb db;
  ServiceOptions options = ThreadedOptions(1);
  options.tenant_weights["vip"] = 2.0;
  QueryService service(&db.session, options);
  ASSERT_TRUE(service.Start().ok());
  const size_t kExtra = 10;
  for (size_t i = 0; i < kMaxTrackedTenants + kExtra; ++i) {
    SubmitOptions opts;
    opts.tenant = "mint-" + std::to_string(i);
    ASSERT_TRUE(
        service.Submit("SELECT Winner FROM BEATS WHERE Winner > 1", opts)
            .get()
            .ok());
  }
  // A configured tenant arriving after the cap still tracks individually.
  SubmitOptions vip;
  vip.tenant = "vip";
  ASSERT_TRUE(
      service.Submit("SELECT Winner FROM BEATS WHERE Winner > 2", vip)
          .get()
          .ok());
  ServiceStats stats = service.GetStats();
  // kMaxTrackedTenants minted ids + "other" + "vip"; never one entry per
  // minted id.
  EXPECT_LE(stats.tenant_admitted.size(), kMaxTrackedTenants + 2);
  EXPECT_EQ(stats.tenant_admitted["other"], kExtra);
  EXPECT_EQ(stats.tenant_admitted["vip"], 1u);
  service.Stop();
}

}  // namespace
}  // namespace eds::srv
