// Plan-cache persistence (srv/persist.h + srv/codec.h): codec units, the
// save/load round trip, hotness ranking, epoch staleness, load-time
// differential verification, and the warm-restart stress test — a second
// service booted from the persisted file must serve the same workload with
// >= 90% template-cache hits, zero rewrite time on hits, and byte-identical
// rows. Kill-mid-write and corrupt-file suites live in
// persist_chaos_test.cc.
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "srv/codec.h"
#include "srv/persist.h"
#include "srv/service.h"
#include "term/parser.h"
#include "testutil.h"

namespace eds::srv {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "eds_persist_" + name;
}

// ---------------- codec ----------------

TEST(CodecTest, Crc32MatchesKnownVectors) {
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);  // the classic check value
}

TEST(CodecTest, EncoderDecoderRoundTrip) {
  std::string buf;
  Encoder enc(&buf);
  enc.PutU8(7);
  enc.PutU32(0xDEADBEEFu);
  enc.PutU64(0x0123456789ABCDEFull);
  enc.PutString("hello 'world'");
  enc.PutString("");

  Decoder dec(buf, /*max_string_bytes=*/1024);
  auto u8 = dec.GetU8();
  ASSERT_TRUE(u8.ok());
  EXPECT_EQ(*u8, 7u);
  auto u32 = dec.GetU32();
  ASSERT_TRUE(u32.ok());
  EXPECT_EQ(*u32, 0xDEADBEEFu);
  auto u64 = dec.GetU64();
  ASSERT_TRUE(u64.ok());
  EXPECT_EQ(*u64, 0x0123456789ABCDEFull);
  auto s = dec.GetString();
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(*s, "hello 'world'");
  auto empty = dec.GetString();
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(*empty, "");
  EXPECT_TRUE(dec.done());
  EXPECT_FALSE(dec.GetU8().ok());  // past the end
}

TEST(CodecTest, DecoderRejectsLyingLengths) {
  std::string buf;
  Encoder enc(&buf);
  enc.PutU32(1000);  // string length prefix with no bytes behind it
  Decoder dec(buf, 1 << 20);
  EXPECT_FALSE(dec.GetString().ok());

  // A length past the string cap is rejected before any allocation.
  std::string big;
  Encoder enc2(&big);
  enc2.PutString(std::string(100, 'x'));
  Decoder capped(big, /*max_string_bytes=*/10);
  EXPECT_FALSE(capped.GetString().ok());
}

TEST(CodecTest, FileHeaderRoundTrip) {
  FileHeader header;
  header.catalog_epoch = 42;
  header.rules_epoch = 7;
  std::string buf;
  EncodeFileHeader(header, &buf);
  ASSERT_EQ(buf.size(), FileHeader::kEncodedSize);
  auto decoded = DecodeFileHeader(buf);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->version, FileHeader::kVersion);
  EXPECT_EQ(decoded->catalog_epoch, 42u);
  EXPECT_EQ(decoded->rules_epoch, 7u);
}

TEST(CodecTest, FileHeaderRejectsDamage) {
  FileHeader header;
  std::string buf;
  EncodeFileHeader(header, &buf);
  EXPECT_FALSE(DecodeFileHeader("").ok());
  EXPECT_FALSE(DecodeFileHeader(buf.substr(0, 10)).ok());
  std::string bad_magic = buf;
  bad_magic[0] = 'X';
  EXPECT_FALSE(DecodeFileHeader(bad_magic).ok());
  std::string bit_flip = buf;
  bit_flip[9] ^= 0x40;  // inside the flags word: CRC must catch it
  EXPECT_FALSE(DecodeFileHeader(bit_flip).ok());
}

TEST(CodecTest, RecordFramingSkipsBadCrcAndStopsOnTorn) {
  std::string buf;
  AppendRecord("first", &buf);
  const size_t second_start = buf.size();
  AppendRecord("second", &buf);
  AppendRecord("third", &buf);

  // Rot the second payload: its frame stays readable, its CRC does not.
  std::string rotten = buf;
  rotten[second_start + 8] ^= 0x01;
  size_t pos = 0;
  RecordRead r = ReadRecord(rotten, &pos, 1 << 20);
  ASSERT_EQ(r.status, RecordStatus::kOk);
  EXPECT_EQ(r.payload, "first");
  r = ReadRecord(rotten, &pos, 1 << 20);
  EXPECT_EQ(r.status, RecordStatus::kBadCrc);  // consumed, read continues
  r = ReadRecord(rotten, &pos, 1 << 20);
  ASSERT_EQ(r.status, RecordStatus::kOk);
  EXPECT_EQ(r.payload, "third");
  EXPECT_EQ(ReadRecord(rotten, &pos, 1 << 20).status, RecordStatus::kEnd);

  // Truncate mid-record: the read stops, the prefix survives.
  std::string torn = buf.substr(0, second_start + 3);
  pos = 0;
  EXPECT_EQ(ReadRecord(torn, &pos, 1 << 20).status, RecordStatus::kOk);
  EXPECT_EQ(ReadRecord(torn, &pos, 1 << 20).status, RecordStatus::kTorn);

  // A length prefix claiming more than the cap is torn, not an allocation.
  std::string giant;
  Encoder enc(&giant);
  enc.PutU32(0xFFFFFFFFu);
  enc.PutU32(0);
  pos = 0;
  EXPECT_EQ(ReadRecord(giant, &pos, 1 << 20).status, RecordStatus::kTorn);
}

// ---------------- save / load round trip ----------------

ServiceOptions PersistOptionsFor(const std::string& path,
                                 size_t l0_capacity = 256) {
  ServiceOptions options;
  options.workers = 0;
  options.l0_capacity = l0_capacity;
  options.persist_path = path;
  return options;
}

Result<ServedQuery> PumpOne(QueryService* service,
                            std::future<Result<ServedQuery>> future) {
  EXPECT_TRUE(service->ServeQueuedForTesting());
  return future.get();
}

TEST(PersistTest, SaveLoadRoundTripPreservesRecords) {
  const std::string path = TempPath("roundtrip.eds");
  std::remove(path.c_str());
  testutil::FilmDb db;
  QueryService service(&db.session, PersistOptionsFor(path));
  EDS_ASSERT_OK(service.Start());
  // Two rounds: L0 stores a text on its second sighting.
  for (int round = 0; round < 2; ++round) {
    for (int k = 1; k <= 4; ++k) {
      auto served = PumpOne(
          &service,
          service.Submit("SELECT Winner FROM BEATS WHERE Winner > " +
                         std::to_string(k)));
      ASSERT_TRUE(served.ok()) << served.status().ToString();
    }
  }
  EDS_ASSERT_OK(service.SavePersistNow());
  service.Stop();

  PersistOptions opts;
  LoadStats stats;
  auto image = LoadPersistFile(path, opts, &stats);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  EXPECT_EQ(stats.skipped, 0u);
  EXPECT_FALSE(stats.torn_tail);
  // Four literal variants share one template; four exact texts are four
  // L0 entries.
  EXPECT_GE(image->plans.size(), 1u);
  EXPECT_EQ(image->l0.size(), 4u);
  EXPECT_EQ(image->header.catalog_epoch, db.session.catalog().epoch());
  EXPECT_EQ(image->header.rules_epoch, db.session.rules_epoch());
  // Hit counts survived: the shared template was hit six times after its
  // insert (8 L0 misses: the first defers admission, the second stores
  // the plan).
  EXPECT_EQ(image->plans[0].hits, 6u);
  std::remove(path.c_str());
}

TEST(PersistTest, TopKKeepsTheHottestEntries) {
  PlanCache cache;
  L0Cache l0(16);
  auto mk = [](const std::string& text) {
    auto t = term::ParseTerm(text);
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    return *t;
  };
  const char* plans[] = {
      "FILTER(RELATION('A'), ($1.1 > 1))",
      "FILTER(RELATION('B'), ($1.1 > 1))",
      "FILTER(RELATION('C'), ($1.1 > 1))",
  };
  const uint64_t hits[] = {5, 11, 2};
  for (int i = 0; i < 3; ++i) {
    PlanCache::Key key;
    key.tmpl = mk(plans[i]);
    cache.Insert(key, mk(plans[i]), /*rewrite_ns=*/100, {},
                 /*seed_hits=*/hits[i]);
  }
  PersistOptions opts;
  opts.top_k = 2;
  FileHeader header;
  SaveStats stats;
  CacheImage image = BuildCacheImage(cache, l0, header, opts, &stats);
  ASSERT_EQ(image.plans.size(), 2u);
  EXPECT_EQ(image.plans[0].hits, 11u);  // hottest first
  EXPECT_EQ(image.plans[1].hits, 5u);
}

TEST(PersistTest, StaleEpochsLoadNothing) {
  const std::string path = TempPath("stale.eds");
  std::remove(path.c_str());
  testutil::FilmDb db;
  QueryService service(&db.session, PersistOptionsFor(path));
  EDS_ASSERT_OK(service.Start());
  // Twice: both tiers store on the second sighting.
  for (int i = 0; i < 2; ++i) {
    auto served = PumpOne(
        &service, service.Submit("SELECT Winner FROM BEATS WHERE Winner > 5"));
    ASSERT_TRUE(served.ok()) << served.status().ToString();
  }
  service.Stop();  // writes the final snapshot

  PersistOptions opts;
  LoadStats stats;
  auto image = LoadPersistFile(path, opts, &stats);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  const size_t records = image->plans.size() + image->l0.size();
  ASSERT_GT(records, 0u);
  PlanCache cache;
  L0Cache l0(16);
  // An epoch bump (DDL after the save) strands every record.
  size_t installed = WarmServiceCaches(
      *image, &db.session, &cache, &l0, db.session.catalog().epoch() + 1,
      db.session.rules_epoch(), opts, &stats);
  EXPECT_EQ(installed, 0u);
  EXPECT_EQ(stats.stale, records);
  EXPECT_EQ(cache.GetStats().entries, 0u);
  std::remove(path.c_str());
}

TEST(PersistTest, VerifyLoadRejectsDivergentPlans) {
  testutil::FilmDb db;
  CacheImage image;
  image.header.catalog_epoch = db.session.catalog().epoch();
  image.header.rules_epoch = db.session.rules_epoch();
  // A consistent entry: raw and "optimized" agree.
  PersistedL0 good;
  good.key = "GOOD";
  good.raw_text = "SEARCH(LIST(RELATION('BEATS')), ($1.1 > 3), LIST($1.1))";
  good.plan_text = good.raw_text;
  good.columns = {"Winner"};
  image.l0.push_back(good);
  // A divergent entry: the "optimized" plan returns different rows — the
  // exact corruption differential verification exists to catch.
  PersistedL0 bad = good;
  bad.key = "BAD";
  bad.plan_text = "SEARCH(LIST(RELATION('BEATS')), ($1.1 > 7), LIST($1.1))";
  image.l0.push_back(bad);

  PersistOptions opts;
  opts.verify_load = true;
  LoadStats stats;
  PlanCache cache;
  L0Cache l0(16);
  size_t installed = WarmServiceCaches(
      image, &db.session, &cache, &l0, db.session.catalog().epoch(),
      db.session.rules_epoch(), opts, &stats);
  EXPECT_EQ(installed, 1u);
  EXPECT_EQ(stats.ok, 1u);
  EXPECT_EQ(stats.rejected, 1u);
  // Only the consistent entry is servable.
  EXPECT_TRUE(l0.Lookup("GOOD", db.session.catalog().epoch(),
                        db.session.rules_epoch())
                  .has_value());
  EXPECT_FALSE(l0.Lookup("BAD", db.session.catalog().epoch(),
                         db.session.rules_epoch())
                   .has_value());
}

TEST(PersistTest, OversizeL0KeysAreNeverPersisted) {
  // A key past the L0 length cap is rejected at insert time (counted), so
  // it can never reach the persisted file.
  L0Cache l0(16, /*max_key_bytes=*/32);
  const std::string normalized =
      NormalizeQueryText(std::string(100, 'X'), l0.max_key_bytes());
  EXPECT_GT(normalized.size(), l0.max_key_bytes());
  L0Cache::Entry entry;
  l0.Insert(normalized, entry);
  EXPECT_EQ(l0.GetStats().oversize_rejects, 1u);
  EXPECT_EQ(l0.Snapshot().size(), 0u);
}

// ---------------- warm restart ----------------

// The tentpole acceptance test: persist under one service, boot a second
// service from the file, and require >= 90% template-cache hits with zero
// rewrite time and byte-identical rows. L0 is off so every query exercises
// the *structural* cache (the L0 path is covered separately below).
TEST(PersistRestartTest, WarmRestartHitsTemplateCacheAndMatchesColdResults) {
  const std::string path = TempPath("restart.eds");
  std::remove(path.c_str());
  std::vector<std::string> workload;
  for (int k = 0; k < 10; ++k) {
    workload.push_back("SELECT Winner FROM BEATS WHERE Winner > " +
                       std::to_string(k));
  }
  for (int k = 1; k <= 5; ++k) {
    workload.push_back("SELECT Loser FROM BEATS WHERE Loser < " +
                       std::to_string(k));
  }
  workload.push_back("SELECT Title FROM FILM WHERE Numf = 2");

  // Cold run: every template is a miss, then persist at Stop().
  std::vector<exec::Rows> cold_rows;
  {
    testutil::FilmDb db;
    QueryService service(&db.session,
                         PersistOptionsFor(path, /*l0_capacity=*/0));
    EDS_ASSERT_OK(service.Start());
    size_t cold_hits = 0;
    for (const std::string& q : workload) {
      auto served = PumpOne(&service, service.Submit(q));
      ASSERT_TRUE(served.ok()) << q << ": " << served.status().ToString();
      cold_rows.push_back(served->result.rows);
      if (served->cache_hit) ++cold_hits;
    }
    // 3 distinct templates: two miss twice each (admission on the second
    // sighting), the one-shot FILM template once.
    EXPECT_EQ(cold_hits, workload.size() - 5);
    service.Stop();
  }

  // Warm restart: a fresh session replays the same DDL (same epochs), and
  // the service warms from the file before serving.
  {
    testutil::FilmDb db;
    QueryService service(&db.session,
                         PersistOptionsFor(path, /*l0_capacity=*/0));
    EDS_ASSERT_OK(service.Start());
    LoadStats load = service.persist_load_stats();
    EXPECT_GT(load.ok, 0u);
    EXPECT_EQ(load.stale, 0u);
    EXPECT_EQ(load.rejected, 0u);

    size_t hits = 0;
    for (size_t i = 0; i < workload.size(); ++i) {
      auto served = PumpOne(&service, service.Submit(workload[i]));
      ASSERT_TRUE(served.ok())
          << workload[i] << ": " << served.status().ToString();
      if (served->cache_hit) {
        ++hits;
        // A warm hit never ran the rewrite phase.
        EXPECT_EQ(served->result.phase_times.rewrite_ns, 0u) << workload[i];
      }
      // Byte-identical rows vs the cold run (same order, same values).
      EXPECT_EQ(served->result.rows, cold_rows[i]) << workload[i];
    }
    EXPECT_GE(hits * 100, workload.size() * 90)
        << hits << "/" << workload.size() << " warm template hits";
    service.Stop();
  }
  std::remove(path.c_str());
}

TEST(PersistRestartTest, WarmRestartServesL0HitsBeforeTheParser) {
  const std::string path = TempPath("restart_l0.eds");
  std::remove(path.c_str());
  const std::string q = "SELECT Winner, Loser FROM BEATS WHERE Winner > 7";
  exec::Rows cold;
  {
    testutil::FilmDb db;
    QueryService service(&db.session, PersistOptionsFor(path));
    EDS_ASSERT_OK(service.Start());
    // The text's first sighting, so that the second stores it.
    ASSERT_TRUE(PumpOne(&service, service.Submit(q)).ok());
    auto served = PumpOne(&service, service.Submit(q));
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    cold = served->result.rows;
    service.Stop();
  }
  {
    testutil::FilmDb db;
    QueryService service(&db.session, PersistOptionsFor(path));
    EDS_ASSERT_OK(service.Start());
    auto served = PumpOne(&service, service.Submit(q));
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_TRUE(served->l0_hit) << "exact text should hit L0 on arrival";
    EXPECT_EQ(served->result.rows, cold);
    EXPECT_EQ(served->result.phase_times.parse_ns, 0u);
    service.Stop();
  }
  std::remove(path.c_str());
}

// A warm restore bypasses admission: a template loaded from the persist
// file hits on its first sighting after the restart, and defers nothing.
TEST(PersistRestartTest, WarmRestoredTemplateHitsOnItsFirstSighting) {
  const std::string path = TempPath("admission.eds");
  std::remove(path.c_str());
  {
    testutil::FilmDb db;
    QueryService service(&db.session,
                         PersistOptionsFor(path, /*l0_capacity=*/0));
    EDS_ASSERT_OK(service.Start());
    for (int k = 1; k <= 3; ++k) {
      auto served = PumpOne(
          &service, service.Submit("SELECT Winner FROM BEATS WHERE Winner > " +
                                   std::to_string(k)));
      ASSERT_TRUE(served.ok()) << served.status().ToString();
      EXPECT_EQ(served->cache_hit, k == 3) << k;
    }
    service.Stop();
  }
  testutil::FilmDb db;
  QueryService service(&db.session,
                       PersistOptionsFor(path, /*l0_capacity=*/0));
  EDS_ASSERT_OK(service.Start());
  EXPECT_EQ(service.persist_load_stats().ok, 1u);
  const std::string q = "SELECT Winner FROM BEATS WHERE Winner > 5";
  auto served = PumpOne(&service, service.Submit(q));
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_TRUE(served->cache_hit);
  EXPECT_EQ(served->result.phase_times.rewrite_ns, 0u);
  EXPECT_EQ(service.admission_deferrals(), 0u);
  auto direct = db.session.Query(q);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(served->result.rows, direct->rows);
  service.Stop();
  std::remove(path.c_str());
}

// A recursive plan's template persists like any other: a BETTER_THAN
// template restored under load-time verification serves a literal it was
// never rewritten for with the rows a cold service computes.
TEST(PersistRestartTest, WarmRecursiveTemplateMatchesCold) {
  const std::string path = TempPath("recursive.eds");
  std::remove(path.c_str());
  const char* view = R"(
    CREATE VIEW BETTER_THAN (W, L) AS (
      SELECT Winner, Loser FROM BEATS
      UNION
      SELECT B1.W, B2.L FROM BETTER_THAN B1, BETTER_THAN B2
      WHERE B1.L = B2.W );
  )";
  const std::string q = "SELECT W, L FROM BETTER_THAN WHERE W = 3";
  {
    testutil::FilmDb db;
    EDS_ASSERT_OK(db.session.ExecuteScript(view));
    QueryService service(&db.session,
                         PersistOptionsFor(path, /*l0_capacity=*/0));
    EDS_ASSERT_OK(service.Start());
    // Two sightings with other literals: the second stores the template.
    for (int w = 1; w <= 2; ++w) {
      auto served = PumpOne(
          &service, service.Submit("SELECT W, L FROM BETTER_THAN WHERE W = " +
                                   std::to_string(w)));
      ASSERT_TRUE(served.ok()) << served.status().ToString();
      EXPECT_EQ(served->cache_stored, w == 2) << w;
    }
    service.Stop();
  }
  exec::Rows cold;
  {
    testutil::FilmDb db;
    EDS_ASSERT_OK(db.session.ExecuteScript(view));
    QueryService service(&db.session,
                         PersistOptionsFor("", /*l0_capacity=*/0));
    EDS_ASSERT_OK(service.Start());
    auto served = PumpOne(&service, service.Submit(q));
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_FALSE(served->cache_hit);
    cold = served->result.rows;
    service.Stop();
  }
  ASSERT_FALSE(cold.empty());
  testutil::FilmDb db;
  EDS_ASSERT_OK(db.session.ExecuteScript(view));
  ServiceOptions options = PersistOptionsFor(path, /*l0_capacity=*/0);
  options.persist.verify_load = true;
  QueryService service(&db.session, options);
  EDS_ASSERT_OK(service.Start());
  LoadStats load = service.persist_load_stats();
  EXPECT_EQ(load.ok, 1u);
  EXPECT_EQ(load.rejected, 0u);
  EXPECT_EQ(load.unverified, 0u);  // the sample literals ran both sides
  auto served = PumpOne(&service, service.Submit(q));
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_TRUE(served->cache_hit);
  EXPECT_EQ(served->result.phase_times.rewrite_ns, 0u);
  EXPECT_EQ(served->result.rows, cold);
  service.Stop();
  std::remove(path.c_str());
}

// "SELECT <cols> FROM BEATS" with a projection list of its own for each
// i: a distinct text and a distinct template per i.
std::string OneShotQuery(int i) {
  std::string cols;
  for (int bit = 31 - __builtin_clz(static_cast<unsigned>(i + 2)) - 1;
       bit >= 0; --bit) {
    if (!cols.empty()) cols += ", ";
    cols += ((i + 2) >> bit) & 1 ? "Loser" : "Winner";
  }
  return "SELECT " + cols + " FROM BEATS";
}

// Warm-restored entries of both tiers outlive a post-restart flood of
// one-shot queries many times either cache's size: the flood's first
// sightings are served but stored in neither tier.
TEST(PersistRestartTest, WarmRestoredEntriesSurviveOneShotFlood) {
  const std::string path = TempPath("flood.eds");
  std::remove(path.c_str());
  const std::string q = "SELECT Winner FROM BEATS WHERE Winner > 7";
  ServiceOptions options = PersistOptionsFor(path, /*l0_capacity=*/16);
  options.cache.max_nodes = 1024;
  {
    testutil::FilmDb db;
    QueryService service(&db.session, options);
    EDS_ASSERT_OK(service.Start());
    // Twice: both tiers store `q` on its second sighting.
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(PumpOne(&service, service.Submit(q)).ok());
    }
    service.Stop();
  }
  testutil::FilmDb db;
  QueryService service(&db.session, options);
  EDS_ASSERT_OK(service.Start());
  ASSERT_EQ(service.persist_load_stats().ok, 2u);
  constexpr int kFlood = 500;
  for (int i = 0; i < kFlood; ++i) {
    auto served = PumpOne(&service, service.Submit(OneShotQuery(i)));
    ASSERT_TRUE(served.ok()) << i << ": " << served.status().ToString();
  }
  EXPECT_EQ(service.admission_deferrals(), static_cast<uint64_t>(kFlood));
  EXPECT_EQ(service.l0_admission_deferrals(), static_cast<uint64_t>(kFlood));
  EXPECT_EQ(service.l0_cache().GetStats().evictions, 0u);
  EXPECT_EQ(service.cache().GetStats().evictions, 0u);

  auto exact = PumpOne(&service, service.Submit(q));
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_TRUE(exact->l0_hit);
  const std::string variant = "SELECT Winner FROM BEATS WHERE Winner > 5";
  auto templ = PumpOne(&service, service.Submit(variant));
  ASSERT_TRUE(templ.ok()) << templ.status().ToString();
  EXPECT_TRUE(templ->cache_hit);
  auto direct = db.session.Query(variant);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(templ->result.rows, direct->rows);
  service.Stop();
  std::remove(path.c_str());
}

TEST(PersistRestartTest, PersistMetricsAreExported) {
  const std::string path = TempPath("metrics.eds");
  std::remove(path.c_str());
  testutil::FilmDb db;
  QueryService service(&db.session, PersistOptionsFor(path));
  EDS_ASSERT_OK(service.Start());
  // Twice: both tiers store on the second sighting.
  for (int i = 0; i < 2; ++i) {
    auto served = PumpOne(
        &service, service.Submit("SELECT Winner FROM BEATS WHERE Winner > 1"));
    ASSERT_TRUE(served.ok()) << served.status().ToString();
  }
  EDS_ASSERT_OK(service.SavePersistNow());
  obs::MetricsRegistry registry;
  service.ExportMetrics(&registry);
  const std::string prom = registry.ToPrometheus();
  EXPECT_NE(prom.find("persist_load_ok"), std::string::npos) << prom;
  EXPECT_NE(prom.find("persist_save_count"), std::string::npos) << prom;
  service.Stop();
  SaveStats saves = service.persist_save_stats();
  EXPECT_GT(saves.plans + saves.l0, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace eds::srv
