// Chaos suite for plan-cache persistence: kill-mid-write via the
// persist.save / persist.rename / persist.load.record fail points, plus a
// corrupt-file corpus (truncation at every offset, bit flips, garbage
// headers, lying lengths, nested-term bombs). The invariant throughout:
// the loader NEVER crashes and never admits a damaged record — bad input
// costs counted skips, not correctness. Run under the asan preset, every
// corrupt input doubles as a memory/UB check.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "gov/failpoint.h"
#include "gtest/gtest.h"
#include "srv/codec.h"
#include "srv/persist.h"
#include "srv/service.h"
#include "term/parser.h"
#include "testutil.h"

namespace eds::srv {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "eds_persist_chaos_" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// Serves a few queries through a pumped service with persistence on and
// returns the persisted file's bytes (Stop() writes the final snapshot).
std::string PersistedWorkloadBytes(const std::string& path) {
  testutil::FilmDb db;
  ServiceOptions options;
  options.workers = 0;
  options.persist_path = path;
  QueryService service(&db.session, options);
  EXPECT_TRUE(service.Start().ok());
  // Two rounds: L0 stores a text on its second sighting.
  for (int i = 0; i < 6; ++i) {
    auto future = service.Submit("SELECT Winner FROM BEATS WHERE Winner > " +
                                 std::to_string(1 + i % 3));
    EXPECT_TRUE(service.ServeQueuedForTesting());
    auto served = future.get();
    EXPECT_TRUE(served.ok()) << served.status().ToString();
  }
  service.Stop();
  return ReadFileBytes(path);
}

class PersistChaosTest : public ::testing::Test {
 protected:
  void TearDown() override { gov::FailPoints::Global().Clear(); }
};

// ---------------- fail points: kill mid-write ----------------

TEST_F(PersistChaosTest, SaveFailPointLeavesThePreviousFileIntact) {
  const std::string path = TempPath("save_fp.eds");
  std::remove(path.c_str());
  const std::string good = PersistedWorkloadBytes(path);
  ASSERT_FALSE(good.empty());

  EDS_ASSERT_OK(gov::FailPoints::Global().Configure("persist.save=error"));
  Status failed = WriteFileAtomic(path, "replacement bytes");
  EXPECT_FALSE(failed.ok());
  // The previous file is byte-for-byte untouched and still loads.
  EXPECT_EQ(ReadFileBytes(path), good);
  gov::FailPoints::Global().Clear();
  LoadStats stats;
  auto image = LoadPersistFile(path, PersistOptions{}, &stats);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  EXPECT_GT(image->plans.size() + image->l0.size(), 0u);
  EXPECT_EQ(stats.skipped, 0u);
  std::remove(path.c_str());
}

TEST_F(PersistChaosTest, RenameFailPointLeavesNoTmpAndThePreviousFile) {
  const std::string path = TempPath("rename_fp.eds");
  std::remove(path.c_str());
  const std::string good = PersistedWorkloadBytes(path);

  EDS_ASSERT_OK(gov::FailPoints::Global().Configure("persist.rename=error"));
  Status failed = WriteFileAtomic(path, "replacement bytes");
  EXPECT_FALSE(failed.ok());
  gov::FailPoints::Global().Clear();
  EXPECT_EQ(ReadFileBytes(path), good);
  // The tmp file was cleaned up, not leaked.
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

TEST_F(PersistChaosTest, LoadRecordFailPointSkipsAndCounts) {
  const std::string path = TempPath("load_fp.eds");
  std::remove(path.c_str());
  (void)PersistedWorkloadBytes(path);
  LoadStats clean_stats;
  auto clean = LoadPersistFile(path, PersistOptions{}, &clean_stats);
  ASSERT_TRUE(clean.ok());
  const size_t records = clean->plans.size() + clean->l0.size();
  ASSERT_GT(records, 1u);

  // The second record dies at the fail point; everything else loads.
  EDS_ASSERT_OK(
      gov::FailPoints::Global().Configure("persist.load.record=error@2"));
  LoadStats stats;
  auto image = LoadPersistFile(path, PersistOptions{}, &stats);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  EXPECT_EQ(image->plans.size() + image->l0.size(), records - 1);
  EXPECT_EQ(stats.skipped, 1u);
  std::remove(path.c_str());
}

// A mid-write crash is an arbitrary prefix of the new file only if the
// writer is not atomic; WriteFileAtomic never exposes one. This test
// simulates the non-atomic worst case anyway (a copied or NFS-mangled
// file): every possible truncation of a valid file must load as a clean
// prefix — no crash, no partial record admitted.
TEST_F(PersistChaosTest, EveryTruncationLoadsTheSurvivingPrefix) {
  const std::string path = TempPath("trunc_src.eds");
  std::remove(path.c_str());
  const std::string good = PersistedWorkloadBytes(path);
  LoadStats full_stats;
  auto full = LoadPersistFile(path, PersistOptions{}, &full_stats);
  ASSERT_TRUE(full.ok());
  const size_t full_records = full->plans.size() + full->l0.size();
  ASSERT_GT(full_records, 0u);

  const std::string cut_path = TempPath("trunc.eds");
  for (size_t len = 0; len <= good.size(); ++len) {
    WriteFileBytes(cut_path, good.substr(0, len));
    LoadStats stats;
    auto image = LoadPersistFile(cut_path, PersistOptions{}, &stats);
    if (len < FileHeader::kEncodedSize) {
      EXPECT_FALSE(image.ok()) << "len=" << len;
      continue;
    }
    ASSERT_TRUE(image.ok()) << "len=" << len << ": "
                            << image.status().ToString();
    const size_t records = image->plans.size() + image->l0.size();
    EXPECT_LE(records, full_records) << "len=" << len;
    if (len < good.size()) {
      EXPECT_TRUE(stats.torn_tail || records < full_records ||
                  stats.skipped > 0)
          << "len=" << len << " silently ignored missing bytes";
    } else {
      EXPECT_EQ(records, full_records);
    }
  }
  std::remove(path.c_str());
  std::remove(cut_path.c_str());
}

// Restarting a service from a kill-mid-write artifact: whatever prefix
// survived must warm the caches without failing Start().
TEST_F(PersistChaosTest, ServiceStartsWarmFromATruncatedFile) {
  const std::string path = TempPath("trunc_start.eds");
  std::remove(path.c_str());
  const std::string good = PersistedWorkloadBytes(path);
  // Cut mid-way through the record region.
  WriteFileBytes(path, good.substr(0, FileHeader::kEncodedSize +
                                          (good.size() / 2)));
  testutil::FilmDb db;
  ServiceOptions options;
  options.workers = 0;
  options.persist_path = path;
  QueryService service(&db.session, options);
  EDS_ASSERT_OK(service.Start());  // a damaged file is never a boot failure
  auto future = service.Submit("SELECT Winner FROM BEATS WHERE Winner > 1");
  ASSERT_TRUE(service.ServeQueuedForTesting());
  auto served = future.get();
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  service.Stop();
  std::remove(path.c_str());
}

// ---------------- corrupt-file corpus ----------------

TEST_F(PersistChaosTest, BitFlipsNeverCrashAndNeverAdmitDamage) {
  const std::string path = TempPath("flip_src.eds");
  std::remove(path.c_str());
  const std::string good = PersistedWorkloadBytes(path);
  LoadStats full_stats;
  auto full = LoadPersistFile(path, PersistOptions{}, &full_stats);
  ASSERT_TRUE(full.ok());
  const size_t full_records = full->plans.size() + full->l0.size();

  const std::string flip_path = TempPath("flip.eds");
  for (size_t i = 0; i < good.size(); ++i) {
    for (unsigned char mask : {0x01, 0x80}) {
      std::string flipped = good;
      flipped[i] = static_cast<char>(flipped[i] ^ mask);
      WriteFileBytes(flip_path, flipped);
      LoadStats stats;
      auto image = LoadPersistFile(flip_path, PersistOptions{}, &stats);
      if (!image.ok()) continue;  // header damage: clean refusal
      // A record either loads intact or is dropped; the total can only
      // shrink. (A flip inside term *text* still CRC-mismatches.)
      EXPECT_LE(image->plans.size() + image->l0.size(), full_records)
          << "flip at byte " << i;
    }
  }
  std::remove(path.c_str());
  std::remove(flip_path.c_str());
}

TEST_F(PersistChaosTest, GarbageHeadersAreRefused) {
  const std::string path = TempPath("garbage.eds");
  // Deterministic pseudo-garbage (xorshift), several sizes including the
  // empty file and exactly-header-sized noise.
  uint64_t state = 0x9E3779B97F4A7C15ull;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<char>(state & 0xFF);
  };
  for (size_t size : {0u, 1u, 16u, 31u, 32u, 33u, 100u, 4096u}) {
    std::string noise;
    noise.reserve(size);
    for (size_t i = 0; i < size; ++i) noise += next();
    WriteFileBytes(path, noise);
    LoadStats stats;
    auto image = LoadPersistFile(path, PersistOptions{}, &stats);
    // A garbage header must be a clean error (magic or CRC), never a
    // crash; surviving by fluke would require forging a CRC32.
    EXPECT_FALSE(image.ok()) << "size=" << size;
  }
  std::remove(path.c_str());
}

TEST_F(PersistChaosTest, LyingRecordLengthsAreTornNotAllocated) {
  FileHeader header;
  std::string file;
  EncodeFileHeader(header, &file);
  // Frame declaring a 4 GiB payload backed by 4 bytes.
  Encoder enc(&file);
  enc.PutU32(0xFFFFFFF0u);
  enc.PutU32(0);
  file += "ha!!";
  const std::string path = TempPath("liar.eds");
  WriteFileBytes(path, file);
  LoadStats stats;
  auto image = LoadPersistFile(path, PersistOptions{}, &stats);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  EXPECT_EQ(image->plans.size() + image->l0.size(), 0u);
  EXPECT_TRUE(stats.torn_tail);
  std::remove(path.c_str());
}

// A record whose framing and CRC are VALID but whose payload declares
// strings longer than the cap: the decoder must refuse before allocating.
TEST_F(PersistChaosTest, OversizeStringsInsideValidRecordsAreSkipped) {
  FileHeader header;
  std::string file;
  EncodeFileHeader(header, &file);
  std::string payload;
  Encoder enc(&payload);
  enc.PutU8(1);  // plan record
  enc.PutU64(0);
  enc.PutU64(0);
  enc.PutU32(0x7FFFFFFFu);  // tmpl "length": 2 GiB
  AppendRecord(payload, &file);
  const std::string path = TempPath("oversize.eds");
  WriteFileBytes(path, file);
  LoadStats stats;
  auto image = LoadPersistFile(path, PersistOptions{}, &stats);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  EXPECT_EQ(image->plans.size(), 0u);
  EXPECT_EQ(stats.skipped, 1u);
  std::remove(path.c_str());
}

// Nested-term bombs: records whose term text is pathological. The parser's
// recursion bound rejects deep nesting; the node-count cap rejects wide
// bombs. Both are counted skips at warm time, never crashes.
TEST_F(PersistChaosTest, NestedTermBombsAreRejectedAtWarmTime) {
  testutil::FilmDb db;
  CacheImage image;
  image.header.catalog_epoch = db.session.catalog().epoch();
  image.header.rules_epoch = db.session.rules_epoch();

  // Deep: F(F(F(...1...))) — thousands of levels.
  std::string deep;
  const int depth = 50000;
  for (int i = 0; i < depth; ++i) deep += "F(";
  deep += "1";
  for (int i = 0; i < depth; ++i) deep += ")";
  PersistedL0 bomb;
  bomb.key = "BOMB";
  bomb.raw_text = deep;
  bomb.plan_text = "RELATION('BEATS')";
  image.l0.push_back(bomb);

  // Wide: a LIST with more nodes than the cap allows.
  std::string wide = "LIST(1";
  for (int i = 0; i < 2000; ++i) wide += ", 1";
  wide += ")";
  PersistedPlan fat;
  fat.tmpl_text = wide;
  fat.nf_text = wide;
  image.plans.push_back(fat);

  PersistOptions opts;
  opts.max_term_nodes = 1000;
  LoadStats stats;
  PlanCache cache;
  L0Cache l0(16);
  size_t installed = WarmServiceCaches(
      image, &db.session, &cache, &l0, db.session.catalog().epoch(),
      db.session.rules_epoch(), opts, &stats);
  EXPECT_EQ(installed, 0u);
  EXPECT_EQ(stats.skipped, 2u);
  EXPECT_EQ(cache.GetStats().entries, 0u);
  EXPECT_EQ(l0.GetStats().entries, 0u);
}

// The periodic snapshot thread + fail point: a failing background save is
// counted, does not wedge Stop(), and the service keeps serving.
TEST_F(PersistChaosTest, FailingBackgroundSavesNeverWedgeTheService) {
  const std::string path = TempPath("bg.eds");
  std::remove(path.c_str());
  testutil::FilmDb db;
  ServiceOptions options;
  options.workers = 1;
  options.persist_path = path;
  options.persist_interval_ms = 5;
  QueryService service(&db.session, options);
  EDS_ASSERT_OK(gov::FailPoints::Global().Configure("persist.save=error"));
  EDS_ASSERT_OK(service.Start());
  // Twice: both tiers store on the second sighting.
  for (int i = 0; i < 2; ++i) {
    auto served =
        service.Submit("SELECT Winner FROM BEATS WHERE Winner > 1").get();
    ASSERT_TRUE(served.ok()) << served.status().ToString();
  }
  // Let at least one background tick fire into the fail point.
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  gov::FailPoints::Global().Clear();
  service.Stop();  // the final (now-healthy) save succeeds
  LoadStats stats;
  auto image = LoadPersistFile(path, PersistOptions{}, &stats);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  EXPECT_GT(image->plans.size() + image->l0.size(), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace eds::srv
