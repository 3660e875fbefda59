// The heap a loaded database holds, and the heap a query over it needs: a
// bench-shaped data set (2,000 Actor objects, 2,000 FILM rows with
// category sets, 8,000 APPEARS_IN rows) loaded through
// Session::NewObject/InsertRow, with every live block and byte, and the
// peak of live bytes, counted by this binary's own global operator
// new/delete. The budgets are the measured figures plus about 10%, so a
// change that puts strings back on the heap, widens a stored cell or
// gives a selective query table-sized scratch memory fails here.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "exec/session.h"
#include "gtest/gtest.h"
#include "testutil.h"

namespace {

std::atomic<int64_t> g_live_blocks{0};
std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_peak_bytes{0};
std::atomic<size_t> g_largest_block{0};

// Each block carries its requested size in a header; 16 bytes keep the
// alignment operator new promises.
constexpr size_t kHeader = 16;

void* CountedAlloc(size_t n) noexcept {
  void* raw = std::malloc(n + kHeader);
  if (raw == nullptr) return nullptr;
  *static_cast<size_t*>(raw) = n;
  g_live_blocks.fetch_add(1, std::memory_order_relaxed);
  const int64_t live =
      g_live_bytes.fetch_add(static_cast<int64_t>(n),
                             std::memory_order_relaxed) +
      static_cast<int64_t>(n);
  int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_bytes.compare_exchange_weak(peak, live)) {
  }
  size_t largest = g_largest_block.load(std::memory_order_relaxed);
  while (n > largest && !g_largest_block.compare_exchange_weak(largest, n)) {
  }
  return static_cast<char*>(raw) + kHeader;
}

void CountedFree(void* p) noexcept {
  if (p == nullptr) return;
  char* raw = static_cast<char*>(p) - kHeader;
  g_live_blocks.fetch_sub(1, std::memory_order_relaxed);
  g_live_bytes.fetch_sub(static_cast<int64_t>(*reinterpret_cast<size_t*>(raw)),
                         std::memory_order_relaxed);
  std::free(raw);
}

void* CountedNew(size_t n) {
  void* p = CountedAlloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(size_t n) { return CountedNew(n); }
void* operator new[](size_t n) { return CountedNew(n); }
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void* operator new[](size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, size_t) noexcept { CountedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}

namespace eds::exec {
namespace {

using value::Value;

struct Footprint {
  int64_t blocks = 0;
  int64_t bytes = 0;
};

Footprint LiveSince(const Footprint& start) {
  return {g_live_blocks.load() - start.blocks,
          g_live_bytes.load() - start.bytes};
}

constexpr int kFilms = 2000;

void LoadSchema(Session* s) {
  ASSERT_TRUE(s->ExecuteScript(R"(
    TYPE Category ENUMERATION OF ('Comedy', 'Adventure', 'Science Fiction',
                                  'Western');
    TYPE Person OBJECT TUPLE (Name : CHAR);
    TYPE Actor SUBTYPE OF Person OBJECT TUPLE (Salary : NUMERIC);
    TYPE SetCategory SET OF Category;
    TABLE FILM (Numf : NUMERIC, Title : CHAR, Categories : SetCategory);
    TABLE APPEARS_IN (Numf : NUMERIC, Refactor : Actor);
  )").ok());
}

// Loads the data set; returns the live heap the objects and the rows hold.
void LoadData(Session* s, Footprint* objects, Footprint* rows) {
  static const char* kCategories[] = {"Comedy", "Adventure",
                                      "Science Fiction", "Western"};
  std::vector<Value> actors;
  actors.reserve(kFilms);

  const Footprint start = LiveSince({});
  for (int i = 0; i < kFilms; ++i) {
    Result<Value> actor = s->NewObject(
        "Actor", {{"Name", Value::String("A" + std::to_string(i))},
                  {"Salary", Value::Int(5000 + (i * 37) % 15000)}});
    ASSERT_TRUE(actor.ok()) << actor.status();
    actors.push_back(*actor);
  }
  *objects = LiveSince(start);

  for (int f = 1; f <= kFilms; ++f) {
    std::vector<Value> cats = {Value::String(kCategories[(f * 7) % 4])};
    if (f % 5 == 0) cats.push_back(Value::String("Adventure"));
    EDS_ASSERT_OK(s->InsertRow("FILM", {Value::Int(f),
                                       Value::String("F" + std::to_string(f)),
                                       Value::Set(std::move(cats))}));
    for (int a = 0; a < 4; ++a) {
      EDS_ASSERT_OK(s->InsertRow(
          "APPEARS_IN",
          {Value::Int(f), actors[static_cast<size_t>((f * 7 + a * 13) %
                                                     kFilms)]}));
    }
  }
  const Footprint total = LiveSince(start);
  *rows = {total.blocks - objects->blocks, total.bytes - objects->bytes};
}

TEST(StorageFootprintTest, BenchShapedDatabaseStaysWithinBudget) {
  Session s;
  LoadSchema(&s);
  Footprint objects, rows;
  LoadData(&s, &objects, &rows);

  std::printf("objects: %lld blocks, %lld bytes\n",
              static_cast<long long>(objects.blocks),
              static_cast<long long>(objects.bytes));
  std::printf("rows:    %lld blocks, %lld bytes\n",
              static_cast<long long>(rows.blocks),
              static_cast<long long>(rows.bytes));

  // Measured with libstdc++ on x86-64: objects 4,002 blocks / 225,584
  // bytes, rows 4,009 blocks / 317,792 bytes.
  EXPECT_LE(objects.blocks, 4400);
  EXPECT_LE(objects.bytes, 248000);
  EXPECT_LE(rows.blocks, 4400);
  EXPECT_LE(rows.bytes, 350000);
}

// A comparison against a constant reads the constant in place: a filter
// that keeps 4 of APPEARS_IN's 8,000 rows allocates no block the size of
// the table's 8-byte lane (a broadcast constant) or of a selection
// reserved for every row (32,000 bytes). It selects in place, so it
// builds no predicate column either.
TEST(StorageFootprintTest, ConstantFilterAllocatesNoTableSizedColumn) {
  Session s;
  LoadSchema(&s);
  Footprint objects, rows;
  LoadData(&s, &objects, &rows);
  for (const char* query : {"SELECT Numf FROM APPEARS_IN WHERE Numf = 17",
                            "SELECT Numf FROM APPEARS_IN WHERE 17 = Numf"}) {
    ASSERT_TRUE(s.Query(query).ok());  // warm the session's optimizer
    g_largest_block = 0;
    Result<QueryResult> r = s.Query(query);
    const size_t largest = g_largest_block;
    ASSERT_TRUE(r.ok()) << r.status();
    std::printf("%s: largest block %zu bytes\n", query, largest);
    EXPECT_EQ(r->rows.size(), 4u) << query;
    EXPECT_EQ(r->exec_stats.vec_fallbacks, 0u) << query;
    EXPECT_GT(r->exec_stats.batches, 0u) << query;
    EXPECT_LT(largest, size_t{8000} * sizeof(int64_t)) << query;
    EXPECT_LE(largest, size_t{8000} + 1024) << query;
  }
}

// A selective query's scratch memory follows the rows that survive, not
// the tables it reads: the peak of live heap bytes while Session::Run
// executes the optimized plan of a point join (one FILM row against
// APPEARS_IN's 8,000) and of a range that keeps 16 of APPEARS_IN's rows.
// A hash join built on the 8,000-row side, or a filter that copies every
// column of the rows that pass, needs well over these budgets.
TEST(StorageFootprintTest, SelectiveQueriesPeakBelowTableSizedScratch) {
  Session s;
  LoadSchema(&s);
  Footprint objects, rows;
  LoadData(&s, &objects, &rows);
  struct Case {
    const char* query;
    size_t rows;
    int64_t budget;
  };
  // Measured with libstdc++ on x86-64: 1,868 and 32,488 bytes.
  const Case cases[] = {
      {"SELECT F.Title, A.Numf FROM FILM F, APPEARS_IN A "
       "WHERE F.Numf = A.Numf AND F.Numf = 1751",
       4, 2050},
      {"SELECT Numf FROM APPEARS_IN WHERE Numf >= 28 AND Numf <= 31", 16,
       35700},
  };
  for (const Case& c : cases) {
    Result<QueryResult> planned = s.Query(c.query);
    ASSERT_TRUE(planned.ok()) << planned.status();
    ExecStats stats;
    const int64_t start = g_live_bytes.load();
    g_peak_bytes = start;
    Result<Rows> out = s.Run(planned->optimized_plan, {}, &stats);
    const int64_t peak = g_peak_bytes.load() - start;
    ASSERT_TRUE(out.ok()) << out.status();
    std::printf("%s: peak %lld bytes\n", c.query,
                static_cast<long long>(peak));
    EXPECT_EQ(out->size(), c.rows) << c.query;
    EXPECT_EQ(stats.vec_fallbacks, 0u) << c.query;
    EXPECT_GT(stats.batches, 0u) << c.query;
    EXPECT_LE(peak, c.budget) << c.query;
  }
}

}  // namespace
}  // namespace eds::exec
