#ifndef EDS_BENCH_E2E_DATABASE_H_
#define EDS_BENCH_E2E_DATABASE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/session.h"

namespace e2e {

// Database shape shared by every workload (and by the server process, the
// answer-check reference and the traced replay, which each build their own
// copy from the same seed).
inline constexpr int kFilms = 2000;        // FILM rows; APPEARS_IN has 4x
inline constexpr int kGraphNodes = 256;    // BEATS chain 1 -> 2 -> ... -> 256
inline constexpr int kSkipEdges = 64;      // extra seeded BEATS edges

// The BEATS edge list and its transitive closure, computed in the harness by
// plain graph search. It is the answer-check reference for BETTER_THAN
// queries: the engine's unrewritten fixpoint takes seconds per query here.
struct Graph {
  std::vector<std::pair<int, int>> edges;
  // reach[w] = every L with (w, L) in the closure, ascending; index 0 unused.
  std::vector<std::vector<int>> reach;
};

struct Database {
  std::unique_ptr<eds::exec::Session> session;
  Graph graph;
};

// FILM/APPEARS_IN (salaries and categories drawn from `seed`), the nested
// views FilmActors and FilmCast, BEATS with the recursive view BETTER_THAN,
// and the ic_category_domain integrity constraint. Throws on failure.
Database BuildDatabase(uint64_t seed);

// Deterministic 64-bit mixer (SplitMix64 finalizer): derives independent
// generator seeds from (run seed, workload, stream).
uint64_t Mix(uint64_t x);

// Throws std::runtime_error with `what` and the status message when !ok.
void Check(const eds::Status& status, const std::string& what);

}  // namespace e2e

#endif  // EDS_BENCH_E2E_DATABASE_H_
