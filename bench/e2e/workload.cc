#include "workload.h"

#include <algorithm>
#include <cmath>

namespace e2e {

namespace {

constexpr int kHotTexts = 48;
constexpr double kZipfExponent = 1.1;
// Largest BETTER_THAN answer allowed among the point_hot texts.
constexpr size_t kHotMaxRows = 10;

const char* const kOps[] = {"=", "<>", "<", "<=", ">", ">="};
// Four categories of the enumeration plus two outside it: the latter make
// ic_category_domain fold the MEMBER test to FALSE.
const char* const kCategories[] = {"Comedy",  "Adventure", "Science Fiction",
                                   "Western", "Cartoon",   "Drama"};

std::string Num(int v) { return std::to_string(v); }

Request Fixpoint(int w, int gt, int tmpl) {
  Request r;
  r.text = "SELECT L FROM BETTER_THAN WHERE W = " + Num(w) + " AND L > " +
           Num(gt);
  r.tmpl = tmpl;
  r.fixpoint = true;
  r.fix_w = w;
  r.fix_gt = gt;
  return r;
}

}  // namespace

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kPointHot: return "point_hot";
    case Workload::kLiteralSweep: return "literal_sweep";
    case Workload::kRewriteCold: return "rewrite_cold";
    case Workload::kScanWriteMix: return "scan_write_mix";
  }
  return "?";
}

std::optional<Workload> ParseWorkload(std::string_view name) {
  for (Workload w : kAllWorkloads) {
    if (name == WorkloadName(w)) return w;
  }
  return std::nullopt;
}

Stream::Stream(Workload workload, uint64_t seed, int index,
               const Graph& graph)
    : workload_(workload),
      graph_(graph),
      rng_(Mix(Mix(seed) ^ (static_cast<uint64_t>(workload) << 32) ^
               static_cast<uint64_t>(index))) {
  if (workload_ != Workload::kPointHot) return;
  // The hot set depends on the seed only, so every reader shares it; each
  // reader draws its own Zipf sequence over it.
  std::mt19937_64 set_rng(Mix(seed ^ 0x407));
  std::vector<int> films(kFilms);
  for (int i = 0; i < kFilms; ++i) films[i] = i + 1;
  std::shuffle(films.begin(), films.end(), set_rng);
  std::vector<int> nodes(kGraphNodes);
  for (int i = 0; i < kGraphNodes; ++i) nodes[i] = i + 1;
  std::shuffle(nodes.begin(), nodes.end(), set_rng);
  for (int i = 0; i < kHotTexts; ++i) {
    const std::string f = Num(films[static_cast<size_t>(i)]);
    Request r;
    r.tmpl = i;
    if (i < 8) {
      r.text = "SELECT Numf, Title FROM FILM WHERE Numf = " + f;
    } else if (i < 16) {
      r.text = "SELECT Numf FROM APPEARS_IN WHERE Numf = " + f;
    } else if (i < 32) {
      r.text =
          "SELECT F.Title, A.Numf FROM FILM F, APPEARS_IN A "
          "WHERE F.Numf = A.Numf AND F.Numf = " + f;
    } else if (i < 40) {
      r.text = "SELECT Numf FROM FilmCast WHERE Numf = " + f;
    } else {
      // W fixed; L bounded below so the answer stays at most 10 rows.
      const int w = nodes[static_cast<size_t>(i)];
      const std::vector<int>& reach = graph_.reach[static_cast<size_t>(w)];
      const int gt = reach.size() <= kHotMaxRows
                         ? 0
                         : reach[reach.size() - kHotMaxRows - 1];
      r = Fixpoint(w, gt, i);
    }
    hot_.push_back(std::move(r));
  }
  // Texts are ranked in generation order: the kind of query at each rank is
  // fixed, and only its literals come from the seed.
  std::vector<double> weights;
  for (int k = 1; k <= kHotTexts; ++k) {
    weights.push_back(1.0 / std::pow(static_cast<double>(k), kZipfExponent));
  }
  zipf_ = std::discrete_distribution<int>(weights.begin(), weights.end());
}

int Stream::Uniform(int lo, int hi) {
  return std::uniform_int_distribution<int>(lo, hi)(rng_);
}

Request Stream::Next() {
  switch (workload_) {
    case Workload::kPointHot: return PointHot();
    case Workload::kLiteralSweep: return LiteralSweep();
    case Workload::kRewriteCold: return RewriteCold();
    case Workload::kScanWriteMix: return ScanWriteMix();
  }
  return {};
}

Request Stream::PointHot() { return hot_[static_cast<size_t>(zipf_(rng_))]; }

// Twelve templates whose literals come from ~20k-4M combinations each, so
// exact texts almost never repeat within L0's 256 entries while the
// template count stays far below the plan cache's capacity. Every film
// bound stays <= kFilms (see InsertStatement).
Request Stream::LiteralSweep() {
  Request r;
  r.tmpl = Uniform(0, 11);
  const int w = Uniform(0, 9);
  const int a = Uniform(1, kFilms - w);
  const std::string lo = Num(a);
  const std::string hi = Num(a + w);
  const std::string cat = kCategories[Uniform(0, 3)];
  switch (r.tmpl) {
    case 0:
      r.text = "SELECT Title FROM FILM WHERE Numf >= " + lo +
               " AND Numf <= " + hi;
      break;
    case 1:
      r.text = "SELECT Numf, Title FROM FILM WHERE Numf > " + Num(a - 1) +
               " AND Numf < " + Num(a + w + 1);
      break;
    case 2:
      r.text = "SELECT Numf FROM FILM WHERE MEMBER('" + cat +
               "', Categories) AND Numf >= " + lo + " AND Numf <= " + hi;
      break;
    case 3:
      r.text = "SELECT Title FROM FILM WHERE MEMBER('" + cat +
               "', Categories) AND NOT (Numf < " + lo + ") AND Numf <= " + hi;
      break;
    case 4:
      r.text =
          "SELECT F.Title, A.Numf FROM FILM F, APPEARS_IN A "
          "WHERE F.Numf = A.Numf AND F.Numf = " + lo + " AND A.Numf <= " + hi;
      break;
    case 5:
      r.text =
          "SELECT F.Numf FROM FILM F, APPEARS_IN A WHERE F.Numf = A.Numf "
          "AND F.Numf >= " + lo + " AND F.Numf <= " + hi;
      break;
    case 6:
      r.text = "SELECT Numf FROM FilmCast WHERE Numf >= " + lo +
               " AND Numf <= " + hi;
      break;
    case 7:
      r.text = "SELECT Numf FROM FilmCast WHERE Numf > " + Num(a - 1) +
               " AND Numf < " + Num(a + w + 1);
      break;
    case 8:
      r.text = "SELECT Numf FROM APPEARS_IN WHERE Numf >= " + lo +
               " AND Numf <= " + hi;
      break;
    case 9:
      r.text = "SELECT Title FROM FILM WHERE Numf = " + lo +
               " OR Numf = " + Num(Uniform(1, kFilms));
      break;
    case 10:
      r.text = "SELECT Numf FROM FILM WHERE (Numf >= " + lo +
               " AND Numf <= " + hi + ") OR Numf = " + Num(Uniform(1, kFilms));
      break;
    default:
      r.text =
          "SELECT F.Title FROM FILM F, APPEARS_IN A WHERE F.Numf = A.Numf "
          "AND MEMBER('" + cat + "', F.Categories) AND F.Numf >= " + lo +
          " AND F.Numf <= " + hi;
      break;
  }
  return r;
}

// A grammar whose template space (>= 1e7 shapes) dwarfs the requests sent:
// 1-6 random conjuncts in an AND/OR tree over base tables, the join, both
// nested views, and MEMBER tests in and out of the constraint domain, plus
// BETTER_THAN fixpoints whose literals stay inline in the cache key. A
// selective range on the film number (a title for FilmActors) keeps every
// answer small, so the rewriter and not the executor carries the cost.
Request Stream::RewriteCold() {
  Request r;
  static const int kRelationWeights[] = {18, 14, 20, 14, 16, 18};
  std::discrete_distribution<int> relation(std::begin(kRelationWeights),
                                           std::end(kRelationWeights));
  r.tmpl = relation(rng_);
  if (r.tmpl == 5) {
    return Fixpoint(Uniform(1, kGraphNodes), Uniform(1, kGraphNodes), 5);
  }
  auto op = [&] { return std::string(kOps[Uniform(0, 5)]); };
  auto eq = [&] { return std::string(Uniform(0, 1) == 0 ? "=" : "<>"); };
  auto film = [&] { return Num(Uniform(1, kFilms)); };
  auto title = [&] { return "'F" + film() + "'"; };
  auto member = [&](const std::string& col) {
    return std::string(Uniform(0, 3) == 0 ? "NOT " : "") + "MEMBER('" +
           kCategories[Uniform(0, 5)] + "', " + col + ")";
  };
  auto salary = [&] { return Num(Uniform(5000, 20000)); };
  // A numeric comparison on `col` in one of four arithmetic forms.
  auto numeric = [&](const std::string& col, const std::string& lit) {
    switch (Uniform(0, 3)) {
      case 0: return col + " " + op() + " " + lit;
      case 1: return lit + " " + op() + " " + col;
      case 2: return col + " + " + Num(Uniform(1, 99)) + " " + op() + " " + lit;
      default: return col + " * 2 " + op() + " " + lit;
    }
  };
  auto atom = [&]() -> std::string {
    switch (r.tmpl) {
      case 0:  // FILM
        switch (Uniform(0, 2)) {
          case 0: return numeric("Numf", film());
          case 1: return "Title " + eq() + " " + title();
          default: return member("Categories");
        }
      case 1:  // APPEARS_IN
        return Uniform(0, 1) == 0 ? numeric("Numf", film())
                                  : numeric("Salary(Refactor)", salary());
      case 2:  // FILM x APPEARS_IN
        switch (Uniform(0, 4)) {
          case 0: return numeric("F.Numf", film());
          case 1: return numeric("A.Numf", film());
          case 2: return "F.Title " + eq() + " " + title();
          case 3: return member("F.Categories");
          default: return numeric("Salary(A.Refactor)", salary());
        }
      case 3:  // FilmCast
        return numeric("Numf", film());
      default:  // FilmActors
        switch (Uniform(0, 3)) {
          case 0: return "Title " + eq() + " " + title();
          case 1: return member("Categories");
          case 2: return "ALL(Salary(Actors) " + op() + " " + salary() + ")";
          default:
            return "EXIST(Salary(Actors) " + op() + " " + salary() + ")";
        }
    }
  };
  // Few one- and two-conjunct queries: their shape space is small enough
  // to repeat within a run.
  static const int kConjunctWeights[] = {1, 3, 24, 24, 24, 24};  // 1..6
  std::discrete_distribution<int> conjuncts(std::begin(kConjunctWeights),
                                            std::end(kConjunctWeights));
  std::vector<std::string> atoms(static_cast<size_t>(conjuncts(rng_) + 1));
  for (std::string& a : atoms) a = atom();
  // Random binary AND/OR tree over the atoms, fully parenthesized.
  while (atoms.size() > 1) {
    const size_t i = static_cast<size_t>(
        Uniform(0, static_cast<int>(atoms.size()) - 2));
    const char* conn = Uniform(0, 2) == 0 ? " OR " : " AND ";
    atoms[i] = "(" + atoms[i] + conn + atoms[i + 1] + ")";
    atoms.erase(atoms.begin() + static_cast<std::ptrdiff_t>(i) + 1);
  }
  const int w = Uniform(0, 30);
  const int a = Uniform(1, kFilms - w);
  const std::string range = ">= " + Num(a) + " AND ";
  static const char* const kFrom[] = {"FILM", "APPEARS_IN",
                                      "FILM F, APPEARS_IN A", "FilmCast",
                                      "FilmActors"};
  static const std::vector<std::vector<const char*>> kProjections = {
      {"Numf", "Title", "Numf, Title"},
      {"Numf"},
      {"F.Title", "A.Numf", "F.Numf, F.Title", "F.Title, A.Numf"},
      {"Numf"},
      {"Title"}};
  const auto& projections = kProjections[static_cast<size_t>(r.tmpl)];
  std::string anchor;
  switch (r.tmpl) {
    case 2:
      anchor = "F.Numf = A.Numf AND F.Numf " + range + "F.Numf <= " +
               Num(a + w);
      break;
    case 4:
      anchor = "Title = 'F" + Num(a) + "'";
      break;
    default:
      anchor = "Numf " + range + "Numf <= " + Num(a + w);
      break;
  }
  r.text = std::string("SELECT ") + (Uniform(0, 3) == 0 ? "DISTINCT " : "") +
           projections[static_cast<size_t>(
               Uniform(0, static_cast<int>(projections.size()) - 1))] +
           " FROM " + kFrom[r.tmpl] + " WHERE " + anchor + " AND " + atoms[0];
  return r;
}

// 70% literal_sweep reads, 30% range scans of 500-2000 films.
Request Stream::ScanWriteMix() {
  if (Uniform(0, 9) < 7) return LiteralSweep();
  Request r;
  r.tmpl = 12;
  const int n = Uniform(500, kFilms);
  const int a = Uniform(1, kFilms - n + 1);
  r.text = "SELECT Numf, Title FROM FILM WHERE Numf >= " + Num(a) +
           " AND Numf <= " + Num(a + n - 1);
  return r;
}

std::vector<Request> Prefix(Workload workload, uint64_t seed, size_t n,
                            const Graph& graph) {
  std::vector<Stream> streams;
  for (int i = 0; i < kReaders; ++i) {
    streams.emplace_back(workload, seed, i, graph);
  }
  std::vector<Request> out;
  out.reserve(n);
  for (size_t g = 0; g < n; ++g) {
    out.push_back(streams[g % kReaders].Next());
  }
  return out;
}

std::string InsertStatement(int k) {
  return "INSERT INTO FILM VALUES (" + Num(kFilms + 1 + k) + ", 'W" + Num(k) +
         "', MakeSet('Comedy'));";
}

std::string CreateViewStatement(int k) {
  return "CREATE VIEW V" + Num(k) + " (N, T) AS SELECT Numf, Title FROM FILM "
         "WHERE Numf > " + Num(kFilms) + ";";
}

}  // namespace e2e
