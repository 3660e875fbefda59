#ifndef EDS_BENCH_E2E_WORKLOAD_H_
#define EDS_BENCH_E2E_WORKLOAD_H_

#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "database.h"

namespace e2e {

// The four traffic mixes. README.md records why each exists and which layer
// it isolates.
enum class Workload { kPointHot, kLiteralSweep, kRewriteCold, kScanWriteMix };

inline constexpr Workload kAllWorkloads[] = {
    Workload::kPointHot, Workload::kLiteralSweep, Workload::kRewriteCold,
    Workload::kScanWriteMix};

const char* WorkloadName(Workload w);
std::optional<Workload> ParseWorkload(std::string_view name);

// Closed-loop reader clients per workload; each draws from its own stream.
inline constexpr int kReaders = 3;

struct Request {
  std::string text;
  // Generator template: the answer check samples the first response of
  // each template plus 1 in 64 of the rest.
  int tmpl = 0;
  // BETTER_THAN queries ("SELECT L ... WHERE W = fix_w AND L > fix_gt") are
  // checked against Graph::reach instead of the unrewritten plan.
  bool fixpoint = false;
  int fix_w = 0;
  int fix_gt = 0;
};

// One reader's request sequence. The same (workload, seed, index) always
// yields the same sequence, which is how the traced replay and the restart
// phase re-create what the live readers sent.
class Stream {
 public:
  Stream(Workload workload, uint64_t seed, int index, const Graph& graph);
  Request Next();

 private:
  Request PointHot();
  Request LiteralSweep();
  Request RewriteCold();
  Request ScanWriteMix();
  int Uniform(int lo, int hi);

  Workload workload_;
  const Graph& graph_;
  std::mt19937_64 rng_;
  std::vector<Request> hot_;  // point_hot: the 48 texts
  std::discrete_distribution<int> zipf_;
};

// The first `n` requests in global-id order: id g is request g / kReaders of
// stream g % kReaders.
std::vector<Request> Prefix(Workload workload, uint64_t seed, size_t n,
                            const Graph& graph);

// scan_write_mix writer statements. Inserted films have Numf > kFilms, so
// every read (all bounded to Numf <= kFilms) keeps its reference answer.
std::string InsertStatement(int k);
std::string CreateViewStatement(int k);

}  // namespace e2e

#endif  // EDS_BENCH_E2E_WORKLOAD_H_
