// The serving layer: worker-pool throughput at 1 vs N workers and the
// cost of a load-shed rejection. On a single-core box the N-worker runs
// measure queueing/locking overhead, not parallel speedup; the cpus
// counter records what the machine offered so BENCH trajectories stay
// comparable across hosts. Template hits against misses are measured end
// to end by bench/e2e's literal_sweep and rewrite_cold workloads.
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "benchutil.h"
#include "srv/service.h"

namespace {

using eds::benchutil::Check;
using eds::benchutil::MakeFilmDb;
using eds::srv::QueryService;
using eds::srv::ServiceOptions;
using eds::srv::ServedQuery;

// Literal-variant workload over a handful of templates: after one miss per
// template, every query is a cache hit.
std::string WorkloadQuery(size_t i) {
  switch (i % 3) {
    case 0:
      return "SELECT Title FROM FILM WHERE Numf > " +
             std::to_string(i % 40) + " AND Numf < " +
             std::to_string(60 + (i % 40));
    case 1:
      return "SELECT Numf FROM FILM WHERE MEMBER('Adventure', Categories) "
             "AND Numf < " +
             std::to_string(20 + (i % 30));
    default:
      return "SELECT F.Title FROM FILM F, APPEARS_IN A WHERE "
             "F.Numf = A.Numf AND F.Numf = " +
             std::to_string(1 + (i % 50));
  }
}

// Throughput with a real worker pool: submit a batch of futures, drain
// them, count queries/sec. Compare workers=1 against workers=4 (and see
// the cpus counter for how much parallelism the host could give).
void BM_ServeThroughput(benchmark::State& state) {
  const size_t workers = static_cast<size_t>(state.range(0));
  auto session = MakeFilmDb(100);
  ServiceOptions options;
  options.workers = workers;
  options.queue_capacity = 256;
  QueryService service(session.get(), options);
  Check(service.Start(), "start");
  const size_t kBatch = 64;
  size_t served_total = 0;
  for (auto _ : state) {
    std::vector<std::future<eds::Result<ServedQuery>>> futures;
    futures.reserve(kBatch);
    for (size_t i = 0; i < kBatch; ++i) {
      futures.push_back(service.Submit(WorkloadQuery(i)));
    }
    for (auto& f : futures) {
      auto r = f.get();
      Check(r.status(), "serve");
      benchmark::DoNotOptimize(r->result.rows);
    }
    served_total += kBatch;
  }
  state.SetItemsProcessed(static_cast<int64_t>(served_total));
  state.counters["cpus"] =
      static_cast<double>(std::thread::hardware_concurrency());
  auto cs = service.cache().GetStats();
  state.counters["cache_hits"] = static_cast<double>(cs.hits);
  auto ss = service.GetStats();
  state.counters["rejected"] = static_cast<double>(ss.rejected);
  service.Stop();
}
BENCHMARK(BM_ServeThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->ArgNames({"workers"})
    ->UseRealTime();

// Admission-control overhead: a full queue shedding every submission. The
// cost of a rejection must stay trivial (a mutex, a string) — load shed is
// the cheap path by design.
void BM_ServeLoadShedRejection(benchmark::State& state) {
  auto session = MakeFilmDb(10);
  ServiceOptions options;
  options.workers = 0;  // nothing drains: the queue stays full
  options.queue_capacity = 4;
  QueryService service(session.get(), options);
  Check(service.Start(), "start");
  for (size_t i = 0; i < options.queue_capacity; ++i) {
    service.Submit(WorkloadQuery(i));  // fill; futures intentionally dropped
  }
  for (auto _ : state) {
    auto r = service.Submit("SELECT Numf FROM FILM").get();
    if (r.ok()) throw std::runtime_error("expected load shed");
    benchmark::DoNotOptimize(r.status());
  }
  service.Stop();
}
BENCHMARK(BM_ServeLoadShedRejection);

}  // namespace

BENCHMARK_MAIN();
