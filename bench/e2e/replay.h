#ifndef EDS_BENCH_E2E_REPLAY_H_
#define EDS_BENCH_E2E_REPLAY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "srv/l0_cache.h"
#include "srv/plan_cache.h"
#include "workload.h"

namespace e2e {

// The traced run's per-layer breakdown. The first requests of a workload
// (same seed, global-id order) are replayed on one thread through each
// layer's public functions, in QueryService::ServeNow's order and wrapped
// in the wire steps net::Server and net::Client perform: QUERY frame over a
// loopback TCP pair, decode, serve, RenderServed, EncodeResult + frame, and
// the RESULT back over the socket. The replay owns an identically built
// Session plus an L0Cache and a PlanCache at the service's default
// capacities. Writes are not replayed.
// Which cache tier answered a request, from its RESULT's serving flags.
enum class Tier : uint8_t { kL0, kTemplate, kRewrite, kFailed };
Tier TierOf(const eds::net::ResultMsg& msg);

struct ReplayOptions {
  size_t max_requests = 20'000;
  double budget_seconds = 5.0;  // the traced pass stops here at the latest
  std::string persist_path;     // scratch file for the save/load timings
  std::string trace_path;       // Chrome trace of the traced pass
};

struct ReplayResult {
  size_t requests = 0;
  // Per request, over a repeat of the same requests with spans off and on
  // (interleaved).
  double untraced_mean_us = 0;
  double traced_mean_us = 0;
  // Span name -> self time (us) in each replayed request the layer ran in.
  // Self time = span duration minus child coverage.
  std::map<std::string, std::vector<double>> self_us;
  double result_bytes = 0;  // mean RESULT frame size
  eds::srv::L0Cache::Stats l0;
  eds::srv::PlanCache::Stats cache;
  uint64_t rewrite_applications = 0;
  uint64_t rewrite_match_attempts = 0;
  uint64_t rows_scanned = 0;
  uint64_t rows_output = 0;
  uint64_t vec_fallbacks = 0;
  uint64_t errors = 0;
  std::vector<Tier> tiers;  // per replayed request, by global id
  double persist_save_ms = 0;  // medians of 5
  double persist_load_ms = 0;
  uint64_t persist_bytes = 0;
  // Global request id -> sorted rendered rows, for the ids asked for.
  std::map<uint64_t, std::vector<std::string>> rows;
};

// Replays `workload` as described above: a traced pass bounded by
// `options`, then the same requests untraced and traced again, interleaved,
// for the tracing overhead. Throws on setup failure.
ReplayResult Replay(Workload workload, uint64_t seed,
                    const std::vector<uint64_t>& wanted_ids,
                    const ReplayOptions& options);

// A result's rows as one sorted list of "\x1f"-joined cells: the bag form
// answers are compared in.
std::vector<std::string> SortedRows(
    const std::vector<std::vector<std::string>>& rows);

}  // namespace e2e

#endif  // EDS_BENCH_E2E_REPLAY_H_
