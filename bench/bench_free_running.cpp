// Barrier rounds vs free-running continuation dispatch — ExecutorKind::
// FreeRunning's two dispatch styles, at threads = 1 and threads = 2 — on
// the sparse-activity hot-path workload (one shard).
//
// At width one FreeRunning takes barrier rounds on the run thread, paying
// per round: a drain of its shards' cross-shard endpoints, a ledger drain,
// candidate collection, stats aggregation, and (on observed runs) the
// announcement replay. At width two the proven spec free-runs: each shard
// is a continuation that loops the same per-shard rounds locally and syncs
// only through round-stamped mailboxes. Neither sweeps every interaction
// point per round (both drain only cross-shard endpoints), so both
// per-round costs are independent of the idle population: sweeping N idle
// entities at fixed K active keeps both flat, and the gate below compares
// two dispatches of equal per-round cost, the free one saving only the
// barrier. The JSON keeps its historical names: "sharded" is the barrier
// leg.
//
// Acceptance: at N=1024, K=8 free dispatch must reach >= 1x the barrier
// leg's rounds/sec, and the warmed free run must report zero allocating
// rounds and no fallback round. Emits bench_free_running.json (argv[1]
// overrides) for the CI artifact trend, like bench_hot_path.json.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "estelle/executor.hpp"
#include "estelle/module.hpp"
#include "sparse_world.hpp"

using namespace mcam;
using estelle::ExecutorConfig;
using estelle::RunReport;
using estelle::StopCondition;
using bench::SparseWorld;

namespace {

struct Measurement {
  double wall_ms = 0;
  double rounds_per_sec = 0;
  unsigned long long fired = 0;
  unsigned long long steady_alloc_rounds = 0;  // second (warmed) run
  unsigned long long fallback_rounds = 0;
};

/// One shard, so `threads` picks the dispatch, not parallelism: 1 takes
/// barrier rounds, 2 free-runs.
Measurement run_once(int entities, int active, std::uint64_t rounds,
                     int threads) {
  SparseWorld world(entities, active);
  ExecutorConfig cfg;
  cfg.kind = estelle::ExecutorKind::FreeRunning;
  cfg.threads = threads;
  auto executor = estelle::make_executor(*world.spec, cfg);
  // Warm-up run sizes every persistent buffer; the measured run is the
  // steady state the counters certify.
  executor->run({.stop = {StopCondition::max_steps(rounds / 10 + 1)}});

  const auto start = std::chrono::steady_clock::now();
  const RunReport r =
      executor->run({.stop = {StopCondition::max_steps(rounds)}});
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  Measurement m;
  m.wall_ms = wall_ms;
  m.rounds_per_sec =
      wall_ms > 0 ? static_cast<double>(r.steps) / (wall_ms / 1e3) : 0;
  m.fired = r.fired;
  m.steady_alloc_rounds = r.rounds_with_allocation;
  m.fallback_rounds = r.free_running.fallback_rounds;
  return m;
}

Measurement best_of(int entities, int active, std::uint64_t rounds,
                    int threads, int reps = 3) {
  Measurement best = run_once(entities, active, rounds, threads);
  for (int i = 1; i < reps; ++i) {
    Measurement m = run_once(entities, active, rounds, threads);
    if (m.wall_ms < best.wall_ms) best = m;
  }
  return best;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.4f", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr int kActive = 8;
  constexpr std::uint64_t kRounds = 2000;
  const std::vector<int> sweep = {64, 256, 1024, 4096};

  std::printf(
      "== epochs vs free-running: K=%d active among N entities, %llu rounds "
      "==\n\n",
      kActive, static_cast<unsigned long long>(kRounds));
  std::printf("%6s %16s %16s %10s | %10s %12s\n", "N", "barrier rnd/s",
              "free rnd/s", "speedup", "alloc rds", "(free)");

  std::string rows;
  bool meets_speed = false;
  bool meets_alloc = false;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const int n = sweep[i];
    const Measurement epochs = best_of(n, kActive, kRounds, /*threads=*/1);
    const Measurement free_run = best_of(n, kActive, kRounds, /*threads=*/2);
    const double speedup = epochs.rounds_per_sec > 0
                               ? free_run.rounds_per_sec / epochs.rounds_per_sec
                               : 0;
    std::printf("%6d %16.0f %16.0f %9.2fx | %10llu %12s\n", n,
                epochs.rounds_per_sec, free_run.rounds_per_sec, speedup,
                free_run.steady_alloc_rounds,
                free_run.steady_alloc_rounds == 0 ? "zero-alloc" : "ALLOCATES");
    if (n == 1024) {
      meets_speed = speedup >= 1.0;
      meets_alloc = free_run.steady_alloc_rounds == 0 &&
                    free_run.fallback_rounds == 0;
    }
    rows += "    {\"entities\": " + std::to_string(n) +
            ", \"active\": " + std::to_string(kActive) +
            ", \"rounds\": " + std::to_string(kRounds) +
            ", \"sharded\": {\"wall_ms\": " + num(epochs.wall_ms) +
            ", \"rounds_per_sec\": " + num(epochs.rounds_per_sec) +
            "}, \"free_running\": {\"wall_ms\": " + num(free_run.wall_ms) +
            ", \"rounds_per_sec\": " + num(free_run.rounds_per_sec) +
            ", \"steady_alloc_rounds\": " +
            std::to_string(free_run.steady_alloc_rounds) +
            ", \"fallback_rounds\": " +
            std::to_string(free_run.fallback_rounds) +
            "}, \"speedup\": " + num(speedup) + "}";
    rows += i + 1 < sweep.size() ? ",\n" : "\n";
  }

  std::printf(
      "\nacceptance @ N=1024, K=8: free-running %s >= 1x barrier rounds/sec; "
      "steady-state rounds %s zero-alloc (no fallback)\n",
      meets_speed ? "meets" : "MISSES", meets_alloc ? "meet" : "MISS");

  const char* json_path = argc > 1 ? argv[1] : "bench_free_running.json";
  if (std::FILE* f = std::fopen(json_path, "w")) {
    std::fprintf(f,
                 "{\n  \"benchmark\": \"bench_free_running\",\n"
                 "  \"active\": %d,\n  \"sweep\": [\n%s  ],\n"
                 "  \"acceptance\": {\"free_at_least_sharded\": %s, "
                 "\"steady_state_zero_alloc\": %s}\n}\n",
                 kActive, rows.c_str(), meets_speed ? "true" : "false",
                 meets_alloc ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  } else {
    std::fprintf(stderr, "could not write %s\n", json_path);
    return 1;
  }
  return meets_speed && meets_alloc ? 0 : 1;
}
