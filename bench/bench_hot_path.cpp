// Sparse-activity hot-path bench: event-driven dirty-set scheduling vs the
// full-tree scan it replaced.
//
// The workload models a real protocol stack's steady state: N protocol
// entities exist, K ≪ N are active. Idle entities are consumers parked on
// channels whose writer never fires (wired, guarded, head-checked — exactly
// what a full scan pays for every round); the active ones are ping-pong
// pairs exchanging a token every round, so every round fires K transitions
// forever. Sweeping N at fixed K shows the point of the PR:
//
//   * full scan — guards examined per firing grows linearly with N. Each
//     baseline round is the round the ready set replaced: one
//     collect_firing_set over the system module, then every candidate that
//     still revalidates fires. It is timed bare, with no executor around it.
//   * dirty set — the Sequential executor. Guards per firing stay flat (only
//     the modules something happened to are examined), rounds/sec stops
//     degrading with idle population, and a steady-state round performs
//     zero heap allocations (RunReport::rounds_with_allocation,
//     counter-verified here).
//
// Acceptance: at N=1024, K=8 the guards-examined-per-firing ratio
// full/dirty must be >= 10x, and the warmed second run must report zero
// allocating rounds.
//
// Emits bench_hot_path.json (argv[1] overrides the path) so CI can archive
// the trajectory, like bench_sharded_scaling.json.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "estelle/executor.hpp"
#include "estelle/module.hpp"
#include "estelle/sched.hpp"
#include "sparse_world.hpp"

using namespace mcam;
using common::SimTime;
using estelle::FiringCandidate;
using estelle::Module;
using estelle::RunReport;
using estelle::StopCondition;
using bench::SparseWorld;

namespace {

struct Measurement {
  double wall_ms = 0;
  double rounds_per_sec = 0;
  double guards_per_firing = 0;
  unsigned long long fired = 0;
  unsigned long long steady_alloc_rounds = 0;  // second (warmed) run
};

double elapsed_ms(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// The baseline: `rounds` tree-scan rounds after a warm-up tenth.
Measurement run_scan(int entities, int active, std::uint64_t rounds) {
  SparseWorld world(entities, active);
  Module& sys = *world.spec->system_modules().front();
  const SimTime now{};  // no delay clauses: the clock does not matter
  std::uint64_t guards = 0;
  std::uint64_t fired = 0;
  const auto round = [&] {
    int effort = 0;
    for (const FiringCandidate& c :
         estelle::collect_firing_set(sys, now, &effort)) {
      if (!estelle::is_fireable(*c.transition, *c.module, now)) continue;
      estelle::fire(c, now);
      ++fired;
    }
    guards += static_cast<std::uint64_t>(effort);
  };
  for (std::uint64_t r = 0; r < rounds / 10 + 1; ++r) round();
  guards = 0;
  fired = 0;

  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t r = 0; r < rounds; ++r) round();
  Measurement m;
  m.wall_ms = elapsed_ms(start);
  m.rounds_per_sec =
      m.wall_ms > 0 ? static_cast<double>(rounds) / (m.wall_ms / 1e3) : 0;
  m.fired = fired;
  m.guards_per_firing =
      fired > 0 ? static_cast<double>(guards) / static_cast<double>(fired) : 0;
  return m;
}

/// The dirty set: the Sequential executor, `rounds` rounds after a warm-up
/// run that sizes every persistent buffer; the measured run is the steady
/// state the counters certify.
Measurement run_dirty(int entities, int active, std::uint64_t rounds) {
  SparseWorld world(entities, active);
  auto executor = estelle::make_executor(*world.spec);
  executor->run({.stop = {StopCondition::max_steps(rounds / 10 + 1)}});

  const auto start = std::chrono::steady_clock::now();
  const RunReport r =
      executor->run({.stop = {StopCondition::max_steps(rounds)}});
  Measurement m;
  m.wall_ms = elapsed_ms(start);
  m.rounds_per_sec =
      m.wall_ms > 0 ? static_cast<double>(r.steps) / (m.wall_ms / 1e3) : 0;
  m.fired = r.fired;
  m.guards_per_firing =
      r.fired > 0 ? static_cast<double>(r.guards_examined) /
                        static_cast<double>(r.fired)
                  : 0;
  m.steady_alloc_rounds = r.rounds_with_allocation;
  return m;
}

template <typename Run>
Measurement best_of(Run run, int reps = 3) {
  Measurement best = run();
  for (int i = 1; i < reps; ++i) {
    Measurement m = run();
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
      "== sparse-activity hot path: K=%d active among N entities, %llu "
      "rounds ==\n\n",
      kActive, static_cast<unsigned long long>(kRounds));
  std::printf("%6s %14s %14s %10s | %14s %14s %10s | %9s %11s\n", "N",
              "full rnd/s", "dirty rnd/s", "speedup", "full g/fire",
              "dirty g/fire", "ratio", "alloc rds", "(steady)");

  std::string rows;
  bool meets_ratio = false;
  bool meets_alloc = false;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const int n = sweep[i];
    const Measurement full =
        best_of([&] { return run_scan(n, kActive, kRounds); });
    const Measurement dirty =
        best_of([&] { return run_dirty(n, kActive, kRounds); });
    const double speedup =
        dirty.wall_ms > 0 ? full.wall_ms / dirty.wall_ms : 0;
    const double ratio = dirty.guards_per_firing > 0
                             ? full.guards_per_firing / dirty.guards_per_firing
                             : 0;
    std::printf(
        "%6d %14.0f %14.0f %9.2fx | %14.2f %14.2f %9.1fx | %9llu %11s\n", n,
        full.rounds_per_sec, dirty.rounds_per_sec, speedup,
        full.guards_per_firing, dirty.guards_per_firing, ratio,
        dirty.steady_alloc_rounds,
        dirty.steady_alloc_rounds == 0 ? "zero-alloc" : "ALLOCATES");
    if (n == 1024) {
      meets_ratio = ratio >= 10.0;
      meets_alloc = dirty.steady_alloc_rounds == 0;
    }
    rows += "    {\"entities\": " + std::to_string(n) +
            ", \"active\": " + std::to_string(kActive) +
            ", \"rounds\": " + std::to_string(kRounds) +
            ", \"full\": {\"wall_ms\": " + num(full.wall_ms) +
            ", \"rounds_per_sec\": " + num(full.rounds_per_sec) +
            ", \"guards_per_firing\": " + num(full.guards_per_firing) +
            "}, \"dirty\": {\"wall_ms\": " + num(dirty.wall_ms) +
            ", \"rounds_per_sec\": " + num(dirty.rounds_per_sec) +
            ", \"guards_per_firing\": " + num(dirty.guards_per_firing) +
            ", \"steady_alloc_rounds\": " +
            std::to_string(dirty.steady_alloc_rounds) +
            "}, \"speedup_wall\": " + num(speedup) +
            ", \"guards_ratio\": " + num(ratio) + "}";
    rows += i + 1 < sweep.size() ? ",\n" : "\n";
  }

  std::printf(
      "\nacceptance @ N=1024, K=8: guards-per-firing ratio %s 10x target; "
      "steady-state rounds %s zero-alloc target\n",
      meets_ratio ? "meets" : "MISSES", meets_alloc ? "meet" : "MISS");

  const char* json_path = argc > 1 ? argv[1] : "bench_hot_path.json";
  if (std::FILE* f = std::fopen(json_path, "w")) {
    std::fprintf(f,
                 "{\n  \"benchmark\": \"bench_hot_path\",\n"
                 "  \"active\": %d,\n  \"sweep\": [\n%s  ],\n"
                 "  \"acceptance\": {\"guards_ratio_10x\": %s, "
                 "\"steady_state_zero_alloc\": %s}\n}\n",
                 kActive, rows.c_str(), meets_ratio ? "true" : "false",
                 meets_alloc ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  } else {
    std::fprintf(stderr, "could not write %s\n", json_path);
    return 1;
  }
  return meets_ratio && meets_alloc ? 0 : 1;
}
