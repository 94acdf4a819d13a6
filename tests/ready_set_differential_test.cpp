// Dirty-set vs full-scan differential testing (ready_set.hpp).
//
// The event-driven schedulers owe one thing above all: the ready-set
// candidate collection must equal the reference full-tree scan, every round,
// on every specification — including the deliberately ill-formed flavors
// whose guards read state no dirty hook can see (the guard-stickiness rule
// exists for exactly those). Two layers of checking:
//
//   * ExecutorConfig::verify_ready_set — the scheduler itself recomputes the
//     reference full scan after every dirty-set collection and throws on the
//     first divergence; the sweep here runs the shared random-spec generator
//     through Sequential and FreeRunning at threads 1 (barrier rounds) and
//     4 (free dispatch on proven specs) with the flag on. Whole runs
//     against the tree scan are compared in random_spec_differential_test,
//     whose ParallelSim leg collects with it.
//   * hot-path assertions — on a sparse world (N idle, K active) the
//     dirty-set scheduler must examine an order of magnitude fewer guards
//     per firing than one full-scan collection does per candidate, and
//     steady-state rounds must not grow any scheduler buffer
//     (rounds_with_allocation == 0 on a warmed executor).
//
// Also pinned here: topology changes (new module) and dynamically registered
// transitions invalidate the ready state — a reused executor must not skip
// them — and MetricsObserver carries the hot-path counters.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "estelle/executor.hpp"
#include "estelle/metrics.hpp"
#include "estelle/module.hpp"
#include "estelle/sched.hpp"
#include "estelle/trace.hpp"
#include "random_spec_gen.hpp"

namespace mcam::estelle {
namespace {

using common::SimTime;

int spec_count() {
  if (const char* env = std::getenv("MCAM_SOAK_SPECS"))
    return std::max(1, std::atoi(env));
  return 50;
}

RunReport run_verified(std::uint64_t seed, ExecutorKind kind, int threads) {
  specgen::GeneratedWorld g = specgen::generate(seed);
  ExecutorConfig cfg;
  cfg.kind = kind;
  cfg.processors = 4;
  cfg.threads = threads;
  cfg.verify_ready_set = true;
  TraceRecorder trace;  // observed runs take the announcement paths too
  return make_executor(*g.spec, cfg)->run({.observers = {&trace}});
}

TEST(ReadySetDifferential, VerifiedAgainstFullScanEveryRound) {
  // verify_ready_set makes every round self-checking: any candidate-set
  // divergence between the dirty-set collector and the reference full scan
  // throws std::logic_error out of run(). Sweeping the generator (ill-formed
  // flavors, sparse flavor, delays, multi-shard) with the flag on is the
  // strongest exactness statement this suite can make.
  const int n = spec_count();
  for (std::uint64_t seed = 1; seed <= static_cast<std::uint64_t>(n); ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    for (const auto& [kind, threads] :
         {std::pair{ExecutorKind::Sequential, 1},
          std::pair{ExecutorKind::FreeRunning, 1},
          std::pair{ExecutorKind::FreeRunning, 4}}) {
      SCOPED_TRACE(std::string(executor_kind_name(kind)) + " threads " +
                   std::to_string(threads));
      const RunReport r = run_verified(seed, kind, threads);
      EXPECT_EQ(r.reason, StopReason::Quiescent);
      EXPECT_GT(r.fired, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Sparse-activity hot path

/// N idle entities (consumers of never-written channels) plus K ping-pong
/// pairs exchanging one token forever — the bench_hot_path shape, small.
struct SparseWorld {
  Specification spec{"sparse"};
  Module* sys = nullptr;
  std::vector<Module*> pongs;

  explicit SparseWorld(int idle, int pairs) {
    sys = &spec.root().create_child<Module>("sys", Attribute::SystemProcess);
    auto& mute = sys->create_child<Module>("mute", Attribute::Process);
    for (int i = 0; i < idle; ++i) {
      auto& m = sys->create_child<Module>("idle" + std::to_string(i),
                                          Attribute::Process);
      connect(mute.ip("o" + std::to_string(i)), m.ip("in"));
      m.trans("never").when(m.ip("in")).action(
          [](Module&, const Interaction*) {});
    }
    for (int p = 0; p < pairs; ++p) {
      auto& a = sys->create_child<Module>("ping" + std::to_string(p),
                                          Attribute::Process);
      auto& b = sys->create_child<Module>("pong" + std::to_string(p),
                                          Attribute::Process);
      connect(a.ip("out"), b.ip("in"));
      connect(b.ip("out"), a.ip("in"));
      for (Module* m : {&a, &b}) {
        m->trans("hit").when(m->ip("in")).action(
            [m](Module&, const Interaction*) {
              m->ip("out").output(Interaction(1));
            });
      }
      pongs.push_back(&b);
    }
    spec.initialize();
    // Arm each pair: the token enters ping's inbox through the pong link.
    for (Module* b : pongs) b->ip("out").output(Interaction(1));
  }
};

TEST(ReadySetDifferential, SparseWorldExaminesOnlyActiveGuards) {
  constexpr int kIdle = 512;
  constexpr int kPairs = 4;
  constexpr std::uint64_t kRounds = 200;

  // One full-scan collection prices a round of the tree scan: every guard in
  // the tree, for that round's candidates (each of which then fires).
  SparseWorld probe(kIdle, kPairs);
  int effort = 0;
  const std::size_t candidates =
      collect_firing_set(*probe.sys, SimTime{}, &effort).size();
  ASSERT_EQ(candidates, static_cast<std::size_t>(kPairs));
  const double full =
      static_cast<double>(effort) / static_cast<double>(candidates);

  SparseWorld measured(kIdle, kPairs);
  const RunReport r = make_executor(measured.spec)->run(
      {.stop = {StopCondition::max_steps(kRounds)}});
  EXPECT_EQ(r.reason, StopReason::StepLimit);
  ASSERT_GT(r.fired, 0u);
  const double ready =
      static_cast<double>(r.guards_examined) / static_cast<double>(r.fired);
  // K active modules among N idle: the full scan pays for every idle guard
  // every round; the dirty set examines only what moved. The 10x bar is the
  // acceptance line; at 512/4 the real ratio is far larger.
  EXPECT_GE(full / ready, 10.0)
      << "full=" << full << " guards/firing, ready=" << ready;

  // Steady state allocates nothing: a warmed executor's next run must not
  // grow any scheduler buffer.
  SparseWorld world(kIdle, kPairs);
  auto executor = make_executor(world.spec, {});
  const RunReport warm =
      executor->run({.stop = {StopCondition::max_steps(kRounds)}});
  EXPECT_GT(warm.fired, 0u);
  const RunReport steady =
      executor->run({.stop = {StopCondition::max_steps(kRounds)}});
  EXPECT_GT(steady.fired, 0u);
  EXPECT_EQ(steady.rounds_with_allocation, 0u)
      << "steady-state rounds must not allocate";
}

TEST(ReadySetDifferential, TopologyMutationInvalidatesReadyState) {
  // FreeRunning at threads 1 takes barrier rounds; at 2 it free-runs the
  // one-shard spec.
  for (const auto& [kind, threads] :
       {std::pair{ExecutorKind::Sequential, 1},
        std::pair{ExecutorKind::FreeRunning, 1},
        std::pair{ExecutorKind::FreeRunning, 2}}) {
    SCOPED_TRACE(std::string(executor_kind_name(kind)) + " threads " +
                 std::to_string(threads));
    Specification spec("mutate");
    auto& sys =
        spec.root().create_child<Module>("sys", Attribute::SystemProcess);
    auto& base = sys.create_child<Module>("base", Attribute::Process);
    int base_fired = 0;
    base.trans("once")
        .from(0)
        .to(1)
        .action([&base_fired](Module&, const Interaction*) { ++base_fired; });
    spec.initialize();

    ExecutorConfig cfg;
    cfg.kind = kind;
    cfg.threads = threads;
    auto executor = make_executor(spec, cfg);
    EXPECT_EQ(executor->run().fired, 1u);
    EXPECT_EQ(base_fired, 1);

    // (a) A module created after a completed run (topology change): the
    // reused executor must reseed and fire its transition.
    int late_fired = 0;
    auto& late = sys.create_child<Module>("late", Attribute::Process);
    late.trans("hello")
        .from(0)
        .to(1)
        .action([&late_fired](Module&, const Interaction*) { ++late_fired; });
    EXPECT_EQ(executor->run().fired, 1u);
    EXPECT_EQ(late_fired, 1);

    // (b) A transition registered on an existing, long-idle module (no
    // topology change — the dirty hook in add_transition must cover it).
    int extra_fired = 0;
    base.trans("extra")
        .from(1)
        .to(2)
        .action([&extra_fired](Module&, const Interaction*) { ++extra_fired; });
    EXPECT_EQ(executor->run().fired, 1u);
    EXPECT_EQ(extra_fired, 1);
  }
}

TEST(ReadySetDifferential, MetricsObserverCarriesHotPathCounters) {
  SparseWorld world(16, 2);
  auto executor = make_executor(world.spec, {});
  MetricsObserver metrics;
  const RunReport r = executor->run(
      {.stop = {StopCondition::max_steps(50)}, .observers = {&metrics}});
  EXPECT_GT(r.guards_examined, 0u);
  EXPECT_GT(r.candidates_considered, 0u);
  EXPECT_EQ(metrics.guards_examined(), r.guards_examined);
  EXPECT_EQ(metrics.candidates_considered(), r.candidates_considered);
  EXPECT_EQ(metrics.rounds_with_allocation(), r.rounds_with_allocation);
  EXPECT_GT(metrics.guards_per_firing(), 0.0);
  EXPECT_NE(metrics.to_string().find("hot path:"), std::string::npos);
}

}  // namespace
}  // namespace mcam::estelle
