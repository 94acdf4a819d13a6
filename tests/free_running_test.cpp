// FreeRunning executor tests: barrier-free continuation dispatch
// (free_executor.hpp).
//
// The backend's contract, pinned here:
//   * announced trace identical to Sequential on every generated spec —
//     free-running dispatch owes it on conflict-free specs (round-stamped
//     mailboxes + neighbor gates), and the barrier fallback owes it on
//     conflicted ones (announce-after-revalidation), so the sweep asserts
//     exact equality unconditionally, world snapshot and fired count
//     included;
//   * the fallback really engages: specs ConflictAnalysis cannot prove
//     conflict-free report fallback_rounds > 0, proven ones report 0;
//   * the width rule: a proven spec free-runs only at a width of at least
//     max(2, shard count); at width one every round is a barrier round;
//   * exact stop-condition cutoff without a barrier: max_steps produces
//     identical fired counts and world state to Sequential at the same
//     budget (the shard-quiesce handshake), deadlines pin now() exactly;
//   * park/wake lifecycle: shards park passive at quiescence, mailbox wakes
//     resume them, the firing-log high-water is bounded and observed;
//   * reentrancy: a run started from a stop predicate while continuations
//     are parked must not strand them;
//   * the session → barrier handoff: transfers a stopped session left
//     parked drain in the first barrier round, in send order.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "estelle/conflict.hpp"
#include "estelle/executor.hpp"
#include "estelle/free_executor.hpp"
#include "estelle/metrics.hpp"
#include "estelle/module.hpp"
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

struct Outcome {
  std::vector<std::string> trace;
  std::string world;
  StopReason reason{};
  std::uint64_t fired = 0;
  RunReport report;
};

Outcome run_backend(std::uint64_t seed, ExecutorKind kind) {
  specgen::GeneratedWorld g = specgen::generate(seed);
  ExecutorConfig cfg;
  cfg.kind = kind;
  cfg.threads = 4;
  auto executor = make_executor(*g.spec, cfg);

  TraceRecorder trace;
  Outcome out;
  out.report = executor->run({.observers = {&trace}});
  out.reason = out.report.reason;
  out.fired = out.report.fired;
  out.trace.reserve(trace.events().size());
  for (const TraceEvent& e : trace.events())
    out.trace.push_back(e.module_path + "/" + e.transition);
  out.world = specgen::world_snapshot(*g.spec);
  return out;
}

TEST(FreeRunning, MatchesSequentialExactlyOnGeneratedSpecs) {
  const int n = spec_count();
  int free_dispatched = 0, fell_back = 0, multi_shard_free = 0;
  for (std::uint64_t seed = 1; seed <= static_cast<std::uint64_t>(n); ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    specgen::GeneratedWorld probe = specgen::generate(seed);
    ConflictAnalysis analysis(*probe.spec);

    const Outcome seq = run_backend(seed, ExecutorKind::Sequential);
    ASSERT_EQ(seq.reason, StopReason::Quiescent);
    ASSERT_GT(seq.fired, 0u);

    const Outcome fr = run_backend(seed, ExecutorKind::FreeRunning);
    EXPECT_EQ(fr.reason, StopReason::Quiescent);
    EXPECT_EQ(fr.world, seq.world) << "FreeRunning world diverged";
    EXPECT_EQ(fr.fired, seq.fired);
    EXPECT_EQ(fr.trace, seq.trace) << "FreeRunning trace diverged";

    // Conflict-freedom decides the dispatch style; both must be exercised.
    if (analysis.conflict_free()) {
      EXPECT_EQ(fr.report.free_running.fallback_rounds, 0u)
          << "proven conflict-free spec took the barrier fallback";
      ++free_dispatched;
      if (probe.nsys > 1) ++multi_shard_free;
      EXPECT_GT(fr.report.free_running.parks, 0u)
          << "a free session must park at least at quiescence";
    } else {
      EXPECT_GT(fr.report.free_running.fallback_rounds, 0u)
          << "conflicted spec must fall back to barrier rounds";
      ++fell_back;
    }
  }
  if (n >= 50) {
    // Diversity floor, like the backend differential's: the sweep must hit
    // genuine free-running dispatch (including gated multi-shard pipelines)
    // AND the fallback path, or the assertions above are vacuous.
    EXPECT_GE(free_dispatched, 20);
    EXPECT_GE(multi_shard_free, 3);
    EXPECT_GE(fell_back, 3);
  }
}

TEST(FreeRunning, WidthOneTakesBarrierRoundsOnAProvenSpec) {
  // A proven one-shard spec that never quiesces, cut at a round budget: at
  // threads = 1 the run thread alone takes every round as a barrier round
  // and builds no pool; at threads = 2 the same spec free-runs and takes
  // none. Both fire what Sequential fires, at the same times.
  static constexpr std::uint64_t kBudget = 40;
  const auto run = [](const ExecutorConfig& cfg) {
    Specification spec("width");
    auto& sys =
        spec.root().create_child<Module>("sys", Attribute::SystemProcess);
    auto& ping = sys.create_child<Module>("ping", Attribute::Process);
    auto& pong = sys.create_child<Module>("pong", Attribute::Process);
    connect(ping.ip("out"), pong.ip("in"));
    connect(pong.ip("out"), ping.ip("in"));
    for (Module* m : {&ping, &pong}) {
      m->trans("hit")
          .when(m->ip("in"))
          .cost(SimTime::from_us(5))
          .action([m](Module& self, const Interaction*) {
            self.set_state(self.state() + 1);
            m->ip("out").output(Interaction(1));
          });
    }
    spec.initialize();
    EXPECT_TRUE(ConflictAnalysis(spec).conflict_free());
    pong.ip("out").output(Interaction(1));

    TraceRecorder trace;
    auto executor = make_executor(spec, cfg);
    std::pair<RunReport, std::vector<std::string>> out;
    out.first = executor->run(
        {.stop = {StopCondition::max_steps(kBudget)}, .observers = {&trace}});
    for (const TraceEvent& e : trace.events())
      out.second.push_back(e.module_path + "/" + e.transition + "@" +
                           std::to_string(e.when.ns));
    if (cfg.kind == ExecutorKind::FreeRunning) {
      const auto& free = static_cast<const FreeRunningExecutor&>(*executor);
      EXPECT_EQ(free.pool() == nullptr, cfg.threads == 1);
    }
    return out;
  };
  const auto seq = run({});
  ASSERT_EQ(seq.first.fired, kBudget);  // one hit per round

  const auto narrow = run({.kind = ExecutorKind::FreeRunning, .threads = 1});
  EXPECT_EQ(narrow.first.reason, StopReason::StepLimit);
  EXPECT_EQ(narrow.first.steps, kBudget);
  EXPECT_EQ(narrow.first.free_running.fallback_rounds, narrow.first.steps);
  EXPECT_EQ(narrow.second, seq.second);

  const auto wide = run({.kind = ExecutorKind::FreeRunning, .threads = 2});
  EXPECT_EQ(wide.first.reason, StopReason::StepLimit);
  EXPECT_EQ(wide.first.steps, kBudget);
  EXPECT_EQ(wide.first.free_running.fallback_rounds, 0u);
  EXPECT_EQ(wide.second, seq.second);
}

// ---------------------------------------------------------------------------
// Exact stop cutoff without a barrier

/// Two independent system modules, each ticking forever — the worst case for
/// run-ahead: nothing ever gates the shards, only the release limit can.
struct TwinTickers {
  Specification spec{"twins"};
  explicit TwinTickers() {
    for (int i = 0; i < 2; ++i) {
      auto& sys = spec.root().create_child<Module>("sys" + std::to_string(i),
                                                   Attribute::SystemProcess);
      auto& w = sys.create_child<Module>("w", Attribute::Process);
      w.trans("tick").cost(SimTime::from_us(5)).action(
          [](Module& m, const Interaction*) { m.set_state(m.state() + 1); });
    }
    spec.initialize();
  }
};

TEST(FreeRunning, MaxStepsCutoffIsExact) {
  static constexpr std::uint64_t kBudget = 137;
  const auto fired_at_budget = [](ExecutorKind kind) {
    TwinTickers world;
    auto executor = make_executor(world.spec, {.kind = kind, .threads = 4});
    const RunReport r =
        executor->run({.stop = {StopCondition::max_steps(kBudget)}});
    EXPECT_EQ(r.reason, StopReason::StepLimit);
    EXPECT_EQ(r.steps, kBudget);
    std::string states;
    world.spec.root().for_each(
        [&](Module& m) { states += std::to_string(m.state()) + ";"; });
    return std::make_pair(r.fired, states);
  };
  const auto seq = fired_at_budget(ExecutorKind::Sequential);
  const auto fr = fired_at_budget(ExecutorKind::FreeRunning);
  // The shard-quiesce handshake: free-running shards stop at exactly the
  // budgeted round, so the fired count and world match the barrier loops.
  EXPECT_EQ(fr.first, seq.first);
  EXPECT_EQ(fr.second, seq.second);
  EXPECT_EQ(seq.first, 2 * kBudget);  // two shards, one firing each per round
}

TEST(FreeRunning, DeadlineDoesNotOvershootAndPinsEveryShard) {
  TwinTickers world;
  auto executor = make_executor(
      world.spec, {.kind = ExecutorKind::FreeRunning, .threads = 4});
  const SimTime deadline = SimTime::from_us(500);
  const RunReport r =
      executor->run({.stop = {StopCondition::deadline(deadline)}});
  EXPECT_EQ(r.reason, StopReason::DeadlineReached);
  EXPECT_GE(executor->now(), deadline);
  // No shard ran past the deadline by more than one round's costs: each
  // shard's clock is pinned at its first round boundary at/after it.
  for (const ShardRunStats& s : r.shards)
    EXPECT_LT(s.clock, deadline + SimTime::from_us(20)) << s.system_module;
}

// ---------------------------------------------------------------------------
// Park/wake lifecycle across a shard boundary

TEST(FreeRunning, MailboxWakeDrivesAPassiveConsumerShard) {
  // Producer shard streams 40 tokens; the consumer shard has nothing
  // spontaneous, so it runs purely on cross-shard arrivals — parking passive
  // whenever its pipeline stage drains and resuming on the mailbox wake.
  Specification spec("pipeline");
  auto& psys = spec.root().create_child<Module>("p", Attribute::SystemProcess);
  auto& csys = spec.root().create_child<Module>("c", Attribute::SystemProcess);
  auto& prod = psys.create_child<Module>("prod", Attribute::Process);
  auto& cons = csys.create_child<Module>("cons", Attribute::Process);
  connect(prod.ip("out"), cons.ip("in"));
  int sent = 0;
  prod.trans("send")
      .cost(SimTime::from_us(3))
      .provided([&sent](Module&, const Interaction*) { return sent < 40; })
      .action([&sent, &prod](Module& m, const Interaction*) {
        ++sent;
        prod.ip("out").output(Interaction(1, sent));
        m.set_state(m.state() + 1);
      });
  int got = 0;
  long long value_sum = 0;
  cons.trans("recv").when(cons.ip("in")).cost(SimTime::from_us(2)).action(
      [&got, &value_sum](Module& m, const Interaction* msg) {
        ++got;
        // Parameters must survive the mailbox round-trip intact — future-
        // stamped transfers sit parked across partial drains (regression:
        // a self-move in the drain compaction used to empty them).
        value_sum += msg->value;
        m.set_state(m.state() + 1);
      });
  spec.initialize();

  TraceRecorder trace;
  auto executor = make_executor(
      spec, {.kind = ExecutorKind::FreeRunning, .threads = 2});
  const RunReport r = executor->run({.observers = {&trace}});
  EXPECT_EQ(r.reason, StopReason::Quiescent);
  EXPECT_EQ(got, 40);
  EXPECT_EQ(value_sum, 40 * 41 / 2);  // every payload arrived undamaged
  EXPECT_EQ(r.fired, 80u);
  EXPECT_EQ(r.free_running.fallback_rounds, 0u);
  EXPECT_GT(r.free_running.parks, 0u);
  EXPECT_GT(r.free_running.log_high_water, 0u);
  // Announcement stream is coherent: every send precedes its receive.
  int seen_sends = 0, seen_recvs = 0;
  for (const TraceEvent& e : trace.events()) {
    if (e.transition == "send") ++seen_sends;
    if (e.transition == "recv") {
      ++seen_recvs;
      EXPECT_LE(seen_recvs, seen_sends) << "recv announced before its send";
    }
  }
  EXPECT_EQ(seen_sends, 40);
  EXPECT_EQ(seen_recvs, 40);
}

TEST(FreeRunning, SessionTransfersDrainInOrderIntoBarrierRounds) {
  // A free session stops at max_steps with transfers still parked under its
  // own round stamps. Between the runs a `provided`-guarded queue is wired
  // across the two shards, which ConflictAnalysis cannot prove
  // conflict-free, so the next run continues in barrier rounds. Those must
  // drain the session's leftovers first, in send order: the consumer sees
  // 1..40 exactly as under Sequential.
  const auto received = [](ExecutorKind kind) {
    Specification spec("handoff");
    auto& prod = spec.root()
                     .create_child<Module>("p", Attribute::SystemProcess)
                     .create_child<Module>("prod", Attribute::Process);
    auto& cons = spec.root()
                     .create_child<Module>("c", Attribute::SystemProcess)
                     .create_child<Module>("cons", Attribute::Process);
    connect(prod.ip("out"), cons.ip("in"));
    int sent = 0;
    prod.trans("send")
        .cost(SimTime::from_us(3))
        .provided([&sent](Module&, const Interaction*) { return sent < 40; })
        .action([&sent, &prod](Module&, const Interaction*) {
          ++sent;
          prod.ip("out").output(Interaction(1, sent));
        });
    std::vector<long long> got;
    cons.trans("recv").when(cons.ip("in")).cost(SimTime::from_us(2)).action(
        [&got](Module&, const Interaction* msg) {
          got.push_back(msg->value);
        });
    spec.initialize();

    auto executor = make_executor(spec, {.kind = kind, .threads = 4});
    const RunReport first =
        executor->run({.stop = {StopCondition::max_steps(17)}});
    EXPECT_EQ(first.reason, StopReason::StepLimit);
    // Nothing is ever sent on the back channel: it only revokes the proof.
    connect(cons.ip("back"), prod.ip("ack"));
    prod.trans("ack")
        .when(prod.ip("ack"))
        .provided([](Module&, const Interaction*) { return true; })
        .action([](Module&, const Interaction*) {});
    EXPECT_FALSE(ConflictAnalysis(spec).conflict_free());
    const auto* free = dynamic_cast<const FreeRunningExecutor*>(executor.get());
    const std::uint64_t epochs =
        free != nullptr && free->pool() != nullptr ? free->pool()->epochs() : 0;
    const RunReport rest = executor->run();
    EXPECT_EQ(rest.reason, StopReason::Quiescent);
    if (free != nullptr) {
      EXPECT_EQ(first.free_running.fallback_rounds, 0u);
      EXPECT_GT(rest.free_running.fallback_rounds, 0u);
      // The first run's pool stays; barrier rounds launch no session on it.
      EXPECT_NE(free->pool(), nullptr);
      if (free->pool() != nullptr) EXPECT_EQ(free->pool()->epochs(), epochs);
    }
    return got;
  };
  std::vector<long long> in_order(40);
  for (int i = 0; i < 40; ++i) in_order[static_cast<std::size_t>(i)] = i + 1;
  EXPECT_EQ(received(ExecutorKind::Sequential), in_order);
  EXPECT_EQ(received(ExecutorKind::FreeRunning), in_order);
}

TEST(FreeRunning, MetricsAndHotPathCountersAreWired) {
  TwinTickers world;
  auto executor = make_executor(
      world.spec, {.kind = ExecutorKind::FreeRunning, .threads = 4});
  MetricsObserver metrics;
  const RunReport r = executor->run(
      {.stop = {StopCondition::max_steps(50)}, .observers = {&metrics}});
  EXPECT_GT(r.guards_examined, 0u);
  EXPECT_GT(r.candidates_considered, 0u);
  EXPECT_EQ(metrics.guards_examined(), r.guards_examined);
  EXPECT_EQ(metrics.candidates_considered(), r.candidates_considered);
  EXPECT_EQ(r.kind, ExecutorKind::FreeRunning);
  EXPECT_EQ(r.shards.size(), 2u);
}

TEST(FreeRunning, SteadyStateRunsDoNotAllocate) {
  // Sessions are rebuilt per run, but from persistent high-water buffers: a
  // warmed executor's next run must not grow anything (the same bar the
  // other dirty-set backends meet per round).
  TwinTickers world;
  auto executor = make_executor(
      world.spec, {.kind = ExecutorKind::FreeRunning, .threads = 4});
  executor->run({.stop = {StopCondition::max_steps(100)}});
  const RunReport steady =
      executor->run({.stop = {StopCondition::max_steps(100)}});
  EXPECT_GT(steady.fired, 0u);
  EXPECT_EQ(steady.rounds_with_allocation, 0u)
      << "warmed free-running sessions must not allocate";
}

// ---------------------------------------------------------------------------
// Reentrant runs (the stranded-continuation regression)

TEST(FreeRunning, ReentrantRunDoesNotStrandParkedContinuations) {
  // The outer FreeRunning run (2 shards, width 2) evaluates a stop predicate
  // while its shard continuations are parked at the burst rendezvous. The
  // predicate reentrantly runs the SAME executor, which resumes the parked
  // session and ends it when the inner run ends; the outer run must then
  // start a fresh session rather than wait on continuations that are gone.
  TwinTickers world;
  auto executor = make_executor(
      world.spec, {.kind = ExecutorKind::FreeRunning, .threads = 2});
  int inner_runs = 0;
  RunOptions outer;
  outer.stop.push_back(StopCondition::when([&] {
    if (inner_runs == 0) {
      ++inner_runs;
      RunOptions inner;
      inner.stop.push_back(StopCondition::max_steps(5));
      const RunReport r = executor->run(inner);
      EXPECT_EQ(r.reason, StopReason::StepLimit);
      EXPECT_EQ(r.steps, 5u);
      EXPECT_EQ(r.free_running.fallback_rounds, 0u);
    }
    return false;
  }));
  outer.stop.push_back(StopCondition::max_steps(30));
  const RunReport r = executor->run(outer);
  EXPECT_EQ(r.reason, StopReason::StepLimit);
  EXPECT_EQ(r.free_running.fallback_rounds, 0u);
  EXPECT_EQ(inner_runs, 1);

  // And the executor still free-runs correctly afterwards.
  const RunReport after =
      executor->run({.stop = {StopCondition::max_steps(10)}});
  EXPECT_EQ(after.reason, StopReason::StepLimit);
  EXPECT_EQ(after.steps, 10u);
}

TEST(FreeRunning, QuiescentWorldStaysQuiescentAndSessionsClose) {
  Specification spec("once");
  auto& sys = spec.root().create_child<Module>("sys", Attribute::SystemProcess);
  auto& w = sys.create_child<Module>("w", Attribute::Process);
  w.trans("once").from(0).to(1).action([](Module&, const Interaction*) {});
  spec.initialize();

  FreeRunningExecutor executor(spec, {.threads = 2});
  EXPECT_EQ(executor.run().fired, 1u);
  EXPECT_FALSE(executor.session_active()) << "session must close with the run";
  const RunReport again = executor.run();
  EXPECT_EQ(again.reason, StopReason::Quiescent);
  EXPECT_EQ(again.fired, 0u);
  EXPECT_FALSE(executor.session_active());
}

}  // namespace
}  // namespace mcam::estelle
