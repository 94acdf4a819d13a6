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
//     4 (free dispatch on proven specs) with the flag on, with every guard
//     opaque and with the module-local guards declared hooked. The Fig. 2
//     testbed (the MCAM stack, whose production guards are declared hooked)
//     runs under the same check, and a deliberately mis-declared guard must
//     make it throw. Whole runs against the tree scan are compared in
//     random_spec_differential_test, whose ParallelSim leg collects with it.
//   * hot-path assertions — on a sparse world (N idle, K active) the
//     dirty-set scheduler must examine an order of magnitude fewer guards
//     per firing than one full-scan collection does per candidate, and
//     steady-state rounds must not grow any scheduler buffer
//     (rounds_with_allocation == 0 on a warmed executor).
//
// Also pinned here: topology changes (new module) and dynamically registered
// transitions invalidate the ready state — a reused executor must not skip
// them — and MetricsObserver carries the hot-path counters. One spec handed
// from one executor to another and back must keep the trace of one
// uninterrupted run of the first, since every executor drives the
// specification's one dirty set and time line: from Sequential, firing
// times included on timed one-shard specs; from FreeRunning's barrier rounds
// or free sessions, firing times included on multi-shard specs, timed ones
// too. A mark for another specification's module must still reach that
// one's ledger. And
// Module::select_fireable's dispatch rows are checked against the bucket
// merge they replaced, on seeded random modules.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "estelle/conflict.hpp"
#include "estelle/executor.hpp"
#include "estelle/metrics.hpp"
#include "estelle/module.hpp"
#include "estelle/sched.hpp"
#include "estelle/trace.hpp"
#include "mcam/testbed.hpp"
#include "random_spec_gen.hpp"

namespace mcam::estelle {
namespace {

using common::SimTime;

int spec_count() {
  if (const char* env = std::getenv("MCAM_SOAK_SPECS"))
    return std::max(1, std::atoi(env));
  return 50;
}

RunReport run_verified(std::uint64_t seed, ExecutorKind kind, int threads,
                       specgen::GuardDecl guards = specgen::GuardDecl::Opaque) {
  specgen::GeneratedWorld g = specgen::generate(seed, false, guards);
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
  // strongest exactness statement this suite can make. The hooked flavor
  // leaves the module-local guards to the ready hooks alone.
  const int n = spec_count();
  for (std::uint64_t seed = 1; seed <= static_cast<std::uint64_t>(n); ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    for (const specgen::GuardDecl guards :
         {specgen::GuardDecl::Opaque, specgen::GuardDecl::Hooked}) {
      SCOPED_TRACE(guards == specgen::GuardDecl::Opaque ? "opaque guards"
                                                        : "hooked guards");
      for (const auto& [kind, threads] :
           {std::pair{ExecutorKind::Sequential, 1},
            std::pair{ExecutorKind::FreeRunning, 1},
            std::pair{ExecutorKind::FreeRunning, 4}}) {
        SCOPED_TRACE(std::string(executor_kind_name(kind)) + " threads " +
                     std::to_string(threads));
        const RunReport r = run_verified(seed, kind, threads, guards);
        EXPECT_EQ(r.reason, StopReason::Quiescent);
        EXPECT_GT(r.fired, 0u);
      }
    }
  }
}

TEST(ReadySetDifferential, MisdeclaredGuardIsCaught) {
  // The grab flavor's two grabbers share one captured budget. When the first
  // grabber's firing empties it, the second grabber, a candidate of the same
  // round, is revalidated and skipped — and no hook marks it. Declared
  // hooked, its guard then leaves a stale candidate in the ready set, which
  // verify_ready_set must report. A grab seed without such a skip (one
  // grabber empties the budget by its own firing) never holds a stale
  // candidate, and the check stays quiet. Under Sequential every skipped
  // candidate is counted in candidates_considered but not in fired.
  int caught = 0;
  for (std::uint64_t seed = 3; seed <= 50; seed += 5) {  // seed % 5 == 3
    SCOPED_TRACE("seed " + std::to_string(seed));
    // The grab guard left opaque: the check passes.
    const RunReport sound = run_verified(seed, ExecutorKind::Sequential, 1,
                                         specgen::GuardDecl::Hooked);
    ASSERT_EQ(sound.reason, StopReason::Quiescent);
    if (sound.candidates_considered > sound.fired) {
      ++caught;
      EXPECT_THROW(run_verified(seed, ExecutorKind::Sequential, 1,
                                specgen::GuardDecl::MisdeclaredGrab),
                   std::logic_error);
    } else {
      EXPECT_NO_THROW(run_verified(seed, ExecutorKind::Sequential, 1,
                                   specgen::GuardDecl::MisdeclaredGrab));
    }
  }
  EXPECT_GE(caught, 5) << "too few grab seeds with a revalidation skip";
}

// ---------------------------------------------------------------------------
// The Fig. 2 testbed

struct Fig2Run {
  std::uint64_t fired = 0;
  std::uint64_t guards = 0;
  std::size_t positions = 0;        // PositionInds the clients received
  std::uint64_t retransmissions = 0;  // TP, both sides of every connection
};

/// The MCAM stack under verify_ready_set: 2 clients × 3 connections with
/// ACSE over the generated control stack. Every connection associates,
/// selects, queries and plays a movie; the streams then advance in three
/// steps, each followed by a poll, so the server MCAs push PositionInds;
/// every connection stops and releases. Throws std::logic_error on the
/// first round whose ready-set candidates differ from the full scan.
Fig2Run run_fig2_verified(double loss, ExecutorKind kind, int threads) {
  core::Testbed::Config cfg;
  cfg.clients = 2;
  cfg.connections_per_client = 3;
  cfg.use_acse = true;
  cfg.control_loss = loss;
  cfg.runtime.kind = kind;
  cfg.runtime.threads = threads;
  cfg.runtime.verify_ready_set = true;
  core::Testbed bed(cfg);
  MetricsObserver metrics;
  bed.executor().add_run_observer(&metrics);

  std::vector<core::McamClient> clients;
  for (int c = 0; c < cfg.clients; ++c) {
    for (int k = 0; k < cfg.connections_per_client; ++k) {
      directory::MovieEntry e;
      e.title = "movie-c" + std::to_string(c) + "k" + std::to_string(k);
      e.fps = 25.0;
      e.duration_frames = 200;
      e.size_bytes = 200 * 4000;
      e.location_host = cfg.server_host;
      e.rights = "public";
      EXPECT_TRUE(bed.server().directory().add(e).ok());
      clients.push_back(bed.client(c, k));
    }
  }
  std::vector<std::uint64_t> movies;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    core::McamClient& client = clients[i];
    const int c = static_cast<int>(i) / cfg.connections_per_client;
    const int k = static_cast<int>(i) % cfg.connections_per_client;
    EXPECT_TRUE(client.associate("user" + std::to_string(i)).ok());
    auto selected = client.select_movie("movie-c" + std::to_string(c) + "k" +
                                        std::to_string(k));
    EXPECT_TRUE(selected.ok());
    movies.push_back(selected.ok() ? selected.value().movie_id : 0);
    EXPECT_TRUE(client.query_attributes(movies.back(), {"fps"}).ok());
    const auto port = static_cast<std::uint16_t>(7000 + k);
    bed.make_sua(c, port);
    auto play = client.play(movies.back(), bed.client_host(c), port);
    EXPECT_TRUE(play.ok() &&
                play.value().result == core::ResultCode::Success);
  }
  for (int step = 0; step < 3; ++step) {
    bed.advance_streams(SimTime::from_s(1));
    for (core::McamClient& client : clients) client.poll_notifications();
  }
  Fig2Run out;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    EXPECT_TRUE(clients[i].stop(movies[i]).ok());
    EXPECT_TRUE(clients[i].release().ok());
    out.positions += clients[i].notifications().size();
  }
  for (int c = 0; c < cfg.clients; ++c) {
    for (int k = 0; k < cfg.connections_per_client; ++k) {
      const core::Testbed::Connection& conn = bed.connection(c, k);
      out.retransmissions += conn.client_stack.transport->retransmissions() +
                             conn.server_stack.transport->retransmissions();
    }
  }
  out.fired = metrics.total_fired();
  out.guards = metrics.guards_examined();
  return out;
}

TEST(ReadySetDifferential, Fig2TestbedVerifiedAgainstFullScanEveryRound) {
  // The production guards declared hooked — TP t-retransmit, the head-only
  // session and presentation guards, the server MCA's m-position (woken by
  // Testbed::advance_streams) — must keep every round equal to the full
  // scan, with and without control loss (retransmissions fire under loss).
  for (const double loss : {0.0, 0.2}) {
    for (const auto& [kind, threads] :
         {std::pair{ExecutorKind::Sequential, 1},
          std::pair{ExecutorKind::FreeRunning, 1},
          std::pair{ExecutorKind::FreeRunning, 4}}) {
      SCOPED_TRACE(std::string(executor_kind_name(kind)) + " threads " +
                   std::to_string(threads) + " loss " + std::to_string(loss));
      Fig2Run run;
      ASSERT_NO_THROW(run = run_fig2_verified(loss, kind, threads));
      EXPECT_GT(run.positions, 0u) << "no PositionInd reached a client";
      if (loss > 0) {
        EXPECT_GT(run.retransmissions, 0u);
      }
      // With those guards opaque, every open TP and server MCA was
      // re-evaluated every round: 68.6 (loss 0) and 76.9 (loss 0.2) guards
      // per firing under Sequential, and up to 104.8 under FreeRunning.
      // Through the hooks alone it is about 10.
      const double per_firing =
          static_cast<double>(run.guards) / static_cast<double>(run.fired);
      EXPECT_LE(per_firing, 20.0)
          << run.guards << " guards for " << run.fired << " firings";
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

TEST(ReadySetDifferential, ExecutorHandOffKeepsTheUninterruptedTrace) {
  // One backend (the outer one) for a third of a spec's rounds, another (the
  // middle one) for as many, then the outer one to quiescence, on one spec,
  // against one uninterrupted run of the outer backend. Every executor
  // drives the specification's own dirty set and time line, so a hand-off
  // neither loses the marks a firing loop put straight into the scopes nor
  // re-examines, and charges the scan of, modules nothing happened to. A
  // one-clock backend delivers the cross-shard transfers a shard backend
  // left parked; a shard backend drains them in its next round, which the
  // round line numbers past their stamps, on the system-module clocks the
  // previous executor left.
  //
  // Sequential outside. Specs without delay clauses that run at least three
  // rounds, multi-shard ones included, hand off to FreeRunning (threads =
  // 2), to ParallelSim and, on the conflict-free ones, to single-node
  // Distributed: the transition names and the final world equal the
  // uninterrupted run's. ParallelSim drives no scope, so the last leg sees
  // its firings only through ledger marks; its own leg fires the same
  // transitions in the order its simulated processors run them, so that leg
  // is compared as a multiset, and only on the specs the differential suite
  // runs it on (parallelsim_ok). As many one-shard specs with delay clauses
  // hand off to FreeRunning (threads = 2) and to a second Sequential
  // executor: the firing times equal the uninterrupted run's too. Each leg
  // starts from the latest virtual time the specification reached, so no
  // leg fires before the previous one ended.
  //
  // A shard backend outside. As many multi-shard specs that run at least
  // three rounds without delay clauses, and as many with them (the
  // generator's timed_shards flavor), hand off from FreeRunning at threads
  // = 1 (barrier rounds) to a second such executor and, on conflict-free
  // specs, to single-node Distributed, and from FreeRunning at threads = 2
  // (free sessions on conflict-free specs of two shards) to a second such
  // executor: transition names, firing times and final world equal the
  // uninterrupted outer run's. On delay-free conflict-free specs the
  // barrier rounds also hand off to threads = 2. Not on timed ones: free
  // and barrier dispatch fire timers differently (ROADMAP item 1; timed
  // seed 147 fires other transitions).
  const auto names_of = [](const TraceRecorder& t) {
    std::vector<std::string> out;
    for (const TraceEvent& e : t.events())
      out.push_back(e.module_path + "/" + e.transition);
    return out;
  };
  const auto times_of = [](const TraceRecorder& t) {
    std::vector<std::int64_t> out;
    for (const TraceEvent& e : t.events()) out.push_back(e.when.ns);
    return out;
  };
  const auto leg_name = [](const ExecutorConfig& cfg) {
    return std::string(executor_kind_name(cfg.kind)) +
           (cfg.kind == ExecutorKind::FreeRunning
                ? " threads " + std::to_string(cfg.threads)
                : "");
  };
  // `outer` for `leg` rounds, `middle` for `leg` rounds, then `outer` to
  // quiescence, on `g`. verify_ready_set checks every round of every leg
  // that reads the dirty set against the full scan, so a leg that trusted a
  // stale scope would throw. Returns where the middle leg's firings begin
  // and end in `trace`.
  const auto hand_off = [](specgen::GeneratedWorld& g, std::uint64_t leg,
                           ExecutorConfig outer, ExecutorConfig middle,
                           TraceRecorder& trace) {
    outer.verify_ready_set = true;
    middle.verify_ready_set = true;
    auto out = make_executor(*g.spec, outer);
    auto mid = make_executor(*g.spec, middle);
    const auto& events = trace.events();
    const RunReport first = out->run(
        {.stop = {StopCondition::max_steps(leg)}, .observers = {&trace}});
    const std::size_t first_events = events.size();
    const RunReport second = mid->run(
        {.stop = {StopCondition::max_steps(leg)}, .observers = {&trace}});
    const std::size_t second_events = events.size();
    const RunReport last = out->run({.observers = {&trace}});
    EXPECT_EQ(first.reason, StopReason::StepLimit);
    EXPECT_EQ(second.reason, StopReason::StepLimit);
    EXPECT_GT(second.fired, 0u);
    EXPECT_EQ(last.reason, StopReason::Quiescent);
    // One clock on either side of the middle leg: it starts at or after the
    // time the first leg reached, and the last leg at or after its own.
    if (outer.kind == ExecutorKind::Sequential) {
      if (second_events > first_events) {
        EXPECT_GE(events[first_events].when.ns, first.time.ns)
            << "the middle leg fired before the first leg's time";
      }
      if (events.size() > second_events) {
        EXPECT_GE(events[second_events].when.ns, second.time.ns)
            << "the last leg fired before the middle leg's time";
      }
    }
    return std::pair{first_events, second_events};
  };
  struct Middle {
    ExecutorConfig cfg;
    bool times = true;  // compare firing times too
  };
  // Runs `seed`'s spec (timed_shards flavor as given) uninterrupted on
  // `outer` and handed off to each middle leg, under both guard flavors.
  const auto check = [&](std::uint64_t seed, bool timed_shards,
                         const ExecutorConfig& outer,
                         const std::vector<Middle>& middles) {
    SCOPED_TRACE("outer leg " + leg_name(outer));
    for (const specgen::GuardDecl guards :
         {specgen::GuardDecl::Opaque, specgen::GuardDecl::Hooked}) {
      SCOPED_TRACE(guards == specgen::GuardDecl::Opaque ? "opaque guards"
                                                        : "hooked guards");
      specgen::GeneratedWorld whole =
          specgen::generate(seed, timed_shards, guards);
      TraceRecorder reference;
      const RunReport ref =
          make_executor(*whole.spec, outer)->run({.observers = {&reference}});
      ASSERT_EQ(ref.reason, StopReason::Quiescent);
      const std::uint64_t leg = ref.steps / 3;
      ASSERT_GT(leg, 0u);
      const std::vector<std::string> want = names_of(reference);

      for (const Middle& middle : middles) {
        SCOPED_TRACE("middle leg " + leg_name(middle.cfg));
        specgen::GeneratedWorld g =
            specgen::generate(seed, timed_shards, guards);
        TraceRecorder trace;
        const auto [begin, end] = hand_off(g, leg, outer, middle.cfg, trace);
        EXPECT_EQ(specgen::world_snapshot(*g.spec),
                  specgen::world_snapshot(*whole.spec));
        std::vector<std::string> got = names_of(trace);
        std::vector<std::string> expected = want;
        if (middle.cfg.kind == ExecutorKind::ParallelSim &&
            got.size() >= end && expected.size() >= end) {
          const auto slice = [begin = begin, end = end](auto& v) {
            std::sort(v.begin() + static_cast<std::ptrdiff_t>(begin),
                      v.begin() + static_cast<std::ptrdiff_t>(end));
          };
          slice(got);
          slice(expected);
        }
        EXPECT_EQ(got, expected);
        if (middle.times) {
          EXPECT_EQ(times_of(trace), times_of(reference));
        }
      }
    }
  };

  const int wanted = std::max(3, spec_count() / 2);
  int untimed = 0;
  int timed = 0;
  for (std::uint64_t seed = 1; untimed < wanted || timed < wanted; ++seed) {
    bool has_delay = false;
    bool parallelsim_ok = false;
    bool conflict_free = false;
    {
      const specgen::GeneratedWorld probe = specgen::generate(seed);
      has_delay = probe.has_delay;
      parallelsim_ok = probe.parallelsim_ok;
      int& specs = has_delay ? timed : untimed;
      if (specs >= wanted || make_executor(*probe.spec)->run().steps < 3)
        continue;
      const ConflictAnalysis analysis(*probe.spec);
      if (has_delay && analysis.shard_count() > 1) continue;
      conflict_free = analysis.conflict_free();
      ++specs;
    }
    std::vector<Middle> middles = {
        {{.kind = ExecutorKind::FreeRunning, .threads = 2}, has_delay}};
    if (has_delay) {
      middles.push_back({{}, true});
    } else {
      if (parallelsim_ok)
        middles.push_back({{.kind = ExecutorKind::ParallelSim}, false});
      if (conflict_free)
        middles.push_back({{.kind = ExecutorKind::Distributed}, false});
    }
    SCOPED_TRACE("seed " + std::to_string(seed));
    check(seed, false, {}, middles);
  }

  const ExecutorConfig barrier{.kind = ExecutorKind::FreeRunning,
                               .threads = 1};
  const ExecutorConfig session{.kind = ExecutorKind::FreeRunning,
                               .threads = 2};
  for (const bool timed_shards : {false, true}) {
    int specs = 0;
    for (std::uint64_t seed = 1; specs < wanted; ++seed) {
      bool conflict_free = false;
      {
        const specgen::GeneratedWorld probe =
            specgen::generate(seed, timed_shards);
        if (probe.has_delay != timed_shards) continue;
        const ConflictAnalysis analysis(*probe.spec);
        if (analysis.shard_count() < 2 ||
            make_executor(*probe.spec, barrier)->run().steps < 3)
          continue;
        conflict_free = analysis.conflict_free();
        ++specs;
      }
      SCOPED_TRACE("seed " + std::to_string(seed) +
                   (timed_shards ? " (timed shards)" : ""));
      std::vector<Middle> middles = {{barrier, true}};
      if (conflict_free) {
        middles.push_back({{.kind = ExecutorKind::Distributed}, true});
        if (!timed_shards) middles.push_back({session, true});
      }
      check(seed, timed_shards, barrier, middles);
      if (conflict_free) check(seed, timed_shards, session, {{session, true}});
    }
  }
}

TEST(ReadySetDifferential, MarksForAnotherSpecificationTakeItsLedger) {
  // A channel may join two specifications. A Sequential round's firing loop
  // marks its own modules straight into its scope; the receiver on the far
  // side belongs to the other specification, so its mark must land in that
  // one's ledger and it must fire under that one's executor.
  Specification a("a");
  Specification b("b");
  auto& sender = a.root()
                     .create_child<Module>("sys", Attribute::SystemProcess)
                     .create_child<Module>("sender", Attribute::Process);
  auto& receiver = b.root()
                       .create_child<Module>("sys", Attribute::SystemProcess)
                       .create_child<Module>("receiver", Attribute::Process);
  connect(sender.ip("out"), receiver.ip("in"));
  sender.trans("send").from(0).to(1).action(
      [&sender](Module&, const Interaction*) {
        sender.ip("out").output(Interaction(1));
      });
  int received = 0;
  receiver.trans("recv").when(receiver.ip("in")).action(
      [&received](Module&, const Interaction*) { ++received; });
  a.initialize();
  b.initialize();

  auto run_a = make_executor(a);
  auto run_b = make_executor(b);
  EXPECT_EQ(run_b->run().fired, 0u);  // seeded; the next run only drains
  EXPECT_EQ(run_a->run().fired, 1u);
  EXPECT_EQ(received, 0);
  EXPECT_EQ(run_b->run().fired, 1u);
  EXPECT_EQ(received, 1);
}

// ---------------------------------------------------------------------------
// Dispatch rows against the bucket merge they replaced

struct Selection {
  const Transition* transition = nullptr;
  int effort = 0;
  ReadinessProbe probe;
};

/// select_fireable() as it was before the dispatch rows: LinearScan walks
/// the (priority, declaration)-sorted chain; StateTable merges the current
/// state's bucket with the kAnyState bucket by (priority, declaration).
/// Buckets exist for states 0 to the highest `from` state; any other state
/// sees the kAnyState bucket alone, and a `from` below -1 is in no bucket.
Selection reference_select(Module& m, SimTime now) {
  Selection out;
  const std::vector<Transition>& ts = m.transitions();
  if (ts.empty()) return out;
  const auto better = [&ts](int a, int b) {
    const auto& ta = ts[static_cast<std::size_t>(a)];
    const auto& tb = ts[static_cast<std::size_t>(b)];
    return ta.priority != tb.priority ? ta.priority < tb.priority : a < b;
  };
  std::vector<int> chain(ts.size());
  std::iota(chain.begin(), chain.end(), 0);
  std::sort(chain.begin(), chain.end(), better);
  const auto examine = [&](int i) {
    ++out.effort;
    const Transition& t = ts[static_cast<std::size_t>(i)];
    if (!is_fireable(t, m, now, &out.probe)) return false;
    out.transition = &t;
    return true;
  };

  if (m.dispatch() == DispatchKind::LinearScan) {
    for (int i : chain)
      if (examine(i)) break;
    return out;
  }
  std::vector<std::vector<int>> buckets;
  std::vector<int> any;
  int max_state = -1;
  for (const Transition& t : ts)
    if (t.from_state != kAnyState)
      max_state = std::max(max_state, t.from_state);
  buckets.resize(static_cast<std::size_t>(max_state + 1));
  for (int i : chain) {
    const int from = ts[static_cast<std::size_t>(i)].from_state;
    if (from == kAnyState)
      any.push_back(i);
    else if (from >= 0)
      buckets[static_cast<std::size_t>(from)].push_back(i);
  }
  const std::vector<int> none;
  const int state = m.state();
  const std::vector<int>& exact =
      state >= 0 && static_cast<std::size_t>(state) < buckets.size()
          ? buckets[static_cast<std::size_t>(state)]
          : none;
  std::size_t ei = 0;
  std::size_t ai = 0;
  while (ei < exact.size() || ai < any.size()) {
    const bool take_exact =
        ei < exact.size() && (ai >= any.size() || better(exact[ei], any[ai]));
    if (examine(take_exact ? exact[ei++] : any[ai++])) break;
  }
  return out;
}

/// One seeded random module: up to five states, `from` clauses on a state,
/// on kAnyState or (rarely) on a state below -1; priorities from a small
/// range, so ties are common; `when` clauses on three IPs with a kind or
/// kAnyKind; Opaque and Hooked guards over the state and the head; delay
/// clauses with and without guards; plain transitions of both kinds.
void add_random_transition(Module& m, common::Rng& rng, int states,
                           int serial) {
  auto b = m.trans("t" + std::to_string(serial));
  const std::uint64_t from = rng.below(10);
  if (from < 3)
    b.from(kAnyState);
  else if (from == 3)
    b.from(-2);  // in no StateTable list; LinearScan still examines it
  else
    b.from(static_cast<int>(rng.below(static_cast<std::uint64_t>(states))));
  b.priority(static_cast<int>(rng.below(3)));
  if (rng.chance(0.6)) {
    const int kind =
        rng.chance(0.25) ? kAnyKind : static_cast<int>(rng.below(3));
    b.when(m.ip("ip" + std::to_string(rng.below(3))), kind);
  } else if (rng.chance(0.5)) {
    b.delay(SimTime::from_us(static_cast<std::int64_t>(1 + rng.below(40))));
  }
  if (rng.chance(0.4)) {
    const int salt = static_cast<int>(rng.below(4));
    b.provided(
        [salt](Module& mod, const Interaction* head) {
          const int k = head == nullptr ? 0 : head->kind;
          return (mod.state() + k + salt) % 3 != 0;
        },
        rng.chance(0.5) ? GuardReads::Opaque : GuardReads::Hooked);
  }
  b.action([](Module&, const Interaction*) {});
}

TEST(ReadySetDifferential, DispatchRowsMatchTheBucketMerge) {
  // Per module: random transitions, then probes that set the state (-1,
  // every state, states above the highest), the heads of the three IPs and
  // the delay clock, and compare select_fireable() under both DispatchKinds
  // with the reference: the same Transition*, scan effort and probe. A
  // transition added after the first selects must be seen.
  const int modules = 20 * spec_count();
  int selected = 0, guarded = 0, deadlines = 0;
  for (int n = 0; n < modules; ++n) {
    SCOPED_TRACE("module " + std::to_string(n));
    common::Rng rng(0x6469737061746368ULL + static_cast<std::uint64_t>(n));
    Specification spec("rows");
    auto& m = spec.root()
                  .create_child<Module>("sys", Attribute::SystemProcess)
                  .create_child<Module>("m", Attribute::Process);
    for (int i = 0; i < 3; ++i) (void)m.ip("ip" + std::to_string(i));
    spec.initialize();
    const int states = 1 + static_cast<int>(rng.below(5));
    const int count = static_cast<int>(rng.below(25));
    int serial = 0;
    for (; serial < count; ++serial)
      add_random_transition(m, rng, states, serial);

    for (int round = 0; round < 12; ++round) {
      if (round == 6) add_random_transition(m, rng, states, serial++);
      const int state = static_cast<int>(rng.below(
                            static_cast<std::uint64_t>(states) + 3)) - 1;
      m.set_state(state);
      m.note_state_entry(SimTime::from_us(
          static_cast<std::int64_t>(rng.below(20))));
      for (const auto& ip : m.ips()) {
        ip->clear();
        if (rng.chance(0.6))
          ip->deliver(Interaction(static_cast<int>(rng.below(4))));
      }
      const SimTime now =
          SimTime::from_us(static_cast<std::int64_t>(rng.below(60)));
      for (const DispatchKind kind :
           {DispatchKind::LinearScan, DispatchKind::StateTable}) {
        SCOPED_TRACE("round " + std::to_string(round) + " state " +
                     std::to_string(state) +
                     (kind == DispatchKind::LinearScan ? " LinearScan"
                                                       : " StateTable"));
        m.set_dispatch(kind);
        const Selection want = reference_select(m, now);
        ReadinessProbe probe;
        const Transition* got = m.select_fireable(now, &probe);
        ASSERT_EQ(got, want.transition);
        EXPECT_EQ(m.last_scan_effort(), want.effort);
        EXPECT_EQ(probe.next_deadline, want.probe.next_deadline);
        EXPECT_EQ(probe.guard_invoked, want.probe.guard_invoked);
        selected += got != nullptr;
        guarded += probe.guard_invoked;
        deadlines += probe.next_deadline != kNeverTime;
      }
    }
  }
  // The sweep reaches every branch: selections, consulted opaque guards and
  // immature delays all occur.
  EXPECT_GT(selected, modules);
  EXPECT_GT(guarded, modules / 2);
  EXPECT_GT(deadlines, modules / 4);
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
