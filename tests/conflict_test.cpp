// Conflict analysis and sharded-runtime semantics:
//   * shard assignment (one shard per system module, uniprocessor flag,
//     dynamic membership refresh);
//   * cross-shard channel detection — legal, mailbox-mediated;
//   * conflict classification: a spec with two system modules sharing a
//     channel observed by a provided guard is conflicting, as is a loss Rng
//     shared across shards; the Fig. 2 testbed configuration is
//     conflict-free;
//   * the two-phase transfer mailbox itself;
//   * revalidation inside a shard's serial round: a deliberately ill-formed
//     spec no longer produces traces divergent from the sequential
//     scheduler under the sharded backends.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "estelle/conflict.hpp"
#include "estelle/executor.hpp"
#include "estelle/module.hpp"
#include "estelle/trace.hpp"
#include "mcam/testbed.hpp"

namespace mcam::estelle {
namespace {

using common::SimTime;

TEST(ConflictAnalysisTest, ShardPerSystemModuleHonoringUniprocessorHost) {
  Specification spec("s");
  auto& client =
      spec.root().create_child<Module>("client", Attribute::SystemProcess);
  client.set_uniprocessor_host(true);
  auto& server =
      spec.root().create_child<Module>("server", Attribute::SystemProcess);
  auto& conn = server.create_child<Module>("conn", Attribute::Process);
  auto& leaf = conn.create_child<Module>("leaf", Attribute::Process);
  spec.initialize();

  ConflictAnalysis analysis(spec);
  ASSERT_EQ(analysis.shard_count(), 2);
  EXPECT_EQ(analysis.shards()[0].system_module, &client);
  EXPECT_TRUE(analysis.shards()[0].uniprocessor_host);
  EXPECT_EQ(analysis.shards()[1].system_module, &server);
  EXPECT_FALSE(analysis.shards()[1].uniprocessor_host);
  // The whole subtree shares the system module's shard — which is exactly
  // what honors uniprocessor_host(): no backend can split a host.
  EXPECT_EQ(analysis.shard_of(client), 0);
  EXPECT_EQ(analysis.shard_of(server), 1);
  EXPECT_EQ(analysis.shard_of(conn), 1);
  EXPECT_EQ(analysis.shard_of(leaf), 1);
  EXPECT_EQ(analysis.shard_of(spec.root()), kNoShard);
  EXPECT_EQ(analysis.shards()[1].modules.size(), 3u);
  EXPECT_TRUE(analysis.conflict_free());
}

TEST(ConflictAnalysisTest, RefreshTracksDynamicMembership) {
  Specification spec("dyn");
  auto& sys =
      spec.root().create_child<Module>("sys", Attribute::SystemProcess);
  spec.initialize();
  ConflictAnalysis analysis(spec);
  EXPECT_EQ(analysis.shards()[0].modules.size(), 1u);

  auto& child = sys.create_child<Module>("late", Attribute::Process);
  // adopt() already stamped the parent's shard (routing stays correct
  // before any refresh)...
  EXPECT_EQ(child.shard(), 0);
  // ...and refresh() folds the new module into the shard table.
  analysis.refresh();
  EXPECT_EQ(analysis.shards()[0].modules.size(), 2u);
}

TEST(ConflictAnalysisTest, PlainCrossShardChannelIsMediatedNotConflicting) {
  Specification spec("pipe");
  auto& a = spec.root().create_child<Module>("a", Attribute::SystemProcess);
  auto& b = spec.root().create_child<Module>("b", Attribute::SystemProcess);
  connect(a.ip("x"), b.ip("x"));
  a.trans("send").from(0).to(1).action([&a](Module&, const Interaction*) {
    a.ip("x").output(Interaction(1));
  });
  b.trans("recv").when(b.ip("x")).action([](Module&, const Interaction*) {});
  spec.initialize();

  ConflictAnalysis analysis(spec);
  ASSERT_EQ(analysis.cross_shard_channels().size(), 1u);
  EXPECT_NE(analysis.cross_shard_channels()[0].shard_a,
            analysis.cross_shard_channels()[0].shard_b);
  // The channel crosses shards but nothing observes it outside the mailbox
  // discipline: legal, conflict-free.
  EXPECT_TRUE(analysis.conflict_free());
}

TEST(ConflictAnalysisTest, SystemModulesSharingGuardedChannelConflict) {
  // Two system modules share a channel, and the consumer guards its end
  // with a provided clause (which may observe the queue the producer
  // appends to mid-round): the canonical conflicting specification.
  Specification spec("ill");
  auto& a = spec.root().create_child<Module>("a", Attribute::SystemProcess);
  auto& b = spec.root().create_child<Module>("b", Attribute::SystemProcess);
  connect(a.ip("x"), b.ip("x"));
  a.trans("send").from(0).to(1).action([&a](Module&, const Interaction*) {
    a.ip("x").output(Interaction(1));
  });
  b.trans("burst")
      .when(b.ip("x"))
      .provided([&b](Module&, const Interaction*) {
        return b.ip("x").queue_length() >= 2;
      })
      .action([](Module&, const Interaction*) {});
  spec.initialize();

  ConflictAnalysis analysis(spec);
  ASSERT_FALSE(analysis.conflict_free());
  EXPECT_EQ(analysis.conflicts()[0].kind,
            ChannelConflict::Kind::GuardedCrossShardQueue);
  EXPECT_NE(analysis.to_string().find("guarded-cross-shard-queue"),
            std::string::npos);
}

TEST(ConflictAnalysisTest, LossRngSharedAcrossShardsConflicts) {
  Specification spec("lossy");
  auto& a = spec.root().create_child<Module>("a", Attribute::SystemProcess);
  auto& b = spec.root().create_child<Module>("b", Attribute::SystemProcess);
  connect(a.ip("x"), b.ip("x"));
  common::Rng shared(7);
  a.ip("x").set_loss(0.1, &shared);
  b.ip("x").set_loss(0.1, &shared);
  spec.initialize();

  ConflictAnalysis analysis(spec);
  ASSERT_FALSE(analysis.conflict_free());
  EXPECT_EQ(analysis.conflicts()[0].kind,
            ChannelConflict::Kind::SharedLossRng);
}

TEST(ConflictAnalysisTest, Fig2TestbedConfigurationIsConflictFree) {
  // The paper's Fig. 2 world: two client workstations, two control
  // connections each, Estelle-generated stacks, transports joined across
  // the client/server boundary. Channels cross shards (that is the point),
  // but every cross-shard queue is consumed unguarded — conflict-free, so
  // every backend owes it the identical firing trace.
  core::Testbed::Config cfg;
  cfg.clients = 2;
  cfg.connections_per_client = 2;
  core::Testbed bed(cfg);

  ConflictAnalysis analysis(bed.spec());
  EXPECT_EQ(analysis.shard_count(), 3);  // server + 2 client machines
  EXPECT_FALSE(analysis.cross_shard_channels().empty());
  EXPECT_TRUE(analysis.conflict_free()) << analysis.to_string();
  // Clients are uniprocessor workstations (§3), the server is not.
  int uniprocessors = 0;
  for (const ShardInfo& s : analysis.shards())
    uniprocessors += s.uniprocessor_host ? 1 : 0;
  EXPECT_EQ(uniprocessors, 2);
}

TEST(TransferMailboxTest, CrossShardDeliveryIsTwoPhase) {
  Specification spec("mb");
  auto& a = spec.root().create_child<Module>("a", Attribute::SystemProcess);
  auto& b = spec.root().create_child<Module>("b", Attribute::SystemProcess);
  connect(a.ip("x"), b.ip("x"));
  spec.initialize();
  ConflictAnalysis analysis(spec);  // stamps shard ids: a=0, b=1
  ASSERT_EQ(b.shard(), 1);

  {
    // Outputs from shard 0's execution context to shard 1 park in the
    // transfer mailbox instead of the inbox.
    ShardExecutionScope scope(0, SimTime::from_us(42), 1);
    a.ip("x").output(Interaction(1));
    a.ip("x").output(Interaction(2));
    EXPECT_EQ(b.ip("x").queue_length(), 0u);
    EXPECT_TRUE(b.ip("x").has_pending_transfers());

    // Same-shard delivery stays a plain deque append.
    b.ip("x").output(Interaction(9));  // b -> a, but we are shard 0
    EXPECT_EQ(a.ip("x").queue_length(), 1u);
  }

  // Drain moves everything in transfer order and reports the watermark.
  SimTime watermark{};
  EXPECT_EQ(b.ip("x").drain_transfers(&watermark), 2u);
  EXPECT_EQ(watermark, SimTime::from_us(42));
  EXPECT_FALSE(b.ip("x").has_pending_transfers());
  ASSERT_EQ(b.ip("x").queue_length(), 2u);
  EXPECT_EQ(b.ip("x").pop().kind, 1);
  EXPECT_EQ(b.ip("x").pop().kind, 2);

  // Outside any shard scope, delivery is direct (injection, tests, commit).
  a.ip("x").output(Interaction(3));
  EXPECT_EQ(b.ip("x").queue_length(), 1u);
}

/// Deliberately ill-formed world: a producer streams tokens while the
/// consumer's guards observe the queue length, so a same-round producer
/// firing flips which consumer transition is fireable. A backend that fired
/// both candidates against the round-start snapshot, without revalidation,
/// would diverge from the sequential scheduler.
struct IllFormed {
  Specification spec{"illformed"};
  Module* producer = nullptr;
  Module* consumer = nullptr;
  int sent = 0;
  int singles = 0;
  int pairs = 0;

  IllFormed() {
    auto& sys =
        spec.root().create_child<Module>("sys", Attribute::SystemProcess);
    producer = &sys.create_child<Module>("producer", Attribute::Process);
    consumer = &sys.create_child<Module>("consumer", Attribute::Process);
    connect(producer->ip("out"), consumer->ip("in"));
    producer->trans("send")
        .cost(SimTime::from_us(4))
        .provided([this](Module&, const Interaction*) { return sent < 12; })
        .action([this](Module&, const Interaction*) {
          ++sent;
          producer->ip("out").output(Interaction(sent));
        });
    auto& in = consumer->ip("in");
    consumer->trans("pair")
        .when(in)
        .cost(SimTime::from_us(4))
        .provided([this](Module&, const Interaction*) {
          return consumer->ip("in").queue_length() >= 2;
        })
        .action([this](Module&, const Interaction*) {
          ++pairs;
          (void)consumer->ip("in").pop();  // consume the second of the pair
        });
    // Guarded on "exactly one queued": a same-round producer delivery
    // disables it, which only revalidation can notice.
    consumer->trans("single")
        .when(in)
        .priority(1)
        .cost(SimTime::from_us(4))
        .provided([this](Module&, const Interaction*) {
          return consumer->ip("in").queue_length() == 1;
        })
        .action([this](Module&, const Interaction*) { ++singles; });
    spec.initialize();
  }
};

TEST(ShardRevalidation, IllFormedSpecNoLongerDiverges) {
  const auto run_kind = [](ExecutorKind kind, int threads = 4) {
    IllFormed world;
    TraceRecorder trace;
    make_executor(world.spec, {.kind = kind, .threads = threads})
        ->run({.observers = {&trace}});
    return std::make_tuple(trace.transition_names(), world.singles,
                           world.pairs);
  };

  const auto seq = run_kind(ExecutorKind::Sequential);
  ASSERT_FALSE(std::get<0>(seq).empty());
  EXPECT_GT(std::get<2>(seq), 0);  // the pair path is actually exercised
  // The producer and consumer share one shard. Its round runs serially,
  // revalidating each candidate with immediate delivery — the sequential
  // discipline — and announces only what actually fired, so FreeRunning's
  // barrier rounds (width 1) and its free session (width 4) both reproduce
  // the trace and the outcome.
  EXPECT_EQ(run_kind(ExecutorKind::FreeRunning, 1), seq);
  EXPECT_EQ(run_kind(ExecutorKind::FreeRunning, 4), seq);
}

TEST(ShardedDelayClauses, IdleShardTimerFiresWhileOtherShardIsBusy) {
  // Shard A holds only a delay transition; shard B grinds through a long
  // spontaneous workload. A's clock must be pulled up to the executor clock
  // every round so the timer matures interleaved with B's work — not only
  // at global quiescence.
  Specification spec("timer");
  auto& a = spec.root().create_child<Module>("a", Attribute::SystemProcess);
  auto& b = spec.root().create_child<Module>("b", Attribute::SystemProcess);
  bool timer_fired = false;
  a.trans("timeout")
      .from(0)
      .to(1)
      .delay(SimTime::from_us(100))
      .action([&timer_fired](Module&, const Interaction*) {
        timer_fired = true;
      });
  int busy_rounds = 0;
  b.trans("grind")
      .cost(SimTime::from_us(50))
      .provided([&busy_rounds](Module&, const Interaction*) {
        return busy_rounds < 40;  // ~2000us of shard-B work
      })
      .action([&busy_rounds](Module&, const Interaction*) { ++busy_rounds; });
  spec.initialize();

  auto executor =
      make_executor(spec, {.kind = ExecutorKind::FreeRunning, .threads = 1});
  executor->run_until([&] { return timer_fired; });
  EXPECT_TRUE(timer_fired);
  // The timer fired shortly after 100us of virtual time, while B was still
  // busy — far before B's ~2000us workload completes.
  EXPECT_LT(executor->now(), SimTime::from_us(1000));
  EXPECT_LT(busy_rounds, 40);
}

TEST(ShardedDelayClauses, RaisedShardPaysScanCostForBothCollects) {
  // The world above plus a sticky-guard sibling in shard A (a `provided`
  // guard that never passes, no `when`), so every collect of shard A
  // examines guards. Idle below the group clock, shard A collects twice in
  // a round — at its own clock, then raised to the group clock — and the
  // round that fires the timer pays scan cost for the guards of both
  // collects. The exact fire time pins that price.
  {
    Specification spec("raised");
    auto& a = spec.root().create_child<Module>("a", Attribute::SystemProcess);
    auto& b = spec.root().create_child<Module>("b", Attribute::SystemProcess);
    bool timer_fired = false;
    a.trans("timeout")
        .from(0)
        .to(1)
        .delay(SimTime::from_us(100))
        .action([&timer_fired](Module&, const Interaction*) {
          timer_fired = true;
        });
    auto& sibling = a.create_child<Module>("sibling", Attribute::Process);
    sibling.trans("never")
        .provided([](Module&, const Interaction*) { return false; })
        .action([](Module&, const Interaction*) {});
    int busy_rounds = 0;
    b.trans("grind")
        .cost(SimTime::from_us(50))
        .provided([&busy_rounds](Module&, const Interaction*) {
          return busy_rounds < 40;
        })
        .action(
            [&busy_rounds](Module&, const Interaction*) { ++busy_rounds; });
    spec.initialize();

    auto executor = make_executor(
        spec, {.kind = ExecutorKind::FreeRunning, .threads = 1});
    TraceRecorder trace;
    executor->run({.stop = {StopCondition::when([&] { return timer_fired; })},
                   .observers = {&trace}});
    ASSERT_TRUE(timer_fired);
    SimTime fired_at = kNeverTime;
    for (const TraceEvent& e : trace.events())
      if (e.transition == "timeout") fired_at = e.when;
    EXPECT_EQ(fired_at, SimTime::from_us(124));
  }
}

TEST(ShardedOnConflictingSpec, DegradesToSerialButStaysCorrect) {
  // A conflicting spec under FreeRunning degrades to barrier rounds on the
  // run thread whatever the width: sharded, mailbox-routed, serialized —
  // and therefore still correct.
  Specification spec("degraded");
  auto& a = spec.root().create_child<Module>("a", Attribute::SystemProcess);
  auto& b = spec.root().create_child<Module>("b", Attribute::SystemProcess);
  connect(a.ip("x"), b.ip("x"));
  int sent = 0;
  int got = 0;
  a.trans("send")
      .provided([&sent](Module&, const Interaction*) { return sent < 20; })
      .action([&](Module&, const Interaction*) {
        ++sent;
        a.ip("x").output(Interaction(sent));
      });
  b.trans("recv")
      .when(b.ip("x"))
      .provided([&b](Module&, const Interaction*) {
        return b.ip("x").queue_length() >= 1;  // guard on a cross-shard queue
      })
      .action([&got](Module&, const Interaction*) { ++got; });
  spec.initialize();

  auto executor =
      make_executor(spec, {.kind = ExecutorKind::FreeRunning, .threads = 4});
  const RunReport r = executor->run();
  // Every round was a barrier round; the quiescent one that ends the run
  // counts in neither.
  EXPECT_EQ(r.free_running.fallback_rounds, r.steps);
  EXPECT_GT(r.steps, 0u);
  EXPECT_EQ(sent, 20);
  EXPECT_EQ(got, 20);
}

}  // namespace
}  // namespace mcam::estelle
