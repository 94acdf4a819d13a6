// Executor conformance: the paper's interchangeability claim as a test.
//
// One specification, every leg below constructed through make_executor:
// Sequential, ParallelSim, and FreeRunning at width 1 (barrier rounds) and
// at width 4 (free dispatch). Every leg must produce the identical firing
// trace on a deterministic workload, and every RunReport must satisfy the
// same invariants: fired counts consistent with observed events, monotone
// virtual time, correct stop reasons, quiescence idempotence. Distributed
// is not a leg: it needs transport::DistOptions to be more than a
// single-node runner, and it refuses specifications ConflictAnalysis cannot
// prove conflict-free (dist_runner_test covers it). One case adds it: an
// action owns the interaction it fires on and may move the payload out,
// which every backend, single- and two-node Distributed included, must
// carry as Sequential does.
//
// The identical-trace contract is stated for conflict-free specifications
// (see estelle/conflict.hpp). Ill-formed (conflicting) specs are exercised
// separately in conflict_test.cpp: a barrier round revalidates every
// candidate inside its shard's serial round, so even those no longer
// diverge.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "estelle/executor.hpp"
#include "estelle/module.hpp"
#include "estelle/trace.hpp"
#include "estelle/transport/dist_runner.hpp"
#include "estelle/transport/transport.hpp"

namespace mcam::estelle {
namespace {

using common::Bytes;
using common::SimTime;

/// One station of a token ring. Exactly one station holds the token at any
/// time, so every round has exactly one firing candidate — the firing order
/// is fully determined and must be identical under every backend.
class Station : public Module {
 public:
  Station(std::string name, int hops_budget)
      : Module(std::move(name), Attribute::Process) {
    auto& in = ip("in");
    ip("out");
    trans("hop_" + this->name())
        .when(in)
        .cost(SimTime::from_us(7))
        .provided([this, hops_budget](Module&, const Interaction*) {
          return hops_ < hops_budget;
        })
        .action([this](Module&, const Interaction* m) {
          ++hops_;
          ip("out").output(Interaction(m->kind + 1));
        });
    // Budget exhausted: swallow the token so the world goes quiescent.
    trans("sink_" + this->name())
        .when(in)
        .priority(10)
        .action([](Module&, const Interaction*) {});
  }

  [[nodiscard]] int hops() const noexcept { return hops_; }

 private:
  int hops_ = 0;
};

struct Ring {
  Specification spec{"ring"};
  std::vector<Station*> stations;

  explicit Ring(int n, int hops_budget) {
    auto& sys =
        spec.root().create_child<Module>("sys", Attribute::SystemProcess);
    for (int i = 0; i < n; ++i)
      stations.push_back(&sys.create_child<Station>(
          "s" + std::to_string(i), hops_budget));
    for (int i = 0; i < n; ++i)
      connect(stations[static_cast<std::size_t>(i)]->ip("out"),
              stations[static_cast<std::size_t>((i + 1) % n)]->ip("in"));
    spec.initialize();
    // Inject the token into s0's inbox through the ring link it arrives on.
    stations.back()->ip("out").output(Interaction(1));
  }
};

ExecutorConfig config_for(ExecutorKind kind, int threads = 4) {
  ExecutorConfig cfg;
  cfg.kind = kind;
  cfg.processors = 4;
  cfg.threads = threads;
  return cfg;
}

struct Leg {
  const char* name;
  ExecutorConfig cfg;
};

/// Every dispatch the conformance contract covers: each in-process kind,
/// and FreeRunning's barrier rounds (width 1) next to its free sessions.
const std::vector<Leg>& legs() {
  static const std::vector<Leg> all = {
      {"sequential", config_for(ExecutorKind::Sequential)},
      {"parallel-sim", config_for(ExecutorKind::ParallelSim)},
      {"free-running threads 1", config_for(ExecutorKind::FreeRunning, 1)},
      {"free-running threads 4", config_for(ExecutorKind::FreeRunning, 4)},
  };
  return all;
}

/// Observer asserting the virtual clock never runs backwards.
class MonotoneClock : public RunObserver {
 public:
  void on_fire(const Module&, const Transition&, SimTime now) override {
    EXPECT_GE(now, last_) << "fire event out of time order";
    last_ = now;
  }
  void on_round_end(Executor& ex, std::uint64_t) override {
    EXPECT_GE(ex.now(), last_) << "round ended before its fire events";
    last_ = ex.now();
  }

 private:
  SimTime last_{};
};

struct KindRun {
  std::vector<std::string> trace;
  RunReport report;
};

KindRun run_ring(const ExecutorConfig& cfg) {
  const ExecutorKind kind = cfg.kind;
  Ring ring(5, /*hops_budget=*/8);
  auto executor = make_executor(ring.spec, cfg);
  EXPECT_EQ(executor->kind(), kind);

  TraceRecorder trace;
  MonotoneClock clock;
  KindRun out;
  out.report = executor->run({.observers = {&trace, &clock}});
  out.trace = trace.transition_names();

  // RunReport invariants.
  EXPECT_EQ(out.report.kind, kind);
  EXPECT_EQ(out.report.reason, StopReason::Quiescent);
  EXPECT_EQ(out.report.fired, out.trace.size());
  EXPECT_EQ(out.report.stats.fired, out.report.fired);
  EXPECT_EQ(out.report.time, executor->now());
  EXPECT_GE(out.report.time.ns, 0);
  EXPECT_GE(out.report.steps, out.trace.size());  // 1 candidate per round

  // A quiescent world stays quiescent: an immediate second run fires
  // nothing and leaves the cumulative counters untouched.
  const RunReport again = executor->run();
  EXPECT_EQ(again.reason, StopReason::Quiescent);
  EXPECT_EQ(again.fired, 0u);
  EXPECT_EQ(again.stats.fired, out.report.stats.fired);
  EXPECT_GE(again.time, out.report.time);
  return out;
}

TEST(ExecutorConformance, AllKindsProduceIdenticalFiringTraces) {
  const KindRun seq = run_ring(config_for(ExecutorKind::Sequential));
  ASSERT_FALSE(seq.trace.empty());
  // 5 stations x 8-hop budget each, one token: it hops until the station it
  // lands on is exhausted, then is sunk. The exact count matters less than
  // every backend agreeing on it — but pin it so regressions are loud.
  EXPECT_EQ(seq.trace.size(), 41u);  // 40 hops + 1 sink

  for (const Leg& leg : legs()) {
    if (leg.cfg.kind == ExecutorKind::Sequential) continue;  // the baseline
    const KindRun other = run_ring(leg.cfg);
    EXPECT_EQ(other.trace, seq.trace)
        << "leg " << leg.name << " diverged from sequential";
    EXPECT_EQ(other.report.fired, seq.report.fired);
  }
}

TEST(ExecutorConformance, KindsHaveDistinctNamesAndUnknownKindsThrow) {
  const ExecutorKind kinds[] = {ExecutorKind::Sequential,
                                ExecutorKind::ParallelSim,
                                ExecutorKind::FreeRunning,
                                ExecutorKind::Distributed};
  std::set<std::string> names;
  for (ExecutorKind kind : kinds) {
    const std::string name = executor_kind_name(kind);
    EXPECT_NE(name, "?");
    names.insert(name);
  }
  EXPECT_EQ(names.size(), 4u);

  // A value outside the enum has no backend: make_executor says so rather
  // than returning null or building some default.
  const auto unknown = static_cast<ExecutorKind>(99);
  EXPECT_STREQ(executor_kind_name(unknown), "?");
  Ring ring(2, /*hops_budget=*/1);
  EXPECT_THROW((void)make_executor(ring.spec, {.kind = unknown}),
               std::invalid_argument);
}

TEST(ExecutorConformance, StopConditionsReportTheirReason) {
  for (const Leg& leg : legs()) {
    SCOPED_TRACE(leg.name);
    // A world that never quiesces on its own.
    Specification spec("runaway");
    auto& sys =
        spec.root().create_child<Module>("sys", Attribute::SystemProcess);
    auto& w = sys.create_child<Module>("w", Attribute::Process);
    int count = 0;
    w.trans("forever")
        .cost(SimTime::from_us(50))
        .action([&count](Module&, const Interaction*) { ++count; });
    spec.initialize();
    auto executor = make_executor(spec, leg.cfg);

    RunReport r = executor->run({.stop = {StopCondition::max_steps(10)}});
    EXPECT_EQ(r.reason, StopReason::StepLimit);
    EXPECT_EQ(r.steps, 10u);

    r = executor->run({.stop = {StopCondition::when(
        [&] { return count >= 15; })}});
    EXPECT_EQ(r.reason, StopReason::PredicateSatisfied);
    EXPECT_GE(count, 15);

    const SimTime deadline = executor->now() + SimTime::from_us(200);
    r = executor->run({.stop = {StopCondition::deadline(deadline)}});
    EXPECT_EQ(r.reason, StopReason::DeadlineReached);
    EXPECT_GE(executor->now(), deadline);

    // The config backstop caps a run with no explicit conditions.
    ExecutorConfig capped = leg.cfg;
    capped.max_steps = 3;
    Specification spec2("runaway2");
    auto& sys2 =
        spec2.root().create_child<Module>("sys", Attribute::SystemProcess);
    sys2.create_child<Module>("w", Attribute::Process)
        .trans("forever")
        .action([](Module&, const Interaction*) {});
    spec2.initialize();
    EXPECT_EQ(make_executor(spec2, capped)->run().reason,
              StopReason::StepLimit);
  }
}

TEST(ExecutorConformance, IdleClockJumpDoesNotOvershootDeadline) {
  for (const Leg& leg : legs()) {
    SCOPED_TRACE(leg.name);
    // The only pending work is a delay transition waking at 10ms; a 1ms
    // deadline must stop the clock at 1ms, not at the 10ms wakeup.
    Specification spec("idle");
    auto& sys =
        spec.root().create_child<Module>("sys", Attribute::SystemProcess);
    sys.create_child<Module>("sleeper", Attribute::Process)
        .trans("late")
        .delay(SimTime::from_ms(10))
        .action([](Module&, const Interaction*) {});
    spec.initialize();

    auto executor = make_executor(spec, leg.cfg);
    const RunReport r = executor->run(
        {.stop = {StopCondition::deadline(SimTime::from_ms(1))}});
    EXPECT_EQ(r.reason, StopReason::DeadlineReached);
    EXPECT_EQ(executor->now(), SimTime::from_ms(1));
  }
}

TEST(ExecutorConformance, ObserverChainNotifiedInOrderWithLifecycle) {
  struct Logger : RunObserver {
    explicit Logger(std::vector<std::string>& log, std::string tag)
        : log_(log), tag_(std::move(tag)) {}
    void on_run_begin(Executor&) override { log_.push_back(tag_ + ":begin"); }
    void on_fire(const Module&, const Transition& t, SimTime) override {
      log_.push_back(tag_ + ":" + t.name);
    }
    void on_run_end(Executor&, const RunReport& r) override {
      log_.push_back(tag_ + ":end:" + stop_reason_name(r.reason));
    }
    std::vector<std::string>& log_;
    std::string tag_;
  };

  Ring ring(3, /*hops_budget=*/1);
  auto executor = make_executor(ring.spec);
  std::vector<std::string> log;
  Logger a(log, "a"), b(log, "b");
  executor->run({.observers = {&a, &b}});

  ASSERT_GE(log.size(), 6u);
  EXPECT_EQ(log[0], "a:begin");
  EXPECT_EQ(log[1], "b:begin");
  EXPECT_EQ(log[2], "a:hop_s0");
  EXPECT_EQ(log[3], "b:hop_s0");
  EXPECT_EQ(log.back(), "b:end:quiescent");
}

TEST(ExecutorConformance, PersistentRunObserversSeeEveryRun) {
  for (const Leg& leg : legs()) {
    SCOPED_TRACE(leg.name);
    Ring ring(4, /*hops_budget=*/2);
    auto executor = make_executor(ring.spec, leg.cfg);

    // add_run_observer: attached once, observes every subsequent run —
    // the executor-scoped replacement for the retired install() shim.
    TraceRecorder trace;
    executor->add_run_observer(&trace);
    executor->run();
    const std::size_t first = trace.size();
    EXPECT_GT(first, 0u);

    // An observer in both the persistent list and RunOptions::observers is
    // notified once per event, not twice.
    Ring ring2(4, /*hops_budget=*/2);
    auto executor2 = make_executor(ring2.spec, leg.cfg);
    TraceRecorder both;
    executor2->add_run_observer(&both);
    executor2->run({.observers = {&both}});
    EXPECT_EQ(both.size(), first);

    // remove_run_observer detaches: re-arm the world and run again — the
    // new firings must not reach the removed observer.
    executor2->remove_run_observer(&both);
    ring2.stations.back()->ip("out").output(Interaction(1));
    executor2->run();
    EXPECT_EQ(both.size(), first);
  }
}

TEST(ExecutorConformance, CrossShardSpecTraceEquivalence) {
  // Two system modules (client/server shards) linked by one channel: a
  // sender streams tokens to an echo counter across the shard boundary.
  // Conflict-free, so the deterministic backends must agree on the exact
  // firing trace even though the shard dispatches route the channel through
  // the two-phase transfer mailboxes. (ParallelSim is exercised for counts
  // elsewhere; its announce order follows simulated-engine completion order,
  // which the identical-trace contract does not cover for multi-candidate
  // rounds.)
  const auto run_kind = [](const ExecutorConfig& cfg) {
    Specification spec("xshard");
    auto& client =
        spec.root().create_child<Module>("client", Attribute::SystemProcess);
    auto& server =
        spec.root().create_child<Module>("server", Attribute::SystemProcess);
    auto& sender = client.create_child<Module>("sender", Attribute::Process);
    auto& echo = server.create_child<Module>("echo", Attribute::Process);
    connect(sender.ip("out"), echo.ip("in"));
    int sent = 0;
    sender.trans("send")
        .cost(SimTime::from_us(5))
        .provided([&sent](Module&, const Interaction*) { return sent < 6; })
        .action([&sent, &sender](Module&, const Interaction*) {
          sender.ip("out").output(Interaction(++sent));
        });
    echo.trans("echo").when(echo.ip("in")).cost(SimTime::from_us(3)).action(
        [](Module&, const Interaction*) {});
    spec.initialize();

    TraceRecorder trace;
    auto executor = make_executor(spec, cfg);
    executor->run({.observers = {&trace}});
    return trace.transition_names();
  };

  const auto seq = run_kind(config_for(ExecutorKind::Sequential));
  ASSERT_EQ(seq.size(), 12u);  // 6 sends + 6 echoes
  EXPECT_EQ(run_kind(config_for(ExecutorKind::FreeRunning, 1)), seq);
  EXPECT_EQ(run_kind(config_for(ExecutorKind::FreeRunning, 4)), seq);
}

/// A pinger (shard 0) and an echoer (shard 1) over one channel. The pinger
/// sends a payload only when the previous one came back, so every round has
/// one candidate and even ParallelSim's announce order is fixed. The echo
/// action owns the interaction fire() popped: it moves the payload out,
/// appends to it and sends that same buffer back.
struct EchoWorld {
  static constexpr int kPings = 12;
  Specification spec{"echo"};
  std::vector<Bytes> got;  // what came back to the pinger, in order

  EchoWorld() {
    auto& ping_sys =
        spec.root().create_child<Module>("ping", Attribute::SystemProcess);
    auto& echo_sys =
        spec.root().create_child<Module>("echo", Attribute::SystemProcess);
    auto& pinger = ping_sys.create_child<Module>("pinger", Attribute::Process);
    auto& echoer = echo_sys.create_child<Module>("echoer", Attribute::Process);
    InteractionPoint& out = pinger.ip("link");
    InteractionPoint& back = echoer.ip("link");
    connect(out, back);
    pinger.trans("send")
        .cost(SimTime::from_us(4))
        .provided(
            [this](Module&, const Interaction*) {
              return !waiting_ && sent_ < kPings;
            },
            GuardReads::Hooked)
        .action([this, &out](Module&, Interaction*) {
          Bytes payload(static_cast<std::size_t>(sent_ * 37 % 200));
          for (std::size_t i = 0; i < payload.size(); ++i)
            payload[i] = static_cast<std::uint8_t>(sent_ + i);
          out.output(Interaction(1, std::move(payload)));
          ++sent_;
          waiting_ = true;
        });
    pinger.trans("back").when(out).cost(SimTime::from_us(3)).action(
        [this](Module&, Interaction* msg) {
          got.push_back(std::move(msg->payload));
          waiting_ = false;
        });
    echoer.trans("echo").when(back).cost(SimTime::from_us(5)).action(
        [&back](Module&, Interaction* msg) {
          Bytes payload = std::move(msg->payload);
          payload.push_back(0xec);
          back.output(Interaction(msg->kind + 1, std::move(payload)));
        });
    spec.initialize();
  }

 private:
  int sent_ = 0;
  bool waiting_ = false;
};

struct EchoRun {
  std::vector<std::string> trace;
  std::vector<Bytes> got;
};

EchoRun run_echo(const ExecutorConfig& cfg) {
  EchoWorld world;
  TraceRecorder trace;
  RunOptions opts;
  opts.observers = {&trace};
  const RunReport r = make_executor(world.spec, cfg)->run(opts);
  EXPECT_EQ(r.reason, StopReason::Quiescent) << r.error;
  return {trace.transition_names(), std::move(world.got)};
}

/// Two Distributed nodes over loopback, one thread each: shard 0 (the
/// pinger) on node 0, shard 1 on node 1. The trace merges the nodes'
/// (round, shard)-stamped announcements; the payloads are node 0's.
EchoRun run_echo_two_nodes() {
  LoopbackHub hub(2);
  std::shared_ptr<MailboxTransport> transports[2] = {hub.endpoint(0),
                                                     hub.endpoint(1)};
  struct Stamped {
    std::uint64_t round;
    int shard;
    std::string name;
  };
  std::vector<Stamped> events[2];
  EchoRun out;
  std::vector<std::thread> nodes;
  for (int node = 0; node < 2; ++node)
    nodes.emplace_back([&, node] {
      EchoWorld world;
      DistOptions opts;
      opts.node = node;
      opts.nodes = 2;
      opts.transport = transports[node];
      opts.trace_hook = [&events, node](std::uint64_t round, int shard,
                                        Module&, const Transition& t,
                                        SimTime) {
        events[node].push_back({round, shard, t.name});
      };
      ExecutorConfig cfg;
      cfg.kind = ExecutorKind::Distributed;
      cfg.backend_options = std::move(opts);
      const RunReport r = make_executor(world.spec, cfg)->run();
      EXPECT_EQ(r.reason, StopReason::Quiescent) << r.error;
      if (node == 0) out.got = std::move(world.got);
    });
  for (std::thread& t : nodes) t.join();
  std::vector<Stamped> all = events[0];
  all.insert(all.end(), events[1].begin(), events[1].end());
  std::stable_sort(all.begin(), all.end(),
                   [](const Stamped& a, const Stamped& b) {
                     return a.round != b.round ? a.round < b.round
                                               : a.shard < b.shard;
                   });
  for (const Stamped& e : all) out.trace.push_back(e.name);
  return out;
}

TEST(ExecutorConformance, ActionsMayMoveThePoppedPayloadOnEveryBackend) {
  const EchoRun seq = run_echo(config_for(ExecutorKind::Sequential));
  ASSERT_EQ(seq.trace.size(), 3u * EchoWorld::kPings);
  ASSERT_EQ(seq.got.size(), static_cast<std::size_t>(EchoWorld::kPings));
  for (int k = 0; k < EchoWorld::kPings; ++k) {
    const Bytes& b = seq.got[static_cast<std::size_t>(k)];
    ASSERT_EQ(b.size(), static_cast<std::size_t>(k * 37 % 200) + 1);
    EXPECT_EQ(b.back(), 0xec);
    if (b.size() > 1) {
      EXPECT_EQ(b.front(), static_cast<std::uint8_t>(k));
    }
  }
  for (const Leg& leg : legs()) {
    if (leg.cfg.kind == ExecutorKind::Sequential) continue;
    SCOPED_TRACE(leg.name);
    const EchoRun other = run_echo(leg.cfg);
    EXPECT_EQ(other.trace, seq.trace);
    EXPECT_EQ(other.got, seq.got);
  }
  {
    SCOPED_TRACE("distributed, one node");
    const EchoRun one = run_echo(config_for(ExecutorKind::Distributed));
    EXPECT_EQ(one.trace, seq.trace);
    EXPECT_EQ(one.got, seq.got);
  }
  {
    SCOPED_TRACE("distributed, two loopback nodes");
    const EchoRun two = run_echo_two_nodes();
    EXPECT_EQ(two.trace, seq.trace);
    EXPECT_EQ(two.got, seq.got);
  }
}

TEST(ExecutorConformance, ShardedReportCarriesPerShardStats) {
  Ring ring(5, /*hops_budget=*/8);
  auto executor =
      make_executor(ring.spec, config_for(ExecutorKind::FreeRunning, 1));
  const RunReport report = executor->run();

  // One shard (the ring's single system module), with the run's whole
  // firing count attributed to it.
  ASSERT_EQ(report.shards.size(), 1u);
  EXPECT_EQ(report.shards[0].shard, 0);
  EXPECT_EQ(report.shards[0].system_module, "spec:ring.sys");
  EXPECT_EQ(report.shards[0].fired, report.fired);
  EXPECT_GT(report.shards[0].rounds, 0u);
  EXPECT_EQ(report.shards[0].clock, report.time);

  // Other backends leave the per-shard section empty.
  Ring ring2(5, /*hops_budget=*/8);
  EXPECT_TRUE(make_executor(ring2.spec)->run().shards.empty());
}

}  // namespace
}  // namespace mcam::estelle
