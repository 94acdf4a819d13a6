// Estelle runtime tests: the structural rules of §4 of the paper, scheduling
// semantics (parent precedence, process/activity parallelism), transition
// dispatch, delay clauses, dynamic module creation, and scheduler
// equivalence (sequential ≡ simulated-parallel ≡ free-running outcomes).
#include <gtest/gtest.h>

#include <numeric>

#include "estelle/module.hpp"
#include "estelle/executor.hpp"

namespace mcam::estelle {
namespace {

using common::SimTime;

/// A module that counts spontaneous firings up to a budget.
class Counter : public Module {
 public:
  Counter(std::string name, Attribute attr, int budget,
          SimTime cost = SimTime::from_us(10))
      : Module(std::move(name), attr) {
    trans("count")
        .cost(cost)
        .provided([this, budget](Module&, const Interaction*) {
          return count < budget;
        })
        .action([this](Module&, const Interaction*) { ++count; });
  }
  int count = 0;
};

// ---------------------------------------------------------------------------
// Structural rules

TEST(EstelleRules, R1InactiveModulesCannotHaveTransitions) {
  Module inactive("root", Attribute::Inactive);
  EXPECT_THROW(
      inactive.trans("t").action([](Module&, const Interaction*) {}),
      EstelleRuleError);
}

TEST(EstelleRules, R2SystemModuleCannotNestInAttributed) {
  Specification spec("s");
  auto& sys = spec.root().create_child<Module>("sys", Attribute::SystemProcess);
  EXPECT_THROW(sys.create_child<Module>("inner", Attribute::SystemProcess),
               EstelleRuleError);
  auto& proc = sys.create_child<Module>("p", Attribute::Process);
  EXPECT_THROW(proc.create_child<Module>("inner", Attribute::SystemActivity),
               EstelleRuleError);
}

TEST(EstelleRules, R3ProcessNeedsSystemAncestor) {
  Specification spec("s");
  // Directly under the inactive root: no system module on the path.
  EXPECT_THROW(spec.root().create_child<Module>("p", Attribute::Process),
               EstelleRuleError);
  EXPECT_THROW(spec.root().create_child<Module>("a", Attribute::Activity),
               EstelleRuleError);
}

TEST(EstelleRules, R4ProcessMayContainProcessAndActivity) {
  Specification spec("s");
  auto& sys = spec.root().create_child<Module>("sys", Attribute::SystemProcess);
  auto& p = sys.create_child<Module>("p", Attribute::Process);
  EXPECT_NO_THROW(p.create_child<Module>("p2", Attribute::Process));
  EXPECT_NO_THROW(p.create_child<Module>("a", Attribute::Activity));
}

TEST(EstelleRules, R5ActivityContainsOnlyActivities) {
  Specification spec("s");
  auto& sysact =
      spec.root().create_child<Module>("sa", Attribute::SystemActivity);
  auto& act = sysact.create_child<Module>("a", Attribute::Activity);
  EXPECT_THROW(act.create_child<Module>("p", Attribute::Process),
               EstelleRuleError);
  EXPECT_THROW(sysact.create_child<Module>("p", Attribute::Process),
               EstelleRuleError);
  EXPECT_NO_THROW(act.create_child<Module>("a2", Attribute::Activity));
}

TEST(EstelleRules, R6SystemPopulationFrozenAtInit) {
  Specification spec("s");
  spec.root().create_child<Module>("sys1", Attribute::SystemProcess);
  spec.initialize();
  EXPECT_THROW(
      spec.root().create_child<Module>("sys2", Attribute::SystemProcess),
      EstelleRuleError);
  // Non-system dynamic creation stays legal.
  auto* sys1 = spec.system_modules().front();
  EXPECT_NO_THROW(sys1->create_child<Module>("conn", Attribute::Process));
}

TEST(EstelleRules, R7OnlyParentReleasesChild) {
  Specification spec("s");
  auto& sys = spec.root().create_child<Module>("sys", Attribute::SystemProcess);
  auto& p1 = sys.create_child<Module>("p1", Attribute::Process);
  auto& p2 = sys.create_child<Module>("p2", Attribute::Process);
  EXPECT_THROW(p1.release_child(p2), EstelleRuleError);  // not its child
  EXPECT_NO_THROW(sys.release_child(p2));
  EXPECT_EQ(sys.children().size(), 1u);
  EXPECT_EQ(sys.children()[0].get(), &p1);
}

TEST(EstelleRules, InactiveUnderAttributedRejected) {
  Specification spec("s");
  auto& sys = spec.root().create_child<Module>("sys", Attribute::SystemProcess);
  EXPECT_THROW(sys.create_child<Module>("i", Attribute::Inactive),
               EstelleRuleError);
}

TEST(EstelleRules, TransitionValidation) {
  Specification spec("s");
  auto& sys = spec.root().create_child<Module>("sys", Attribute::SystemProcess);
  auto& a = sys.create_child<Module>("a", Attribute::Process);
  auto& b = sys.create_child<Module>("b", Attribute::Process);
  auto& ip_b = b.ip("x");
  // IP of another module:
  EXPECT_THROW(a.trans("t").when(ip_b).action([](Module&, const Interaction*) {}),
               EstelleRuleError);
  // when + delay combination:
  auto& ip_a = a.ip("y");
  EXPECT_THROW(a.trans("t")
                   .when(ip_a)
                   .delay(SimTime::from_us(5))
                   .action([](Module&, const Interaction*) {}),
               EstelleRuleError);
}

// ---------------------------------------------------------------------------
// Channels

TEST(Channels, ConnectOutputDeliver) {
  Specification spec("s");
  auto& sys = spec.root().create_child<Module>("sys", Attribute::SystemProcess);
  auto& a = sys.create_child<Module>("a", Attribute::Process);
  auto& b = sys.create_child<Module>("b", Attribute::Process);
  connect(a.ip("out"), b.ip("in"));

  a.ip("out").output(Interaction(7, common::to_bytes("hi")));
  ASSERT_TRUE(b.ip("in").has_input());
  EXPECT_EQ(b.ip("in").head()->kind, 7);
  Interaction msg = b.ip("in").pop();
  EXPECT_EQ(msg.payload, common::to_bytes("hi"));
  EXPECT_FALSE(b.ip("in").has_input());

  // Full duplex: b can answer on the same channel.
  b.ip("in").output(Interaction(8));
  ASSERT_TRUE(a.ip("out").has_input());
  EXPECT_EQ(a.ip("out").pop().kind, 8);
}

TEST(Channels, DoubleConnectRejected) {
  Specification spec("s");
  auto& sys = spec.root().create_child<Module>("sys", Attribute::SystemProcess);
  auto& a = sys.create_child<Module>("a", Attribute::Process);
  auto& b = sys.create_child<Module>("b", Attribute::Process);
  auto& c = sys.create_child<Module>("c", Attribute::Process);
  connect(a.ip("x"), b.ip("x"));
  EXPECT_THROW(connect(a.ip("x"), c.ip("x")), std::logic_error);
  EXPECT_THROW(a.ip("y").output(Interaction(1)), std::logic_error);
}

TEST(Channels, ReleaseChildDisconnectsSubtree) {
  Specification spec("s");
  auto& sys = spec.root().create_child<Module>("sys", Attribute::SystemProcess);
  auto& a = sys.create_child<Module>("a", Attribute::Process);
  auto& b = sys.create_child<Module>("b", Attribute::Process);
  connect(a.ip("x"), b.ip("x"));
  sys.release_child(b);
  EXPECT_FALSE(a.ip("x").connected());
  EXPECT_THROW(a.ip("x").output(Interaction(1)), std::logic_error);
}

TEST(Channels, LossInjectionDropsDeterministically) {
  Specification spec("s");
  auto& sys = spec.root().create_child<Module>("sys", Attribute::SystemProcess);
  auto& a = sys.create_child<Module>("a", Attribute::Process);
  auto& b = sys.create_child<Module>("b", Attribute::Process);
  connect(a.ip("x"), b.ip("x"));
  common::Rng rng(5);
  a.ip("x").set_loss(0.5, &rng);
  for (int i = 0; i < 1000; ++i) a.ip("x").output(Interaction(i));
  EXPECT_EQ(a.ip("x").sent(), 1000u);
  const auto dropped = a.ip("x").dropped();
  EXPECT_GT(dropped, 400u);
  EXPECT_LT(dropped, 600u);
  EXPECT_EQ(b.ip("x").queue_length(), 1000u - dropped);

  // Reusing the IP for an independent measurement run: clear() empties the
  // queue but keeps history; reset_stats() zeroes the counters so the next
  // run measures from scratch.
  b.ip("x").clear();
  a.ip("x").clear();
  EXPECT_EQ(a.ip("x").sent(), 1000u);
  a.ip("x").reset_stats();
  EXPECT_EQ(a.ip("x").sent(), 0u);
  EXPECT_EQ(a.ip("x").dropped(), 0u);
  for (int i = 0; i < 100; ++i) a.ip("x").output(Interaction(i));
  EXPECT_EQ(a.ip("x").sent(), 100u);
  EXPECT_EQ(a.ip("x").dropped() + b.ip("x").queue_length(), 100u);
}

// ---------------------------------------------------------------------------
// Scheduling semantics

TEST(Scheduling, ParentPrecedenceBlocksChildren) {
  Specification spec("s");
  auto& sys = spec.root().create_child<Counter>(
      "sys", Attribute::SystemProcess, 3);
  auto& child = sys.create_child<Counter>("child", Attribute::Process, 100);
  spec.initialize();

  // While the parent has work (3 firings), children must not run; afterwards
  // the child proceeds.
  // parent exhausts after 3 rounds; 4-round budget for this run
  make_executor(spec)->run({.stop = {StopCondition::max_steps(4)}});
  EXPECT_EQ(sys.count, 3);
  EXPECT_LE(child.count, 1);  // at most the round after the parent finished
}

TEST(Scheduling, ProcessChildrenFireInParallelEachRound) {
  Specification spec("s");
  auto& sys =
      spec.root().create_child<Module>("sys", Attribute::SystemProcess);
  std::vector<Counter*> children;
  for (int i = 0; i < 4; ++i)
    children.push_back(&sys.create_child<Counter>(
        "c" + std::to_string(i), Attribute::Process, 5));
  spec.initialize();

  const RunReport report = make_executor(spec)->run();
  const SchedulerStats& stats = report.stats;
  for (Counter* c : children) EXPECT_EQ(c->count, 5);
  // All 4 children fire in every round ⇒ exactly 5 rounds, 20 firings.
  EXPECT_EQ(stats.fired, 20u);
  EXPECT_EQ(stats.rounds, 5u);
}

TEST(Scheduling, ActivityChildrenAreMutuallyExclusive) {
  Specification spec("s");
  auto& sys =
      spec.root().create_child<Module>("sa", Attribute::SystemActivity);
  auto& a1 = sys.create_child<Counter>("a1", Attribute::Activity, 5);
  auto& a2 = sys.create_child<Counter>("a2", Attribute::Activity, 5);
  spec.initialize();

  const RunReport report = make_executor(spec)->run();
  const SchedulerStats& stats = report.stats;
  // One firing per round in the whole subtree ⇒ 10 rounds.
  EXPECT_EQ(a1.count + a2.count, 10);
  EXPECT_EQ(stats.rounds, 10u);
}

TEST(Scheduling, SystemModulesRunIndependently) {
  Specification spec("s");
  auto& s1 = spec.root().create_child<Counter>("s1", Attribute::SystemProcess, 3);
  auto& s2 = spec.root().create_child<Counter>("s2", Attribute::SystemProcess, 7);
  spec.initialize();
  make_executor(spec)->run();
  EXPECT_EQ(s1.count, 3);
  EXPECT_EQ(s2.count, 7);
}

TEST(Scheduling, PrioritySelectsAmongFireable) {
  Specification spec("s");
  auto& sys = spec.root().create_child<Module>("sys", Attribute::SystemProcess);
  class Prio : public Module {
   public:
    explicit Prio(std::string name) : Module(std::move(name), Attribute::Process) {
      trans("low").priority(5).provided([this](Module&, const Interaction*) {
        return fired.empty();
      }).action([this](Module&, const Interaction*) { fired.push_back("low"); });
      trans("high").priority(1).provided([this](Module&, const Interaction*) {
        return fired.empty();
      }).action([this](Module&, const Interaction*) { fired.push_back("high"); });
    }
    std::vector<std::string> fired;
  };
  auto& p = sys.create_child<Prio>("p");
  spec.initialize();
  make_executor(spec)->run();
  ASSERT_EQ(p.fired.size(), 1u);
  EXPECT_EQ(p.fired[0], "high");
}

TEST(Scheduling, WhenClauseConsumesHeadOfQueue) {
  Specification spec("s");
  auto& sys = spec.root().create_child<Module>("sys", Attribute::SystemProcess);
  class Receiver : public Module {
   public:
    explicit Receiver(std::string name)
        : Module(std::move(name), Attribute::Process) {
      auto& in = ip("in");
      trans("on7").when(in, 7).action(
          [this](Module&, const Interaction* m) { got.push_back(m->kind); });
      trans("other").when(in).priority(10).action(
          [this](Module&, const Interaction* m) { got.push_back(-m->kind); });
    }
    std::vector<int> got;
  };
  auto& recv = sys.create_child<Receiver>("r");
  auto& sender = sys.create_child<Module>("s", Attribute::Process);
  connect(sender.ip("out"), recv.ip("in"));
  spec.initialize();

  sender.ip("out").output(Interaction(7));
  sender.ip("out").output(Interaction(9));
  sender.ip("out").output(Interaction(7));
  make_executor(spec)->run();
  EXPECT_EQ(recv.got, (std::vector<int>{7, -9, 7}));
}

TEST(Scheduling, DelayTransitionWaitsVirtualTime) {
  Specification spec("s");
  class Timer : public Module {
   public:
    explicit Timer(std::string name)
        : Module(std::move(name), Attribute::SystemProcess) {
      trans("tick")
          .delay(SimTime::from_ms(10))
          .to(0)
          .provided([this](Module&, const Interaction*) { return ticks < 3; })
          .action([this](Module&, const Interaction*) { ++ticks; });
    }
    int ticks = 0;
  };
  auto& timer = spec.root().create_child<Timer>("timer");
  spec.initialize();
  const RunReport report = make_executor(spec)->run();
  const SchedulerStats& stats = report.stats;
  EXPECT_EQ(timer.ticks, 3);
  // Three ticks, 10ms apart ⇒ at least 30ms of virtual time.
  EXPECT_GE(stats.time, SimTime::from_ms(30));
}

TEST(Scheduling, DynamicChildCreationOnConnect) {
  // The paper's connection pattern: a protocol entity receives a CONNECT
  // request and creates a child module to handle the connection (§4).
  Specification spec("s");
  class Listener : public Module {
   public:
    explicit Listener(std::string name)
        : Module(std::move(name), Attribute::SystemProcess) {
      auto& in = ip("in");
      trans("connect").when(in, 1).action(
          [this](Module& m, const Interaction*) {
            m.create_child<Counter>(
                "conn" + std::to_string(m.children().size()),
                Attribute::Process, 2);
          });
    }
  };
  auto& listener = spec.root().create_child<Listener>("listener");
  auto& driver =
      spec.root().create_child<Module>("driver", Attribute::SystemProcess);
  connect(driver.ip("out"), listener.ip("in"));
  spec.initialize();

  driver.ip("out").output(Interaction(1));
  driver.ip("out").output(Interaction(1));
  make_executor(spec)->run();
  EXPECT_EQ(listener.children().size(), 2u);
  EXPECT_EQ(listener.subtree_size(), 3u);
}

// ---------------------------------------------------------------------------
// Dispatch strategies

TEST(Dispatch, LinearAndTableSelectSameTransition) {
  for (auto kind : {DispatchKind::LinearScan, DispatchKind::StateTable}) {
    Specification spec("s");
    auto& sys = spec.root().create_child<Module>("sys", Attribute::SystemProcess);
    class Multi : public Module {
     public:
      explicit Multi(std::string name)
          : Module(std::move(name), Attribute::Process) {
        for (int s = 0; s < 8; ++s) {
          trans("t" + std::to_string(s))
              .from(s)
              .to((s + 1) % 8)
              .provided([this](Module&, const Interaction*) {
                return fired < 16;
              })
              .action([this](Module& m, const Interaction*) {
                ++fired;
                visits.push_back(m.state());
              });
        }
      }
      int fired = 0;
      std::vector<int> visits;
    };
    auto& m = sys.create_child<Multi>("m");
    m.set_dispatch(kind);
    spec.initialize();
    make_executor(spec)->run();
    EXPECT_EQ(m.fired, 16);
    // Walks 0,1,2,...,7,0,1,... in order regardless of dispatch strategy.
    for (std::size_t i = 0; i < m.visits.size(); ++i)
      EXPECT_EQ(m.visits[i], static_cast<int>(i % 8)) << i;
  }
}

TEST(Dispatch, TableExaminesFewerGuards) {
  Specification spec("s");
  auto& sys = spec.root().create_child<Module>("sys", Attribute::SystemProcess);
  auto& m = sys.create_child<Module>("m", Attribute::Process);
  // 16 transitions spread over 16 states; module sits in state 15.
  for (int s = 0; s < 16; ++s)
    m.trans("t" + std::to_string(s))
        .from(s)
        .action([](Module&, const Interaction*) {});
  m.set_state(15);

  m.set_dispatch(DispatchKind::LinearScan);
  ASSERT_NE(m.select_fireable(SimTime{}), nullptr);
  const int linear_effort = m.last_scan_effort();

  m.set_dispatch(DispatchKind::StateTable);
  ASSERT_NE(m.select_fireable(SimTime{}), nullptr);
  const int table_effort = m.last_scan_effort();

  EXPECT_EQ(linear_effort, 16);
  EXPECT_EQ(table_effort, 1);
}

// ---------------------------------------------------------------------------
// Scheduler equivalence (the parallelization is semantics-preserving)

struct PingPongWorld {
  Specification spec{"pp"};
  Module* sys = nullptr;
  std::vector<int>* log = nullptr;

  class Ping : public Module {
   public:
    Ping(std::string name, std::vector<int>& log, int budget)
        : Module(std::move(name), Attribute::Process) {
      auto& out = ip("out");
      trans("serve")
          .provided([this, budget](Module&, const Interaction*) {
            return served < budget;
          })
          .action([this, &log](Module&, const Interaction*) {
            ++served;
            log.push_back(served);
            ip("out").output(Interaction(1, served));
          });
    }
    int served = 0;
  };
  class Pong : public Module {
   public:
    Pong(std::string name, std::vector<int>& log)
        : Module(std::move(name), Attribute::Process) {
      auto& in = ip("in");
      trans("echo").when(in, 1).action(
          [this, &log](Module&, const Interaction* m) {
            total += m->value;
            log.push_back(-static_cast<int>(total));
          });
    }
    std::int64_t total = 0;
  };
};

template <typename RunFn>
std::pair<std::vector<int>, std::int64_t> run_pingpong(RunFn&& run) {
  PingPongWorld world;
  auto log = std::make_unique<std::vector<int>>();
  auto& sys = world.spec.root().create_child<Module>(
      "sys", Attribute::SystemProcess);
  auto& ping = sys.create_child<PingPongWorld::Ping>("ping", *log, 10);
  auto& pong = sys.create_child<PingPongWorld::Pong>("pong", *log);
  connect(ping.ip("out"), pong.ip("in"));
  world.spec.initialize();
  run(world.spec);
  return {*log, pong.total};
}

TEST(SchedulerEquivalence, SequentialVsParallelSimVsFreeRunning) {
  auto seq = run_pingpong(
      [](Specification& s) { make_executor(s)->run(); });
  auto par = run_pingpong([](Specification& s) {
    make_executor(s, {.kind = ExecutorKind::ParallelSim, .processors = 4})
        ->run();
  });
  auto fr = run_pingpong([](Specification& s) {
    make_executor(s, {.kind = ExecutorKind::FreeRunning, .threads = 4})
        ->run();
  });
  EXPECT_EQ(seq.second, 55);  // 1+2+...+10
  EXPECT_EQ(seq, par);
  EXPECT_EQ(seq, fr);
}

// ---------------------------------------------------------------------------
// Parallel speedup shape (the §5.1 effect in miniature)

TEST(ParallelSpeedup, MoreProcessorsNeverSlower) {
  const auto run_world = [](int processors) {
    Specification spec("w");
    auto& sys =
        spec.root().create_child<Module>("sys", Attribute::SystemProcess);
    for (int i = 0; i < 8; ++i)
      sys.create_child<Counter>("c" + std::to_string(i), Attribute::Process,
                                50, SimTime::from_us(200));
    spec.initialize();
    return make_executor(spec, {.kind = ExecutorKind::ParallelSim,
                                .processors = processors,
                                .mapping = Mapping::GroupedUnits})
        ->run()
        .time;
  };
  const auto t1 = run_world(1);
  const auto t2 = run_world(2);
  const auto t4 = run_world(4);
  EXPECT_GT(t1.ns, t2.ns);
  EXPECT_GT(t2.ns, t4.ns);
  const double speedup4 = static_cast<double>(t1.ns) / static_cast<double>(t4.ns);
  EXPECT_GT(speedup4, 2.0);
  EXPECT_LE(speedup4, 4.5);
}

TEST(Mapping, NamesAreStable) {
  EXPECT_STREQ(mapping_name(Mapping::ThreadPerModule), "thread-per-module");
  EXPECT_STREQ(mapping_name(Mapping::GroupedUnits), "grouped-units");
  EXPECT_STREQ(mapping_name(Mapping::ConnectionPerProcessor),
               "connection-per-processor");
  EXPECT_STREQ(mapping_name(Mapping::LayerPerProcessor),
               "layer-per-processor");
}

}  // namespace
}  // namespace mcam::estelle
