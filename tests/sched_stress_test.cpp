// Scheduler stress and edge-case tests: determinism of the parallel
// executors, uniprocessor-host mapping, dynamic module destruction, and misc
// runtime invariants not covered by estelle_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "estelle/module.hpp"
#include "estelle/executor.hpp"
#include "estelle/trace.hpp"

namespace mcam::estelle {
namespace {

using common::SimTime;

/// A chain cell: receives a token, increments its hop count, forwards it.
class Cell : public Module {
 public:
  explicit Cell(std::string name)
      : Module(std::move(name), Attribute::Process) {
    auto& in = ip("in");
    ip("out");
    trans("hop").when(in, 1).action([this](Module&, const Interaction* msg) {
      ++hops;
      if (ip("out").connected()) {
        Interaction fwd(1, msg->value + 1);
        ip("out").output(std::move(fwd));
      } else {
        final_value = msg->value;
      }
    });
  }
  int hops = 0;
  std::int64_t final_value = -1;
};

/// Builds a ring-free chain of `n` cells inside one system module and
/// injects `tokens` tokens; returns the final cell's last value and the
/// total hops under the given runner.
template <typename MakeSched>
std::pair<std::int64_t, int> run_chain(int n, int tokens,
                                       MakeSched&& make_sched) {
  Specification spec("chain");
  auto& sys =
      spec.root().create_child<Module>("sys", Attribute::SystemProcess);
  std::vector<Cell*> cells;
  for (int i = 0; i < n; ++i)
    cells.push_back(&sys.create_child<Cell>("cell" + std::to_string(i)));
  auto& driver = sys.create_child<Module>("driver", Attribute::Process);
  connect(driver.ip("out"), cells.front()->ip("in"));
  for (int i = 0; i + 1 < n; ++i)
    connect(cells[static_cast<std::size_t>(i)]->ip("out"),
            cells[static_cast<std::size_t>(i) + 1]->ip("in"));
  spec.initialize();
  for (int t = 0; t < tokens; ++t)
    driver.ip("out").output(Interaction(1, 0));

  make_sched(spec);

  int total_hops = 0;
  for (Cell* c : cells) total_hops += c->hops;
  return {cells.back()->final_value, total_hops};
}

TEST(SchedStress, LongChainAllSchedulersAgree) {
  const int kCells = 32;
  const int kTokens = 20;
  const auto seq = run_chain(kCells, kTokens, [](Specification& s) {
    make_executor(s)->run();
  });
  const auto par = run_chain(kCells, kTokens, [](Specification& s) {
    make_executor(s, {.kind = ExecutorKind::ParallelSim, .processors = 8})
        ->run();
  });
  const auto fr = run_chain(kCells, kTokens, [](Specification& s) {
    make_executor(s, {.kind = ExecutorKind::FreeRunning, .threads = 8})
        ->run();
  });
  const auto barrier = run_chain(kCells, kTokens, [](Specification& s) {
    make_executor(s, {.kind = ExecutorKind::FreeRunning, .threads = 1})
        ->run();
  });
  EXPECT_EQ(seq.first, kCells - 1);  // token incremented at every hop
  EXPECT_EQ(seq.second, kCells * kTokens);
  EXPECT_EQ(seq, par);
  EXPECT_EQ(seq, fr);
  EXPECT_EQ(seq, barrier);
}

TEST(SchedStress, SoakChainDifferentialAcrossAllBackends) {
  // Soak mode: MCAM_SOAK_ITERS=N repeats the whole-chain differential N
  // times with varying shapes (default 1 — cheap enough for every CI run;
  // the TSan job and nightly soaks crank it up). Every iteration reuses one
  // executor per backend for two runs, so the persistent worker pools see
  // sustained reuse under contention.
  int iters = 1;
  if (const char* env = std::getenv("MCAM_SOAK_ITERS"))
    iters = std::max(1, std::atoi(env));

  for (int i = 0; i < iters; ++i) {
    const int cells = 8 + (i % 5) * 7;   // 8..36
    const int tokens = 4 + (i % 3) * 5;  // 4..14
    const auto twice = [&](ExecutorKind kind, int threads) {
      return run_chain(cells, tokens, [&](Specification& s) {
        auto ex = make_executor(
            s, {.kind = kind, .processors = 4, .threads = threads});
        ex->run({.stop = {StopCondition::max_steps(3)}});
        ex->run();  // resume to quiescence on the same (pooled) executor
      });
    };
    const auto seq = twice(ExecutorKind::Sequential, 1);
    EXPECT_EQ(seq.first, cells - 1) << "iteration " << i;
    EXPECT_EQ(seq.second, cells * tokens) << "iteration " << i;
    EXPECT_EQ(twice(ExecutorKind::ParallelSim, 1), seq)
        << "iteration " << i << ", parallel-sim";
    // FreeRunning at width 1 takes barrier rounds; at 2..4 it free-runs the
    // one-shard chain.
    for (const int threads : {1, 2 + i % 3}) {
      EXPECT_EQ(twice(ExecutorKind::FreeRunning, threads), seq)
          << "iteration " << i << ", free-running threads " << threads;
    }
  }
}

TEST(SchedStress, ParallelSimDeterministicAcrossRuns) {
  const auto once = [] {
    Specification spec("d");
    auto& sys =
        spec.root().create_child<Module>("sys", Attribute::SystemProcess);
    std::vector<Cell*> cells;
    for (int i = 0; i < 10; ++i)
      cells.push_back(&sys.create_child<Cell>("c" + std::to_string(i)));
    auto& driver = sys.create_child<Module>("drv", Attribute::Process);
    connect(driver.ip("out"), cells[0]->ip("in"));
    for (int i = 0; i + 1 < 10; ++i)
      connect(cells[static_cast<std::size_t>(i)]->ip("out"),
              cells[static_cast<std::size_t>(i) + 1]->ip("in"));
    spec.initialize();
    for (int t = 0; t < 7; ++t)
      driver.ip("out").output(Interaction(1, 0));
    return make_executor(spec, {.kind = ExecutorKind::ParallelSim,
                                .processors = 3,
                                .mapping = Mapping::GroupedUnits})
        ->run()
        .time.ns;
  };
  EXPECT_EQ(once(), once());
}

TEST(SchedStress, UniprocessorHostCollapsesUnits) {
  Specification spec("uni");
  auto& sys =
      spec.root().create_child<Module>("sys", Attribute::SystemProcess);
  sys.set_uniprocessor_host(true);
  std::vector<Cell*> cells;
  for (int i = 0; i < 6; ++i)
    cells.push_back(&sys.create_child<Cell>("c" + std::to_string(i)));
  auto& driver = sys.create_child<Module>("drv", Attribute::Process);
  connect(driver.ip("out"), cells[0]->ip("in"));
  for (int i = 0; i + 1 < 6; ++i)
    connect(cells[static_cast<std::size_t>(i)]->ip("out"),
            cells[static_cast<std::size_t>(i) + 1]->ip("in"));
  spec.initialize();
  driver.ip("out").output(Interaction(1, 0));

  auto sched = make_executor(spec, {.kind = ExecutorKind::ParallelSim,
                                    .processors = 8,
                                    .mapping = Mapping::ThreadPerModule});
  sched->run();
  // Despite thread-per-module mapping, everything collapsed to one unit.
  EXPECT_EQ(sched->unit_count(), 1);
}

TEST(SchedStress, UniprocessorHostIsSlowerThanMultiprocessor) {
  const auto run_with = [](bool uniprocessor) {
    Specification spec("cmp");
    auto& sys =
        spec.root().create_child<Module>("sys", Attribute::SystemProcess);
    sys.set_uniprocessor_host(uniprocessor);
    // Independent workers: embarrassingly parallel.
    for (int i = 0; i < 4; ++i) {
      auto& w = sys.create_child<Module>("w" + std::to_string(i),
                                         Attribute::Process);
      w.trans("work")
          .cost(SimTime::from_us(100))
          .provided([&w](Module&, const Interaction*) {
            return w.state() < 20;
          })
          .action([](Module& m, const Interaction*) {
            m.set_state(m.state() + 1);
          });
    }
    spec.initialize();
    return make_executor(spec,
                         {.kind = ExecutorKind::ParallelSim, .processors = 4})
        ->run()
        .time;
  };
  EXPECT_GT(run_with(true).ns, run_with(false).ns);
}

TEST(SchedStress, DynamicReleaseDuringRun) {
  // A supervisor spawns a worker, lets it run, then destroys it mid-run;
  // the world stays consistent and quiescence is reached.
  class Supervisor : public Module {
   public:
    explicit Supervisor(std::string name)
        : Module(std::move(name), Attribute::SystemProcess) {
      trans("spawn")
          .from(0)
          .to(1)
          .action([](Module& m, const Interaction*) {
            auto& worker =
                m.create_child<Module>("worker", Attribute::Process);
            worker.trans("spin").action([](Module&, const Interaction*) {});
          });
      trans("reap")
          .from(1)
          .to(2)
          .delay(SimTime::from_ms(1))
          .action([](Module& m, const Interaction*) {
            m.release_child(*m.children().front());
          });
    }
  };
  Specification spec("dyn");
  auto& sup = spec.root().create_child<Supervisor>("sup");
  spec.initialize();
  make_executor(spec, {.max_steps = 2000})->run();
  EXPECT_EQ(sup.children().size(), 0u);
  EXPECT_EQ(sup.state(), 2);
}

TEST(SpecificationTest, DoubleInitializeThrows) {
  Specification spec("x");
  spec.initialize();
  EXPECT_THROW(spec.initialize(), EstelleRuleError);
}

TEST(SpecificationTest, PathsAndSubtreeSizes) {
  Specification spec("world");
  auto& sys =
      spec.root().create_child<Module>("sys", Attribute::SystemProcess);
  auto& child = sys.create_child<Module>("conn", Attribute::Process);
  auto& grand = child.create_child<Module>("leaf", Attribute::Process);
  EXPECT_EQ(grand.path(), "spec:world.sys.conn.leaf");
  EXPECT_EQ(spec.root().subtree_size(), 4u);
  EXPECT_EQ(sys.subtree_size(), 3u);
  EXPECT_EQ(grand.owning_system_module(), &sys);
  EXPECT_EQ(spec.root().owning_system_module(), nullptr);
}

TEST(SchedStress, RunUntilStopsPromptly) {
  Specification spec("stop");
  auto& sys = spec.root().create_child<Module>("sys", Attribute::SystemProcess);
  auto& w = sys.create_child<Module>("w", Attribute::Process);
  int count = 0;
  w.trans("tick").action(
      [&count](Module&, const Interaction*) { ++count; });
  spec.initialize();
  make_executor(spec)->run_until([&] { return count >= 5; });
  EXPECT_GE(count, 5);
  EXPECT_LE(count, 6);  // at most one extra round
}

TEST(SchedStress, MaxStepsBoundsRunawaySpecs) {
  Specification spec("runaway");
  auto& sys = spec.root().create_child<Module>("sys", Attribute::SystemProcess);
  auto& w = sys.create_child<Module>("w", Attribute::Process);
  w.trans("forever").action([](Module&, const Interaction*) {});
  spec.initialize();
  const RunReport report = make_executor(spec, {.max_steps = 100})->run();
  EXPECT_EQ(report.reason, StopReason::StepLimit);
  EXPECT_LE(report.stats.rounds, 101u);
}

}  // namespace
}  // namespace mcam::estelle

// Appended: execution tracing (estelle/trace.hpp).
namespace mcam::estelle {
namespace {

TEST(Tracing, RecordsFiredTransitionsInOrder) {
  TraceRecorder trace;
  Specification spec("traced");
  auto& sys =
      spec.root().create_child<Module>("sys", Attribute::SystemProcess);
  auto& a = sys.create_child<Module>("a", Attribute::Process);
  auto& b = sys.create_child<Module>("b", Attribute::Process);
  connect(a.ip("out"), b.ip("in"));
  a.trans("ping").from(0).to(1).action([&a](Module&, const Interaction*) {
    a.ip("out").output(Interaction(1));
  });
  b.trans("pong").when(b.ip("in"), 1).action(
      [](Module&, const Interaction*) {});
  spec.initialize();
  make_executor(spec)->run({.observers = {&trace}});

  const auto names = trace.transition_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "ping");
  EXPECT_EQ(names[1], "pong");
  EXPECT_EQ(trace.events()[0].module_path, "spec:traced.sys.a");
  EXPECT_EQ(trace.events()[0].to_state, 1);
  EXPECT_NE(trace.to_string().find("ping"), std::string::npos);
}

TEST(Tracing, DeterministicGoldenTrace) {
  const auto run_traced = [] {
    TraceRecorder trace;
    Specification spec("g");
    auto& sys =
        spec.root().create_child<Module>("sys", Attribute::SystemProcess);
    auto& w = sys.create_child<Module>("w", Attribute::Process);
    for (int i = 0; i < 3; ++i)
      w.trans("t" + std::to_string(i))
          .from(i)
          .to(i + 1)
          .action([](Module&, const Interaction*) {});
    spec.initialize();
    make_executor(spec)->run({.observers = {&trace}});
    return trace.to_string();
  };
  const std::string golden = run_traced();
  EXPECT_EQ(run_traced(), golden);
  EXPECT_NE(golden.find("t0"), std::string::npos);
  EXPECT_NE(golden.find("t2"), std::string::npos);
}

TEST(Tracing, NoObserverMeansNoOverheadPath) {
  Specification spec("quiet");
  auto& sys =
      spec.root().create_child<Module>("sys", Attribute::SystemProcess);
  auto& w = sys.create_child<Module>("w", Attribute::Process);
  w.trans("t").from(0).to(1).action([](Module&, const Interaction*) {});
  spec.initialize();
  EXPECT_NO_THROW(make_executor(spec)->run());
}

}  // namespace
}  // namespace mcam::estelle
