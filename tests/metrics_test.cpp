// MetricsObserver: per-module firing counts and the firing-gap histogram,
// published into RunReport from the on_report hook.
#include <gtest/gtest.h>

#include <numeric>

#include "estelle/metrics.hpp"
#include "estelle/module.hpp"

namespace mcam::estelle {
namespace {

using common::SimTime;

struct TickWorld {
  Specification spec{"ticks"};
  Module* fast = nullptr;
  Module* slow = nullptr;

  TickWorld() {
    auto& sys =
        spec.root().create_child<Module>("sys", Attribute::SystemProcess);
    fast = &sys.create_child<Module>("fast", Attribute::Process);
    slow = &sys.create_child<Module>("slow", Attribute::Process);
    const auto counting = [](int limit) {
      return [limit](Module& m, const Interaction*) {
        return m.state() < limit;
      };
    };
    fast->trans("tick")
        .cost(SimTime::from_us(10))
        .provided(counting(8))
        .action([](Module& m, const Interaction*) {
          m.set_state(m.state() + 1);
        });
    slow->trans("tock")
        .cost(SimTime::from_us(10))
        .provided(counting(3))
        .action([](Module& m, const Interaction*) {
          m.set_state(m.state() + 1);
        });
    spec.initialize();
  }
};

TEST(MetricsObserverTest, CountsPerModuleAndPublishesIntoReport) {
  TickWorld world;
  MetricsObserver metrics;
  auto executor = make_executor(world.spec);
  const RunReport report = executor->run({.observers = {&metrics}});

  EXPECT_EQ(metrics.total_fired(), report.fired);
  EXPECT_EQ(metrics.fired_by("spec:ticks.sys.fast"), 8u);
  EXPECT_EQ(metrics.fired_by("spec:ticks.sys.slow"), 3u);
  EXPECT_EQ(metrics.fired_by("spec:ticks.sys.never"), 0u);

  // on_report published the snapshot into the RunReport itself.
  ASSERT_EQ(report.module_metrics.size(), 2u);
  EXPECT_EQ(report.module_metrics[0].module_path, "spec:ticks.sys.fast");
  EXPECT_EQ(report.module_metrics[0].fired, 8u);
  EXPECT_GT(report.module_metrics[0].mean_gap.ns, 0);
  EXPECT_EQ(report.module_metrics[1].fired, 3u);

  // Histogram: one gap per consecutive same-module pair.
  const std::uint64_t gaps =
      std::accumulate(report.firing_gap_histogram.begin(),
                      report.firing_gap_histogram.end(), std::uint64_t{0});
  EXPECT_EQ(gaps, (8u - 1) + (3u - 1));
  EXPECT_NE(metrics.to_string().find("fast"), std::string::npos);
}

TEST(MetricsObserverTest, PersistentAttachmentAggregatesAcrossRuns) {
  TickWorld world;
  MetricsObserver metrics;
  auto executor = make_executor(world.spec);
  executor->add_run_observer(&metrics);

  executor->run();
  EXPECT_EQ(metrics.total_fired(), 11u);

  // Re-arm and pump again: the same observer keeps aggregating, and every
  // report of this executor carries the cumulative metrics.
  world.fast->set_state(0);
  const RunReport second = executor->run();
  EXPECT_EQ(metrics.total_fired(), 19u);
  ASSERT_FALSE(second.module_metrics.empty());
  EXPECT_EQ(second.module_metrics[0].fired, 16u);

  metrics.clear();
  EXPECT_EQ(metrics.total_fired(), 0u);
}

TEST(MetricsObserverTest, ReportsEmptyWithoutObserver) {
  TickWorld world;
  const RunReport report = make_executor(world.spec)->run();
  EXPECT_TRUE(report.module_metrics.empty());
  EXPECT_TRUE(report.firing_gap_histogram.empty());
}

}  // namespace
}  // namespace mcam::estelle
