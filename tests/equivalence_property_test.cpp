// Property test: for randomly generated module graphs, all three executors
// (sequential, simulated-parallel under every mapping, real-thread) reach
// identical final states. This is the semantic core of the paper's claim
// that the generated implementation may be parallelized at all: the Estelle
// semantics make parallel execution observationally equivalent to
// sequential execution.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "estelle/module.hpp"
#include "estelle/executor.hpp"

namespace mcam::estelle {
namespace {

/// Node in a random acyclic forwarding graph: accumulates received token
/// values and forwards tokens to 0..2 downstream neighbours.
class Node : public Module {
 public:
  explicit Node(std::string name)
      : Module(std::move(name), Attribute::Process) {
    auto& in = ip("in");
    trans("recv").when(in, 1).action(
        [this](Module&, const Interaction* msg) {
          const std::int64_t v = msg->value;
          sum += v;
          ++received;
          for (InteractionPoint* out : outs)
            out->output(Interaction(1, v + 1));
        });
  }

  void add_out(InteractionPoint& peer) {
    const std::string name = "out" + std::to_string(outs.size());
    InteractionPoint& out = ip(name);
    connect(out, peer);
    outs.push_back(&out);
  }

  std::vector<InteractionPoint*> outs;
  std::int64_t sum = 0;
  int received = 0;
};

struct GraphResult {
  std::vector<std::int64_t> sums;
  std::vector<int> received;
  bool operator==(const GraphResult&) const = default;
};

/// Build a random DAG (edges only from lower to higher index — no cycles,
/// guaranteed termination), inject tokens at the sources, run, snapshot.
template <typename RunFn>
GraphResult run_random_graph(std::uint64_t seed, RunFn&& run) {
  common::Rng rng(seed);
  const int n = 6 + static_cast<int>(rng.below(10));
  const int tokens = 1 + static_cast<int>(rng.below(5));

  Specification spec("graph");
  auto& sys =
      spec.root().create_child<Module>("sys", Attribute::SystemProcess);
  std::vector<Node*> nodes;
  for (int i = 0; i < n; ++i)
    nodes.push_back(&sys.create_child<Node>("n" + std::to_string(i)));
  // Each node gets up to 2 forward edges.
  for (int i = 0; i + 1 < n; ++i) {
    const int fanout = static_cast<int>(rng.below(3));
    for (int e = 0; e < fanout; ++e) {
      const int target =
          i + 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(
                      n - i - 1)));
      // A node has one "in" IP; multiple producers may not share it — use
      // dedicated inbox IPs per edge.
      Node& dst = *nodes[static_cast<std::size_t>(target)];
      InteractionPoint& inbox =
          dst.ip("in" + std::to_string(dst.ips().size()));
      // Wire an extra when-clause for the new inbox.
      dst.trans("recv+").when(inbox, 1).action(
          [&dst](Module&, const Interaction* msg) {
            const std::int64_t v = msg->value;
            dst.sum += v;
            ++dst.received;
            for (InteractionPoint* out : dst.outs)
              out->output(Interaction(1, v + 1));
          });
      nodes[static_cast<std::size_t>(i)]->add_out(inbox);
    }
  }
  auto& driver = sys.create_child<Module>("driver", Attribute::Process);
  connect(driver.ip("out"), nodes[0]->ip("in"));
  spec.initialize();
  for (int t = 0; t < tokens; ++t)
    driver.ip("out").output(Interaction(1, t));

  run(spec);

  GraphResult result;
  for (Node* node : nodes) {
    result.sums.push_back(node->sum);
    result.received.push_back(node->received);
  }
  return result;
}

class EquivalenceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EquivalenceProperty, AllExecutorsAgreeOnRandomGraphs) {
  const std::uint64_t seed = GetParam();
  const GraphResult seq = run_random_graph(
      seed, [](Specification& s) { make_executor(s)->run(); });
  ASSERT_FALSE(seq.sums.empty());

  for (Mapping mapping :
       {Mapping::ThreadPerModule, Mapping::GroupedUnits,
        Mapping::ConnectionPerProcessor, Mapping::LayerPerProcessor}) {
    const GraphResult par =
        run_random_graph(seed, [mapping](Specification& s) {
          make_executor(s, {.kind = ExecutorKind::ParallelSim,
                            .processors = 4,
                            .mapping = mapping})
              ->run();
        });
    EXPECT_EQ(par, seq) << "mapping=" << mapping_name(mapping)
                        << " seed=" << seed;
  }

  const GraphResult fr = run_random_graph(seed, [](Specification& s) {
    make_executor(s, {.kind = ExecutorKind::FreeRunning, .threads = 4})
        ->run();
  });
  EXPECT_EQ(fr, seq) << "free-running, seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquivalenceProperty,
                         ::testing::Values(1, 7, 42, 99, 123, 500, 777, 2024,
                                           31337, 99999));

}  // namespace
}  // namespace mcam::estelle
