// §5.2 — Transition dispatch: hard-coded if-chain vs state-indexed table.
//
// Paper: "Mainly, there are two alternatives: first, each transition may be
// hard-coded as a C++ code block in a transition selection function. ...
// Second, states and transitions may be mapped to a table. The current
// state will be used as an index ... As newer performance measurements
// show, the table-controlled approach is significantly better than the
// hard-coded one [11] when the number of transitions becomes larger than
// four."
//
// Real-time google-benchmark over Module::select_fireable with T
// transitions spread over T states (the module sits in the last state, the
// worst case for a linear chain). Compare LinearScan vs StateTable at each
// T and find the crossover.
//
// The when-clause case puts T `when ip.k` transitions, k = 0 .. T-1, on one
// IP in one state, with an interaction of kind T-1 at the head: both
// strategies examine all T, and every one but the last is rejected on the
// head's kind. That rejection is what a protocol entity's input dispatch
// pays most.
#include <benchmark/benchmark.h>

#include "estelle/module.hpp"

using namespace mcam;
using estelle::Attribute;
using estelle::DispatchKind;
using estelle::Interaction;
using estelle::Module;

namespace {

/// A module with `transitions` spontaneous transitions, one per state.
struct FsmHolder {
  estelle::Specification spec{"dispatch"};
  Module* module;

  explicit FsmHolder(int transitions, DispatchKind kind) {
    auto& sys =
        spec.root().create_child<Module>("sys", Attribute::SystemProcess);
    module = &sys.create_child<Module>("fsm", Attribute::Process);
    for (int s = 0; s < transitions; ++s)
      module->trans("t" + std::to_string(s))
          .from(s)
          .action([](Module&, const Interaction*) {});
    module->set_state(transitions - 1);  // worst case for the linear chain
    module->set_dispatch(kind);
    spec.initialize();
  }
};

/// A module with `transitions` when-clauses on one IP, one per kind; only
/// the last kind is offered.
struct WhenHolder {
  estelle::Specification spec{"when"};
  Module* module;

  explicit WhenHolder(int transitions, DispatchKind kind) {
    auto& sys =
        spec.root().create_child<Module>("sys", Attribute::SystemProcess);
    module = &sys.create_child<Module>("entity", Attribute::Process);
    estelle::InteractionPoint& in = module->ip("in");
    for (int k = 0; k < transitions; ++k)
      module->trans("on" + std::to_string(k))
          .from(0)
          .when(in, k)
          .action([](Module&, const Interaction*) {});
    module->set_dispatch(kind);
    spec.initialize();
    in.deliver(Interaction(transitions - 1));
  }
};

template <typename Holder>
void run_dispatch(benchmark::State& state, DispatchKind kind) {
  const int transitions = static_cast<int>(state.range(0));
  Holder holder(transitions, kind);
  for (auto _ : state) {
    const auto* t = holder.module->select_fireable(common::SimTime{});
    benchmark::DoNotOptimize(t);
  }
  state.counters["transitions"] = transitions;
  state.counters["guards_examined"] =
      static_cast<double>(holder.module->last_scan_effort());
}

void BM_Dispatch(benchmark::State& state, DispatchKind kind) {
  run_dispatch<FsmHolder>(state, kind);
}

void BM_WhenDispatch(benchmark::State& state, DispatchKind kind) {
  run_dispatch<WhenHolder>(state, kind);
}

}  // namespace

BENCHMARK_CAPTURE(BM_Dispatch, hardcoded_chain, DispatchKind::LinearScan)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64);
BENCHMARK_CAPTURE(BM_Dispatch, state_table, DispatchKind::StateTable)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64);
BENCHMARK_CAPTURE(BM_WhenDispatch, hardcoded_chain, DispatchKind::LinearScan)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64);
BENCHMARK_CAPTURE(BM_WhenDispatch, state_table, DispatchKind::StateTable)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64);

BENCHMARK_MAIN();
