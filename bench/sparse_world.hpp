// The sparse-activity workload, reusable across benches (bench_hot_path,
// bench_free_running, bench_transport): a protocol stack's steady state, in
// which N protocol entities exist and K ≪ N are active.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "estelle/module.hpp"

namespace mcam::bench {

/// N-K idle consumers + K active modules (K/2 ping-pong pairs), one system
/// module. Each idle consumer is parked on a channel whose writer never
/// fires; each pair exchanges a token every round. Never quiesces; runs are
/// bounded by a round budget.
struct SparseWorld {
  std::unique_ptr<estelle::Specification> spec;

  SparseWorld(int entities, int active) {
    using estelle::Attribute;
    using estelle::Interaction;
    using estelle::Module;
    spec = std::make_unique<estelle::Specification>("sparse");
    auto& sys =
        spec->root().create_child<Module>("pool", Attribute::SystemProcess);
    auto& mute = sys.create_child<Module>("mute", Attribute::Process);
    const int idle = entities - active;
    for (int i = 0; i < idle; ++i) {
      auto& m = sys.create_child<Module>("idle" + std::to_string(i),
                                         Attribute::Process);
      estelle::connect(mute.ip("o" + std::to_string(i)), m.ip("in"));
      m.trans("never").when(m.ip("in")).action(
          [](Module&, const Interaction*) {});
    }
    std::vector<Module*> pongs;
    for (int p = 0; p < active / 2; ++p) {
      auto& a = sys.create_child<Module>("ping" + std::to_string(p),
                                         Attribute::Process);
      auto& b = sys.create_child<Module>("pong" + std::to_string(p),
                                         Attribute::Process);
      estelle::connect(a.ip("out"), b.ip("in"));
      estelle::connect(b.ip("out"), a.ip("in"));
      for (Module* m : {&a, &b}) {
        m->trans("hit")
            .when(m->ip("in"))
            .cost(common::SimTime::from_us(5))
            .action([m](Module&, const Interaction*) {
              m->ip("out").output(Interaction(1));
            });
      }
      pongs.push_back(&b);
    }
    spec->initialize();
    for (Module* b : pongs) b->ip("out").output(Interaction(1));
  }
};

}  // namespace mcam::bench
