// Seeded random Estelle specification generator, shared by the differential
// suites (random_spec_differential_test.cpp, ready_set_differential_test.cpp).
//
// One seed, one specification, bit-identical across rebuilds: module trees
// with process/activity attributes, intra- and cross-shard channels,
// producers, relays, kind/parity-guarded consumers, delay clauses,
// priorities, loss Rngs, deliberately ill-formed constructs (a captured
// budget shared across channel-linked siblings; a loss Rng shared across
// shards), and a sparse-activity flavor (blocks of wired-but-idle entities
// whose writer never fires — the dirty-set scheduler must keep them out of
// every round while full scans keep paying for them).
//
// Decidability invariants the differential contracts rely on: guards read
// only their own module's state or the offered head interaction (the
// ill-formed flavors deliberately break this in ways the serial-shard
// backends handle), every out-IP is written by exactly one
// transition, and all activity is budget-bounded so every spec quiesces.
//
// Guard declarations (GuardDecl) are orthogonal to the seed: they draw
// nothing from the RNG, so a seed builds the same world under each of them,
// and the default (every guard opaque) leaves every existing corpus
// byte-identical.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "estelle/module.hpp"

namespace mcam::estelle::specgen {

struct GeneratedWorld {
  std::unique_ptr<Specification> spec;
  /// Loss generators the IPs point at (IPs hold raw pointers).
  std::vector<std::unique_ptr<common::Rng>> loss_rngs;
  int nsys = 0;
  bool has_delay = false;
  /// False on specs whose semantics depend on candidate order in ways only
  /// the serial-shard backends preserve (see the differential suite's header
  /// comment).
  bool parallelsim_ok = true;
  /// True when the spec contains the shared-budget pair that forces a
  /// same-round revalidation skip (the announce-after-revalidation probe).
  bool has_revalidation_skip = false;
  /// True when the sparse-activity flavor added idle entities.
  bool sparse = false;
  int idle_modules = 0;
};

struct GenChannel {
  InteractionPoint* out = nullptr;
  InteractionPoint* in = nullptr;
  Module* from = nullptr;
  Module* to = nullptr;
  int kind = 0;
};

/// How generate() declares its guards (Transition::guard_reads).
enum class GuardDecl {
  /// Every guard Opaque: the runtime's sticky default.
  Opaque,
  /// The module-local guards are Hooked: producer and ticker budgets, which
  /// only their own action writes, and the parity `even` guard, which reads
  /// only the offered head. The grab flavor's shared budget stays Opaque.
  Hooked,
  /// As Hooked, and the grab flavor's shared budget is declared Hooked too,
  /// wrongly: a grabber's guard flips when its sibling fires, and no hook
  /// marks it. Whenever that leaves a stale candidate (a grabber revalidated
  /// away), verify_ready_set must catch it.
  MisdeclaredGrab,
};

/// Builds the specification for `seed`. Pure: the same seed always yields
/// the same world, transitions, budgets and loss processes. `timed_shards`
/// selects the timed flavor, which allows delay clauses in multi-shard specs
/// too; `guards` selects the guard declarations. The defaults leave every
/// existing corpus byte-identical.
inline GeneratedWorld generate(std::uint64_t seed, bool timed_shards = false,
                               GuardDecl guards = GuardDecl::Opaque) {
  const GuardReads local_guard = guards == GuardDecl::Opaque
                                     ? GuardReads::Opaque
                                     : GuardReads::Hooked;
  const GuardReads grab_guard = guards == GuardDecl::MisdeclaredGrab
                                    ? GuardReads::Hooked
                                    : GuardReads::Opaque;
  GeneratedWorld g;
  common::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x1234567ULL);
  g.spec = std::make_unique<Specification>("gen" + std::to_string(seed));

  const bool grab_flavor = seed % 5 == 3;  // shared-budget pair (see below)
  const bool sparse_flavor = seed % 4 == 1;  // idle-entity block (see below)
  g.nsys = 1 + static_cast<int>(rng.below(3));
  const bool rng_share_flavor = seed % 5 == 4 && g.nsys > 1;
  // Delay clauses only in single-shard specs by default: per-shard virtual
  // clocks are the sequential clock there, so delay maturation (and hence
  // the exact trace) stays comparable. The timed flavor lifts that limit;
  // its multi-shard specs compare the barrier-round backends against each
  // other, not against Sequential. The grab flavor's world split is
  // additionally round-composition-sensitive, so it stays delay-free.
  const bool delays_allowed = (g.nsys == 1 || timed_shards) && !grab_flavor;

  // ---- module forest -----------------------------------------------------
  std::vector<std::vector<Module*>> sys_modules(
      static_cast<std::size_t>(g.nsys));
  for (int s = 0; s < g.nsys; ++s) {
    // The grab flavor needs a process-like shard 0 (activity-exclusive
    // subtrees never put both grabbers in one round).
    const bool activity_sys =
        (s == 0 && grab_flavor) ? false : rng.chance(0.15);
    auto& sys = g.spec->root().create_child<Module>(
        "sys" + std::to_string(s),
        activity_sys ? Attribute::SystemActivity : Attribute::SystemProcess);
    if (rng.chance(0.2)) sys.set_uniprocessor_host(true);
    auto& mods = sys_modules[static_cast<std::size_t>(s)];
    mods.push_back(&sys);
    const int children = 1 + static_cast<int>(rng.below(4));
    for (int i = 0; i < children; ++i) {
      Module* parent = mods[rng.below(mods.size())];
      const Attribute attr = is_activity_like(parent->attribute())
                                 ? Attribute::Activity
                                 : (rng.chance(0.3) ? Attribute::Activity
                                                    : Attribute::Process);
      mods.push_back(&parent->create_child<Module>(
          "m" + std::to_string(s) + "_" + std::to_string(i), attr));
    }
  }

  // ---- channels ----------------------------------------------------------
  std::vector<GenChannel> channels;
  int ip_no = 0;
  const auto add_channel = [&](Module* from, Module* to) -> GenChannel& {
    auto& o = from->ip("o" + std::to_string(ip_no));
    auto& i = to->ip("i" + std::to_string(ip_no));
    ++ip_no;
    connect(o, i);
    channels.push_back(
        {&o, &i, from, to, 100 + static_cast<int>(rng.below(5))});
    return channels.back();
  };

  for (int s = 0; s < g.nsys; ++s) {
    auto& mods = sys_modules[static_cast<std::size_t>(s)];
    const int nch = static_cast<int>(rng.below(3));  // 0..2 intra-shard
    for (int c = 0; c < nch && mods.size() >= 2; ++c) {
      Module* a = mods[rng.below(mods.size())];
      Module* b = mods[rng.below(mods.size())];
      if (a != b) add_channel(a, b);
    }
  }
  if (g.nsys > 1) {
    const int nch = 1 + static_cast<int>(rng.below(2));  // 1..2 cross-shard
    for (int c = 0; c < nch; ++c) {
      const auto sa = rng.below(static_cast<std::uint64_t>(g.nsys));
      auto sb = rng.below(static_cast<std::uint64_t>(g.nsys));
      if (sa == sb) sb = (sa + 1) % static_cast<std::uint64_t>(g.nsys);
      auto& ma = sys_modules[sa];
      auto& mb = sys_modules[sb];
      add_channel(ma[rng.below(ma.size())], mb[rng.below(mb.size())]);
    }
  }

  // ---- transition builders ----------------------------------------------
  // Every action bumps the module's state by one, so a module's final state
  // is its lifetime firing count — the world snapshot's strongest signal.
  const auto bump = [](Module& m) { m.set_state(m.state() + 1); };

  const auto cost = [&] { return common::SimTime::from_us(1 + rng.below(15)); };

  /// Spontaneous bounded producer writing `ch.out`.
  const auto add_producer = [&](GenChannel& ch, int index) {
    auto sent = std::make_shared<int>(0);
    const int budget = 2 + static_cast<int>(rng.below(5));
    auto t = ch.from->trans("prod" + std::to_string(index));
    if (delays_allowed && rng.chance(0.4)) {
      t.delay(common::SimTime::from_us(20 + rng.below(80)));
      g.has_delay = true;
    }
    t.priority(static_cast<int>(rng.below(3)))
        .cost(cost())
        .provided(
            [sent, budget](Module&, const Interaction*) {
              return *sent < budget;
            },
            local_guard)
        .action([sent, bump, out = ch.out, kind = ch.kind](
                    Module& m, const Interaction*) {
          bump(m);
          out->output(Interaction(kind, ++*sent));
        });
  };

  /// Consumer of `ch.in` that only counts. Sometimes a parity-guarded pair:
  /// an even-value transition plus a lower-priority catch-all, exercising
  /// `provided` over the offered head (and, on cross-shard channels, the
  /// GuardedCrossShardQueue conflict class).
  const auto add_counting_consumer = [&](GenChannel& ch, int index) {
    if (rng.chance(0.4)) {
      ch.to->trans("even" + std::to_string(index))
          .when(*ch.in, ch.kind)
          .priority(0)
          .cost(cost())
          .provided(
              [](Module&, const Interaction* msg) {
                return msg != nullptr && msg->value % 2 == 0;
              },
              local_guard)
          .action([bump](Module& m, const Interaction*) { bump(m); });
      ch.to->trans("odd" + std::to_string(index))
          .when(*ch.in)
          .priority(5)
          .cost(cost())
          .action([bump](Module& m, const Interaction*) { bump(m); });
    } else {
      ch.to->trans("cons" + std::to_string(index))
          .when(*ch.in)
          .priority(static_cast<int>(rng.below(3)))
          .cost(cost())
          .action([bump](Module& m, const Interaction*) { bump(m); });
    }
  };

  // ---- wire consumers and writers ---------------------------------------
  // Each in-IP gets exactly one consumer (a relay when another channel
  // leaves the same module and still lacks a writer); each out-IP gets
  // exactly one writer (the relay, or a producer in the second pass).
  std::vector<char> out_written(channels.size(), 0);
  for (std::size_t c = 0; c < channels.size(); ++c) {
    GenChannel& ch = channels[c];
    std::size_t relay_target = channels.size();
    if (rng.chance(0.35)) {
      for (std::size_t d = 0; d < channels.size(); ++d) {
        if (d != c && !out_written[d] && channels[d].from == ch.to) {
          relay_target = d;
          break;
        }
      }
    }
    if (relay_target < channels.size()) {
      out_written[relay_target] = 1;
      auto forwarded = std::make_shared<int>(0);
      const int budget = 2 + static_cast<int>(rng.below(5));
      ch.to->trans("relay" + std::to_string(c))
          .when(*ch.in)
          .priority(static_cast<int>(rng.below(3)))
          .cost(cost())
          .action([forwarded, budget, bump, out = channels[relay_target].out,
                   kind = channels[relay_target].kind](Module& m,
                                                       const Interaction*) {
            bump(m);
            if (++*forwarded <= budget)
              out->output(Interaction(kind, *forwarded));
          });
    } else {
      add_counting_consumer(ch, static_cast<int>(c));
    }
  }
  for (std::size_t c = 0; c < channels.size(); ++c)
    if (!out_written[c]) add_producer(channels[c], static_cast<int>(c));

  // ---- tickers -----------------------------------------------------------
  // Every module without a transition gets a bounded spontaneous ticker
  // (and some get an extra one), so no module is dead weight and priority
  // selection inside a module is exercised.
  for (auto& mods : sys_modules) {
    for (Module* m : mods) {
      const bool wants =
          m->transitions().empty() ? true : rng.chance(0.25);
      if (!wants) continue;
      auto ticks = std::make_shared<int>(0);
      const int budget = 3 + static_cast<int>(rng.below(6));
      auto t = m->trans("tick_" + m->name());
      // The first ticker of a delay-eligible spec is always delayed, so the
      // sweep reliably covers delay-clause dynamics.
      if (delays_allowed && (!g.has_delay || rng.chance(0.5))) {
        t.delay(common::SimTime::from_us(10 + rng.below(90)));
        g.has_delay = true;
      }
      t.priority(static_cast<int>(rng.below(4)))
          .cost(cost())
          .provided(
              [ticks, budget](Module&, const Interaction*) {
                return *ticks < budget;
              },
              local_guard)
          .action([ticks, bump](Module& m2, const Interaction*) {
            ++*ticks;
            bump(m2);
          });
    }
  }

  // ---- loss injection ----------------------------------------------------
  for (GenChannel& ch : channels) {
    if (!rng.chance(0.25)) continue;
    g.loss_rngs.push_back(std::make_unique<common::Rng>(rng()));
    ch.out->set_loss(0.1 + 0.2 * rng.uniform(), g.loss_rngs.back().get());
  }

  // ---- ill-formed flavors ------------------------------------------------
  if (grab_flavor) {
    // Two channel-linked siblings racing a shared captured budget: in the
    // final round both are candidates and the first firing zeroes the
    // budget, so the second must be revalidated away. Sequential announces
    // only the real firing; so must every shard backend (this is the
    // announce-after-revalidation probe). Both grabbers live in one shard,
    // whose round runs serially with revalidation; the engine order of
    // ParallelSim legally splits the budget differently.
    Module& host = *sys_modules[0][0];
    auto& x = host.create_child<Module>("grab_x", Attribute::Process);
    auto& y = host.create_child<Module>("grab_y", Attribute::Process);
    add_channel(&x, &y);
    const std::size_t link = channels.size() - 1;
    add_producer(channels[link], static_cast<int>(link));
    add_counting_consumer(channels[link], static_cast<int>(link));
    auto budget = std::make_shared<int>(3 + 2 * static_cast<int>(rng.below(3)));
    for (Module* m : {&x, &y}) {
      m->trans("grab_" + m->name())
          .cost(cost())
          .provided(
              [budget](Module&, const Interaction*) { return *budget > 0; },
              grab_guard)
          .action([budget, bump](Module& m2, const Interaction*) {
            --*budget;
            bump(m2);
          });
    }
    g.parallelsim_ok = false;
    g.has_revalidation_skip = true;
  }
  if (rng_share_flavor) {
    // One loss Rng feeding writer IPs in two different shards — the
    // SharedLossRng conflict. Draw order then depends on cross-shard
    // candidate order, which only the serializing backends pin down.
    // (Indices, not references: add_channel may reallocate the vector.)
    add_channel(sys_modules[0][0], sys_modules[0].back());
    const std::size_t ia = channels.size() - 1;
    add_channel(sys_modules[1][0], sys_modules[1].back());
    const std::size_t ib = channels.size() - 1;
    add_producer(channels[ia], static_cast<int>(ia));
    add_counting_consumer(channels[ia], static_cast<int>(ia));
    add_producer(channels[ib], static_cast<int>(ib));
    add_counting_consumer(channels[ib], static_cast<int>(ib));
    g.loss_rngs.push_back(std::make_unique<common::Rng>(rng()));
    channels[ia].out->set_loss(0.25, g.loss_rngs.back().get());
    channels[ib].out->set_loss(0.25, g.loss_rngs.back().get());
    g.parallelsim_ok = false;
  }
  if (sparse_flavor) {
    // Sparse-activity flavor: a block of idle entities, wired like real
    // consumers but waiting on a writer that never fires (the "mute" module
    // carries no transitions, so its out-IPs stay silent). They contribute
    // zero firings and an unchanged world; what they test is the hot path —
    // a dirty-set scheduler must never examine them after the seeding
    // round, while the full-scan baseline pays for them every round. Placed
    // last so every earlier RNG draw (and thus every other flavor) is
    // unchanged for a given seed.
    Module& host = *sys_modules[0][0];
    const Attribute attr = is_activity_like(host.attribute())
                               ? Attribute::Activity
                               : Attribute::Process;
    auto& mute = host.create_child<Module>("mute", attr);
    g.sparse = true;
    g.idle_modules = 12 + static_cast<int>(rng.below(20));
    for (int i = 0; i < g.idle_modules; ++i) {
      auto& idle = host.create_child<Module>("idle" + std::to_string(i), attr);
      auto& out = mute.ip("mo" + std::to_string(i));
      auto& in = idle.ip("mi" + std::to_string(i));
      connect(out, in);
      idle.trans("never" + std::to_string(i))
          .when(in)
          .cost(cost())
          .action([bump](Module& m2, const Interaction*) { bump(m2); });
    }
  }

  g.spec->initialize();
  return g;
}

inline std::string world_snapshot(Specification& spec) {
  std::string out;
  spec.root().for_each([&](Module& m) {
    out += m.path() + "=" + std::to_string(m.state());
    for (const auto& ip : m.ips()) {
      out += ":" + ip->name() + "(q" + std::to_string(ip->queue_length()) +
             ",s" + std::to_string(ip->sent()) + ",d" +
             std::to_string(ip->dropped()) + ")";
    }
    out += ";";
  });
  return out;
}

}  // namespace mcam::estelle::specgen
