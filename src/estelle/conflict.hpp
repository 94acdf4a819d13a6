// Static channel-conflict analysis over a frozen Estelle specification.
//
// The paper's argument for running system modules in parallel (§4: "system
// modules are mutually independent and asynchronous") is sound only as far
// as the modules really do interact exclusively through channels that the
// runtime serializes. This pass makes that boundary explicit. It computes:
//
//   * the shard assignment — one shard per system-module subtree, in
//     document order. Shard granularity is what honors uniprocessor_host():
//     a host's whole subtree is one shard, so no parallel backend can split
//     it, whatever its internal policy. Shard ids are stable for the life of
//     the specification because the system-module population is static (R6).
//   * the cross-shard channels — channels whose endpoints lie in different
//     shards (the Fig. 2 client↔server transport pipes). These are LEGAL:
//     the two-phase transfer mailboxes (interaction.hpp) serialize them.
//   * the conflicts — statically visible ways two shards can interact
//     *outside* the mailbox discipline, which no commit order can repair:
//       - a `provided`-guarded when-transition on a cross-shard endpoint
//         (the guard may observe a queue the remote shard appends to
//         mid-round, so immediate vs deferred delivery diverge);
//       - a loss-injection Rng shared by IPs in different shards (the
//         sender mutates it at output() time, outside any commit phase —
//         a real data race under any real-thread backend).
//     A specification with no conflicts is *conflict-free*: every backend
//     is obligated to produce the identical firing trace on it. (A barrier
//     round announces after revalidation — see shard_executor.hpp — so its
//     announced trace matches even on specs that are ill-formed *within* one
//     shard.)
//
// The real-thread backends never split a shard: all of one system module's
// firings run serially on one thread, so whatever its modules share —
// channels or captured C++ state — needs no analysis. Only coupling ACROSS
// system modules must go through channels, which is §4's "mutually
// independent and asynchronous" made checkable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "estelle/module.hpp"

namespace mcam::estelle {

/// One shard: a system-module subtree (plus, for shard 0 onward, document
/// order is the id order).
struct ShardInfo {
  int id = 0;
  Module* system_module = nullptr;
  /// Every module of the subtree, depth-first (recomputed on refresh; the
  /// subtree population may change dynamically, the root may not — R6).
  std::vector<Module*> modules;
  /// The shard's endpoints of cross-shard channels: the only interaction
  /// points a transfer can park on.
  std::vector<InteractionPoint*> boundary;
  bool uniprocessor_host = false;
};

/// A channel whose endpoints lie in different shards. Deliveries across it
/// go through the transfer mailboxes.
struct CrossShardChannel {
  InteractionPoint* a = nullptr;
  InteractionPoint* b = nullptr;
  int shard_a = 0;
  int shard_b = 0;
};

/// One statically detected conflict (see the header comment for the kinds).
struct ChannelConflict {
  enum class Kind {
    /// `provided`-guarded when-transition on a cross-shard endpoint.
    GuardedCrossShardQueue,
    /// Loss Rng shared by IPs in different shards.
    SharedLossRng,
  };
  Kind kind{};
  /// The two endpoints involved (for SharedLossRng: one IP per shard that
  /// uses the shared Rng).
  InteractionPoint* a = nullptr;
  InteractionPoint* b = nullptr;
  std::string detail;
};

[[nodiscard]] const char* conflict_kind_name(ChannelConflict::Kind k) noexcept;

/// The analysis result, rebuilt lazily when the specification's topology
/// version moves. Construction requires an initialized specification (the
/// shard population must be frozen, R6).
class ConflictAnalysis {
 public:
  explicit ConflictAnalysis(Specification& spec);

  /// Rebuild if the topology changed since the last build. The shards are
  /// the scopes of the specification's ready set (SpecReadySet), which a
  /// rebuild brings up to date; its seeding stamps the shard ids onto every
  /// module (Module::shard), which is what arms the cross-shard routing in
  /// InteractionPoint::deliver. Cheap when nothing changed (one integer
  /// compare).
  void refresh();

  [[nodiscard]] Specification& specification() const noexcept { return spec_; }
  [[nodiscard]] const std::vector<ShardInfo>& shards() const noexcept {
    return shards_;
  }
  [[nodiscard]] int shard_count() const noexcept {
    return static_cast<int>(shards_.size());
  }
  /// Shard of `m` (kNoShard for modules outside any system subtree, e.g.
  /// the specification root).
  [[nodiscard]] int shard_of(const Module& m) const noexcept;

  [[nodiscard]] const std::vector<CrossShardChannel>& cross_shard_channels()
      const noexcept {
    return cross_channels_;
  }
  [[nodiscard]] const std::vector<ChannelConflict>& conflicts()
      const noexcept {
    return conflicts_;
  }
  [[nodiscard]] bool conflict_free() const noexcept {
    return conflicts_.empty();
  }

  /// Human-readable summary (shards, cross-shard channels, conflicts) for
  /// diagnostics and benches.
  [[nodiscard]] std::string to_string() const;

 private:
  void rebuild();

  Specification& spec_;
  std::uint64_t built_at_version_ = ~0ull;
  std::vector<ShardInfo> shards_;
  std::vector<CrossShardChannel> cross_channels_;
  std::vector<ChannelConflict> conflicts_;
};

}  // namespace mcam::estelle
