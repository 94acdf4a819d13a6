#include "estelle/conflict.hpp"

#include <algorithm>

#include "common/strf.hpp"
#include "estelle/ready_set.hpp"

namespace mcam::estelle {

const char* conflict_kind_name(ChannelConflict::Kind k) noexcept {
  switch (k) {
    case ChannelConflict::Kind::GuardedCrossShardQueue:
      return "guarded-cross-shard-queue";
    case ChannelConflict::Kind::SharedLossRng:
      return "shared-loss-rng";
  }
  return "?";
}

ConflictAnalysis::ConflictAnalysis(Specification& spec) : spec_(spec) {
  if (!spec.initialized())
    throw EstelleRuleError(
        "ConflictAnalysis requires an initialized specification (the "
        "system-module population must be frozen, R6)");
  rebuild();
}

void ConflictAnalysis::refresh() {
  if (built_at_version_ != spec_.topology_version()) rebuild();
}

int ConflictAnalysis::shard_of(const Module& m) const noexcept {
  return m.shard();
}

void ConflictAnalysis::rebuild() {
  built_at_version_ = spec_.topology_version();
  shards_.clear();
  cross_channels_.clear();
  conflicts_.clear();

  // Shard assignment: one shard per system module, document order — the
  // scopes of the specification's ready set, whose seeding stamps the ids
  // on the modules (Module::shard).
  SpecReadySet& ready = spec_.ready_set();
  ready.refresh();
  for (int s = 0; s < ready.size(); ++s) {
    ShardInfo shard;
    shard.id = s;
    shard.system_module = &ready.system_module(s);
    shard.uniprocessor_host = shard.system_module->uniprocessor_host();
    shard.system_module->for_each(
        [&shard](Module& m) { shard.modules.push_back(&m); });
    shards_.push_back(std::move(shard));
  }

  // One pass over every IP: cross-shard channels and conflicts.
  // Loss Rngs are collected per shard so a shared instance is detected by
  // pointer identity.
  struct RngUse {
    common::Rng* rng;
    InteractionPoint* ip;
    int shard;
  };
  std::vector<RngUse> rng_uses;
  spec_.root().for_each([&](Module& m) {
    for (const auto& ip : m.ips()) {
      if (ip->loss_rng() != nullptr && ip->loss_probability() > 0.0)
        rng_uses.push_back({ip->loss_rng(), ip.get(), m.shard()});
      if (!ip->connected()) continue;
      InteractionPoint* peer = ip->peer();
      const int here = m.shard();
      const int there = peer->owner().shard();
      if (here == there) continue;
      // Record each cross-shard channel once, from its lower-shard endpoint.
      // The rule must be a pure function of specification STRUCTURE — never
      // of heap addresses — because the distributed runner uses the vector
      // position as the wire channel index and the a/b orientation as the
      // frame direction bit: every process that builds the same spec must
      // derive the identical table.
      if (here < there) cross_channels_.push_back({ip.get(), peer, here, there});
      // Conflict: a provided-guarded when-transition on this cross-shard
      // endpoint. The guard re-runs at revalidation/firing time and may
      // observe the queue the remote shard appends to, so immediate
      // (sequential) and deferred (mailbox) delivery diverge.
      for (const Transition& t : m.transitions()) {
        if (t.ip == ip.get() && t.provided) {
          conflicts_.push_back(
              {ChannelConflict::Kind::GuardedCrossShardQueue, ip.get(), peer,
               "transition '" + t.name + "' of '" + m.path() +
                   "' guards a queue fed from another shard"});
          break;
        }
      }
    }
  });

  for (const CrossShardChannel& ch : cross_channels_) {
    shards_[static_cast<std::size_t>(ch.shard_a)].boundary.push_back(ch.a);
    shards_[static_cast<std::size_t>(ch.shard_b)].boundary.push_back(ch.b);
  }

  // Shared loss Rng across shards: the sender mutates the Rng at output()
  // time, outside any commit phase.
  std::sort(rng_uses.begin(), rng_uses.end(),
            [](const RngUse& a, const RngUse& b) { return a.rng < b.rng; });
  for (std::size_t i = 0; i + 1 < rng_uses.size(); ++i) {
    for (std::size_t j = i + 1;
         j < rng_uses.size() && rng_uses[j].rng == rng_uses[i].rng; ++j) {
      if (rng_uses[j].shard != rng_uses[i].shard) {
        conflicts_.push_back(
            {ChannelConflict::Kind::SharedLossRng, rng_uses[i].ip,
             rng_uses[j].ip,
             "IPs '" + rng_uses[i].ip->owner().path() + "." +
                 rng_uses[i].ip->name() + "' and '" +
                 rng_uses[j].ip->owner().path() + "." +
                 rng_uses[j].ip->name() +
                 "' in different shards share one loss Rng"});
      }
    }
  }
}

std::string ConflictAnalysis::to_string() const {
  std::string out = common::strf(
      "conflict analysis: %zu shard(s), %zu cross-shard channel(s), "
      "%zu conflict(s)\n",
      shards_.size(), cross_channels_.size(), conflicts_.size());
  for (const ShardInfo& s : shards_)
    out += common::strf("  shard %d: %s (%zu modules%s)\n", s.id,
                        s.system_module->path().c_str(), s.modules.size(),
                        s.uniprocessor_host ? ", uniprocessor host" : "");
  for (const CrossShardChannel& c : cross_channels_)
    out += common::strf(
        "  channel %s.%s <-> %s.%s crosses shards %d/%d\n",
        c.a->owner().path().c_str(), c.a->name().c_str(),
        c.b->owner().path().c_str(), c.b->name().c_str(), c.shard_a,
        c.shard_b);
  for (const ChannelConflict& c : conflicts_)
    out += common::strf("  conflict [%s]: %s\n", conflict_kind_name(c.kind),
                        c.detail.c_str());
  return out;
}

}  // namespace mcam::estelle
