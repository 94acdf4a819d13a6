// DistributedRunner tests (transport/dist_runner.hpp): the paper's §4
// distribution claim driven end to end.
//
// The contract pinned here:
//   * a single-node group is exactly Sequential — same trace, same world,
//     same fired count — and conflicted specifications are refused with a
//     structured error (no cross-process serialized fallback exists);
//   * multi-node groups over every transport (loopback threads, Unix-socket
//     threads, Unix-socket PROCESSES, TCP) reproduce Sequential on
//     conflict-free generated specs: the per-node (round, shard)-stamped
//     announcement streams, stable-merged by (round, shard), equal the
//     sequential trace verbatim, locally-owned module state matches, and
//     fired counts sum exactly;
//   * failure is a value: a SIGKILLed peer, an early leaver and a
//     mismatched specification all end the survivors' runs with
//     StopReason::Aborted and a description in RunReport::error — no hang,
//     no std::terminate;
//   * the null-message machinery actually runs: an idle pipeline stage
//     services provably-empty rounds and the transport counts them;
//   * a node round over many local shards never sits in a transport wait,
//     and an action that throws ends it the way it ends a sequential round.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "asn1/value.hpp"
#include "estelle/conflict.hpp"
#include "estelle/executor.hpp"
#include "estelle/module.hpp"
#include "estelle/trace.hpp"
#include "estelle/transport/dist_runner.hpp"
#include "estelle/transport/fault_transport.hpp"
#include "estelle/transport/socket_transport.hpp"
#include "estelle/transport/transport.hpp"
#include "random_spec_gen.hpp"

// fork() and ThreadSanitizer do not mix; the in-process transports cover the
// protocol under TSan, the fork suites cover real process isolation.
#if defined(__SANITIZE_THREAD__)
#define MCAM_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MCAM_TSAN_BUILD 1
#endif
#endif

namespace mcam::estelle {
namespace {

using common::SimTime;

int spec_count() {
  if (const char* env = std::getenv("MCAM_SOAK_SPECS"))
    return std::max(1, std::atoi(env));
  return 50;
}

std::string module_line(Module& m) {
  std::string out = m.path() + "=" + std::to_string(m.state());
  for (const auto& ip : m.ips())
    out += ":" + ip->name() + "(q" + std::to_string(ip->queue_length()) +
           ",s" + std::to_string(ip->sent()) + ",d" +
           std::to_string(ip->dropped()) + ")";
  return out;
}

/// Sequential ground truth for one generated seed.
struct SeqBaseline {
  std::vector<std::string> trace;
  std::map<std::string, std::string> world;  // module path -> snapshot line
  std::string world_str;                     // full-world snapshot
  std::uint64_t fired = 0;
};

SeqBaseline sequential_baseline(std::uint64_t seed) {
  specgen::GeneratedWorld g = specgen::generate(seed);
  ExecutorConfig cfg;
  cfg.kind = ExecutorKind::Sequential;
  auto executor = make_executor(*g.spec, cfg);
  TraceRecorder trace;
  const RunReport r = executor->run({.observers = {&trace}});
  SeqBaseline base;
  EXPECT_EQ(r.reason, StopReason::Quiescent);
  base.fired = r.fired;
  for (const TraceEvent& e : trace.events())
    base.trace.push_back(e.module_path + "/" + e.transition);
  g.spec->root().for_each(
      [&base](Module& m) { base.world[m.path()] = module_line(m); });
  base.world_str = specgen::world_snapshot(*g.spec);
  return base;
}

/// One (round, shard)-stamped announcement, as the trace_hook hands it out.
struct DistEvent {
  std::uint64_t round = 0;
  int shard = 0;
  std::string label;
};

/// What one node of a multi-node differential run produced.
struct NodeOutcome {
  RunReport report;
  std::vector<DistEvent> events;
  std::vector<std::string> local_world;  // lines for locally-owned modules
};

/// Session knobs tuned for fault tests: real recovery, test-speed waits.
void fast_session(DistOptions& opts) {
  opts.reconnect_max_attempts = 6;
  opts.backoff_initial_ms = 5;
  opts.backoff_cap_ms = 40;
  opts.resend_timeout_ms = 150;
  opts.heartbeat_interval_ms = 50;
}

/// Run node `node` of a `nodes`-wide group over `transport` on the world of
/// `seed`, recording the stamped trace and the locally-owned module lines.
NodeOutcome run_generated_node(
    std::uint64_t seed, int node, int nodes,
    std::shared_ptr<MailboxTransport> transport, bool batch_transfers = true,
    const std::function<void(DistOptions&)>& tweak = {}) {
  specgen::GeneratedWorld g = specgen::generate(seed);
  NodeOutcome out;
  DistOptions opts;
  opts.node = node;
  opts.nodes = nodes;
  opts.transport = std::move(transport);
  opts.gate_timeout_ms = 20000;
  opts.batch_transfers = batch_transfers;
  if (tweak) tweak(opts);
  opts.trace_hook = [&out](std::uint64_t r, int s, Module& m,
                           const Transition& t, SimTime) {
    out.events.push_back({r, s, m.path() + "/" + t.name});
  };
  ExecutorConfig cfg;
  cfg.kind = ExecutorKind::Distributed;
  cfg.backend_options = opts;
  auto executor = make_executor(*g.spec, cfg);
  out.report = executor->run();
  ConflictAnalysis analysis(*g.spec);
  for (int s = 0; s < analysis.shard_count(); ++s) {
    if (s % nodes != node) continue;
    for (Module* m : analysis.shards()[static_cast<std::size_t>(s)].modules)
      out.local_world.push_back(module_line(*m));
  }
  return out;
}

/// Stable-merge per-node announcement streams by (round, shard). Each node
/// emits its events in (round asc, shard asc, within-shard firing order);
/// shards are disjoint across nodes, so this reproduces the round-major,
/// shard-ordered composition — which free_running_test already pins to the
/// sequential trace.
std::vector<std::string> merge_traces(const std::vector<NodeOutcome>& nodes) {
  std::vector<DistEvent> all;
  for (const NodeOutcome& n : nodes)
    all.insert(all.end(), n.events.begin(), n.events.end());
  std::stable_sort(all.begin(), all.end(),
                   [](const DistEvent& a, const DistEvent& b) {
                     return a.round != b.round ? a.round < b.round
                                               : a.shard < b.shard;
                   });
  std::vector<std::string> labels;
  labels.reserve(all.size());
  for (DistEvent& e : all) labels.push_back(std::move(e.label));
  return labels;
}

void expect_matches_baseline(const SeqBaseline& seq,
                             const std::vector<NodeOutcome>& nodes) {
  std::uint64_t fired = 0;
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    SCOPED_TRACE("node " + std::to_string(n));
    EXPECT_EQ(nodes[n].report.reason, StopReason::Quiescent)
        << nodes[n].report.error;
    EXPECT_TRUE(nodes[n].report.error.empty()) << nodes[n].report.error;
    fired += nodes[n].report.fired;
    for (const std::string& line : nodes[n].local_world) {
      const std::string path = line.substr(0, line.find('='));
      const auto it = seq.world.find(path);
      ASSERT_NE(it, seq.world.end()) << path;
      EXPECT_EQ(line, it->second) << "local world diverged at " << path;
    }
  }
  EXPECT_EQ(fired, seq.fired);
  EXPECT_EQ(merge_traces(nodes), seq.trace) << "merged trace diverged";
}

bool eligible_for_two_nodes(std::uint64_t seed) {
  specgen::GeneratedWorld probe = specgen::generate(seed);
  ConflictAnalysis analysis(*probe.spec);
  return analysis.conflict_free() && analysis.shard_count() >= 2;
}

/// A deterministic producer->consumer pipeline across two system modules:
/// shard 0 streams `budget` tokens into shard 1. The minimal spec where the
/// two nodes genuinely exchange Transfer frames and gate on each other.
struct PipeWorld {
  Specification spec{"pipe"};
  std::shared_ptr<int> sent = std::make_shared<int>(0);
  std::shared_ptr<int> got = std::make_shared<int>(0);

  explicit PipeWorld(int budget, const char* send_name = "send") {
    auto& psys =
        spec.root().create_child<Module>("p", Attribute::SystemProcess);
    auto& csys =
        spec.root().create_child<Module>("c", Attribute::SystemProcess);
    auto& prod = psys.create_child<Module>("prod", Attribute::Process);
    auto& cons = csys.create_child<Module>("cons", Attribute::Process);
    connect(prod.ip("out"), cons.ip("in"));
    InteractionPoint* out = &prod.ip("out");
    prod.trans(send_name)
        .cost(SimTime::from_us(3))
        .provided([sent = sent, budget](Module&, const Interaction*) {
          return *sent < budget;
        })
        .action([sent = sent, out](Module& m, const Interaction*) {
          ++*sent;
          out->output(Interaction(1, asn1::Value::integer(*sent)));
          m.set_state(m.state() + 1);
        });
    cons.trans("recv")
        .when(cons.ip("in"))
        .cost(SimTime::from_us(2))
        .action([got = got](Module& m, const Interaction*) {
          ++*got;
          m.set_state(m.state() + 1);
        });
    spec.initialize();
  }
};

std::unique_ptr<Executor> make_pipe_executor(PipeWorld& world,
                                             DistOptions opts) {
  ExecutorConfig cfg;
  cfg.kind = ExecutorKind::Distributed;
  cfg.backend_options = std::move(opts);
  return make_executor(world.spec, cfg);
}

/// kLanes independent producer->consumer lanes, every producer on node 0 and
/// every consumer on node 1: each active round ships kLanes same-stamp
/// transfers to the same peer — the shape transfer batching coalesces.
struct FanWorld {
  static constexpr int kLanes = 8;
  Specification spec{"fan"};
  std::shared_ptr<int> sent = std::make_shared<int>(0);
  std::shared_ptr<int> got = std::make_shared<int>(0);

  explicit FanWorld(int budget) {
    auto& psys =
        spec.root().create_child<Module>("p", Attribute::SystemProcess);
    auto& csys =
        spec.root().create_child<Module>("c", Attribute::SystemProcess);
    for (int lane = 0; lane < kLanes; ++lane) {
      auto& prod = psys.create_child<Module>("prod" + std::to_string(lane),
                                             Attribute::Process);
      auto& cons = csys.create_child<Module>("cons" + std::to_string(lane),
                                             Attribute::Process);
      connect(prod.ip("out"), cons.ip("in"));
      InteractionPoint* out = &prod.ip("out");
      prod.trans("send")
          .cost(SimTime::from_us(3))
          .provided([budget](Module& m, const Interaction*) {
            return m.state() < budget;
          })
          .action([sent = sent, out](Module& m, const Interaction*) {
            ++*sent;
            out->output(Interaction(1, asn1::Value::integer(m.state())));
            m.set_state(m.state() + 1);
          });
      cons.trans("recv")
          .when(cons.ip("in"))
          .cost(SimTime::from_us(2))
          .action([got = got](Module& m, const Interaction*) {
            ++*got;
            m.set_state(m.state() + 1);
          });
    }
    spec.initialize();
  }
};

std::string make_temp_dir() {
  char tmpl[] = "/tmp/mcam_dist_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir == nullptr ? std::string() : std::string(dir);
}

// ---------------------------------------------------------------------------
// Single node == Sequential, conflicts refused

TEST(DistRunner, SingleNodeMatchesSequentialAndRefusesConflicts) {
  const int n = spec_count();
  int matched = 0, refused = 0;
  for (std::uint64_t seed = 1; seed <= static_cast<std::uint64_t>(n); ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    specgen::GeneratedWorld probe = specgen::generate(seed);
    ConflictAnalysis analysis(*probe.spec);

    specgen::GeneratedWorld g = specgen::generate(seed);
    ExecutorConfig cfg;
    cfg.kind = ExecutorKind::Distributed;  // no options: 1 node, no transport
    auto executor = make_executor(*g.spec, cfg);
    TraceRecorder trace;
    const RunReport r = executor->run({.observers = {&trace}});

    if (!analysis.conflict_free()) {
      EXPECT_EQ(r.reason, StopReason::Aborted);
      EXPECT_NE(r.error.find("conflict"), std::string::npos) << r.error;
      EXPECT_EQ(r.fired, 0u);
      ++refused;
      continue;
    }
    const SeqBaseline seq = sequential_baseline(seed);
    EXPECT_EQ(r.reason, StopReason::Quiescent) << r.error;
    EXPECT_EQ(r.fired, seq.fired);
    std::vector<std::string> labels;
    for (const TraceEvent& e : trace.events())
      labels.push_back(e.module_path + "/" + e.transition);
    EXPECT_EQ(labels, seq.trace);
    EXPECT_EQ(specgen::world_snapshot(*g.spec), seq.world_str)
        << "single-node world diverged";
    ++matched;
  }
  if (n >= 50) {
    EXPECT_GE(matched, 20);
    EXPECT_GE(refused, 3);
  }
}

// ---------------------------------------------------------------------------
// Two nodes, in-process loopback: the generated-spec sweep

TEST(DistRunner, TwoNodeLoopbackMergedTraceMatchesSequential) {
  const int n = spec_count();
  int swept = 0;
  std::uint64_t frames_seen = 0;
  for (std::uint64_t seed = 1; seed <= static_cast<std::uint64_t>(n); ++seed) {
    if (!eligible_for_two_nodes(seed)) continue;
    SCOPED_TRACE("seed " + std::to_string(seed));
    const SeqBaseline seq = sequential_baseline(seed);

    LoopbackHub hub(2);
    std::vector<std::shared_ptr<MailboxTransport>> transports;
    for (int node = 0; node < 2; ++node)
      transports.push_back(
          std::shared_ptr<MailboxTransport>(hub.endpoint(node)));
    std::vector<NodeOutcome> nodes(2);
    std::vector<std::thread> threads;
    for (int node = 0; node < 2; ++node)
      threads.emplace_back([&, node] {
        nodes[static_cast<std::size_t>(node)] =
            run_generated_node(seed, node, 2, transports[
                static_cast<std::size_t>(node)]);
      });
    for (std::thread& t : threads) t.join();

    expect_matches_baseline(seq, nodes);
    for (const NodeOutcome& node : nodes)
      frames_seen += node.report.transport.frames_sent;
    ++swept;
    if (HasFatalFailure()) return;
  }
  if (n >= 50) {
    // Diversity floor: the sweep is vacuous unless it really covers
    // multi-shard conflict-free specs, and at least some of them must move
    // actual Transfer/Advertise traffic between the two nodes.
    EXPECT_GE(swept, 10);
    EXPECT_GT(frames_seen, 0u);
  }
}

/// A client system module and a server system module trading `requests`
/// request/reply pairs. In state 1 the client declares a 500 µs
/// retransmission timeout (`rto`, giving up to state 2, where `late` drains
/// the reply) before its `ack`, so the timer wins whenever it has matured by
/// the time the reply is collected. Under Sequential every reply is back
/// within tens of µs: the timer never fires.
struct RtoWorld {
  Specification spec{"rto"};
  std::shared_ptr<int> sent = std::make_shared<int>(0);

  explicit RtoWorld(int requests) {
    auto& client =
        spec.root().create_child<Module>("client", Attribute::SystemProcess);
    auto& server =
        spec.root().create_child<Module>("server", Attribute::SystemProcess);
    connect(client.ip("net"), server.ip("net"));
    InteractionPoint* to_server = &client.ip("net");
    InteractionPoint* to_client = &server.ip("net");
    client.trans("req")
        .from(0)
        .to(1)
        .cost(SimTime::from_us(5))
        .provided([sent = sent, requests](Module&, const Interaction*) {
          return *sent < requests;
        })
        .action([sent = sent, to_server](Module&, const Interaction*) {
          ++*sent;
          to_server->output(Interaction(1));
        });
    client.trans("rto")
        .from(1)
        .to(2)
        .delay(SimTime::from_us(500))
        .action([](Module&, const Interaction*) {});
    client.trans("ack")
        .from(1)
        .to(0)
        .when(client.ip("net"))
        .cost(SimTime::from_us(5))
        .action([](Module&, const Interaction*) {});
    client.trans("late")
        .from(2)
        .to(0)
        .when(client.ip("net"))
        .cost(SimTime::from_us(5))
        .action([](Module&, const Interaction*) {});
    server.trans("serve")
        .when(server.ip("net"))
        .cost(SimTime::from_us(20))
        .action([to_client](Module&, const Interaction*) {
          to_client->output(Interaction(2));
        });
    spec.initialize();
  }
};

TEST(DistRunner, BarrierRoundsFireTimersOnlyWhenSequentialDoes) {
  // Regression: a node round used to leap each idle local shard to its own
  // next delay deadline while the other shard was still busy, so the client
  // fired `rto` before every reply was collected (120 firings against
  // Sequential's 90). A barrier round leaps the node's group clock only when
  // no shard fires, like the Sharded step and FreeRunning's fallback.
  constexpr int kRequests = 30;
  struct Outcome {
    std::vector<std::string> trace;
    RunReport report;
  };
  const auto run = [](const ExecutorConfig& cfg) {
    RtoWorld world(kRequests);
    auto executor = make_executor(world.spec, cfg);
    TraceRecorder trace;
    Outcome out;
    out.report = executor->run({.observers = {&trace}});
    for (const TraceEvent& e : trace.events())
      out.trace.push_back(e.module_path + "/" + e.transition);
    return out;
  };
  const Outcome seq = run({});
  ASSERT_EQ(seq.report.fired, 3u * kRequests);
  for (const std::string& label : seq.trace)
    ASSERT_EQ(label.find("/rto"), std::string::npos) << label;

  const Outcome sharded = run({.kind = ExecutorKind::Sharded});
  const Outcome fallback =
      run({.kind = ExecutorKind::FreeRunning, .threads = 1});
  EXPECT_GT(fallback.report.free_running.fallback_rounds, 0u);
  for (const Outcome* o : {&sharded, &fallback}) {
    SCOPED_TRACE(executor_kind_name(o->report.kind));
    EXPECT_EQ(o->report.reason, StopReason::Quiescent);
    EXPECT_EQ(o->report.fired, seq.report.fired);
    EXPECT_EQ(o->trace, seq.trace);
  }
  const Outcome dist = run({.kind = ExecutorKind::Distributed});
  EXPECT_EQ(dist.report.reason, StopReason::Quiescent) << dist.report.error;
  EXPECT_EQ(dist.report.fired, seq.report.fired);
  EXPECT_EQ(dist.trace, seq.trace);
  EXPECT_EQ(dist.report.time, sharded.report.time);
}

TEST(DistRunner, ThrowingActionEndsTheBarrierRoundLikeSequential) {
  // Three independent ticking shards; sys1's tick throws at state 5, in the
  // sixth round. Sequential announces the throwing firing, fires nothing
  // after it and does not count it: 17 announced, 16 fired. A barrier round
  // must end the same way — stop firing at the throw, then replay and fold
  // what ran before the exception leaves run() — under the Sharded step,
  // FreeRunning's fallback and a single-node Distributed round, with the
  // per-shard fired counters summing to the executor's.
  struct ReportKeeper final : RunObserver {
    RunReport report;
    void on_run_end(Executor&, const RunReport& r) override { report = r; }
  };
  struct Outcome {
    std::vector<std::string> trace;
    RunReport report;
  };
  const auto run = [](const ExecutorConfig& cfg) {
    Specification spec("throw");
    for (int i = 0; i < 3; ++i) {
      auto& w = spec.root()
                    .create_child<Module>("sys" + std::to_string(i),
                                          Attribute::SystemProcess)
                    .create_child<Module>("w", Attribute::Process);
      w.trans("tick").action([i](Module& m, const Interaction*) {
        if (i == 1 && m.state() == 5) throw std::runtime_error("tick failed");
        m.set_state(m.state() + 1);
      });
    }
    spec.initialize();
    auto executor = make_executor(spec, cfg);
    TraceRecorder trace;
    ReportKeeper keeper;
    EXPECT_THROW(executor->run({.stop = {StopCondition::max_steps(50)},
                                .observers = {&trace, &keeper}}),
                 std::runtime_error);
    Outcome out;
    out.report = keeper.report;
    for (const TraceEvent& e : trace.events())
      out.trace.push_back(e.module_path + "/" + e.transition);
    return out;
  };
  const Outcome seq = run({});
  ASSERT_EQ(seq.report.reason, StopReason::Aborted);
  ASSERT_EQ(seq.trace.size(), 17u);
  ASSERT_EQ(seq.report.fired, 16u);

  struct Leg {
    const char* name;
    ExecutorConfig cfg;
  };
  const Leg legs[] = {
      {"sharded threads 1", {.kind = ExecutorKind::Sharded, .threads = 1}},
      {"sharded threads 3", {.kind = ExecutorKind::Sharded, .threads = 3}},
      {"free-running threads 1",
       {.kind = ExecutorKind::FreeRunning, .threads = 1}},
      {"distributed", {.kind = ExecutorKind::Distributed}},
  };
  for (const Leg& leg : legs) {
    SCOPED_TRACE(leg.name);
    const Outcome o = run(leg.cfg);
    EXPECT_EQ(o.report.reason, StopReason::Aborted);
    EXPECT_EQ(o.trace, seq.trace);
    EXPECT_EQ(o.report.fired, seq.report.fired);
    std::uint64_t shard_fired = 0;
    for (const ShardRunStats& shard : o.report.shards)
      shard_fired += shard.fired;
    EXPECT_EQ(o.report.shards.size(), 3u);
    EXPECT_EQ(shard_fired, o.report.stats.fired);
  }
}

// ---------------------------------------------------------------------------
// Two nodes, Unix-domain sockets (threads): the BER wire under TSan too

TEST(DistRunner, TwoNodeUnixSocketDifferential) {
  const int n = spec_count();
  int swept = 0;
  for (std::uint64_t seed = 1;
       seed <= static_cast<std::uint64_t>(n) && swept < 4; ++seed) {
    if (!eligible_for_two_nodes(seed)) continue;
    SCOPED_TRACE("seed " + std::to_string(seed));
    const SeqBaseline seq = sequential_baseline(seed);
    const std::string dir = make_temp_dir();
    ASSERT_FALSE(dir.empty());

    std::vector<NodeOutcome> nodes(2);
    std::vector<std::string> mesh_errors(2);
    std::vector<std::thread> threads;
    for (int node = 0; node < 2; ++node)
      threads.emplace_back([&, node] {
        auto mesh = StreamSocketTransport::unix_mesh(node, 2, dir);
        if (!mesh.ok()) {
          mesh_errors[static_cast<std::size_t>(node)] = mesh.error().message;
          return;
        }
        nodes[static_cast<std::size_t>(node)] = run_generated_node(
            seed, node, 2,
            std::shared_ptr<MailboxTransport>(std::move(mesh.value())));
      });
    for (std::thread& t : threads) t.join();
    std::filesystem::remove_all(dir);
    ASSERT_TRUE(mesh_errors[0].empty()) << mesh_errors[0];
    ASSERT_TRUE(mesh_errors[1].empty()) << mesh_errors[1];

    expect_matches_baseline(seq, nodes);
    // The socket path really serialized frames: bytes moved both ways.
    EXPECT_GT(nodes[0].report.transport.bytes_sent, 0u);
    EXPECT_GT(nodes[1].report.transport.bytes_sent, 0u);
    ++swept;
    if (HasFatalFailure()) return;
  }
  EXPECT_GE(swept, 1);
}

/// Forwards everything to `inner`, counting what its user did: the frames
/// it sent, by FrameType, and the waits it sat out — recv() calls with a
/// positive timeout that came back kIdle.
class CountingTransport final : public MailboxTransport {
 public:
  /// Frames sent, indexed by FrameType value.
  using FrameCounts =
      std::array<std::uint64_t,
                 static_cast<std::size_t>(FrameType::SessionAck) + 1>;

  explicit CountingTransport(std::shared_ptr<MailboxTransport> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] const std::vector<int>& peers() const noexcept override {
    return inner_->peers();
  }
  common::Status send(int peer, Frame& f) override {
    const FrameType type = f.type;  // a successful send may move `f`
    common::Status st = inner_->send(peer, f);
    if (st.ok()) ++sent_[static_cast<std::size_t>(type)];
    return st;
  }
  void flush() override { inner_->flush(); }
  RecvOutcome recv(int* from, Frame* out, int timeout_ms,
                   std::string* error) override {
    const RecvOutcome got = inner_->recv(from, out, timeout_ms, error);
    if (timeout_ms > 0 && got == RecvOutcome::kIdle) ++idle_waits_;
    return got;
  }
  void configure_session(const SessionOptions& so) override {
    inner_->configure_session(so);
  }
  bool sever(int peer) override { return inner_->sever(peer); }
  [[nodiscard]] const TransportStats& stats() const noexcept override {
    return inner_->stats();
  }
  [[nodiscard]] TransportStats& mutable_stats() noexcept override {
    return inner_->mutable_stats();
  }

  [[nodiscard]] std::uint64_t idle_waits() const noexcept {
    return idle_waits_;
  }
  [[nodiscard]] const FrameCounts& sent() const noexcept { return sent_; }

 private:
  std::shared_ptr<MailboxTransport> inner_;
  std::uint64_t idle_waits_ = 0;
  FrameCounts sent_{};
};

/// kLanes ping-pong lanes with every endpoint in its own system module:
/// lane i's left module is shard 2i (node 0), its right module shard 2i+1
/// (node 1), so each node round runs kLanes firing shards. A ball in each
/// direction keeps every lane firing each round; runs are bounded by
/// max_steps.
struct LaneWorld {
  static constexpr int kLanes = 4;
  Specification spec{"lanes"};

  LaneWorld() {
    std::vector<Module*> ends;
    for (int lane = 0; lane < kLanes; ++lane) {
      auto& left =
          spec.root()
              .create_child<Module>("l" + std::to_string(lane),
                                    Attribute::SystemProcess)
              .create_child<Module>("w", Attribute::Process);
      auto& right =
          spec.root()
              .create_child<Module>("r" + std::to_string(lane),
                                    Attribute::SystemProcess)
              .create_child<Module>("w", Attribute::Process);
      connect(left.ip("out"), right.ip("in"));
      connect(right.ip("out"), left.ip("in"));
      for (Module* m : {&left, &right}) {
        InteractionPoint* out = &m->ip("out");
        m->trans("hit").when(m->ip("in")).cost(SimTime::from_us(5)).action(
            [out](Module& mm, const Interaction* msg) {
              out->output(Interaction(1, msg->value));
              mm.set_state(mm.state() + 1);
            });
        ends.push_back(m);
      }
    }
    spec.initialize();
    for (std::size_t i = 0; i < ends.size(); ++i)
      ends[i]->ip("out").output(
          Interaction(1, asn1::Value::integer(static_cast<std::int64_t>(i))));
  }
};

TEST(DistRunner, NodeParallelRoundsDoNotWaitOnTheTransport) {
  // Regression: a node round over many shards once polled the transport
  // with a 1 ms timeout until its shard tasks finished — waiting out the
  // whole millisecond on loopback, spinning on zero-timeout polls over
  // sockets. A node round now runs on the run thread, which pumps only
  // between rounds, so a positive-timeout recv that comes back empty is
  // left to the rare gate or handshake wait that outlasts its timeout.
  constexpr std::uint64_t kRounds = 200;
  for (const bool sockets : {false, true}) {
    SCOPED_TRACE(sockets ? "unix" : "loopback");
    LoopbackHub hub(2);
    std::vector<std::shared_ptr<MailboxTransport>> loopback;
    for (int node = 0; node < 2; ++node)
      loopback.push_back(
          std::shared_ptr<MailboxTransport>(hub.endpoint(node)));
    const std::string dir = sockets ? make_temp_dir() : std::string();
    if (sockets) {
      ASSERT_FALSE(dir.empty());
    }
    std::vector<std::shared_ptr<CountingTransport>> counters(2);
    std::vector<RunReport> reports(2);
    std::vector<std::string> mesh_errors(2);
    std::vector<std::thread> threads;
    for (int node = 0; node < 2; ++node)
      threads.emplace_back([&, node] {
        const auto at = static_cast<std::size_t>(node);
        std::shared_ptr<MailboxTransport> inner = loopback[at];
        if (sockets) {
          auto mesh = StreamSocketTransport::unix_mesh(node, 2, dir);
          if (!mesh.ok()) {
            mesh_errors[at] = mesh.error().message;
            return;
          }
          inner = std::shared_ptr<MailboxTransport>(std::move(mesh.value()));
        }
        counters[at] = std::make_shared<CountingTransport>(std::move(inner));
        LaneWorld world;
        DistOptions opts;
        opts.node = node;
        opts.nodes = 2;
        opts.transport = counters[at];
        opts.gate_timeout_ms = 20000;
        ExecutorConfig cfg;
        cfg.kind = ExecutorKind::Distributed;
        cfg.backend_options = opts;
        auto executor = make_executor(world.spec, cfg);
        reports[at] = executor->run(
            {.stop = {StopCondition::max_steps(kRounds)}, .observers = {}});
      });
    for (std::thread& t : threads) t.join();
    if (sockets) std::filesystem::remove_all(dir);
    for (int node = 0; node < 2; ++node) {
      SCOPED_TRACE("node " + std::to_string(node));
      const auto at = static_cast<std::size_t>(node);
      ASSERT_TRUE(mesh_errors[at].empty()) << mesh_errors[at];
      const RunReport& r = reports[at];
      ASSERT_EQ(r.reason, StopReason::StepLimit) << r.error;
      ASSERT_EQ(r.steps, kRounds);
      EXPECT_LT(counters[at]->idle_waits() * 10, kRounds)
          << counters[at]->idle_waits() << " idle transport waits in "
          << kRounds << " rounds";
    }
  }
}

TEST(SocketTransport, IdleRecvWaitsOutItsWholeTimeout) {
  // The remaining budget rounds up, never down: an idle recv(…, 5) sleeps
  // at least 5 ms instead of ending up to 1 ms early in zero-timeout polls.
  // Only the lower bound is checked, so a loaded host cannot make it flaky.
  int sv[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  auto t = StreamSocketTransport::from_fds({{1, sv[0]}});
  for (const int timeout_ms : {1, 5}) {
    SCOPED_TRACE("timeout " + std::to_string(timeout_ms) + " ms");
    int from = -1;
    Frame f;
    std::string why;
    const auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(t->recv(&from, &f, timeout_ms, &why),
              MailboxTransport::RecvOutcome::kIdle)
        << why;
    EXPECT_GE(std::chrono::steady_clock::now() - start,
              std::chrono::milliseconds(timeout_ms));
  }
  ::close(sv[1]);  // EOF lets the transport's graceful close end at once
}

// ---------------------------------------------------------------------------
// Batched vs unbatched transfers: same merged trace, fewer frames

TEST(DistRunner, BatchedAndUnbatchedTransfersMatchSequential) {
  // The generated-spec sweep, run in BOTH transfer modes over BOTH in-process
  // mesh kinds: coalescing a round's transfers into TransferBatch frames must
  // not move a single event in the merged trace.
  const int n = spec_count();
  int swept = 0;
  // Loopback frames sent, by type, per mode (index 1 = batched).
  std::array<CountingTransport::FrameCounts, 2> sent{};
  for (std::uint64_t seed = 1;
       seed <= static_cast<std::uint64_t>(n) && swept < 4; ++seed) {
    if (!eligible_for_two_nodes(seed)) continue;
    SCOPED_TRACE("seed " + std::to_string(seed));
    const SeqBaseline seq = sequential_baseline(seed);
    for (const bool batch : {true, false}) {
      SCOPED_TRACE(batch ? "batched" : "unbatched");
      {
        SCOPED_TRACE("loopback");
        LoopbackHub hub(2);
        std::vector<std::shared_ptr<CountingTransport>> transports;
        for (int node = 0; node < 2; ++node)
          transports.push_back(std::make_shared<CountingTransport>(
              std::shared_ptr<MailboxTransport>(hub.endpoint(node))));
        std::vector<NodeOutcome> nodes(2);
        std::vector<std::thread> threads;
        for (int node = 0; node < 2; ++node)
          threads.emplace_back([&, node] {
            nodes[static_cast<std::size_t>(node)] = run_generated_node(
                seed, node, 2, transports[static_cast<std::size_t>(node)],
                batch);
          });
        for (std::thread& t : threads) t.join();
        expect_matches_baseline(seq, nodes);
        for (const auto& t : transports)
          for (std::size_t type = 0; type < t->sent().size(); ++type)
            sent[batch ? 1 : 0][type] += t->sent()[type];
        if (!batch) {
          for (const NodeOutcome& node : nodes)
            EXPECT_EQ(node.report.transport.frames_batched, 0u)
                << "unbatched mode must not emit TransferBatch frames";
        }
      }
      {
        SCOPED_TRACE("unix socket");
        const std::string dir = make_temp_dir();
        ASSERT_FALSE(dir.empty());
        std::vector<NodeOutcome> nodes(2);
        std::vector<std::string> mesh_errors(2);
        std::vector<std::thread> threads;
        for (int node = 0; node < 2; ++node)
          threads.emplace_back([&, node] {
            auto mesh = StreamSocketTransport::unix_mesh(node, 2, dir);
            if (!mesh.ok()) {
              mesh_errors[static_cast<std::size_t>(node)] =
                  mesh.error().message;
              return;
            }
            nodes[static_cast<std::size_t>(node)] = run_generated_node(
                seed, node, 2,
                std::shared_ptr<MailboxTransport>(std::move(mesh.value())),
                batch);
          });
        for (std::thread& t : threads) t.join();
        std::filesystem::remove_all(dir);
        ASSERT_TRUE(mesh_errors[0].empty()) << mesh_errors[0];
        ASSERT_TRUE(mesh_errors[1].empty()) << mesh_errors[1];
        expect_matches_baseline(seq, nodes);
      }
      if (HasFatalFailure()) return;
    }
    ++swept;
  }
  EXPECT_GE(swept, 1);
  // Coalescing never sends MORE transfer-carrying frames than
  // one-frame-per-transfer. Only those frames are compared: the spec's
  // rounds fix how many there are, while the count of heartbeats and
  // re-sent termination probes depends on wall-clock timing.
  const auto transfer_frames = [](const CountingTransport::FrameCounts& c) {
    return c[static_cast<std::size_t>(FrameType::Transfer)] +
           c[static_cast<std::size_t>(FrameType::TransferBatch)];
  };
  const auto totals = [&sent] {
    std::string out;
    for (const std::size_t mode : {1u, 0u}) {
      out += mode == 1 ? "batched:" : "\nunbatched:";
      for (std::size_t type = 0; type < sent[mode].size(); ++type)
        if (sent[mode][type] != 0)
          out += std::string(" ") +
                 frame_type_name(static_cast<FrameType>(type)) + "=" +
                 std::to_string(sent[mode][type]);
    }
    return out;
  };
  EXPECT_LE(transfer_frames(sent[1]), transfer_frames(sent[0])) << totals();
}

TEST(DistRunner, BatchingCoalescesFanOutRounds) {
  // Deterministic diversity check the generated sweep cannot guarantee:
  // 8 same-round transfers to one peer become one TransferBatch, visibly
  // shrinking the frame count without changing the delivered tokens.
  constexpr int kBudget = 30;
  struct PairOutcome {
    RunReport r0, r1;
    int got = 0;
  };
  auto run_pair = [&](bool batch) {
    PairOutcome o;
    LoopbackHub hub(2);
    auto t0 = std::shared_ptr<MailboxTransport>(hub.endpoint(0));
    auto t1 = std::shared_ptr<MailboxTransport>(hub.endpoint(1));
    auto run_node = [&](int node, std::shared_ptr<MailboxTransport> t,
                        RunReport* r, int* got) {
      FanWorld world(kBudget);
      DistOptions opts;
      opts.node = node;
      opts.nodes = 2;
      opts.transport = std::move(t);
      opts.batch_transfers = batch;
      ExecutorConfig cfg;
      cfg.kind = ExecutorKind::Distributed;
      cfg.backend_options = std::move(opts);
      auto executor = make_executor(world.spec, cfg);
      *r = executor->run();
      if (got != nullptr) *got = *world.got;
    };
    std::thread producer([&] { run_node(0, t0, &o.r0, nullptr); });
    std::thread consumer([&] { run_node(1, t1, &o.r1, &o.got); });
    producer.join();
    consumer.join();
    return o;
  };
  const PairOutcome batched = run_pair(true);
  const PairOutcome unbatched = run_pair(false);
  for (const PairOutcome* o : {&batched, &unbatched}) {
    EXPECT_EQ(o->r0.reason, StopReason::Quiescent) << o->r0.error;
    EXPECT_EQ(o->r1.reason, StopReason::Quiescent) << o->r1.error;
    EXPECT_EQ(o->got, FanWorld::kLanes * kBudget);
  }
  EXPECT_EQ(batched.r0.fired + batched.r1.fired,
            unbatched.r0.fired + unbatched.r1.fired);
  // The producer's transfer traffic collapsed into batches...
  EXPECT_GT(batched.r0.transport.frames_batched, 0u);
  EXPECT_EQ(unbatched.r0.transport.frames_batched, 0u);
  // ...so it sent fewer frames for the same tokens.
  EXPECT_LT(batched.r0.transport.frames_sent,
            unbatched.r0.transport.frames_sent);
}

// ---------------------------------------------------------------------------
// Two PROCESSES, Unix-domain sockets: the headline differential

/// Child half of the multi-process differential: run one node and leave the
/// stamped trace + local world in `out_path` for the parent to merge. All
/// checking happens in the parent — a child failure surfaces as a bad exit
/// status or a non-quiescent result line, never a lost gtest assertion.
void run_child_node(std::uint64_t seed, int node, const std::string& dir,
                    const std::string& out_path) {
  specgen::GeneratedWorld g = specgen::generate(seed);
  auto mesh = StreamSocketTransport::unix_mesh(node, 2, dir);
  if (!mesh.ok()) {
    std::ofstream f(out_path);
    f << "R meshfail: " << mesh.error().message << "\n";
    f.close();
    ::_exit(2);
  }
  std::vector<DistEvent> events;
  DistOptions opts;
  opts.node = node;
  opts.nodes = 2;
  opts.transport = std::shared_ptr<MailboxTransport>(std::move(mesh.value()));
  opts.gate_timeout_ms = 20000;
  opts.trace_hook = [&events](std::uint64_t r, int s, Module& m,
                              const Transition& t, SimTime) {
    events.push_back({r, s, m.path() + "/" + t.name});
  };
  ExecutorConfig cfg;
  cfg.kind = ExecutorKind::Distributed;
  cfg.backend_options = opts;
  auto executor = make_executor(*g.spec, cfg);
  const RunReport rep = executor->run();

  std::ofstream f(out_path);
  f << "R "
    << (rep.reason == StopReason::Quiescent ? std::string("quiescent")
                                            : "other: " + rep.error)
    << "\n";
  f << "F " << rep.fired << "\n";
  f << "T " << rep.transport.frames_sent << "\n";
  for (const DistEvent& e : events)
    f << "E " << e.round << " " << e.shard << " " << e.label << "\n";
  ConflictAnalysis analysis(*g.spec);
  for (int s = 0; s < analysis.shard_count(); ++s) {
    if (s % 2 != node) continue;
    for (Module* m : analysis.shards()[static_cast<std::size_t>(s)].modules)
      f << "W " << module_line(*m) << "\n";
  }
  f.close();
  ::_exit(f.good() ? 0 : 3);
}

bool parse_child_outcome(const std::string& path, NodeOutcome* out,
                         std::string* reason) {
  std::ifstream f(path);
  if (!f.good()) {
    *reason = "missing result file " + path;
    return false;
  }
  std::string line;
  bool quiescent = false;
  while (std::getline(f, line)) {
    std::istringstream in(line);
    std::string tag;
    in >> tag;
    if (tag == "R") {
      std::string rest;
      std::getline(in, rest);
      quiescent = rest.find("quiescent") != std::string::npos;
      if (!quiescent) *reason = "child run ended:" + rest;
    } else if (tag == "F") {
      in >> out->report.fired;
    } else if (tag == "T") {
      in >> out->report.transport.frames_sent;
    } else if (tag == "S") {
      in >> out->report.transport.reconnects >>
          out->report.transport.frames_replayed >>
          out->report.transport.dup_frames_dropped >>
          out->report.transport.faults_injected;
    } else if (tag == "E") {
      DistEvent e;
      in >> e.round >> e.shard;
      std::getline(in, e.label);
      if (!e.label.empty() && e.label.front() == ' ') e.label.erase(0, 1);
      out->events.push_back(std::move(e));
    } else if (tag == "W") {
      std::string rest;
      std::getline(in, rest);
      if (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);
      out->local_world.push_back(std::move(rest));
    }
  }
  out->report.reason =
      quiescent ? StopReason::Quiescent : StopReason::Aborted;
  return quiescent;
}

/// The wire-record fault plan node `node` injects toward its peer for fault
/// seed `fault_seed`: steady drops/dups/delays both ways, plus exactly one
/// mid-run close per run (on the node the seed's parity picks) — the
/// acceptance shape: frame drops + one socket close, every seed.
FaultPlan sweep_plan(std::uint64_t fault_seed, int node) {
  const std::int64_t close_after =
      node == static_cast<int>(fault_seed % 2)
          ? static_cast<std::int64_t>(8 + fault_seed % 24)
          : -1;
  return FaultPlan::seeded(fault_seed * 977 + static_cast<std::uint64_t>(node),
                           400, 25, 20, 12, close_after);
}

/// Child half of the seeded-fault differential: like run_child_node, but the
/// mesh carries a wire-record fault plan and the runner uses the fast
/// session knobs. Adds an "S" stats line so the parent can prove recovery
/// actually ran.
void run_fault_child_node(std::uint64_t seed, std::uint64_t fault_seed,
                          int node, const std::string& dir,
                          const std::string& out_path) {
  specgen::GeneratedWorld g = specgen::generate(seed);
  auto mesh = StreamSocketTransport::unix_mesh(node, 2, dir);
  if (!mesh.ok()) {
    std::ofstream f(out_path);
    f << "R meshfail: " << mesh.error().message << "\n";
    f.close();
    ::_exit(2);
  }
  mesh.value()->set_wire_faults(1 - node, sweep_plan(fault_seed, node));
  std::vector<DistEvent> events;
  DistOptions opts;
  opts.node = node;
  opts.nodes = 2;
  opts.transport = std::shared_ptr<MailboxTransport>(std::move(mesh.value()));
  opts.gate_timeout_ms = 20000;
  fast_session(opts);
  opts.trace_hook = [&events](std::uint64_t r, int s, Module& m,
                              const Transition& t, SimTime) {
    events.push_back({r, s, m.path() + "/" + t.name});
  };
  ExecutorConfig cfg;
  cfg.kind = ExecutorKind::Distributed;
  cfg.backend_options = opts;
  auto executor = make_executor(*g.spec, cfg);
  const RunReport rep = executor->run();
  // ::_exit skips destructors; tear down every owner of the transport
  // explicitly (the executor AND the shared_ptr copies in opts/cfg) so the
  // session linger runs — a lost parting Bye is replayed to the peer here,
  // and without it the peer would redial a process that no longer exists.
  executor.reset();
  cfg = ExecutorConfig{};
  opts.transport.reset();

  std::ofstream f(out_path);
  f << "R "
    << (rep.reason == StopReason::Quiescent ? std::string("quiescent")
                                            : "other: " + rep.error)
    << "\n";
  f << "F " << rep.fired << "\n";
  f << "T " << rep.transport.frames_sent << "\n";
  f << "S " << rep.transport.reconnects << " "
    << rep.transport.frames_replayed << " "
    << rep.transport.dup_frames_dropped << " "
    << rep.transport.faults_injected << "\n";
  for (const DistEvent& e : events)
    f << "E " << e.round << " " << e.shard << " " << e.label << "\n";
  ConflictAnalysis analysis(*g.spec);
  for (int s = 0; s < analysis.shard_count(); ++s) {
    if (s % 2 != node) continue;
    for (Module* m : analysis.shards()[static_cast<std::size_t>(s)].modules)
      f << "W " << module_line(*m) << "\n";
  }
  f.close();
  ::_exit(f.good() ? 0 : 3);
}

TEST(DistRunner, MultiProcessUnixSocketDifferential) {
#ifdef MCAM_TSAN_BUILD
  GTEST_SKIP() << "fork-based differential is covered outside TSan";
#else
  const int n = spec_count();
  int swept = 0;
  for (std::uint64_t seed = 1; seed <= static_cast<std::uint64_t>(n); ++seed) {
    if (!eligible_for_two_nodes(seed)) continue;
    SCOPED_TRACE("seed " + std::to_string(seed));
    const SeqBaseline seq = sequential_baseline(seed);
    const std::string dir = make_temp_dir();
    ASSERT_FALSE(dir.empty());

    std::vector<pid_t> pids;
    for (int node = 0; node < 2; ++node) {
      const pid_t pid = ::fork();
      ASSERT_GE(pid, 0);
      if (pid == 0) {
        run_child_node(seed, node, dir,
                       dir + "/result" + std::to_string(node));
        ::_exit(4);  // unreachable
      }
      pids.push_back(pid);
    }
    for (const pid_t pid : pids) {
      int status = 0;
      ASSERT_EQ(::waitpid(pid, &status, 0), pid);
      ASSERT_TRUE(WIFEXITED(status)) << "child crashed";
      ASSERT_EQ(WEXITSTATUS(status), 0);
    }

    std::vector<NodeOutcome> nodes(2);
    for (int node = 0; node < 2; ++node) {
      std::string why;
      ASSERT_TRUE(parse_child_outcome(dir + "/result" + std::to_string(node),
                                      &nodes[static_cast<std::size_t>(node)],
                                      &why))
          << "node " << node << ": " << why;
    }
    std::filesystem::remove_all(dir);

    std::uint64_t fired = nodes[0].report.fired + nodes[1].report.fired;
    EXPECT_EQ(fired, seq.fired);
    EXPECT_EQ(merge_traces(nodes), seq.trace)
        << "cross-process merged trace diverged";
    for (const NodeOutcome& node : nodes) {
      for (const std::string& line : node.local_world) {
        const std::string path = line.substr(0, line.find('='));
        const auto it = seq.world.find(path);
        ASSERT_NE(it, seq.world.end()) << path;
        EXPECT_EQ(line, it->second) << "local world diverged at " << path;
      }
    }
    ++swept;
    if (HasFatalFailure()) return;
  }
  if (n >= 50) EXPECT_GE(swept, 10);
#endif
}

// ---------------------------------------------------------------------------
// Seeded wire faults: recovery preserves the differential

TEST(DistRunner, WireFaultRecoveryPreservesUnixDifferential) {
  // Thread-based (TSan-covered) half of the fault sweep: one fixed generated
  // world, several fault seeds, drops + dups + delays + one mid-run close
  // injected below the session sequence numbers — the merged trace, local
  // worlds and fired counts must still equal Sequential, and the session
  // counters must prove recovery (not luck) produced that equality.
  std::uint64_t world_seed = 0;
  for (std::uint64_t s = 1; s <= 100 && world_seed == 0; ++s)
    if (eligible_for_two_nodes(s)) world_seed = s;
  ASSERT_NE(world_seed, 0u);
  const SeqBaseline seq = sequential_baseline(world_seed);

  std::uint64_t faults = 0, reconnects = 0, replayed = 0;
  for (std::uint64_t fs = 1; fs <= 6; ++fs) {
    SCOPED_TRACE("fault seed " + std::to_string(fs));
    const std::string dir = make_temp_dir();
    ASSERT_FALSE(dir.empty());
    std::vector<NodeOutcome> nodes(2);
    std::vector<std::string> mesh_errors(2);
    std::vector<std::thread> threads;
    for (int node = 0; node < 2; ++node)
      threads.emplace_back([&, node] {
        auto mesh = StreamSocketTransport::unix_mesh(node, 2, dir);
        if (!mesh.ok()) {
          mesh_errors[static_cast<std::size_t>(node)] = mesh.error().message;
          return;
        }
        mesh.value()->set_wire_faults(1 - node, sweep_plan(fs, node));
        nodes[static_cast<std::size_t>(node)] = run_generated_node(
            world_seed, node, 2,
            std::shared_ptr<MailboxTransport>(std::move(mesh.value())), true,
            fast_session);
      });
    for (std::thread& t : threads) t.join();
    std::filesystem::remove_all(dir);
    ASSERT_TRUE(mesh_errors[0].empty()) << mesh_errors[0];
    ASSERT_TRUE(mesh_errors[1].empty()) << mesh_errors[1];

    expect_matches_baseline(seq, nodes);
    for (const NodeOutcome& n : nodes) {
      faults += n.report.transport.faults_injected;
      reconnects += n.report.transport.reconnects;
      replayed += n.report.transport.frames_replayed;
    }
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(faults, 0u) << "the sweep never injected a fault";
  EXPECT_GT(reconnects, 0u) << "no run ever recovered a connection";
  EXPECT_GT(replayed, 0u) << "recovery never replayed a lost record";
}

TEST(DistRunner, WireFaultRecoveryOnTcpPipeline) {
  // The same recovery machinery over real TCP: injected drops and a mid-run
  // close on the producer's stream must not lose or reorder a single token.
  static constexpr int kBudget = 25;
  static constexpr std::uint16_t kBasePort = 45317;
  RunReport r0, r1;
  int got = -1;
  std::string mesh_error;
  std::thread producer([&] {
    PipeWorld world(kBudget);
    auto mesh = StreamSocketTransport::tcp_mesh(0, 2, kBasePort);
    if (!mesh.ok()) {
      mesh_error = mesh.error().message;
      return;
    }
    mesh.value()->set_wire_faults(
        1, FaultPlan::seeded(9001, 400, 30, 20, 12, /*close_after=*/12));
    DistOptions opts;
    opts.node = 0;
    opts.nodes = 2;
    opts.transport =
        std::shared_ptr<MailboxTransport>(std::move(mesh.value()));
    fast_session(opts);
    r0 = make_pipe_executor(world, std::move(opts))->run();
  });
  std::thread consumer([&] {
    PipeWorld world(kBudget);
    auto mesh = StreamSocketTransport::tcp_mesh(1, 2, kBasePort);
    if (!mesh.ok()) {
      mesh_error = mesh.error().message;
      return;
    }
    mesh.value()->set_wire_faults(0,
                                  FaultPlan::seeded(9002, 400, 30, 20, 12));
    DistOptions opts;
    opts.node = 1;
    opts.nodes = 2;
    opts.transport =
        std::shared_ptr<MailboxTransport>(std::move(mesh.value()));
    fast_session(opts);
    r1 = make_pipe_executor(world, std::move(opts))->run();
    got = *world.got;
  });
  producer.join();
  consumer.join();
  ASSERT_TRUE(mesh_error.empty()) << mesh_error;
  EXPECT_EQ(r0.reason, StopReason::Quiescent) << r0.error;
  EXPECT_EQ(r1.reason, StopReason::Quiescent) << r1.error;
  EXPECT_EQ(got, kBudget) << "tokens lost across injected TCP faults";
  EXPECT_EQ(r0.fired + r1.fired, static_cast<std::uint64_t>(2 * kBudget));
  EXPECT_GT(r0.transport.faults_injected + r1.transport.faults_injected, 0u);
  EXPECT_GT(r0.transport.reconnects + r1.transport.reconnects, 0u);
}

TEST(DistRunner, ForkedSeededFaultDifferentialSweep) {
#ifdef MCAM_TSAN_BUILD
  GTEST_SKIP() << "fork-based fault differential is covered outside TSan";
#else
  // The acceptance sweep: >= 100 fault seeds, two real processes over a
  // Unix-socket mesh, every run seeing seeded frame drops plus one mid-run
  // socket close — and every run must still complete quiescent with merged
  // trace, worlds and fired counts equal to Sequential.
  std::uint64_t world_seed = 0;
  for (std::uint64_t s = 1; s <= 100 && world_seed == 0; ++s)
    if (eligible_for_two_nodes(s)) world_seed = s;
  ASSERT_NE(world_seed, 0u);
  const SeqBaseline seq = sequential_baseline(world_seed);
  const int fault_seeds = std::max(100, spec_count() > 50 ? spec_count() : 0);

  std::uint64_t faults = 0, reconnects = 0, replayed = 0, dups = 0;
  for (std::uint64_t fs = 1; fs <= static_cast<std::uint64_t>(fault_seeds);
       ++fs) {
    SCOPED_TRACE("fault seed " + std::to_string(fs));
    const std::string dir = make_temp_dir();
    ASSERT_FALSE(dir.empty());

    std::vector<pid_t> pids;
    for (int node = 0; node < 2; ++node) {
      const pid_t pid = ::fork();
      ASSERT_GE(pid, 0);
      if (pid == 0) {
        run_fault_child_node(world_seed, fs, node, dir,
                             dir + "/result" + std::to_string(node));
        ::_exit(4);  // unreachable
      }
      pids.push_back(pid);
    }
    for (const pid_t pid : pids) {
      int status = 0;
      ASSERT_EQ(::waitpid(pid, &status, 0), pid);
      ASSERT_TRUE(WIFEXITED(status)) << "child crashed";
      ASSERT_EQ(WEXITSTATUS(status), 0);
    }

    std::vector<NodeOutcome> nodes(2);
    for (int node = 0; node < 2; ++node) {
      std::string why;
      ASSERT_TRUE(parse_child_outcome(dir + "/result" + std::to_string(node),
                                      &nodes[static_cast<std::size_t>(node)],
                                      &why))
          << "node " << node << ": " << why;
    }
    std::filesystem::remove_all(dir);

    EXPECT_EQ(nodes[0].report.fired + nodes[1].report.fired, seq.fired);
    EXPECT_EQ(merge_traces(nodes), seq.trace)
        << "fault-injected merged trace diverged";
    for (const NodeOutcome& node : nodes) {
      for (const std::string& line : node.local_world) {
        const std::string path = line.substr(0, line.find('='));
        const auto it = seq.world.find(path);
        ASSERT_NE(it, seq.world.end()) << path;
        EXPECT_EQ(line, it->second) << "local world diverged at " << path;
      }
      faults += node.report.transport.faults_injected;
      reconnects += node.report.transport.reconnects;
      replayed += node.report.transport.frames_replayed;
      dups += node.report.transport.dup_frames_dropped;
    }
    if (HasFatalFailure()) return;
  }
  // The sweep is vacuous unless the recovery machinery demonstrably ran.
  EXPECT_GT(faults, 0u);
  EXPECT_GT(reconnects, 0u);
  EXPECT_GT(replayed, 0u);
  EXPECT_GT(dups, 0u) << "no duplicate was ever discarded by sequence";
#endif
}

// ---------------------------------------------------------------------------
// Peer death: SIGKILL mid-run becomes a structured abort, not a hang

TEST(DistRunner, KilledPeerAbortsSurvivorWithStructuredError) {
#ifdef MCAM_TSAN_BUILD
  GTEST_SKIP() << "fork-based peer-death test is covered outside TSan";
#else
  const std::string dir = make_temp_dir();
  ASSERT_FALSE(dir.empty());
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Node 1, the consumer. A stop predicate counts scheduler polls and then
    // dies without a word — no Bye, no close, a real crash.
    PipeWorld world(1000);
    auto mesh = StreamSocketTransport::unix_mesh(1, 2, dir);
    if (!mesh.ok()) ::_exit(2);
    DistOptions opts;
    opts.node = 1;
    opts.nodes = 2;
    opts.transport =
        std::shared_ptr<MailboxTransport>(std::move(mesh.value()));
    auto executor = make_pipe_executor(world, std::move(opts));
    int polls = 0;
    RunOptions run;
    run.stop.push_back(StopCondition::when([&polls] {
      if (++polls >= 6) ::raise(SIGKILL);
      return false;
    }));
    (void)executor->run(run);
    ::_exit(3);  // survived the kill — should be unreachable
  }

  PipeWorld world(1000);
  auto mesh = StreamSocketTransport::unix_mesh(0, 2, dir);
  ASSERT_TRUE(mesh.ok()) << mesh.error().message;
  DistOptions opts;
  opts.node = 0;
  opts.nodes = 2;
  opts.transport = std::shared_ptr<MailboxTransport>(std::move(mesh.value()));
  opts.gate_timeout_ms = 15000;  // bounds the test if the abort path breaks
  auto executor = make_pipe_executor(world, std::move(opts));
  const RunReport r = executor->run();
  EXPECT_EQ(r.reason, StopReason::Aborted);
  EXPECT_FALSE(r.error.empty());

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFSIGNALED(status));
  if (WIFSIGNALED(status)) EXPECT_EQ(WTERMSIG(status), SIGKILL);
  std::filesystem::remove_all(dir);
#endif
}

// ---------------------------------------------------------------------------
// Graceful leave: a node hitting its own stop condition releases its peers

TEST(DistRunner, EarlyLeaverAbortsGatedPeerWithByeNotTimeout) {
  LoopbackHub hub(2);
  auto t0 = std::shared_ptr<MailboxTransport>(hub.endpoint(0));
  auto t1 = std::shared_ptr<MailboxTransport>(hub.endpoint(1));
  RunReport r0, r1;
  std::thread consumer([&] {
    PipeWorld world(300);
    DistOptions opts;
    opts.node = 1;
    opts.nodes = 2;
    opts.transport = t1;
    auto executor = make_pipe_executor(world, std::move(opts));
    r1 = executor->run({.stop = {StopCondition::max_steps(5)}});
  });
  std::thread producer([&] {
    PipeWorld world(300);
    DistOptions opts;
    opts.node = 0;
    opts.nodes = 2;
    opts.transport = t0;
    opts.gate_timeout_ms = 15000;
    auto executor = make_pipe_executor(world, std::move(opts));
    r0 = executor->run();
  });
  consumer.join();
  producer.join();
  EXPECT_EQ(r1.reason, StopReason::StepLimit);
  EXPECT_EQ(r1.steps, 5u);
  EXPECT_EQ(r0.reason, StopReason::Aborted);
  EXPECT_NE(r0.error.find("left the run"), std::string::npos) << r0.error;
}

// ---------------------------------------------------------------------------
// Handshake: divergent specifications refuse each other

TEST(DistRunner, MismatchedSpecificationsRefuseTheHandshake) {
  LoopbackHub hub(2);
  auto t0 = std::shared_ptr<MailboxTransport>(hub.endpoint(0));
  auto t1 = std::shared_ptr<MailboxTransport>(hub.endpoint(1));
  RunReport r0, r1;
  std::thread a([&] {
    PipeWorld world(10);
    DistOptions opts;
    opts.node = 0;
    opts.nodes = 2;
    opts.transport = t0;
    r0 = make_pipe_executor(world, std::move(opts))->run();
  });
  std::thread b([&] {
    PipeWorld world(10, "send_v2");  // structurally different build
    DistOptions opts;
    opts.node = 1;
    opts.nodes = 2;
    opts.transport = t1;
    r1 = make_pipe_executor(world, std::move(opts))->run();
  });
  a.join();
  b.join();
  for (const RunReport* r : {&r0, &r1}) {
    EXPECT_EQ(r->reason, StopReason::Aborted);
    EXPECT_FALSE(r->error.empty());
    EXPECT_TRUE(r->error.find("refus") != std::string::npos ||
                r->error.find("mismatch") != std::string::npos)
        << r->error;
    EXPECT_EQ(r->fired, 0u) << "no round may run after a refused handshake";
  }
}

// ---------------------------------------------------------------------------
// TCP, and the null-message machinery measured

TEST(DistRunner, TcpPipelineDeliversAndServicesNullRounds) {
  static constexpr int kBudget = 25;
  static constexpr std::uint16_t kBasePort = 43117;
  RunReport r0, r1;
  int got = -1;
  std::string mesh_error;
  std::thread producer([&] {
    PipeWorld world(kBudget);
    auto mesh = StreamSocketTransport::tcp_mesh(0, 2, kBasePort);
    if (!mesh.ok()) {
      mesh_error = mesh.error().message;
      return;
    }
    DistOptions opts;
    opts.node = 0;
    opts.nodes = 2;
    opts.transport =
        std::shared_ptr<MailboxTransport>(std::move(mesh.value()));
    r0 = make_pipe_executor(world, std::move(opts))->run();
  });
  std::thread consumer([&] {
    PipeWorld world(kBudget);
    auto mesh = StreamSocketTransport::tcp_mesh(1, 2, kBasePort);
    if (!mesh.ok()) {
      mesh_error = mesh.error().message;
      return;
    }
    DistOptions opts;
    opts.node = 1;
    opts.nodes = 2;
    opts.transport =
        std::shared_ptr<MailboxTransport>(std::move(mesh.value()));
    r1 = make_pipe_executor(world, std::move(opts))->run();
    got = *world.got;
  });
  producer.join();
  consumer.join();
  ASSERT_TRUE(mesh_error.empty()) << mesh_error;
  EXPECT_EQ(r0.reason, StopReason::Quiescent) << r0.error;
  EXPECT_EQ(r1.reason, StopReason::Quiescent) << r1.error;
  EXPECT_EQ(got, kBudget) << "tokens lost crossing the TCP bridge";
  EXPECT_EQ(r0.fired + r1.fired, static_cast<std::uint64_t>(2 * kBudget));
  EXPECT_GT(r0.transport.frames_sent, 0u);
  EXPECT_GT(r1.transport.frames_sent, 0u);
  EXPECT_GT(r0.transport.bytes_received, 0u);
  EXPECT_GT(r1.transport.bytes_received, 0u);
  // The consumer's first round is provably empty (the round-1 transfer only
  // becomes visible at round 2), so NullRound frames must have crossed and
  // been counted by at least one side.
  EXPECT_GT(r0.transport.null_rounds_serviced +
                r1.transport.null_rounds_serviced,
            0u);
}

TEST(DistRunner, TcpMeshAcceptsExplicitHostList) {
  // Satellite of the batching PR: a per-peer host list ("host" and
  // "host:port" forms both resolved) replaces the loopback default, carried
  // through DistOptions::peer_hosts. On one machine the list still names
  // loopback — what the test pins is the resolution and dial path.
  static constexpr int kBudget = 10;
  static constexpr std::uint16_t kBasePort = 44217;
  const std::vector<std::string> hosts = {
      "localhost", "127.0.0.1:" + std::to_string(kBasePort + 1)};

  // A wrong-sized list is a structured construction error, not a hang.
  const auto bad = StreamSocketTransport::tcp_mesh(0, 2, kBasePort,
                                                   {"127.0.0.1"});
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error().message.find("host"), std::string::npos)
      << bad.error().message;

  RunReport r0, r1;
  int got = -1;
  std::string mesh_error;
  std::thread producer([&] {
    PipeWorld world(kBudget);
    auto mesh = StreamSocketTransport::tcp_mesh(0, 2, kBasePort, hosts);
    if (!mesh.ok()) {
      mesh_error = mesh.error().message;
      return;
    }
    DistOptions opts;
    opts.node = 0;
    opts.nodes = 2;
    opts.peer_hosts = hosts;
    opts.transport =
        std::shared_ptr<MailboxTransport>(std::move(mesh.value()));
    r0 = make_pipe_executor(world, std::move(opts))->run();
  });
  std::thread consumer([&] {
    PipeWorld world(kBudget);
    auto mesh = StreamSocketTransport::tcp_mesh(1, 2, kBasePort, hosts);
    if (!mesh.ok()) {
      mesh_error = mesh.error().message;
      return;
    }
    DistOptions opts;
    opts.node = 1;
    opts.nodes = 2;
    opts.peer_hosts = hosts;
    opts.transport =
        std::shared_ptr<MailboxTransport>(std::move(mesh.value()));
    r1 = make_pipe_executor(world, std::move(opts))->run();
    got = *world.got;
  });
  producer.join();
  consumer.join();
  ASSERT_TRUE(mesh_error.empty()) << mesh_error;
  EXPECT_EQ(r0.reason, StopReason::Quiescent) << r0.error;
  EXPECT_EQ(r1.reason, StopReason::Quiescent) << r1.error;
  EXPECT_EQ(got, kBudget) << "tokens lost on the host-list mesh";
}

}  // namespace
}  // namespace mcam::estelle
