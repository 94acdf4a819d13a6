// Transport overhead of the distributed shard runtime.
//
// Two questions, one driver:
//
//   1. Overhead neutrality — a SINGLE-node Distributed group is the
//      FreeRunning round loop plus the (empty) protocol bookkeeping. On the
//      sparse hot-path workload (N entities, K active, bench_free_running's
//      fixture) at N=1024 it must hold >= 0.9x direct FreeRunning rounds/sec
//      and keep steady-state rounds allocation-free: distribution must cost
//      nothing until a second node actually exists.
//
//   2. Wire cost — a message-heavy two-node volley (16 same-round transfers
//      per peer per round, every one crossing the node boundary) measured
//      over each transport: loopback (in-process frame moves), Unix-domain
//      sockets batched AND unbatched, and TCP on localhost, reporting
//      rounds/sec, frames/sec, bytes/sec and data syscalls/round. This is
//      the §4 placement trade-off as a number: what one hop of process
//      isolation costs, and what per-peer round coalescing buys back.
//
// Gates (exit status, like bench_free_running): single-node neutrality as
// before, plus batched >= 2x unbatched rounds/sec over Unix sockets,
// syscalls/round reduced >= 4x by batching, a warmed send()+flush() of a
// 16-entry TransferBatch performing ZERO heap allocations (global operator
// new is instrumented below), likewise a warmed idle recv() poll and the
// same send on a session link whose acknowledgements prune the log, the
// session layer (sequencing + retention until acknowledged) costing <= 10%
// rounds/sec on a fault-free volley versus the same run with
// reconnect_max_attempts = 0, and a warmed single-node run of many local
// shards keeping its steady-state rounds allocation-free.
//
// Emits bench_transport.json (argv[1] overrides) for the CI artifact trend.
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "estelle/executor.hpp"
#include "estelle/module.hpp"
#include "estelle/transport/dist_runner.hpp"
#include "estelle/transport/frame.hpp"
#include "estelle/transport/socket_transport.hpp"
#include "estelle/transport/transport.hpp"
#include "sparse_world.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter: every operator new bumps it, so a code path
// claiming to be allocation-free can be held to exactly zero.

namespace {
std::atomic<unsigned long long> g_allocs{0};
}

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace mcam;
using common::SimTime;
using estelle::Attribute;
using estelle::DistOptions;
using estelle::ExecutorConfig;
using estelle::ExecutorKind;
using estelle::Interaction;
using estelle::MailboxTransport;
using estelle::Module;
using estelle::RunReport;
using estelle::StopCondition;
using bench::SparseWorld;

namespace {

/// `lanes` independent ping-pong pairs split across two system modules, one
/// ball in flight per lane per direction: every round each node fires all of
/// its lane modules and ships `lanes` same-stamp transfers to the other node
/// — the message-heavy shape transfer batching exists for. Bounded by steps.
struct VolleyWorld {
  estelle::Specification spec{"volley"};

  explicit VolleyWorld(int lanes) {
    auto& asys = spec.root().create_child<Module>("a", Attribute::SystemProcess);
    auto& bsys = spec.root().create_child<Module>("b", Attribute::SystemProcess);
    std::vector<Module*> lefts;
    std::vector<Module*> rights;
    for (int lane = 0; lane < lanes; ++lane) {
      auto& left = asys.create_child<Module>("w" + std::to_string(lane),
                                             Attribute::Process);
      auto& right = bsys.create_child<Module>("w" + std::to_string(lane),
                                              Attribute::Process);
      estelle::connect(left.ip("out"), right.ip("in"));
      estelle::connect(right.ip("out"), left.ip("in"));
      for (Module* m : {&left, &right}) {
        estelle::InteractionPoint* out = &m->ip("out");
        m->trans("hit").when(m->ip("in")).cost(SimTime::from_us(5)).action(
            [out](Module& mm, const Interaction* msg) {
              out->output(Interaction(1, msg->value));
              mm.set_state(mm.state() + 1);
            });
      }
      lefts.push_back(&left);
      rights.push_back(&right);
    }
    spec.initialize();
    // A ball in each direction keeps both nodes shipping `lanes` transfers
    // every round; a single ball would leave each node idle every other
    // round and halve the effective transfers/round/peer.
    for (int lane = 0; lane < lanes; ++lane) {
      lefts[static_cast<std::size_t>(lane)]->ip("out").output(
          Interaction(1, lane));
      rights[static_cast<std::size_t>(lane)]->ip("out").output(
          Interaction(1, lane + lanes));
    }
  }
};

/// VolleyWorld with every lane module in its OWN system module: lane i's
/// left endpoint becomes shard 2i, its right endpoint shard 2i+1 — so one
/// node round runs many shards, where the single-system-module VolleyWorld
/// above runs one.
struct ParVolleyWorld {
  estelle::Specification spec{"par_volley"};

  explicit ParVolleyWorld(int lanes) {
    std::vector<Module*> lefts;
    std::vector<Module*> rights;
    for (int lane = 0; lane < lanes; ++lane) {
      auto& lsys = spec.root().create_child<Module>(
          "l" + std::to_string(lane), Attribute::SystemProcess);
      auto& rsys = spec.root().create_child<Module>(
          "r" + std::to_string(lane), Attribute::SystemProcess);
      auto& left = lsys.create_child<Module>("w", Attribute::Process);
      auto& right = rsys.create_child<Module>("w", Attribute::Process);
      estelle::connect(left.ip("out"), right.ip("in"));
      estelle::connect(right.ip("out"), left.ip("in"));
      for (Module* m : {&left, &right}) {
        estelle::InteractionPoint* out = &m->ip("out");
        m->trans("hit").when(m->ip("in")).cost(SimTime::from_us(5)).action(
            [out](Module& mm, const Interaction* msg) {
              out->output(Interaction(1, msg->value));
              mm.set_state(mm.state() + 1);
            });
      }
      lefts.push_back(&left);
      rights.push_back(&right);
    }
    spec.initialize();
    for (int lane = 0; lane < lanes; ++lane) {
      lefts[static_cast<std::size_t>(lane)]->ip("out").output(
          Interaction(1, lane));
      rights[static_cast<std::size_t>(lane)]->ip("out").output(
          Interaction(1, lane + lanes));
    }
  }
};

struct Measurement {
  double wall_ms = 0;
  double rounds_per_sec = 0;
  double frames_per_sec = 0;
  double bytes_per_sec = 0;
  double syscalls_per_round = 0;
  unsigned long long fired = 0;
  unsigned long long frames_batched = 0;
  unsigned long long steady_alloc_rounds = 0;
  unsigned long long reconnects = 0;
  unsigned long long frames_replayed = 0;
};

double wall_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Single node, no transport: the loopback-neutrality side of the gate.
Measurement run_single(int entities, int active, std::uint64_t rounds,
                       bool distributed) {
  SparseWorld world(entities, active);
  ExecutorConfig cfg;
  cfg.kind = distributed ? ExecutorKind::Distributed : ExecutorKind::FreeRunning;
  // One shard — measure dispatch overhead, not parallelism. FreeRunning
  // free-runs it from width two (width one takes barrier rounds).
  cfg.threads = 2;
  auto executor = estelle::make_executor(*world.spec, cfg);
  executor->run({.stop = {StopCondition::max_steps(rounds / 10 + 1)}});

  const auto start = std::chrono::steady_clock::now();
  const RunReport r =
      executor->run({.stop = {StopCondition::max_steps(rounds)}});
  Measurement m;
  m.wall_ms = wall_since(start);
  m.rounds_per_sec =
      m.wall_ms > 0 ? static_cast<double>(r.steps) / (m.wall_ms / 1e3) : 0;
  m.fired = r.fired;
  m.steady_alloc_rounds = r.rounds_with_allocation;
  return m;
}

/// Two nodes over `make_transport(node)`, volleying for `rounds` rounds.
/// `tweak`, when set, adjusts each node's DistOptions before launch (the
/// session-overhead gate toggles the reconnect/replay layer with it).
Measurement run_pair(
    int lanes, std::uint64_t rounds, bool batch,
    const std::function<std::shared_ptr<MailboxTransport>(int)>&
        make_transport,
    const std::function<void(DistOptions&)>& tweak = {}) {
  std::vector<RunReport> reports(2);
  std::vector<std::string> errors(2);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int node = 0; node < 2; ++node)
    threads.emplace_back([&, node] {
      VolleyWorld world(lanes);
      std::shared_ptr<MailboxTransport> transport = make_transport(node);
      if (transport == nullptr) {
        errors[static_cast<std::size_t>(node)] = "transport construction failed";
        return;
      }
      DistOptions opts;
      opts.node = node;
      opts.nodes = 2;
      opts.transport = std::move(transport);
      opts.batch_transfers = batch;
      if (tweak) tweak(opts);
      ExecutorConfig cfg;
      cfg.kind = ExecutorKind::Distributed;
      cfg.backend_options = opts;
      auto executor = estelle::make_executor(world.spec, cfg);
      reports[static_cast<std::size_t>(node)] =
          executor->run({.stop = {StopCondition::max_steps(rounds)}});
    });
  for (std::thread& t : threads) t.join();
  Measurement m;
  m.wall_ms = wall_since(start);
  for (const std::string& e : errors)
    if (!e.empty()) {
      std::fprintf(stderr, "pair run failed: %s\n", e.c_str());
      return m;
    }
  unsigned long long frames = 0, bytes = 0, syscalls = 0;
  for (const RunReport& r : reports)
    if (!r.error.empty())
      std::fprintf(stderr, "pair run aborted: %s\n", r.error.c_str());
  for (const RunReport& r : reports) {
    frames += r.transport.frames_sent;
    bytes += r.transport.bytes_sent;
    syscalls += r.transport.syscalls;
    m.frames_batched += r.transport.frames_batched;
    m.reconnects += r.transport.reconnects;
    m.frames_replayed += r.transport.frames_replayed;
    m.fired += r.fired;
  }
  const double secs = m.wall_ms / 1e3;
  if (secs > 0) {
    m.rounds_per_sec = static_cast<double>(reports[0].steps) / secs;
    m.frames_per_sec = static_cast<double>(frames) / secs;
    m.bytes_per_sec = static_cast<double>(bytes) / secs;
  }
  if (reports[0].steps > 0)
    m.syscalls_per_round = static_cast<double>(syscalls) /
                           static_cast<double>(reports[0].steps);
  return m;
}

/// Warmed single-node multi-shard run: after a warmup run on the same
/// executor (ready scopes, mailboxes and per-shard logs at steady state), a
/// measured run must report ZERO rounds with allocation — a node round over
/// many firing shards costs no heap (deltas and firing logs are per-shard
/// and high-water sized).
struct ParAllocProbe {
  bool ok = false;
  unsigned long long steady_alloc_rounds = 0;
  unsigned long long fired = 0;
};

ParAllocProbe probe_parallel_allocations(int lanes, std::uint64_t rounds) {
  ParAllocProbe probe;
  ParVolleyWorld world(lanes);
  ExecutorConfig cfg;
  cfg.kind = ExecutorKind::Distributed;  // single node, no transport
  auto executor = estelle::make_executor(world.spec, cfg);
  executor->run({.stop = {StopCondition::max_steps(rounds / 10 + 1)}});
  const RunReport r =
      executor->run({.stop = {StopCondition::max_steps(rounds)}});
  if (!r.error.empty()) {
    std::fprintf(stderr, "par alloc probe aborted: %s\n", r.error.c_str());
    return probe;
  }
  probe.ok = true;
  probe.steady_alloc_rounds = r.rounds_with_allocation;
  probe.fired = r.fired;
  return probe;
}

/// Warmed send()+flush() of a 16-entry TransferBatch over a socketpair,
/// single-threaded, with the global allocation counter around the measured
/// window: the recycled record buffers and the outbound log must make the
/// steady-state send path exactly zero-alloc (the receive side is drained
/// outside the window — decode hands out owned Interaction state by design).
/// A second window counts idle recv(…, 0) polls on the drained pair — the
/// runner's final pump of every round — which must allocate nothing either.
/// A third drives a two-node Unix mesh with the session on, as a
/// Distributed run has it: each iteration sends a batch and a RoundDone,
/// flushes, and pumps the sender so the peer's SessionAcks prune the log —
/// the records kept until acknowledged must cost no allocation either.
struct SendAllocProbe {
  bool ok = false;
  unsigned long long allocs = 0;
  unsigned long long iterations = 0;
  unsigned long long idle_allocs = 0;
  unsigned long long idle_iterations = 0;
  unsigned long long session_allocs = 0;
  unsigned long long session_iterations = 0;
};

estelle::Frame probe_batch() {
  estelle::Frame f;
  f.type = estelle::FrameType::TransferBatch;
  f.round = 1;
  for (int i = 0; i < 16; ++i) {
    estelle::TransferEntry e;
    e.channel = static_cast<std::uint32_t>(i);
    e.dir = 0;
    e.sent_at_ns = i;
    e.msg.kind = 1;
    e.msg.payload = common::Bytes(32, 0x5a);
    f.entries.push_back(std::move(e));
  }
  return f;
}

/// The session window of probe_send_allocations (see there).
bool probe_session_allocations(SendAllocProbe& probe) {
  char tmpl[] = "/tmp/mcam_bench_session_XXXXXX";
  const char* made = ::mkdtemp(tmpl);
  if (made == nullptr) return false;
  const std::string dir = made;
  // Mesh construction blocks on the peer: build the ends on two threads,
  // then drive both from this one.
  std::unique_ptr<estelle::StreamSocketTransport> ends[2];
  {
    std::vector<std::thread> threads;
    for (int node = 0; node < 2; ++node)
      threads.emplace_back([&, node] {
        auto mesh = estelle::StreamSocketTransport::unix_mesh(node, 2, dir);
        if (mesh.ok()) ends[node] = std::move(mesh.value());
      });
    for (std::thread& t : threads) t.join();
  }
  std::filesystem::remove_all(dir);
  if (!ends[0] || !ends[1]) return false;
  MailboxTransport::SessionOptions so;
  so.reconnect_max_attempts = DistOptions{}.reconnect_max_attempts;
  for (auto& end : ends) end->configure_session(so);
  estelle::Frame f = probe_batch();
  estelle::Frame done;
  done.type = estelle::FrameType::RoundDone;
  estelle::Frame in;
  int from = 0;
  std::string err;
  const auto iteration = [&](std::uint64_t round) {
    f.round = round;
    done.round = round;
    const bool sent = ends[0]->send(1, f).ok() && ends[0]->send(1, done).ok();
    ends[0]->flush();
    (void)ends[0]->recv(&from, &in, 0, &err);  // SessionAcks prune the log
    return sent;
  };
  const auto drain_peer = [&] {
    while (ends[1]->recv(&from, &in, 0, &err) ==
           estelle::MailboxTransport::RecvOutcome::kFrame) {
    }
  };
  std::uint64_t round = 0;
  for (int i = 0; i < 400; ++i) {  // warm buffers, log, spare list, kernel
    if (!iteration(++round)) return false;
    drain_peer();
  }
  for (int i = 0; i < 1000; ++i) {
    const unsigned long long before = g_allocs.load(std::memory_order_relaxed);
    if (!iteration(++round)) return false;
    probe.session_allocs += g_allocs.load(std::memory_order_relaxed) - before;
    ++probe.session_iterations;
    drain_peer();  // off the clock: decode allocates by design
  }
  const estelle::TransportStats& stats = ends[0]->stats();
  return stats.reconnects == 0 && stats.frames_replayed == 0;
}

SendAllocProbe probe_send_allocations() {
  SendAllocProbe probe;
  int sv[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) return probe;
  auto sender = estelle::StreamSocketTransport::from_fds({{1, sv[0]}});
  auto receiver = estelle::StreamSocketTransport::from_fds({{0, sv[1]}});
  estelle::Frame f = probe_batch();
  estelle::Frame in;
  int from = 0;
  std::string err;
  const auto drain = [&] {
    while (receiver->recv(&from, &in, 0, &err) ==
           estelle::MailboxTransport::RecvOutcome::kFrame) {
    }
  };
  for (int i = 0; i < 200; ++i) {  // warm encode buffer, pool, kernel path
    if (!sender->send(1, f).ok()) return probe;
    sender->flush();
    drain();
  }
  for (int i = 0; i < 1000; ++i) {
    const unsigned long long before =
        g_allocs.load(std::memory_order_relaxed);
    if (!sender->send(1, f).ok()) return probe;
    sender->flush();
    probe.allocs += g_allocs.load(std::memory_order_relaxed) - before;
    ++probe.iterations;
    drain();  // off the clock: keep the socketpair buffer empty
  }
  for (int i = 0; i < 1000; ++i) {
    const unsigned long long before =
        g_allocs.load(std::memory_order_relaxed);
    const auto got = receiver->recv(&from, &in, 0, &err);
    probe.idle_allocs += g_allocs.load(std::memory_order_relaxed) - before;
    ++probe.idle_iterations;
    if (got != estelle::MailboxTransport::RecvOutcome::kIdle) return probe;
  }
  probe.ok = probe_session_allocations(probe);
  return probe;
}

template <typename F>
Measurement best_of(int reps, F run) {
  Measurement best = run();
  for (int i = 1; i < reps; ++i) {
    const Measurement m = run();
    if (m.wall_ms > 0 && (best.wall_ms == 0 || m.wall_ms < best.wall_ms))
      best = m;
  }
  return best;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.4f", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr int kEntities = 1024;
  constexpr int kActive = 8;
  constexpr std::uint64_t kSingleRounds = 2000;
  constexpr int kLanes = 16;       // transfers per round per peer (syscall gate)
  constexpr int kHeavyLanes = 64;  // message-heavy volley (throughput gate)
  constexpr std::uint64_t kPairRounds = 1500;
  constexpr int kParLanes = 16;    // lanes of the multi-shard alloc probe
  constexpr std::uint64_t kParRounds = 1000;

  // ---- gate: single-node Distributed vs direct FreeRunning ---------------
  std::printf("== single node, N=%d entities, K=%d active, %llu rounds ==\n",
              kEntities, kActive,
              static_cast<unsigned long long>(kSingleRounds));
  const Measurement direct = best_of(
      3, [&] { return run_single(kEntities, kActive, kSingleRounds, false); });
  const Measurement neutral = best_of(
      3, [&] { return run_single(kEntities, kActive, kSingleRounds, true); });
  const double ratio = direct.rounds_per_sec > 0
                           ? neutral.rounds_per_sec / direct.rounds_per_sec
                           : 0;
  std::printf("%22s %16.0f rounds/s\n", "free-running", direct.rounds_per_sec);
  std::printf("%22s %16.0f rounds/s  (%.2fx, %s)\n", "distributed (1 node)",
              neutral.rounds_per_sec, ratio,
              neutral.steady_alloc_rounds == 0 ? "zero-alloc" : "ALLOCATES");
  const bool meets_ratio = ratio >= 0.9;
  const bool meets_alloc = neutral.steady_alloc_rounds == 0;

  // ---- wire cost: 2 nodes over each transport -----------------------------
  std::printf(
      "\n== two nodes, %llu rounds per node (lanes = transfers/round/peer) "
      "==\n",
      static_cast<unsigned long long>(kPairRounds));
  std::printf("%16s %6s %10s %12s %12s %14s %12s\n", "transport", "lanes",
              "wall ms", "rounds/s", "frames/s", "bytes/s", "syscalls/rnd");

  struct Row {
    const char* name;
    int lanes;
    Measurement m;
  };
  std::vector<Row> rows;

  rows.push_back({"loopback", kLanes, best_of(3, [&] {
                    auto hub = std::make_shared<estelle::LoopbackHub>(2);
                    return run_pair(kLanes, kPairRounds, true, [hub](int node) {
                      return std::shared_ptr<MailboxTransport>(
                          hub->endpoint(node));
                    });
                  })});
  Measurement session_gate_on;
  Measurement session_off;
  {
    const std::string dir = "/tmp/mcam_bench_transport";
    const auto unix_pair = [&](int lanes, bool batch,
                               const std::function<void(DistOptions&)>& tweak =
                                   {}) {
      return best_of(3, [&] {
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        return run_pair(
            lanes, kPairRounds, batch,
            [&dir](int node) {
              auto mesh =
                  estelle::StreamSocketTransport::unix_mesh(node, 2, dir);
              return mesh.ok() ? std::shared_ptr<MailboxTransport>(
                                     std::move(mesh.value()))
                               : nullptr;
            },
            tweak);
      });
    };
    rows.push_back({"unix batched", kLanes, unix_pair(kLanes, true)});
    rows.push_back({"unix unbatched", kLanes, unix_pair(kLanes, false)});
    // The throughput gate compares at the message-heavy lane count, where
    // per-frame syscall cost dominates the round; the 16-lane pair above
    // feeds the syscalls/round gate at the spec'd transfer rate.
    rows.push_back({"unix batched", kHeavyLanes, unix_pair(kHeavyLanes, true)});
    rows.push_back(
        {"unix unbatched", kHeavyLanes, unix_pair(kHeavyLanes, false)});
    // Session-overhead gate: the same fault-free batched volley with the
    // reconnect/replay layer on (DistOptions default) and off, measured
    // back to back so both see identical warm state — sequencing + ring
    // retention is exactly the delta.
    session_gate_on = unix_pair(kLanes, true);
    session_off = unix_pair(kLanes, true, [](DistOptions& o) {
      o.reconnect_max_attempts = 0;
    });
    rows.push_back({"unix session", kLanes, session_gate_on});
    rows.push_back({"unix no-session", kLanes, session_off});
    std::filesystem::remove_all(dir);
  }
  rows.push_back({"tcp", kLanes, best_of(3, [&] {
                    return run_pair(kLanes, kPairRounds, true, [](int node) {
                      auto mesh = estelle::StreamSocketTransport::tcp_mesh(
                          node, 2, 47901);
                      return mesh.ok() ? std::shared_ptr<MailboxTransport>(
                                             std::move(mesh.value()))
                                       : nullptr;
                    });
                  })});

  std::string json_rows;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::printf("%16s %6d %10.2f %12.0f %12.0f %14.0f %12.2f\n", row.name,
                row.lanes, row.m.wall_ms, row.m.rounds_per_sec,
                row.m.frames_per_sec, row.m.bytes_per_sec,
                row.m.syscalls_per_round);
    json_rows += "    {\"transport\": \"" + std::string(row.name) +
                 "\", \"lanes\": " + std::to_string(row.lanes) +
                 ", \"wall_ms\": " + num(row.m.wall_ms) +
                 ", \"rounds_per_sec\": " + num(row.m.rounds_per_sec) +
                 ", \"frames_per_sec\": " + num(row.m.frames_per_sec) +
                 ", \"bytes_per_sec\": " + num(row.m.bytes_per_sec) +
                 ", \"syscalls_per_round\": " + num(row.m.syscalls_per_round) +
                 ", \"frames_batched\": " +
                 std::to_string(row.m.frames_batched) +
                 ", \"fired\": " + std::to_string(row.m.fired) + "}";
    json_rows += i + 1 < rows.size() ? ",\n" : "\n";
  }

  // ---- gates: what batching buys, and what the hot path costs -------------
  const Measurement& unix_batched = rows[1].m;
  const Measurement& unix_unbatched = rows[2].m;
  const Measurement& heavy_batched = rows[3].m;
  const Measurement& heavy_unbatched = rows[4].m;
  const double speedup = heavy_unbatched.rounds_per_sec > 0
                             ? heavy_batched.rounds_per_sec /
                                   heavy_unbatched.rounds_per_sec
                             : 0;
  const double syscall_cut = unix_batched.syscalls_per_round > 0
                                 ? unix_unbatched.syscalls_per_round /
                                       unix_batched.syscalls_per_round
                                 : 0;
  const bool meets_speedup = speedup >= 2.0;
  const bool meets_syscalls = syscall_cut >= 4.0;
  // Session overhead: the reconnect/replay layer (per-frame sequencing, ring
  // retention, ack pruning) on a fault-free volley must stay within 10% of
  // the session-off rounds/sec — and a fault-free run must never reconnect
  // or replay anything.
  const Measurement& session_on = session_gate_on;
  const double session_ratio = session_off.rounds_per_sec > 0
                                   ? session_on.rounds_per_sec /
                                         session_off.rounds_per_sec
                                   : 0;
  const bool meets_session = session_ratio >= 0.9 &&
                             session_on.reconnects == 0 &&
                             session_on.frames_replayed == 0;

  const SendAllocProbe probe = probe_send_allocations();
  const bool meets_send_alloc = probe.ok && probe.allocs == 0;
  const bool meets_idle_alloc = probe.ok && probe.idle_allocs == 0;
  const bool meets_session_alloc = probe.ok && probe.session_allocs == 0;

  // A node round over many firing shards must stay allocation-free once
  // warm; a probe that fired nothing would prove nothing.
  const ParAllocProbe par_alloc =
      probe_parallel_allocations(kParLanes, kParRounds);
  const bool meets_par_alloc = par_alloc.ok &&
                               par_alloc.steady_alloc_rounds == 0 &&
                               par_alloc.fired > 0;

  std::printf(
      "\nacceptance @ N=%d: 1-node distributed %s >= 0.9x free-running "
      "rounds/sec (%.2fx); steady-state rounds %s zero-alloc\n",
      kEntities, meets_ratio ? "meets" : "MISSES", ratio,
      meets_alloc ? "meet" : "MISS");
  std::printf(
      "acceptance over unix sockets: batching %s >= 2x rounds/sec at %d "
      "transfers/round/peer (%.2fx); syscalls/round %s >= 4x reduced at %d "
      "transfers/round/peer (%.1fx, %.2f -> %.2f)\n",
      meets_speedup ? "meets" : "MISSES", kHeavyLanes, speedup,
      meets_syscalls ? "meets" : "MISSES", kLanes, syscall_cut,
      unix_unbatched.syscalls_per_round, unix_batched.syscalls_per_round);
  std::printf(
      "acceptance: warmed 16-entry batch send()+flush() %s zero-alloc "
      "(%llu allocations / %llu sends)\n",
      meets_send_alloc ? "meets" : "MISSES", probe.allocs, probe.iterations);
  std::printf(
      "acceptance: warmed idle recv() poll %s zero-alloc "
      "(%llu allocations / %llu polls)\n",
      meets_idle_alloc ? "meets" : "MISSES", probe.idle_allocs,
      probe.idle_iterations);
  std::printf(
      "acceptance: warmed session batch+RoundDone send()+flush()+ack pump "
      "%s zero-alloc (%llu allocations / %llu iterations)\n",
      meets_session_alloc ? "meets" : "MISSES", probe.session_allocs,
      probe.session_iterations);
  std::printf(
      "acceptance: session layer %s >= 0.9x no-session rounds/sec on the "
      "fault-free volley (%.2fx; reconnects=%llu replayed=%llu)\n",
      meets_session ? "meets" : "MISSES", session_ratio, session_on.reconnects,
      session_on.frames_replayed);
  std::printf(
      "acceptance: warmed single-node %d-shard run %s zero-alloc "
      "(%llu alloc rounds, %llu firings)\n",
      2 * kParLanes, meets_par_alloc ? "meets" : "MISSES",
      par_alloc.steady_alloc_rounds, par_alloc.fired);

  const char* json_path = argc > 1 ? argv[1] : "bench_transport.json";
  if (std::FILE* f = std::fopen(json_path, "w")) {
    std::fprintf(
        f,
        "{\n  \"benchmark\": \"bench_transport\",\n"
        "  \"single_node\": {\"entities\": %d, \"active\": %d, "
        "\"rounds\": %llu,\n"
        "    \"free_running_rounds_per_sec\": %s,\n"
        "    \"distributed_rounds_per_sec\": %s,\n"
        "    \"ratio\": %s, \"steady_alloc_rounds\": %llu},\n"
        "  \"pair\": [\n%s  ],\n"
        "  \"batching\": {\"speedup\": %s, \"syscall_reduction\": %s,\n"
        "    \"send_allocs\": %llu, \"send_iterations\": %llu,\n"
        "    \"idle_recv_allocs\": %llu, \"idle_recv_iterations\": %llu,\n"
        "    \"session_send_allocs\": %llu, "
        "\"session_send_iterations\": %llu},\n"
        "  \"session\": {\"ratio\": %s, \"rounds_per_sec_on\": %s,\n"
        "    \"rounds_per_sec_off\": %s, \"reconnects\": %llu, "
        "\"frames_replayed\": %llu},\n"
        "  \"node_parallel\": {\"shards_per_node\": %d, "
        "\"steady_alloc_rounds\": %llu, \"fired\": %llu},\n"
        "  \"acceptance\": {\"loopback_at_least_0_9x\": %s, "
        "\"steady_state_zero_alloc\": %s,\n"
        "    \"batched_at_least_2x\": %s, "
        "\"syscalls_reduced_at_least_4x\": %s, "
        "\"send_path_zero_alloc\": %s, \"idle_recv_zero_alloc\": %s, "
        "\"session_send_zero_alloc\": %s, "
        "\"session_overhead_within_10pct\": %s,\n"
        "    \"node_parallel_zero_alloc\": %s}\n}\n",
        kEntities, kActive, static_cast<unsigned long long>(kSingleRounds),
        num(direct.rounds_per_sec).c_str(), num(neutral.rounds_per_sec).c_str(),
        num(ratio).c_str(),
        static_cast<unsigned long long>(neutral.steady_alloc_rounds),
        json_rows.c_str(), num(speedup).c_str(), num(syscall_cut).c_str(),
        probe.allocs, probe.iterations, probe.idle_allocs,
        probe.idle_iterations, probe.session_allocs, probe.session_iterations,
        num(session_ratio).c_str(),
        num(session_on.rounds_per_sec).c_str(),
        num(session_off.rounds_per_sec).c_str(), session_on.reconnects,
        session_on.frames_replayed, 2 * kParLanes,
        par_alloc.steady_alloc_rounds, par_alloc.fired,
        meets_ratio ? "true" : "false",
        meets_alloc ? "true" : "false", meets_speedup ? "true" : "false",
        meets_syscalls ? "true" : "false", meets_send_alloc ? "true" : "false",
        meets_idle_alloc ? "true" : "false",
        meets_session_alloc ? "true" : "false",
        meets_session ? "true" : "false",
        meets_par_alloc ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  } else {
    std::fprintf(stderr, "could not write %s\n", json_path);
    return 1;
  }
  return meets_ratio && meets_alloc && meets_speedup && meets_syscalls &&
                 meets_send_alloc && meets_idle_alloc && meets_session_alloc &&
                 meets_session && meets_par_alloc
             ? 0
             : 1;
}
