// Distributed shard runtime — one FreeRunning shard group per process.
//
// The paper's §4 observation (system modules are mutually independent,
// asynchronous units placeable on separate processors) run end to end: a
// token ring of `--systems` system modules is cut into shards, every process
// owns the shards assigned to its node id, and the three free-running
// synchronization primitives travel between processes as BER frames over a
// pluggable MailboxTransport.
//
// Single-process demo (N nodes as threads over the loopback transport):
//   ./example_dist_shards --nodes 3
//
// Real processes over Unix-domain sockets (run one per terminal):
//   ./example_dist_shards --nodes 2 --node 0 --transport unix --dir /tmp/ring
//   ./example_dist_shards --nodes 2 --node 1 --transport unix --dir /tmp/ring
//
// Same over TCP loopback:
//   ./example_dist_shards --nodes 2 --node 0 --transport tcp --port 47310
//   ./example_dist_shards --nodes 2 --node 1 --transport tcp --port 47310
//
// Every process must be launched with the same --systems/--tokens: the
// membership handshake fingerprints the specification structure and refuses
// a divergent peer instead of computing a silently wrong run.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "asn1/value.hpp"
#include "estelle/executor.hpp"
#include "estelle/metrics.hpp"
#include "estelle/module.hpp"
#include "estelle/transport/dist_runner.hpp"
#include "estelle/transport/socket_transport.hpp"
#include "estelle/transport/transport.hpp"

using namespace mcam;
using common::SimTime;
using estelle::Attribute;
using estelle::Interaction;
using estelle::Module;

namespace {

struct Args {
  int node = 0;
  int nodes = 2;
  std::string transport = "loopback";  // loopback | unix | tcp
  std::string dir = "/tmp/mcam_ring";
  int port = 47310;
  int systems = 4;
  int tokens = 64;
  /// --hosts h0,h1[:port],... — one entry per node for a TCP mesh that
  /// spans machines. Empty keeps the single-machine loopback default.
  std::vector<std::string> hosts;
  /// Session-layer knobs; -1 keeps the DistOptions default. Attempts = 0
  /// disables reconnect/resume entirely (a lost link aborts the run).
  int reconnect_attempts = -1;
  int backoff_initial_ms = -1;
  int backoff_cap_ms = -1;
  int heartbeat_ms = -1;
};

/// Token ring: worker 0 seeds `tokens` tokens; each worker forwards to the
/// next system module; a full lap ends back at worker 0's sink. Every hop of
/// every token crosses a shard boundary, so with nodes > 1 most hops cross a
/// process boundary too. Structure is a pure function of (systems, tokens) —
/// the handshake fingerprint every process must agree on.
struct RingWorld {
  estelle::Specification spec{"token_ring"};
  std::shared_ptr<int> seeded = std::make_shared<int>(0);
  std::shared_ptr<int> laps = std::make_shared<int>(0);

  RingWorld(int systems, int tokens) {
    std::vector<Module*> workers;
    for (int i = 0; i < systems; ++i) {
      auto& sys = spec.root().create_child<Module>("s" + std::to_string(i),
                                                   Attribute::SystemProcess);
      workers.push_back(
          &sys.create_child<Module>("w", Attribute::Process));
    }
    for (int i = 0; i < systems; ++i)
      connect(workers[static_cast<std::size_t>(i)]->ip("out"),
              workers[static_cast<std::size_t>((i + 1) % systems)]->ip("in"));

    estelle::InteractionPoint* seed_out = &workers[0]->ip("out");
    workers[0]
        ->trans("seed")
        .cost(SimTime::from_us(4))
        .provided([seeded = seeded, tokens](Module&, const Interaction*) {
          return *seeded < tokens;
        })
        .action([seeded = seeded, seed_out](Module& m, const Interaction*) {
          ++*seeded;
          seed_out->output(Interaction(1, asn1::Value::integer(*seeded)));
          m.set_state(m.state() + 1);
        });
    workers[0]->trans("sink").when(workers[0]->ip("in"))
        .cost(SimTime::from_us(2))
        .action([laps = laps](Module& m, const Interaction*) {
          ++*laps;
          m.set_state(m.state() + 1);
        });
    for (int i = 1; i < systems; ++i) {
      Module* w = workers[static_cast<std::size_t>(i)];
      estelle::InteractionPoint* out = &w->ip("out");
      w->trans("fwd").when(w->ip("in")).cost(SimTime::from_us(3)).action(
          [out](Module& m, const Interaction* msg) {
            out->output(Interaction(1, msg->value));
            m.set_state(m.state() + 1);
          });
    }
    spec.initialize();
  }
};

int run_node(const Args& args, int node,
             std::shared_ptr<estelle::MailboxTransport> transport) {
  RingWorld world(args.systems, args.tokens);
  estelle::DistOptions opts;
  opts.node = node;
  opts.nodes = args.nodes;
  opts.transport = std::move(transport);
  opts.peer_hosts = args.hosts;
  if (args.reconnect_attempts >= 0)
    opts.reconnect_max_attempts = args.reconnect_attempts;
  if (args.backoff_initial_ms >= 0)
    opts.backoff_initial_ms = args.backoff_initial_ms;
  if (args.backoff_cap_ms >= 0) opts.backoff_cap_ms = args.backoff_cap_ms;
  if (args.heartbeat_ms >= 0) opts.heartbeat_interval_ms = args.heartbeat_ms;
  estelle::ExecutorConfig cfg;
  cfg.kind = estelle::ExecutorKind::Distributed;
  cfg.backend_options = opts;
  auto executor = make_executor(world.spec, cfg);
  estelle::MetricsObserver metrics;
  const estelle::RunReport r = executor->run({.observers = {&metrics}});

  if (r.reason != estelle::StopReason::Quiescent) {
    std::fprintf(stderr, "node %d: run ended abnormally: %s\n", node,
                 r.error.empty() ? "(no error text)" : r.error.c_str());
    return 1;
  }
  std::printf(
      "node %d: quiescent at t=%.1f us — %llu firings, %llu rounds, "
      "%d tokens seeded, %d full laps\n",
      node, executor->now().micros(),
      static_cast<unsigned long long>(r.fired),
      static_cast<unsigned long long>(r.stats.rounds), *world.seeded,
      *world.laps);
  std::printf("%s", metrics.to_string(3).c_str());
  return 0;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--nodes N] [--node I] [--transport "
               "loopback|unix|tcp]\n          [--dir PATH] [--port P] "
               "[--hosts h0,h1[:port],...] [--systems K] [--tokens T]\n"
               "          [--reconnect-attempts A] [--backoff-initial-ms B]\n"
               "          [--backoff-cap-ms C] [--heartbeat-ms H]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const auto want = [&](const char* flag) {
      return std::strcmp(argv[i], flag) == 0 && i + 1 < argc;
    };
    if (want("--node")) args.node = std::atoi(argv[++i]);
    else if (want("--nodes")) args.nodes = std::atoi(argv[++i]);
    else if (want("--transport")) args.transport = argv[++i];
    else if (want("--dir")) args.dir = argv[++i];
    else if (want("--port")) args.port = std::atoi(argv[++i]);
    else if (want("--hosts")) {
      std::string list = argv[++i];
      for (std::size_t at = 0; at <= list.size();) {
        const std::size_t comma = std::min(list.find(',', at), list.size());
        args.hosts.push_back(list.substr(at, comma - at));
        at = comma + 1;
      }
    }
    else if (want("--systems")) args.systems = std::atoi(argv[++i]);
    else if (want("--tokens")) args.tokens = std::atoi(argv[++i]);
    else if (want("--reconnect-attempts"))
      args.reconnect_attempts = std::atoi(argv[++i]);
    else if (want("--backoff-initial-ms"))
      args.backoff_initial_ms = std::atoi(argv[++i]);
    else if (want("--backoff-cap-ms")) args.backoff_cap_ms = std::atoi(argv[++i]);
    else if (want("--heartbeat-ms")) args.heartbeat_ms = std::atoi(argv[++i]);
    else return usage(argv[0]);
  }
  if (args.nodes < 1 || args.node < 0 || args.node >= args.nodes ||
      args.systems < 2)
    return usage(argv[0]);

  std::printf("token ring: %d system modules, %d tokens, %d node%s (%s)\n",
              args.systems, args.tokens, args.nodes,
              args.nodes == 1 ? "" : "s", args.transport.c_str());

  if (args.transport == "loopback") {
    // Demo mode: all nodes in this process, one thread each.
    estelle::LoopbackHub hub(args.nodes);
    std::vector<std::shared_ptr<estelle::MailboxTransport>> transports;
    for (int n = 0; n < args.nodes; ++n)
      transports.push_back(args.nodes == 1
                               ? nullptr
                               : std::shared_ptr<estelle::MailboxTransport>(
                                     hub.endpoint(n)));
    std::vector<int> rc(static_cast<std::size_t>(args.nodes), 0);
    std::vector<std::thread> threads;
    for (int n = 0; n < args.nodes; ++n)
      threads.emplace_back([&, n] {
        rc[static_cast<std::size_t>(n)] =
            run_node(args, n, transports[static_cast<std::size_t>(n)]);
      });
    for (auto& t : threads) t.join();
    for (const int c : rc)
      if (c != 0) return c;
    return 0;
  }

  std::shared_ptr<estelle::MailboxTransport> transport;
  if (args.nodes > 1 && args.transport == "unix") {
    std::filesystem::create_directories(args.dir);
    auto mesh = estelle::StreamSocketTransport::unix_mesh(args.node,
                                                          args.nodes, args.dir);
    if (!mesh.ok()) {
      std::fprintf(stderr, "unix mesh: %s\n", mesh.error().message.c_str());
      return 1;
    }
    transport = std::move(mesh.value());
  } else if (args.nodes > 1 && args.transport == "tcp") {
    auto mesh = estelle::StreamSocketTransport::tcp_mesh(
        args.node, args.nodes, static_cast<std::uint16_t>(args.port),
        args.hosts);
    if (!mesh.ok()) {
      std::fprintf(stderr, "tcp mesh: %s\n", mesh.error().message.c_str());
      return 1;
    }
    transport = std::move(mesh.value());
  } else if (args.nodes > 1) {
    return usage(argv[0]);
  }
  return run_node(args, args.node, std::move(transport));
}
