// dist_batch: a pipelined two-node Distributed batch over Unix sockets.
//
// Node 0 owns the server shard, node 1 both client shards (worker_count 2).
// Both nodes are threads of this process, each with its own copy of the Fig.
// 2 testbed, joined by StreamSocketTransport::unix_mesh. Every connection's
// AssociateReq and its whole write-heavy request list are queued before the
// single run(); one batch is one process group, so every batch sets up a
// fresh mesh and fresh testbeds. Latency is wall time from the batch start,
// when every request is due, to the client MCA delivering its response.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "estelle/conflict.hpp"
#include "estelle/transport/dist_runner.hpp"
#include "estelle/transport/socket_transport.hpp"

namespace e2e {

namespace core = mcam::core;
namespace estelle = mcam::estelle;

namespace {

/// Server shard on node 0, every client shard on node 1.
std::vector<int> assignment_of(const Options& opt) {
  core::Testbed probe(testbed_config(opt.shape, opt.seed));
  estelle::ConflictAnalysis analysis(probe.spec());
  std::vector<int> assign(static_cast<std::size_t>(analysis.shard_count()), 1);
  assign[static_cast<std::size_t>(
      analysis.shard_of(*probe.connection(0, 0).server_mca))] = 0;
  return assign;
}

/// Interactions that crossed between the nodes: everything the transport
/// entities on one side sent to their peers on the other.
std::uint64_t wire_transfers(core::Testbed& bed, bool server_side) {
  std::uint64_t n = 0;
  for (int c = 0; c < bed.clients(); ++c)
    for (int k = 0; k < bed.config().connections_per_client; ++k) {
      auto& conn = bed.connection(c, k);
      n += (server_side ? conn.server_stack : conn.client_stack)
               .transport->net()
               .sent();
    }
  return n;
}

/// Wait until node 0's mesh listener (unix_mesh names it node0.sock) takes
/// connections, so node 1 never dials too early: build_mesh sleeps 10 ms
/// before each redial, which would land in setup_s. The probe connection is
/// closed at once; node 0 drops it when its preamble read meets EOF.
bool await_listener(const std::string& sockdir, Clock::time_point deadline) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string path = sockdir + "/node0.sock";
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  while (Clock::now() < deadline) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return false;
    const bool up =
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
    ::close(fd);
    if (up) return true;
    std::this_thread::yield();  // one CPU: let node 0 reach its listen()
  }
  return false;
}

/// Timestamps each response the client MCAs hand to their applications.
class ResponseTap final : public estelle::RunObserver {
 public:
  ResponseTap(Clock::time_point start, std::vector<float>& lat_us)
      : start_(start), lat_us_(lat_us) {}
  void on_fire(const estelle::Module&, const estelle::Transition& t,
               mcam::common::SimTime) override {
    if (t.name == "m-response" || t.name == "m-assoc-conf")
      lat_us_.push_back(
          static_cast<float>(ns_between(start_, Clock::now()) / 1e3));
  }

 private:
  Clock::time_point start_;
  std::vector<float>& lat_us_;
};

/// Everything one batch measured.
struct Batch {
  double setup_ns = 0;
  double run_ns = 0;  // batch start to the later node's run() return
  std::uint64_t requests = 0;
  estelle::RunReport report[2];
  double node_ns[2] = {0, 0};
  std::uint64_t transfers = 0;
  std::vector<float> lat_us;  // per response, from the batch start
  std::string error;
};

struct Totals {
  Windows windows;  // one per batch
  std::vector<double> setup_s;
  std::uint64_t requests = 0, batches = 0, transfers = 0;
  RunTotals runs;  // both nodes
  double sim_us = 0;
  double node_round_us = 0;  // sum over batches of the per-node mean
  std::uint64_t frames = 0, bytes = 0, syscalls = 0, batched = 0;
  std::uint64_t parallel = 0, overlap = 0, nulls = 0, heartbeats = 0;
  std::uint64_t replayed = 0, reconnects = 0, handshake_retries = 0;

  void add(Batch& b) {
    windows.close(static_cast<double>(b.requests), b.run_ns / 1e9, b.lat_us);
    setup_s.push_back(b.setup_ns / 1e9);
    requests += b.requests;
    ++batches;
    transfers += b.transfers;
    double round_us = 0;
    for (int n = 0; n < 2; ++n) {
      const auto& r = b.report[n];
      runs.add(r, b.node_ns[n]);
      round_us += b.node_ns[n] / 1e3 / static_cast<double>(r.steps) / 2;
      frames += r.transport.frames_sent;
      bytes += r.transport.bytes_sent;
      syscalls += r.transport.syscalls;
      batched += r.transport.frames_batched;
      parallel += r.transport.parallel_shard_rounds;
      overlap += r.transport.io_overlap_polls;
      nulls += r.transport.null_rounds_serviced;
      heartbeats += r.transport.heartbeats;
      replayed += r.transport.frames_replayed;
      reconnects += r.transport.reconnects;
      handshake_retries += r.transport.handshake_retries;
    }
    node_round_us += round_us;
    sim_us += std::max(b.report[0].time.micros(), b.report[1].time.micros());
  }
};

class BatchRunner {
 public:
  BatchRunner(const Options& opt, Catalogue& cat)
      : opt_(opt), cat_(cat), assignment_(assignment_of(opt)) {}

  /// One batch: set up both nodes, queue, run, check.
  Batch run(bool traced, StreamSample* sample, Outcome& oc) {
    Batch b;
    const Shape& s = opt_.shape;
    std::filesystem::create_directories(opt_.sockdir);
    std::promise<bool> ready0;
    std::promise<bool> go0;
    std::shared_future<bool> go = go0.get_future().share();

    const auto t_setup = Clock::now();
    std::thread node0([&] {
      auto mesh = estelle::StreamSocketTransport::unix_mesh(0, 2, opt_.sockdir);
      if (!mesh.ok()) {
        ready0.set_value(false);
        return;
      }
      auto bed = std::make_unique<core::Testbed>(
          config(0, std::move(mesh.value()), 1));
      const bool preloaded = cat_.preload(bed->server().directory());
      ready0.set_value(preloaded);
      if (!go.get()) return;
      LayerTracer tracer(*bed, false);
      estelle::RunOptions ro;
      if (traced) ro.observers.push_back(&tracer);
      const auto t0 = Clock::now();
      b.report[0] = bed->executor().run(ro);
      b.node_ns[0] = ns_between(t0, Clock::now());
      b.transfers += wire_transfers(*bed, true);
      if (traced) add_fired(tracer);
    });

    std::unique_ptr<core::Testbed> bed;
    if (await_listener(opt_.sockdir, t_setup + std::chrono::seconds(10))) {
      auto mesh = estelle::StreamSocketTransport::unix_mesh(1, 2, opt_.sockdir);
      if (mesh.ok())
        bed = std::make_unique<core::Testbed>(
            config(1, std::move(mesh.value()), 2));
    }
    const bool ok0 = ready0.get_future().get();
    b.setup_ns = ns_between(t_setup, Clock::now());
    if (!bed || !ok0) {
      go0.set_value(false);
      node0.join();
      b.error = "mesh or node 0 set-up failed";
      return b;
    }

    // Queue every connection's whole request list before the run.
    const auto ips = app_channels(*bed);
    std::vector<std::vector<Request>> sent(ips.size());
    for (std::size_t i = 0; i < ips.size(); ++i) {
      Mix mix(Mix::Kind::Batch, cat_, s, opt_.seed, static_cast<int>(i));
      sent[i].push_back(associate_request(static_cast<int>(i)));
      for (int k = 0; k < s.batch_requests(); ++k) sent[i].push_back(mix.next());
      for (const Request& rq : sent[i]) send(*ips[i], rq);
      b.requests += sent[i].size();
    }
    oc.attempted += b.requests;

    const auto t_start = Clock::now();
    LayerTracer tracer(*bed, false);
    ResponseTap tap(t_start, b.lat_us);
    estelle::RunOptions ro;
    ro.observers.push_back(&tap);
    if (traced) ro.observers.push_back(&tracer);
    go0.set_value(true);
    b.report[1] = bed->executor().run(ro);
    b.node_ns[1] = ns_between(t_start, Clock::now());

    std::vector<std::vector<estelle::Interaction>> got(ips.size());
    for (std::size_t i = 0; i < ips.size(); ++i)
      while (ips[i]->has_input()) got[i].push_back(ips[i]->pop());
    const std::uint64_t client_transfers = wire_transfers(*bed, false);
    if (traced) add_fired(tracer);
    bed.reset();  // both nodes tear down concurrently
    node0.join();
    b.run_ns = std::max(b.node_ns[0], b.node_ns[1]);
    b.transfers += client_transfers;

    for (int n = 0; n < 2; ++n) {
      const auto& r = b.report[n];
      if (r.reason != estelle::StopReason::Quiescent)
        b.error = "node " + std::to_string(n) + " ended " +
                  estelle::stop_reason_name(r.reason) + ": " + r.error;
      if (r.transport.reconnects != 0 || r.transport.frames_replayed != 0 ||
          r.transport.handshake_retries != 0)
        oc.violations.push_back(
            "node " + std::to_string(n) + " redialled " +
            std::to_string(r.transport.handshake_retries) +
            " times at set-up, reconnected " +
            std::to_string(r.transport.reconnects) + " times and replayed " +
            std::to_string(r.transport.frames_replayed) + " frames");
    }
    Shadow shadow = make_shadow(Mix::Kind::Batch, cat_, s, {});
    for (std::size_t i = 0; i < ips.size(); ++i) {
      if (got[i].size() != sent[i].size()) {
        oc.failed += sent[i].size() > got[i].size()
                         ? sent[i].size() - got[i].size()
                         : got[i].size() - sent[i].size();
        if (b.error.empty())
          b.error = "connection " + std::to_string(i) + " got " +
                    std::to_string(got[i].size()) + " replies to " +
                    std::to_string(sent[i].size()) + " requests";
      }
      const std::size_t n = std::min(got[i].size(), sent[i].size());
      for (std::size_t k = 0; k < n; ++k) {
        auto resp = core::decode(got[i][k].payload);
        const std::string why =
            resp.ok() ? check_response(sent[i][k], resp.value(), cat_, shadow,
                                       static_cast<int>(i))
                      : "undecodable reply: " + resp.error().message;
        if (!why.empty()) {
          ++oc.failed;
          if (b.error.empty()) b.error = why;
        }
        if (sample != nullptr) sample->take(sent[i][k], got[i][k].payload);
      }
    }
    return b;
  }

  std::uint64_t fired[kLayerKinds] = {};

 private:
  core::Testbed::Config config(int node,
                               std::unique_ptr<estelle::StreamSocketTransport>
                                   transport,
                               int workers) const {
    estelle::DistOptions d;
    d.node = node;
    d.nodes = 2;
    d.transport = std::shared_ptr<estelle::MailboxTransport>(std::move(transport));
    d.assignment = assignment_;
    d.worker_count = workers;
    core::Testbed::Config cfg = testbed_config(opt_.shape, opt_.seed);
    cfg.runtime.kind = estelle::ExecutorKind::Distributed;
    cfg.runtime.backend_options = std::move(d);
    return cfg;
  }

  void add_fired(const LayerTracer& t) {
    std::lock_guard<std::mutex> lock(mu_);
    for (int k = 0; k < kLayerKinds; ++k) fired[k] += t.fired[k];
  }

  const Options& opt_;
  Catalogue& cat_;
  std::vector<int> assignment_;
  std::mutex mu_;  // guards fired
};

/// Batches until `seconds` of wall time (set-up included) have passed.
Totals run_batches(BatchRunner& runner, CpuRotor& cpus, double seconds,
                   bool traced, StreamSample* sample, Outcome& oc) {
  Totals t;
  const auto start = Clock::now();
  do {
    cpus.next();
    Batch b = runner.run(traced, t.batches == 0 ? sample : nullptr, oc);
    if (!b.error.empty()) {
      oc.violations.push_back("dist_batch: " + b.error);
      break;
    }
    t.add(b);
  } while (ns_between(start, Clock::now()) / 1e9 < seconds);
  return t;
}

/// Layer self time of the batch mix, charged on a Sequential replay (gaps
/// between announcements carry no meaning under the distributed runtime).
void sequential_profile(const Options& opt, Catalogue& cat, Report& out,
                        Outcome& oc) {
  core::Testbed bed(testbed_config(opt.shape, opt.seed));
  if (!cat.preload(bed.server().directory())) {
    oc.violations.push_back("Sequential profile: catalogue preload");
    return;
  }
  const auto t_app = Clock::now();
  const auto ips = app_channels(bed);
  std::vector<std::vector<Request>> sent(ips.size());
  for (std::size_t i = 0; i < ips.size(); ++i) {
    Mix mix(Mix::Kind::Batch, cat, opt.shape, opt.seed, static_cast<int>(i));
    sent[i].push_back(associate_request(static_cast<int>(i)));
    for (int k = 0; k < opt.shape.batch_requests(); ++k)
      sent[i].push_back(mix.next());
    for (const Request& rq : sent[i]) send(*ips[i], rq);
  }
  double app_ns = ns_between(t_app, Clock::now());
  LayerTracer tracer(bed, true);
  estelle::RunOptions ro;
  ro.observers.push_back(&tracer);
  (void)bed.executor().run(ro);
  const auto t_check = Clock::now();
  Shadow shadow = make_shadow(Mix::Kind::Batch, cat, opt.shape, {});
  std::uint64_t requests = 0;
  for (std::size_t i = 0; i < ips.size(); ++i) {
    oc.attempted += sent[i].size();
    requests += sent[i].size();
    for (const Request& rq : sent[i]) {
      if (!ips[i]->has_input()) {
        ++oc.failed;
        oc.violations.push_back("Sequential profile: missing reply");
        continue;
      }
      auto resp = core::decode(ips[i]->pop().payload);
      if (!resp.ok() ||
          !check_response(rq, resp.value(), cat, shadow, static_cast<int>(i))
               .empty()) {
        ++oc.failed;
        oc.violations.push_back("Sequential profile: wrong reply");
      }
    }
  }
  app_ns += ns_between(t_check, Clock::now());
  report_layers(tracer, app_ns, requests, out);
}

}  // namespace

Outcome run_dist_batch(const Options& opt, Report& out) {
  const Shape& s = opt.shape;
  Catalogue cat(opt.seed, s.catalogue, s.conns(), opt.inject_fault);
  Outcome oc;
  // Every thread of a batch (both node threads and node 1's workers inherit
  // the pin) shares one CPU, the next one per batch. Node handoffs then stay
  // context switches on one vCPU: across vCPUs each one waits on the host to
  // wake a halted vCPU, and on a shared host that made the rate swing 4x run
  // to run.
  CpuRotor cpus;
  if (!cpus.next())
    std::printf("# dist_batch: could not pin to one CPU; rates will be noisy\n");
  BatchRunner runner(opt, cat);
  StreamSample sample;

  // Warm-up batches: first-touch costs and the host's settling stay out.
  if (run_batches(runner, cpus, opt.warmup, false, nullptr, oc).batches == 0)
    return oc;

  const auto guard = [&](const Totals& t) {
    if (t.batches == 0) oc.violations.push_back("dist_batch: no batch ran");
  };

  if (!opt.trace) {
    Totals t = run_batches(runner, cpus, opt.seconds, false, nullptr, oc);
    guard(t);
    if (t.batches == 0) return oc;
    t.windows.report(out, "batches");
    if (t.windows.min_beyond_p99 < static_cast<std::size_t>(s.min_beyond_p99))
      oc.violations.push_back("latency_p99_ms needs >= 10 samples beyond it");
    out.set("setup_s", median(t.setup_s), "s",
            "median of " + std::to_string(t.setup_s.size()) + " set-ups");
    return oc;
  }

  Totals plain = run_batches(runner, cpus, opt.seconds / 2, false, nullptr, oc);
  Totals t = run_batches(runner, cpus, opt.seconds / 2, true, &sample, oc);
  guard(plain);
  guard(t);
  if (plain.batches == 0 || t.batches == 0) return oc;
  const double plain_rps = plain.windows.rate();
  const double traced_rps = t.windows.rate();
  out.set("trace.untraced_requests_per_s", plain_rps, "1/s");
  out.set("trace.traced_requests_per_s", traced_rps, "1/s");
  out.set("trace.overhead_pct", 100.0 * (plain_rps - traced_rps) / plain_rps,
          "%");

  const double req = static_cast<double>(t.requests);
  const double rounds = static_cast<double>(t.runs.steps);
  const double batches = static_cast<double>(t.batches);
  out.set("estelle.run_us_per_req", t.runs.run_ns / 2 / 1e3 / req, "us",
          "mean of the two nodes");
  out.set("estelle.runs_per_req", static_cast<double>(t.runs.runs) / req,
          "count");
  out.set("estelle.rounds_per_req", rounds / req, "count", "both nodes");
  out.set("estelle.fired_per_req", static_cast<double>(t.runs.fired) / req,
          "count");
  out.set("estelle.guards_per_round",
          static_cast<double>(t.runs.guards) / rounds, "count");
  out.set("estelle.candidates_per_round",
          static_cast<double>(t.runs.candidates) / rounds, "count");
  out.set("estelle.alloc_rounds_per_round",
          static_cast<double>(t.runs.alloc_rounds) / rounds, "ratio");
  out.set("estelle.sim_us_per_req", t.sim_us / req, "us");

  out.set("transport.round_us", t.node_round_us / batches, "us",
          "node run wall time / node rounds, mean of both nodes");
  out.set("transport.frames_per_req", static_cast<double>(t.frames) / req,
          "count");
  out.set("transport.bytes_per_req", static_cast<double>(t.bytes) / req,
          "bytes");
  out.set("transport.syscalls_per_round",
          static_cast<double>(t.syscalls) / rounds, "count");
  out.set("transport.batched_share",
          static_cast<double>(t.batched) / static_cast<double>(t.transfers),
          "ratio", "transfers inside a TransferBatch / all transfers");
  out.set("transport.parallel_rounds",
          static_cast<double>(t.parallel) / batches, "count", "per batch");
  out.set("transport.overlap_polls_per_round",
          t.parallel == 0 ? 0.0
                          : static_cast<double>(t.overlap) /
                                static_cast<double>(t.parallel),
          "count", "per parallel round");
  out.set("transport.null_rounds", static_cast<double>(t.nulls) / batches,
          "count", "per batch");
  out.set("transport.heartbeats", static_cast<double>(t.heartbeats) / batches,
          "count", "per batch");
  out.set("transport.replayed", static_cast<double>(t.replayed), "count");
  out.set("transport.reconnects", static_cast<double>(t.reconnects), "count");
  out.set("transport.handshake_retries",
          static_cast<double>(t.handshake_retries), "count");

  sequential_profile(opt, cat, out, oc);
  // Firing counts of the distributed run itself (both nodes).
  for (int k = kMca; k <= kSmca; ++k)
    out.set(std::string("layer.") + layer_name(k) + ".fired_per_req",
            static_cast<double>(runner.fired[k]) / req, "count",
            "distributed run");
  // The typical TransferBatch: batched transfers per node round.
  const int entries = std::max(
      2, static_cast<int>(static_cast<double>(t.batched) / rounds + 0.5));
  replay_layers(sample, cat, entries, opt.seed, out);
  return oc;
}

}  // namespace e2e
