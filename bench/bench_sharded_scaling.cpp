// Barrier-round shard scaling on the Fig. 2 multi-client configuration.
//
// Fig. 2 of the paper shows client workstations holding control connections
// and, on the multiprocessor, one independent MCAM server entity per
// connection: "all these server entities can run simultaneously on a
// multiprocessor system". Here each server entity is what §4.1 makes it —
// an Estelle system module of its own — so ConflictAnalysis gives every
// entity (and every client workstation) a shard, and ExecutorKind::
// FreeRunning at threads = 1 runs them as barrier rounds with per-shard
// virtual clocks.
//
// Part A: the exact Fig. 2 shape (client 1 with two connections, client 2
// with one) — conflict analysis, per-shard stats, and the virtual-time AND
// wall-clock speedup of the sharded runtime over the sequential baseline.
// The acceptance lines: >= 2x virtual, and the wall-clock ratio against the
// sequential scheduler (width one runs the barrier rounds on one thread,
// so this is the cost of sharding, not a parallel speedup).
//
// Part B: the scaled multi-client configuration (8 clients x 2
// connections, 24 shards). Virtual completion time models the shards'
// parallel clocks; the wall column shows what the per-shard bookkeeping
// costs at that width.
//
// The whole result set is also emitted as JSON (argv[1], default
// bench_sharded_scaling.json) so CI can archive it and future changes can
// diff the wall-clock trajectory instead of eyeballing stdout.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ps_workload.hpp"
#include "estelle/conflict.hpp"
#include "estelle/executor.hpp"
#include "osi/presentation.hpp"
#include "osi/session.hpp"
#include "osi/transport.hpp"

using namespace mcam;
using common::SimTime;
using estelle::Attribute;
using estelle::Module;

namespace {

struct Fig2World {
  std::unique_ptr<estelle::Specification> spec;
  std::vector<bench::Responder*> responders;
  int requests = 0;

  [[nodiscard]] bool done() const {
    for (const bench::Responder* r : responders)
      if (r->received() < requests) return false;
    return true;
  }
};

/// `conns_per_client[i]` control connections for client i+1; one server
/// entity (its own systemprocess module) per connection, as in Fig. 2.
Fig2World build_fig2(const std::vector<int>& conns_per_client, int requests) {
  Fig2World w;
  w.requests = requests;
  w.spec = std::make_unique<estelle::Specification>("fig2-sharded");

  int conn_no = 0;
  for (std::size_t c = 0; c < conns_per_client.size(); ++c) {
    auto& client_sys = w.spec->root().create_child<Module>(
        "client" + std::to_string(c + 1), Attribute::SystemProcess);
    client_sys.set_uniprocessor_host(true);  // §3: client workstations
    for (int k = 0; k < conns_per_client[c]; ++k) {
      const std::string tag = std::to_string(++conn_no);
      auto& entity = w.spec->root().create_child<Module>(
          "entity" + tag + "@ksr1", Attribute::SystemProcess);

      auto& initiator = client_sys.create_child<bench::Initiator>(
          "init" + tag, requests, /*payload_bytes=*/16, SimTime::from_us(20));
      auto& cpres = client_sys.create_child<osi::PresentationModule>(
          "pres" + tag, osi::PresentationModule::Config{});
      auto& csess = client_sys.create_child<osi::SessionModule>(
          "sess" + tag, osi::SessionModule::Config{});
      auto& ctp = client_sys.create_child<osi::TransportModule>(
          "tp" + tag, osi::TransportModule::Config{});
      estelle::connect(initiator.ip("svc"), cpres.upper());
      estelle::connect(cpres.lower(), csess.upper());
      estelle::connect(csess.lower(), ctp.upper());

      auto& responder = entity.create_child<bench::Responder>(
          "resp" + tag, SimTime::from_us(20));
      auto& spres = entity.create_child<osi::PresentationModule>(
          "pres" + tag, osi::PresentationModule::Config{});
      auto& ssess = entity.create_child<osi::SessionModule>(
          "sess" + tag, osi::SessionModule::Config{});
      auto& stp = entity.create_child<osi::TransportModule>(
          "tp" + tag, osi::TransportModule::Config{});
      estelle::connect(responder.ip("svc"), spres.upper());
      estelle::connect(spres.lower(), ssess.upper());
      estelle::connect(ssess.lower(), stp.upper());

      estelle::connect(ctp.net(), stp.net());  // the Fig. 2 transport pipe
      w.responders.push_back(&responder);
    }
  }
  w.spec->initialize();
  return w;
}

struct Outcome {
  SimTime virtual_time{};
  double wall_ms = 0;
  estelle::RunReport report;
};

Outcome run_world(const std::vector<int>& conns, int requests,
                  const estelle::ExecutorConfig& runtime) {
  Fig2World w = build_fig2(conns, requests);
  auto executor = estelle::make_executor(*w.spec, runtime);
  const auto start = std::chrono::steady_clock::now();
  Outcome out;
  out.report = executor->run_until([&] { return w.done(); });
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  out.virtual_time = executor->now();
  return out;
}

/// Wall-clock noise control: run `reps` times, keep the best wall time
/// (virtual time and counters are deterministic, so any rep's report works).
Outcome run_world_best(const std::vector<int>& conns, int requests,
                       const estelle::ExecutorConfig& runtime, int reps = 3) {
  Outcome best = run_world(conns, requests, runtime);
  for (int r = 1; r < reps; ++r) {
    Outcome o = run_world(conns, requests, runtime);
    if (o.wall_ms < best.wall_ms) best = std::move(o);
  }
  return best;
}

/// The sharded run of one configuration, against the sequential baseline.
struct ShardedRow {
  Outcome outcome;
  double speedup_virtual = 0;
  double speedup_wall = 0;
};

std::string json_escapeless_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.4f", v);
  return buf;
}

std::string section_json(const Outcome& seq, const ShardedRow& r) {
  return "{\n    \"sequential\": {\"virtual_ms\": " +
         json_escapeless_number(seq.virtual_time.millis()) +
         ", \"wall_ms\": " + json_escapeless_number(seq.wall_ms) +
         "},\n    \"sharded\": {\"virtual_ms\": " +
         json_escapeless_number(r.outcome.virtual_time.millis()) +
         ", \"wall_ms\": " + json_escapeless_number(r.outcome.wall_ms) +
         ", \"speedup_virtual\": " +
         json_escapeless_number(r.speedup_virtual) +
         ", \"speedup_wall\": " + json_escapeless_number(r.speedup_wall) +
         "}\n  }";
}

ShardedRow run_sharded(const std::vector<int>& conns, int requests,
                       const Outcome& seq) {
  ShardedRow row;
  row.outcome = run_world_best(conns, requests,
                               {.kind = estelle::ExecutorKind::FreeRunning,
                                .threads = 1});
  row.speedup_virtual = static_cast<double>(seq.virtual_time.ns) /
                        static_cast<double>(row.outcome.virtual_time.ns);
  row.speedup_wall = seq.wall_ms / row.outcome.wall_ms;
  return row;
}

void print_table(const Outcome& seq, const ShardedRow& r) {
  std::printf("%14s %14s %9s %12s %9s\n", "runtime", "virtual time",
              "speedup", "wall", "speedup");
  std::printf("%14s %11.3f ms %9s %9.2f ms %9s\n", "sequential",
              seq.virtual_time.millis(), "1.00x", seq.wall_ms, "1.00x");
  std::printf("%14s %11.3f ms %8.2fx %9.2f ms %8.2fx\n", "sharded",
              r.outcome.virtual_time.millis(), r.speedup_virtual,
              r.outcome.wall_ms, r.speedup_wall);
}

std::string part_a() {
  const std::vector<int> kFig2Conns = {2, 1};
  const int kRequests = 200;

  std::printf("== part A: the Fig. 2 configuration, sharded ==\n\n");
  {
    Fig2World w = build_fig2(kFig2Conns, kRequests);
    estelle::ConflictAnalysis analysis(*w.spec);
    std::printf("%s\n", analysis.to_string().c_str());
  }

  const Outcome seq = run_world_best(kFig2Conns, kRequests, {});
  const ShardedRow sharded = run_sharded(kFig2Conns, kRequests, seq);
  print_table(seq, sharded);

  std::printf("\nper-shard stats:\n");
  std::printf("  %-28s %8s %8s %12s\n", "shard (system module)", "fired",
              "rounds", "clock");
  for (const estelle::ShardRunStats& s : sharded.outcome.report.shards)
    std::printf("  %-28s %8llu %8llu %9.3f ms\n", s.system_module.c_str(),
                static_cast<unsigned long long>(s.fired),
                static_cast<unsigned long long>(s.rounds), s.clock.millis());

  std::printf(
      "\nacceptance: sharded is %.2fx virtual (%s 2x target), %.2fx wall "
      "against sequential\n(wall numbers are hardware-dependent)\n\n",
      sharded.speedup_virtual,
      sharded.speedup_virtual >= 2.0 ? "meets" : "MISSES",
      sharded.speedup_wall);
  return section_json(seq, sharded);
}

std::string part_b() {
  std::printf(
      "== part B: multi-client configuration (8 clients x 2 connections, "
      "24 shards) ==\n\n");
  const std::vector<int> conns(8, 2);
  const int kRequests = 200;

  const Outcome seq = run_world_best(conns, kRequests, {});
  const ShardedRow sharded = run_sharded(conns, kRequests, seq);
  print_table(seq, sharded);
  std::printf(
      "\npaper reference: server entities run simultaneously on the KSR1;\n"
      "virtual completion time models the shards' parallel clocks; client\n"
      "workstations (uniprocessor shards) bound it.\n");
  return section_json(seq, sharded);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string fig2 = part_a();
  const std::string multi = part_b();

  const char* json_path =
      argc > 1 ? argv[1] : "bench_sharded_scaling.json";
  if (std::FILE* f = std::fopen(json_path, "w")) {
    std::fprintf(f,
                 "{\n  \"benchmark\": \"bench_sharded_scaling\",\n"
                 "  \"hardware_concurrency\": %u,\n"
                 "  \"requests\": 200,\n"
                 "  \"fig2\": %s,\n"
                 "  \"multi_client\": %s\n}\n",
                 std::thread::hardware_concurrency(), fig2.c_str(),
                 multi.c_str());
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path);
  } else {
    std::fprintf(stderr, "could not write %s\n", json_path);
    return 1;
  }
  return 0;
}
