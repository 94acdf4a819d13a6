// The §5.1 test environment, reusable across benches.
//
// "We specified a simple test environment in Estelle with two protocol
// stacks connected by a simulated transport layer pipe. Both stacks consist
// of presentation and session layers, and an initiator or responder
// respectively. It is possible to create multiple connections. ... we
// transmitted very small P-Data units. This is the worst case for
// parallelization."
//
// build() assembles exactly that: per connection, a process parent module
// ("connN") holding initiator+presentation+session+transport on the client
// system module, and the mirror image with a responder on the server system
// module. The per-connection parent is what makes the paper's
// connection-per-processor mapping meaningful.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "estelle/executor.hpp"
#include "osi/presentation.hpp"
#include "osi/service.hpp"
#include "osi/session.hpp"
#include "osi/transport.hpp"

namespace mcam::bench {

using common::SimTime;
using estelle::Attribute;
using estelle::Interaction;
using estelle::Module;

/// Sends P-CONNECT, then `requests` small P-DATA units as fast as the stack
/// accepts them.
class Initiator : public Module {
 public:
  enum State { kInit = 0, kWaiting, kOpen };

  Initiator(std::string name, int requests, std::size_t payload_bytes,
            SimTime cost)
      : Module(std::move(name), Attribute::Process),
        payload_(payload_bytes, 0x5a) {
    auto& svc = ip("svc");
    trans("start")
        .from(kInit)
        .to(kWaiting)
        .cost(cost)
        .action([this](Module&, const Interaction*) {
          ip("svc").output(Interaction(osi::kPConReq, payload_));
        });
    trans("conf")
        .from(kWaiting)
        .when(svc, osi::kPConConf)
        .to(kOpen)
        .cost(cost)
        .action([](Module&, const Interaction*) {});
    trans("send")
        .from(kOpen)
        .cost(cost)
        .provided([this, requests](Module&, const Interaction*) {
          return sent_ < requests;
        })
        .action([this](Module&, const Interaction*) {
          ++sent_;
          ip("svc").output(Interaction(osi::kPDatReq, payload_));
        });
    trans("ignore")
        .when(svc)
        .priority(1000)
        .cost(cost)
        .action([](Module&, const Interaction*) {});
  }

  [[nodiscard]] int sent() const noexcept { return sent_; }

 private:
  common::Bytes payload_;
  int sent_ = 0;
};

/// Accepts the connection and counts arriving P-DATA units.
class Responder : public Module {
 public:
  explicit Responder(std::string name, SimTime cost)
      : Module(std::move(name), Attribute::Process) {
    auto& svc = ip("svc");
    trans("accept")
        .when(svc, osi::kPConInd)
        .cost(cost)
        .action([this](Module&, const Interaction*) {
          ip("svc").output(Interaction(osi::kPConResp, 1));
        });
    trans("data")
        .when(svc, osi::kPDatInd)
        .cost(cost)
        .action([this](Module&, const Interaction*) { ++received_; });
    trans("ignore")
        .when(svc)
        .priority(1000)
        .cost(cost)
        .action([](Module&, const Interaction*) {});
  }

  [[nodiscard]] int received() const noexcept { return received_; }

 private:
  int received_ = 0;
};

struct PsWorkload {
  std::unique_ptr<estelle::Specification> spec;
  std::vector<Initiator*> initiators;
  std::vector<Responder*> responders;
  int connections = 0;
  int requests = 0;

  [[nodiscard]] bool done() const {
    for (const Responder* r : responders)
      if (r->received() < requests) return false;
    return true;
  }

  [[nodiscard]] std::size_t module_count() {
    return spec->root().subtree_size() - 1;
  }
};

struct PsConfig {
  int connections = 2;
  int requests = 64;
  std::size_t payload_bytes = 16;  // "very small P-Data units"
  SimTime endpoint_cost = SimTime::from_us(20);
  /// Per-PDU cost of the presentation/session/transport modules; zero keeps
  /// each layer's own default.
  SimTime layer_cost{};
  /// §3: client entities run on single-processor UNIX workstations; only
  /// the server machine is the KSR1 multiprocessor.
  bool uniprocessor_clients = true;
  /// Number of client workstations the connections are spread over (Fig. 2
  /// shows two); each is one Estelle systemprocess module.
  int client_machines = 1;
};

inline PsWorkload build_ps_workload(const PsConfig& cfg) {
  PsWorkload w;
  w.connections = cfg.connections;
  w.requests = cfg.requests;
  w.spec = std::make_unique<estelle::Specification>("ps-workload");
  std::vector<Module*> client_machines;
  for (int m = 0; m < std::max(1, cfg.client_machines); ++m) {
    auto& client_sys = w.spec->root().create_child<Module>(
        "client" + std::to_string(m + 1), Attribute::SystemProcess);
    client_sys.set_uniprocessor_host(cfg.uniprocessor_clients);
    client_machines.push_back(&client_sys);
  }
  auto& server_sys = w.spec->root().create_child<Module>(
      "server", Attribute::SystemProcess);

  for (int c = 0; c < cfg.connections; ++c) {
    const std::string tag = std::to_string(c + 1);
    Module& client_sys = *client_machines[static_cast<std::size_t>(c) %
                                          client_machines.size()];
    auto& cconn =
        client_sys.create_child<Module>("conn" + tag, Attribute::Process);
    auto& sconn =
        server_sys.create_child<Module>("conn" + tag, Attribute::Process);

    auto& initiator = cconn.create_child<Initiator>(
        "init" + tag, cfg.requests, cfg.payload_bytes, cfg.endpoint_cost);
    osi::PresentationModule::Config pres_cfg;
    osi::SessionModule::Config sess_cfg;
    osi::TransportModule::Config tp_cfg;
    if (cfg.layer_cost.ns > 0) {
      pres_cfg.per_ppdu_cost = cfg.layer_cost;
      sess_cfg.per_spdu_cost = cfg.layer_cost;
      tp_cfg.per_pdu_cost = cfg.layer_cost;
    }
    auto& cpres = cconn.create_child<osi::PresentationModule>("pres" + tag,
                                                              pres_cfg);
    auto& csess =
        cconn.create_child<osi::SessionModule>("sess" + tag, sess_cfg);
    auto& ctp =
        cconn.create_child<osi::TransportModule>("tp" + tag, tp_cfg);
    estelle::connect(initiator.ip("svc"), cpres.upper());
    estelle::connect(cpres.lower(), csess.upper());
    estelle::connect(csess.lower(), ctp.upper());

    auto& responder =
        sconn.create_child<Responder>("resp" + tag, cfg.endpoint_cost);
    auto& spres = sconn.create_child<osi::PresentationModule>("pres" + tag,
                                                              pres_cfg);
    auto& ssess =
        sconn.create_child<osi::SessionModule>("sess" + tag, sess_cfg);
    auto& stp =
        sconn.create_child<osi::TransportModule>("tp" + tag, tp_cfg);
    estelle::connect(responder.ip("svc"), spres.upper());
    estelle::connect(spres.lower(), ssess.upper());
    estelle::connect(ssess.lower(), stp.upper());

    estelle::connect(ctp.net(), stp.net());

    w.initiators.push_back(&initiator);
    w.responders.push_back(&responder);
  }
  w.spec->initialize();
  return w;
}

/// Completion time of a fresh workload under an arbitrary runtime.
inline SimTime run_workload(const PsConfig& cfg,
                            const estelle::ExecutorConfig& runtime) {
  PsWorkload w = build_ps_workload(cfg);
  auto executor = estelle::make_executor(*w.spec, runtime);
  executor->run_until([&] { return w.done(); });
  return executor->now();
}

/// Sequential completion time of a fresh workload.
inline SimTime run_sequential(const PsConfig& cfg) {
  return run_workload(cfg, {.kind = estelle::ExecutorKind::Sequential});
}

/// Parallel completion time of a fresh workload.
inline SimTime run_parallel(const PsConfig& cfg, int processors,
                            estelle::Mapping mapping,
                            sim::CostModel costs = {}) {
  estelle::ExecutorConfig runtime;
  runtime.kind = estelle::ExecutorKind::ParallelSim;
  runtime.processors = processors;
  runtime.mapping = mapping;
  runtime.costs = costs;
  return run_workload(cfg, runtime);
}

}  // namespace mcam::bench
