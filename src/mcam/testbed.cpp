#include "mcam/testbed.hpp"

#include <stdexcept>

namespace mcam::core {

using estelle::Attribute;
using estelle::Module;

Testbed::Testbed(Config cfg)
    : cfg_(cfg), rng_(cfg.seed), spec_("mcam-testbed"), network_(cfg.seed) {
  core_ = std::make_unique<McamServerCore>(network_, cfg_.server_host);

  // One systemprocess module per machine, as in §4.1: "for the server and
  // for each client, we generate an Estelle systemprocess module" (the
  // machine name lives in the module name, standing in for the paper's
  // location comments).
  server_module_ = &spec_.root().create_child<Module>(
      "server@" + cfg_.server_host, Attribute::SystemProcess);
  connections_.resize(static_cast<std::size_t>(cfg_.clients));

  for (int c = 0; c < cfg_.clients; ++c) {
    Module& client_mod = spec_.root().create_child<Module>(
        "client@" + client_host(c), Attribute::SystemProcess);
    client_mod.set_uniprocessor_host(cfg_.uniprocessor_clients);
    client_modules_.push_back(&client_mod);

    for (int k = 0; k < cfg_.connections_per_client; ++k) {
      const std::string tag =
          "c" + std::to_string(c + 1) + "k" + std::to_string(k + 1);
      Connection conn;

      // Client side: application module + MCA (created by the client module,
      // mirroring the dynamic structure of §4.1).
      conn.app = &client_mod.create_child<AppModule>("app." + tag);
      conn.mca = &client_mod.create_child<McaClientModule>("mca." + tag);
      estelle::connect(conn.app->mca(), conn.mca->app());

      // Server side: one server entity (MCA) per connection (Fig. 2).
      conn.server_mca = &server_module_->create_child<McaServerModule>(
          "smca." + tag, *core_);

      // With ACSE enabled (Fig. 3), the MCA plugs into the ACSE upper
      // interface and ACSE plugs into the stack — the interfaces are
      // identical, so this is a pure insertion.
      estelle::InteractionPoint* client_plug = &conn.mca->service();
      estelle::InteractionPoint* server_plug = &conn.server_mca->service();
      if (cfg_.use_acse) {
        conn.client_acse =
            &client_mod.create_child<osi::AcseModule>("acse." + tag);
        conn.server_acse =
            &server_module_->create_child<osi::AcseModule>("acse." + tag);
        estelle::connect(*client_plug, conn.client_acse->upper());
        estelle::connect(*server_plug, conn.server_acse->upper());
        client_plug = &conn.client_acse->lower();
        server_plug = &conn.server_acse->lower();
      }

      if (cfg_.stack == StackKind::EstelleGenerated) {
        conn.client_stack = osi::build_estelle_stack(client_mod, "cstk." + tag);
        conn.server_stack =
            osi::build_estelle_stack(*server_module_, "sstk." + tag);
        estelle::connect(*client_plug, conn.client_stack.service());
        estelle::connect(*server_plug, conn.server_stack.service());
        osi::join_transports(*conn.client_stack.transport,
                             *conn.server_stack.transport, cfg_.control_loss,
                             cfg_.control_loss > 0 ? &rng_ : nullptr);
      } else {
        conn.client_iface =
            &client_mod.create_child<osi::isode::IsodeInterfaceModule>(
                "isode." + tag);
        conn.server_iface =
            &server_module_->create_child<osi::isode::IsodeInterfaceModule>(
                "isode." + tag);
        estelle::connect(*client_plug, conn.client_iface->upper());
        estelle::connect(*server_plug, conn.server_iface->upper());
        osi::isode::link(conn.client_iface->entity(),
                         conn.server_iface->entity());
      }
      connections_[static_cast<std::size_t>(c)].push_back(std::move(conn));
    }
  }

  spec_.initialize();
  executor_ = estelle::make_executor(spec_, cfg_.runtime);
}

Testbed::Connection& Testbed::connection(int client, int conn) {
  return connections_.at(static_cast<std::size_t>(client))
      .at(static_cast<std::size_t>(conn));
}

McamClient Testbed::client(int client, int conn) {
  return McamClient(*connection(client, conn).app, *executor_);
}

mtp::StreamUserAgent& Testbed::make_sua(int client, std::uint16_t port) {
  suas_.push_back(std::make_unique<mtp::StreamUserAgent>(
      network_, net::Address{client_host(client), port}));
  return *suas_.back();
}

void Testbed::advance_streams(common::SimTime dt, common::SimTime tick) {
  const common::SimTime end = network_.now() + dt;
  while (network_.now() < end) {
    common::SimTime next = network_.now() + tick;
    if (next > end) next = end;
    step_streams();
    network_.run_until(next);
    for (auto& sua : suas_) sua->poll(network_.now());
  }
  step_streams();
  for (auto& sua : suas_) sua->poll(network_.now());
}

void Testbed::step_streams() {
  core_->step_streams();
  // Stream positions moved: wake every server MCA, whose hooked
  // `m-position` guard reads them.
  for (auto& conns : connections_)
    for (Connection& conn : conns) conn.server_mca->mark_ready();
}

}  // namespace mcam::core
