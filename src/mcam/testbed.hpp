// Testbed — assembles the Fig. 2 experimental configuration.
//
// One server host (the KSR1 stand-in) with a shared McamServerCore, N client
// hosts, each with M control connections to the server. Per connection the
// testbed instantiates exactly the module structure §4.1 describes: the
// client module creates an application module, an MCAM (MCA) module and
// either Estelle presentation/session modules or an ISODE interface module;
// the server creates the mirror-image entity. Client and server system
// modules can then run under any of the three schedulers.
//
// The CM streams run over a separate net::SimNetwork, as in the paper the
// stream stack (MTP/UDP/FDDI) is deliberately separate from the control
// stack (Table 1).
#pragma once

#include <memory>
#include <vector>

#include "estelle/executor.hpp"
#include "mcam/client.hpp"
#include "mcam/mca.hpp"
#include "mcam/server_core.hpp"
#include "osi/acse.hpp"
#include "osi/isode.hpp"
#include "osi/stack.hpp"

namespace mcam::core {

/// Which control stack carries MCAM (§3: two stacks for conformance testing
/// and generated-vs-hand-written comparison).
enum class StackKind { EstelleGenerated, IsodeHandCoded };

class Testbed {
 public:
  struct Config {
    StackKind stack = StackKind::EstelleGenerated;
    int clients = 1;
    int connections_per_client = 1;
    double control_loss = 0.0;  // loss on the transport channel (Estelle stack)
    std::uint64_t seed = 1994;
    std::string server_host = "ksr1";
    /// §3: clients are single-processor workstations (affects how parallel
    /// schedulers map the client subtrees; the server stays multiprocessor).
    bool uniprocessor_clients = true;
    /// Insert the ACSE layer of Fig. 3 between the MCA and the control
    /// stack (application-context negotiation on associate).
    bool use_acse = false;
    /// Which runtime drives the control world (any registered
    /// ExecutorKind; sequential by default, as in the paper's baseline).
    estelle::ExecutorConfig runtime{};
  };

  struct Connection {
    AppModule* app = nullptr;
    McaClientModule* mca = nullptr;
    McaServerModule* server_mca = nullptr;
    // Estelle-generated stack endpoints (null under IsodeHandCoded):
    osi::EstelleStack client_stack;
    osi::EstelleStack server_stack;
    // ISODE path (null under EstelleGenerated):
    osi::isode::IsodeInterfaceModule* client_iface = nullptr;
    osi::isode::IsodeInterfaceModule* server_iface = nullptr;
    // ACSE layer (null unless Config::use_acse):
    osi::AcseModule* client_acse = nullptr;
    osi::AcseModule* server_acse = nullptr;
  };

  explicit Testbed(Config cfg);

  [[nodiscard]] estelle::Specification& spec() noexcept { return spec_; }
  [[nodiscard]] net::SimNetwork& network() noexcept { return network_; }
  [[nodiscard]] McamServerCore& server() noexcept { return *core_; }
  [[nodiscard]] estelle::Executor& executor() noexcept { return *executor_; }
  [[nodiscard]] common::Rng& rng() noexcept { return rng_; }

  [[nodiscard]] Connection& connection(int client, int conn = 0);
  [[nodiscard]] int clients() const noexcept { return cfg_.clients; }
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }
  [[nodiscard]] std::string client_host(int client) const {
    return "client" + std::to_string(client + 1);
  }

  /// Client facade bound to connection (client, conn).
  McamClient client(int client, int conn = 0);

  /// Create a client-side Stream User Agent listening on
  /// (client_host(client), port). Owned by the testbed.
  mtp::StreamUserAgent& make_sua(int client, std::uint16_t port);

  /// Advance the CM-stream world by `dt`: steps all senders and delivers
  /// packets in `tick` increments (SUAs are polled after each tick). Each
  /// step marks the server MCAs ready, since their position guards read
  /// the stream positions.
  void advance_streams(common::SimTime dt,
                       common::SimTime tick = common::SimTime::from_ms(5));

 private:
  void step_streams();

  Config cfg_;
  common::Rng rng_;
  estelle::Specification spec_;
  net::SimNetwork network_;
  std::unique_ptr<McamServerCore> core_;
  estelle::Module* server_module_ = nullptr;
  std::vector<estelle::Module*> client_modules_;
  std::vector<std::vector<Connection>> connections_;
  std::vector<std::unique_ptr<mtp::StreamUserAgent>> suas_;
  std::unique_ptr<estelle::Executor> executor_;
};

}  // namespace mcam::core
