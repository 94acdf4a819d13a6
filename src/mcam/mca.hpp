// Movie Control Agents — the MCAM protocol machines (Fig. 3).
//
// The MCA is "the only module completely written in Estelle" in the paper's
// MCAM entity; DUA/SPA/ECA bodies are external (here: McamServerCore and the
// src/directory, src/mtp, src/equipment libraries). Two roles:
//
//   McaClientModule — sits between the application interaction point and a
//   presentation-service IP (either the generated PresentationModule or the
//   hand-coded IsodeInterfaceModule — byte-compatible by construction).
//   Association piggybacks the AssociateReq/Resp PDUs on P-CONNECT user
//   data; requests/responses ride P-DATA; release rides P-RELEASE.
//
//   McaServerModule — one per server entity (per connection, Fig. 2);
//   decodes request PDUs and delegates to the shared McamServerCore.
//
// Application-side channel contract: interactions carry kind =
// static_cast<int>(Op) and payload = the encoded PDU.
#pragma once

#include "estelle/module.hpp"
#include "mcam/pdus.hpp"
#include "mcam/server_core.hpp"
#include "osi/service.hpp"

namespace mcam::core {

/// Application-channel interaction kind for a user abort (no PDU — aborts
/// are a local service request, mirrored to the peer by the lower layers).
inline constexpr int kAppAbort = -2;

class McaClientModule : public estelle::Module {
 public:
  enum State { kClosed = 0, kConnecting, kOpen, kReleasing };

  explicit McaClientModule(std::string name);

  /// Application interface (connect to the application module).
  estelle::InteractionPoint& app() { return app_; }
  /// Presentation-service interface (connect to the control stack's
  /// service IP).
  estelle::InteractionPoint& service() { return service_; }

 private:
  void define_transitions();
  estelle::InteractionPoint& app_;
  estelle::InteractionPoint& service_;
};

class McaServerModule : public estelle::Module {
 public:
  enum State { kIdle = 0, kOpen };

  McaServerModule(std::string name, McamServerCore& core);

  estelle::InteractionPoint& service() { return service_; }

  [[nodiscard]] std::uint64_t session_id() const noexcept { return session_; }

 private:
  void define_transitions();

  estelle::InteractionPoint& service_;
  McamServerCore& core_;
  std::uint64_t session_ = 0;
};

}  // namespace mcam::core
