// MCAM server core: the service logic behind the server-side MCA.
//
// One McamServerCore per server host ("the KSR1" in Fig. 2). It owns the
// movie directory DSA, the Stream Provider Agent, the Equipment Control
// Agent and the per-association session state, and maps every MCAM request
// PDU to a response PDU. The Estelle server MCA modules (mca.hpp) are thin:
// they decode/encode and delegate here — mirroring the paper's split between
// the Estelle-specified MCA and the externally-implemented DUA/SPA/ECA
// bodies (Fig. 3).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "directory/directory.hpp"
#include "equipment/equipment.hpp"
#include "mcam/pdus.hpp"
#include "mtp/sps.hpp"

namespace mcam::core {

class McamServerCore {
 public:
  /// `net` provides the CM-stream substrate and the clock used for
  /// recording durations; `host` is this server's network name.
  McamServerCore(net::SimNetwork& net, std::string host);

  // ---- wiring ----
  [[nodiscard]] directory::Dsa& directory() noexcept { return dsa_; }
  [[nodiscard]] equipment::EquipmentControlAgent& eca() noexcept {
    return eca_;
  }
  [[nodiscard]] mtp::StreamProviderAgent& spa() noexcept { return spa_; }
  [[nodiscard]] const std::string& host() const noexcept { return host_; }

  // ---- association lifecycle (driven by the server MCA) ----
  /// Returns the new session id; rejects empty user names.
  common::Result<std::uint64_t> associate(const AssociateReq& req);
  void release(std::uint64_t session);
  [[nodiscard]] std::size_t active_sessions() const noexcept {
    return sessions_.size();
  }

  /// Handle one request PDU in the context of `session`; always produces a
  /// response PDU (ErrorResp for malformed/unexpected requests).
  Pdu handle(std::uint64_t session, const Pdu& request);

  /// Position notification support: true when some stream of `session` has
  /// advanced at least kPositionReportInterval frames since its last
  /// report; drain returns the pending PositionInd PDUs and resets marks.
  /// The server MCA's `m-position` guard reads this through the ready hooks
  /// only, so whoever changes what it reads must wake the server MCAs.
  [[nodiscard]] bool has_position_updates(std::uint64_t session) const;
  std::vector<PositionInd> drain_position_updates(std::uint64_t session);

  /// Advance all outgoing streams to the network's current time. Positions
  /// move, so the caller marks the server MCAs ready (Testbed does).
  void step_streams() { spa_.step(net_.now()); }

 private:
  static constexpr std::uint64_t kPositionReportInterval = 25;  // 1/s @25fps

  struct Session {
    std::string user;
    std::vector<std::uint64_t> selected;         // movie ids, sorted
    std::map<std::uint64_t, std::uint16_t> playing;  // movie → stream
    std::map<std::uint64_t, common::SimTime> recording;  // movie → start
    std::map<std::uint64_t, std::uint64_t> reported;  // movie → last frame
  };

  static void add_selection(Session& s, std::uint64_t movie);
  static void drop_selection(Session& s, std::uint64_t movie);
  Session* find(std::uint64_t session);
  Pdu handle_in_session(Session& s, const Pdu& request);
  [[nodiscard]] mtp::FrameSource source_for(
      const directory::MovieEntry& movie) const;

  net::SimNetwork& net_;
  std::string host_;
  directory::Dsa dsa_;
  equipment::EquipmentControlAgent eca_;
  mtp::StreamProviderAgent spa_;
  std::uint64_t next_session_ = 1;
  std::map<std::uint64_t, Session> sessions_;
};

}  // namespace mcam::core
