// McamClient — the public client-side API of the library.
//
// Wraps the application interaction point of a client MCA with a synchronous
// request/response facade: each call builds the request PDU, injects it into
// the Estelle world, pumps the scheduler until the matching response PDU
// arrives on the application channel, and returns the decoded result. This
// plays the role of the paper's X-interface application module (§4.2) in a
// scriptable form (DESIGN.md §2).
#pragma once

#include <deque>
#include <optional>

#include "estelle/executor.hpp"
#include "estelle/module.hpp"
#include "mcam/pdus.hpp"

namespace mcam::core {

/// The application module: owns the channel endpoint towards the client
/// MCA. It has no transitions — the McamClient facade reads its inbox
/// directly, as the paper's X-window application displays arriving messages.
class AppModule : public estelle::Module {
 public:
  explicit AppModule(std::string name)
      : Module(std::move(name), estelle::Attribute::Process), mca_(ip("M")) {}
  estelle::InteractionPoint& mca() { return mca_; }

 private:
  estelle::InteractionPoint& mca_;
};

enum ClientError : int {
  kNoResponse = 7001,
  kUnexpectedResponse = 7002,
  kRequestFailed = 7003,  // response carried a non-success ResultCode
};

class McamClient {
 public:
  /// Works with any Executor backend; the facade only pumps rounds and
  /// reads the application channel.
  McamClient(AppModule& app, estelle::Executor& executor)
      : app_(app), executor_(executor) {}

  // ---- association ----
  common::Result<AssociateResp> associate(const std::string& user);
  common::Result<ReleaseResp> release();
  /// User abort: immediate teardown (no confirmation), A-ABORT to the peer.
  void abort();

  // ---- movie access ----
  common::Result<MovieCreateResp> create_movie(
      const std::string& title, const std::vector<Attr>& attrs = {});
  common::Result<MovieDeleteResp> delete_movie(std::uint64_t movie_id);
  common::Result<MovieSelectResp> select_movie(const std::string& title);

  /// X.500-style directory search over the protocol (MovieSearch PDUs).
  common::Result<MovieSearchResp> search_movies(
      const directory::Filter& filter, bool chained = true);

  // ---- movie management ----
  common::Result<AttrQueryResp> query_attributes(
      std::uint64_t movie_id, const std::vector<std::string>& names = {});
  common::Result<AttrModifyResp> modify_attributes(
      std::uint64_t movie_id, const std::vector<Attr>& attrs);

  // ---- movie control ----
  common::Result<PlayResp> play(std::uint64_t movie_id,
                                const std::string& dest_host,
                                std::uint16_t dest_port,
                                std::uint64_t start_frame = 0,
                                std::uint32_t qos_max_delay_ms = 0,
                                std::uint32_t qos_max_jitter_ms = 0);
  common::Result<StopResp> stop(std::uint64_t movie_id);
  common::Result<PauseResp> pause(std::uint64_t movie_id);
  common::Result<ResumeResp> resume(std::uint64_t movie_id);
  common::Result<RecordResp> record(const std::string& title,
                                    std::uint32_t equipment_id,
                                    const std::vector<Attr>& attrs = {});
  common::Result<RecordStopResp> record_stop(std::uint64_t movie_id);

  // ---- equipment ----
  common::Result<EquipListResp> list_equipment(int kind = -1);
  common::Result<EquipControlResp> control_equipment(
      std::uint32_t equipment_id, int command, const std::string& param = {},
      int value = 0);

  /// Raw exchange: send `request`, wait for a response of operation
  /// `expect` (ErrorResp is accepted and surfaced as an error).
  common::Result<Pdu> call(const Pdu& request, Op expect);

  /// Unsolicited PositionInd notifications received between calls.
  [[nodiscard]] const std::deque<PositionInd>& notifications() const noexcept {
    return notifications_;
  }
  void clear_notifications() noexcept { notifications_.clear(); }

  /// Pump the control world and collect any pending unsolicited
  /// notifications without issuing a request. Returns how many arrived.
  std::size_t poll_notifications();

 private:
  template <typename T>
  common::Result<T> typed_call(const Pdu& request, Op expect);

  AppModule& app_;
  estelle::Executor& executor_;
  std::deque<PositionInd> notifications_;
};

}  // namespace mcam::core
