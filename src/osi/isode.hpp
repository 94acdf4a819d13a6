// Hand-coded OSI upper-layer stack (the "ISODE" comparator).
//
// The paper's second control stack "places the MCAM module directly on top
// of the ISODE presentation interface" so that generated and hand-written
// code can be compared (§3). ISODE v8.0 itself is unavailable (DESIGN.md
// §2); this is a compact hand-written implementation of the same
// presentation-service interface: plain function calls, no Estelle modules,
// no scheduler. It performs the *same* PPDU/SPDU encode/decode work as the
// generated stack, so benchmark differences isolate the runtime overhead —
// the quantity the paper's comparison targets.
//
// IsodeInterfaceModule is the §4.3 "external body" Estelle module: it maps
// interactions arriving on its Estelle interaction point onto ISODE library
// calls and polls the library for incoming events, exactly mirroring the
// while-loop pseudo-code in the paper.
#pragma once

#include <deque>
#include <optional>

#include "estelle/module.hpp"
#include "osi/presentation.hpp"
#include "osi/service.hpp"
#include "osi/session.hpp"

namespace mcam::osi::isode {

/// Presentation-service events delivered by the hand-coded stack.
enum class Event {
  ConnectInd,
  ConnectConf,
  ConnectRefused,
  DataInd,
  ReleaseInd,
  ReleaseConf,
  AbortInd,
};

struct Indication {
  Event event;
  common::Bytes user_data;
};

/// One endpoint of the hand-coded stack. Create two and link() them; calls
/// on one side synchronously produce indications queued on the other
/// (shared-memory transport, like ISODE's TP0 loopback).
class IsodeEntity {
 public:
  enum class State { kIdle, kWaitConf, kConnInd, kOpen, kRelSent, kRelInd };

  // ---- service calls (ISODE PConnectRequest() etc.) ----
  void p_connect_request(common::Bytes user_data);
  void p_connect_response(bool accept, common::Bytes user_data);
  void p_data_request(common::Bytes user_data);
  void p_release_request(common::Bytes user_data = {});
  void p_release_response(common::Bytes user_data = {});
  void p_abort_request();

  /// Poll for the next queued indication (the §4.3 "ISODE.message" branch).
  std::optional<Indication> next_indication();
  [[nodiscard]] bool has_indication() const noexcept {
    return !inbox_.empty();
  }
  [[nodiscard]] State state() const noexcept { return state_; }

 private:
  friend void link(IsodeEntity& a, IsodeEntity& b);

  void receive_tsdu(const common::Bytes& tsdu);
  void indicate(Event e, common::Bytes user_data);
  void send_spdu(Spdu type, const common::Bytes& ppdu);

  IsodeEntity* peer_ = nullptr;
  State state_ = State::kIdle;
  std::deque<Indication> inbox_;
};

/// Join two entities back-to-back.
void link(IsodeEntity& a, IsodeEntity& b);

/// The external-body Estelle module of §4.3: presents the same
/// presentation-service IP as PresentationModule::upper(), implemented by
/// delegating to an IsodeEntity instead of generated submodules.
class IsodeInterfaceModule : public estelle::Module {
 public:
  explicit IsodeInterfaceModule(std::string name);

  estelle::InteractionPoint& upper() { return upper_; }
  [[nodiscard]] IsodeEntity& entity() noexcept { return entity_; }

 private:
  void define_transitions();

  estelle::InteractionPoint& upper_;
  IsodeEntity entity_;
};

}  // namespace mcam::osi::isode
