#include "osi/isode.hpp"

#include <stdexcept>

namespace mcam::osi::isode {

using common::Bytes;
using estelle::Interaction;

void link(IsodeEntity& a, IsodeEntity& b) {
  if (a.peer_ != nullptr || b.peer_ != nullptr)
    throw std::logic_error("IsodeEntity already linked");
  a.peer_ = &b;
  b.peer_ = &a;
}

void IsodeEntity::indicate(Event e, Bytes user_data) {
  inbox_.push_back(Indication{e, std::move(user_data)});
}

void IsodeEntity::send_spdu(Spdu type, const Bytes& ppdu) {
  if (peer_ == nullptr) throw std::logic_error("IsodeEntity not linked");
  peer_->receive_tsdu(build_spdu(type, ppdu));
}

void IsodeEntity::p_connect_request(Bytes user_data) {
  if (state_ != State::kIdle)
    throw std::logic_error("p_connect_request: not idle");
  state_ = State::kWaitConf;
  send_spdu(Spdu::CN, build_cp(/*context_id=*/1, user_data));
}

void IsodeEntity::p_connect_response(bool accept, Bytes user_data) {
  if (state_ != State::kConnInd)
    throw std::logic_error("p_connect_response: no connection indication");
  if (accept) {
    state_ = State::kOpen;
    send_spdu(Spdu::AC, build_cpa(1, user_data));
  } else {
    state_ = State::kIdle;
    send_spdu(Spdu::RF, build_cpr(/*reason=*/2, user_data));
  }
}

void IsodeEntity::p_data_request(Bytes user_data) {
  if (state_ != State::kOpen) throw std::logic_error("p_data_request: closed");
  send_spdu(Spdu::DT, build_td(1, user_data));
}

void IsodeEntity::p_release_request(Bytes user_data) {
  if (state_ != State::kOpen)
    throw std::logic_error("p_release_request: closed");
  state_ = State::kRelSent;
  send_spdu(Spdu::FN, user_data);
}

void IsodeEntity::p_release_response(Bytes user_data) {
  if (state_ != State::kRelInd)
    throw std::logic_error("p_release_response: no release indication");
  state_ = State::kIdle;
  send_spdu(Spdu::DN, user_data);
}

void IsodeEntity::p_abort_request() {
  if (peer_ != nullptr) send_spdu(Spdu::AB, {});
  state_ = State::kIdle;
}

std::optional<Indication> IsodeEntity::next_indication() {
  if (inbox_.empty()) return std::nullopt;
  Indication ind = std::move(inbox_.front());
  inbox_.pop_front();
  return ind;
}

void IsodeEntity::receive_tsdu(const Bytes& tsdu) {
  auto parsed = parse_spdu(tsdu);
  if (!parsed.ok()) return;  // malformed: dropped
  SpduView& spdu = parsed.value();
  switch (spdu.type) {
    case Spdu::CN: {
      auto ppdu = parse_ppdu(spdu.user_data);
      state_ = State::kConnInd;
      indicate(Event::ConnectInd,
               ppdu.ok() ? std::move(ppdu.value().user_data) : Bytes{});
      break;
    }
    case Spdu::AC: {
      auto ppdu = parse_ppdu(spdu.user_data);
      state_ = State::kOpen;
      indicate(Event::ConnectConf,
               ppdu.ok() ? std::move(ppdu.value().user_data) : Bytes{});
      break;
    }
    case Spdu::RF: {
      auto ppdu = parse_ppdu(spdu.user_data);
      state_ = State::kIdle;
      indicate(Event::ConnectRefused,
               ppdu.ok() ? std::move(ppdu.value().user_data) : Bytes{});
      break;
    }
    case Spdu::DT: {
      auto ppdu = parse_ppdu(spdu.user_data);
      if (ppdu.ok() && ppdu.value().type == PpduView::Type::TD)
        indicate(Event::DataInd, std::move(ppdu.value().user_data));
      break;
    }
    case Spdu::FN:
      state_ = State::kRelInd;
      indicate(Event::ReleaseInd, spdu.user_data);
      break;
    case Spdu::DN:
      state_ = State::kIdle;
      indicate(Event::ReleaseConf, spdu.user_data);
      break;
    case Spdu::AB:
      state_ = State::kIdle;
      indicate(Event::AbortInd, {});
      break;
  }
}

// ---------------------------------------------------------------------------
// IsodeInterfaceModule — the §4.3 execution loop as Estelle transitions:
//   if (IP.message)    → map onto ISODE call        (when-clause transitions)
//   if (ISODE.message) → output onto the IP         (polling transition)

IsodeInterfaceModule::IsodeInterfaceModule(std::string name)
    : Module(std::move(name), estelle::Attribute::Process), upper_(ip("U")) {
  define_transitions();
}

void IsodeInterfaceModule::define_transitions() {
  auto& u = upper();
  const auto cost = common::SimTime::from_us(20);

  trans("i-con-req")
      .when(u, kPConReq)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        entity_.p_connect_request(msg->payload);
      });
  trans("i-con-resp")
      .when(u, kPConResp)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        entity_.p_connect_response(msg->value != 0, msg->payload);
      });
  trans("i-dat-req")
      .when(u, kPDatReq)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        entity_.p_data_request(msg->payload);
      });
  trans("i-rel-req")
      .when(u, kPRelReq)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        entity_.p_release_request(msg->payload);
      });
  trans("i-rel-resp")
      .when(u, kPRelResp)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        entity_.p_release_response(msg->payload);
      });

  trans("i-abort-req")
      .when(u, kPAbortReq)
      .priority(1)
      .cost(cost)
      .action([this](Module&, const Interaction*) {
        entity_.p_abort_request();
      });

  // Poll the library for queued indications ("if ISODE.message ...").
  trans("i-poll")
      .priority(10)
      .cost(cost)
      .provided([this](Module&, const Interaction*) {
        return entity_.has_indication();
      })
      .action([this](Module&, const Interaction*) {
        auto ind = entity_.next_indication();
        if (!ind) return;
        int kind = 0;
        switch (ind->event) {
          case Event::ConnectInd:
            kind = kPConInd;
            break;
          case Event::ConnectConf:
            kind = kPConConf;
            break;
          case Event::ConnectRefused:
            kind = kPConRefuse;
            break;
          case Event::DataInd:
            kind = kPDatInd;
            break;
          case Event::ReleaseInd:
            kind = kPRelInd;
            break;
          case Event::ReleaseConf:
            kind = kPRelConf;
            break;
          case Event::AbortInd:
            kind = kPAbortInd;
            break;
        }
        upper().output(Interaction(kind, std::move(ind->user_data)));
      });
}

}  // namespace mcam::osi::isode
