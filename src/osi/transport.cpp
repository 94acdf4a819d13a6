#include "osi/transport.hpp"

namespace mcam::osi {

using common::Bytes;
using estelle::kAnyState;

namespace {
constexpr std::size_t kTpduHeader = 5;  // type:1 seq:4
}  // namespace

Bytes build_tpdu(Tpdu type, std::uint32_t seq, const Bytes& payload) {
  Bytes out;
  out.reserve(kTpduHeader + payload.size());
  out.push_back(static_cast<std::uint8_t>(type));
  for (int shift = 24; shift >= 0; shift -= 8)
    out.push_back(static_cast<std::uint8_t>(seq >> shift));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

common::Result<TpduView> parse_tpdu(const Bytes& raw) {
  if (raw.size() < kTpduHeader)
    return common::Error::make(
        kShortTpdu, "TPDU of " + std::to_string(raw.size()) +
                        " bytes is shorter than its 5-byte header");
  TpduView v;
  v.type = static_cast<Tpdu>(raw[0]);
  v.seq = (static_cast<std::uint32_t>(raw[1]) << 24) |
          (static_cast<std::uint32_t>(raw[2]) << 16) |
          (static_cast<std::uint32_t>(raw[3]) << 8) | raw[4];
  v.payload.assign(raw.begin() + kTpduHeader, raw.end());
  return v;
}

TransportModule::TransportModule(std::string name)
    : TransportModule(std::move(name), Config{}) {}

TransportModule::TransportModule(std::string name, Config cfg)
    : Module(std::move(name), estelle::Attribute::Process),
      upper_(ip("U")),
      net_(ip("N")),
      cfg_(cfg) {
  define_transitions();
}

void TransportModule::send_pdu(Tpdu type, std::uint32_t seq,
                               const Bytes& payload) {
  net().output(Interaction(static_cast<int>(type),
                           build_tpdu(type, seq, payload)));
}

void TransportModule::pump_window() {
  while (!pending_.empty() &&
         next_seq_ - base_ < static_cast<std::uint32_t>(cfg_.window)) {
    Bytes payload = std::move(pending_.front());
    pending_.pop_front();
    send_pdu(Tpdu::DT, next_seq_, payload);
    ++data_sent_;
    unacked_.push_back(std::move(payload));
    ++next_seq_;
  }
}

void TransportModule::on_data(const Interaction& msg) {
  auto parsed = parse_tpdu(msg.payload);
  if (!parsed.ok()) return;  // malformed: dropped, like any lost DT
  TpduView& v = parsed.value();
  // Out of order under go-back-N: dropped; either way, re-ack.
  if (v.seq == expected_) {
    ++expected_;
    upper().output(Interaction(kTDatInd, std::move(v.payload)));
  }
  send_pdu(Tpdu::AK, expected_, {});
}

void TransportModule::on_ack(std::uint32_t next_expected) {
  while (base_ < next_expected && !unacked_.empty()) {
    unacked_.pop_front();
    ++base_;
  }
  retransmit_rounds_ = 0;
  pump_window();
}

void TransportModule::retransmit_all() {
  ++retransmit_rounds_;
  std::uint32_t seq = base_;
  for (const Bytes& payload : unacked_) {
    send_pdu(Tpdu::DT, seq, payload);
    ++retransmissions_;
    ++seq;
  }
}

void TransportModule::define_transitions() {
  auto& u = upper();
  auto& n = net();
  const auto cost = cfg_.per_pdu_cost;

  // --- connection establishment (transport auto-accepts CR) ---
  trans("t-con-req")
      .from(kClosed)
      .when(u, kTConReq)
      .to(kCrSent)
      .cost(cost)
      .action([this](Module&, const Interaction*) {
        send_pdu(Tpdu::CR, 0, {});
      });
  trans("t-cr-recv")
      .from(kClosed)
      .when(n, static_cast<int>(Tpdu::CR))
      .to(kOpen)
      .cost(cost)
      .action([this](Module&, const Interaction*) {
        send_pdu(Tpdu::CC, 0, {});
      });
  trans("t-cc-recv")
      .from(kCrSent)
      .when(n, static_cast<int>(Tpdu::CC))
      .to(kOpen)
      .cost(cost)
      .action([this](Module&, const Interaction*) {
        upper().output(Interaction(kTConConf));
        pump_window();  // release data buffered while connecting
      });

  trans("t-cr-retransmit")
      .from(kCrSent)
      .to(kCrSent)
      .delay(cfg_.rto)
      .cost(cost)
      .action([this](Module&, const Interaction*) {
        send_pdu(Tpdu::CR, 0, {});
        ++retransmissions_;
      });

  // Data requested while the connection is still pending: buffer it; the
  // window pump sends it once the CC arrives. (The session layer normally
  // waits for T-CONNECT confirm, but the service tolerates eager users.)
  trans("t-dat-early")
      .from(kCrSent)
      .when(u, kTDatReq)
      .to(kCrSent)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        pending_.push_back(msg->payload);
      });

  // --- data transfer ---
  trans("t-dat-req")
      .from(kOpen)
      .when(u, kTDatReq)
      .to(kOpen)  // re-enter: re-arms the retransmission delay clock
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        pending_.push_back(msg->payload);
        pump_window();
      });
  trans("t-dt-recv")
      .from(kOpen)
      .when(n, static_cast<int>(Tpdu::DT))
      .to(kOpen)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) { on_data(*msg); });
  trans("t-ak-recv")
      .from(kOpen)
      .when(n, static_cast<int>(Tpdu::AK))
      .to(kOpen)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        auto ak = parse_tpdu(msg->payload);
        if (ak.ok()) on_ack(ak.value().seq);  // a malformed AK is dropped
      });

  // --- retransmission timer (go-back-N): fires rto after (re)entering kOpen
  // while data is outstanding; to(kOpen) re-arms the delay clock. The guard
  // reads only unacked_ and retransmit_rounds_, which only this module's
  // own actions write. ---
  trans("t-retransmit")
      .from(kOpen)
      .to(kOpen)
      .delay(cfg_.rto)
      .cost(cost)
      .provided(
          [this](Module&, const Interaction*) {
            return !unacked_.empty() &&
                   retransmit_rounds_ < cfg_.max_retransmits;
          },
          estelle::GuardReads::Hooked)
      .action([this](Module&, const Interaction*) { retransmit_all(); });

  // --- disconnect ---
  trans("t-dis-req")
      .from(kOpen)
      .when(u, kTDisReq)
      .to(kClosed)
      .cost(cost)
      .action([this](Module&, const Interaction*) {
        send_pdu(Tpdu::DR, 0, {});
      });
  trans("t-dr-recv")
      .from(kAnyState)
      .when(n, static_cast<int>(Tpdu::DR))
      .to(kClosed)
      .cost(cost)
      .action([this](Module&, const Interaction*) {
        send_pdu(Tpdu::DC, 0, {});
        upper().output(Interaction(kTDisInd));
      });
  trans("t-dc-recv")
      .from(kClosed)
      .when(n, static_cast<int>(Tpdu::DC))
      .cost(cost)
      .action([](Module&, const Interaction*) {});

  // Duplicate CR while open (our CC was lost): re-confirm.
  trans("t-cr-dup")
      .from(kOpen)
      .when(n, static_cast<int>(Tpdu::CR))
      .to(kOpen)
      .cost(cost)
      .action([this](Module&, const Interaction*) {
        send_pdu(Tpdu::CC, 0, {});
      });

  // Catch-alls: Estelle offers only the head of an IP queue, so a PDU with
  // no matching transition would block the queue forever. Discard at the
  // lowest priority instead (e.g. stale AKs after close).
  trans("t-discard-net")
      .when(n)
      .priority(1000)
      .cost(cost)
      .action([](Module&, const Interaction*) {});
  trans("t-discard-upper")
      .when(u)
      .priority(1000)
      .cost(cost)
      .action([](Module&, const Interaction*) {});
}

}  // namespace mcam::osi
