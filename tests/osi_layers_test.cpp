// Per-layer isolation tests for transport, session and presentation: each
// layer driven directly by user modules with a raw channel below it (no full
// stack), so state transitions and PDU emissions can be asserted one hop at a
// time.
#include <gtest/gtest.h>

#include "estelle/executor.hpp"
#include "osi/presentation.hpp"
#include "osi/session.hpp"
#include "osi/transport.hpp"

namespace mcam::osi {
namespace {

using common::Bytes;
using estelle::Attribute;
using estelle::Interaction;
using estelle::InteractionPoint;
using estelle::Module;
using estelle::make_executor;
using estelle::Specification;

/// One session entity with a user module above and a "wire probe" module
/// below (stands in for the transport service; the test plays transport).
struct SessionRig {
  Specification spec{"sess"};
  SessionModule* session;
  Module* user;
  Module* wire;

  SessionRig() {
    auto& sys =
        spec.root().create_child<Module>("sys", Attribute::SystemProcess);
    session = &sys.create_child<SessionModule>("session");
    user = &sys.create_child<Module>("user", Attribute::Process);
    wire = &sys.create_child<Module>("wire", Attribute::Process);
    estelle::connect(user->ip("svc"), session->upper());
    estelle::connect(wire->ip("tp"), session->lower());
    spec.initialize();
  }

  InteractionPoint& up() { return user->ip("svc"); }
  InteractionPoint& down() { return wire->ip("tp"); }
};

TEST(SessionLayer, InitiatorEmitsTConThenCn) {
  SessionRig rig;
  auto sched = make_executor(rig.spec);
  rig.up().output(Interaction(kSConReq, common::to_bytes("cp-bytes")));
  sched->run();

  // First the transport connect request...
  ASSERT_TRUE(rig.down().has_input());
  EXPECT_EQ(rig.down().pop().kind, kTConReq);
  EXPECT_EQ(rig.session->state(), SessionModule::kWaitTCon);

  // ...then, after T-CONNECT confirm, the CN SPDU carrying the user data.
  rig.down().output(Interaction(kTConConf));
  sched->run();
  ASSERT_TRUE(rig.down().has_input());
  Interaction cn = rig.down().pop();
  EXPECT_EQ(cn.kind, kTDatReq);
  const SpduView spdu = parse_spdu(cn.payload).value();
  EXPECT_EQ(spdu.type, Spdu::CN);
  EXPECT_EQ(spdu.user_data, common::to_bytes("cp-bytes"));
  EXPECT_EQ(rig.session->state(), SessionModule::kWaitAC);
}

TEST(SessionLayer, ResponderIndicatesAndAccepts) {
  SessionRig rig;
  auto sched = make_executor(rig.spec);
  rig.down().output(
      Interaction(kTDatInd, build_spdu(Spdu::CN, common::to_bytes("x"))));
  sched->run();
  ASSERT_TRUE(rig.up().has_input());
  Interaction ind = rig.up().pop();
  EXPECT_EQ(ind.kind, kSConInd);
  EXPECT_EQ(ind.payload, common::to_bytes("x"));
  EXPECT_EQ(rig.session->state(), SessionModule::kConnInd);

  rig.up().output(Interaction(kSConResp, 1, common::to_bytes("y")));
  sched->run();
  ASSERT_TRUE(rig.down().has_input());
  const SpduView ac = parse_spdu(rig.down().pop().payload).value();
  EXPECT_EQ(ac.type, Spdu::AC);
  EXPECT_EQ(ac.user_data, common::to_bytes("y"));
  EXPECT_EQ(rig.session->state(), SessionModule::kOpen);
}

TEST(SessionLayer, ResponderRefusesWithRf) {
  SessionRig rig;
  auto sched = make_executor(rig.spec);
  rig.down().output(Interaction(kTDatInd, build_spdu(Spdu::CN, {})));
  sched->run();
  (void)rig.up().pop();
  rig.up().output(Interaction(kSConResp, 0, common::to_bytes("no")));
  sched->run();
  ASSERT_TRUE(rig.down().has_input());
  EXPECT_EQ(parse_spdu(rig.down().pop().payload).value().type, Spdu::RF);
  EXPECT_EQ(rig.session->state(), SessionModule::kIdle);
}

TEST(SessionLayer, AbortFromEitherSide) {
  SessionRig rig;
  auto sched = make_executor(rig.spec);
  // Bring it to open via the responder path.
  rig.down().output(Interaction(kTDatInd, build_spdu(Spdu::CN, {})));
  sched->run();
  (void)rig.up().pop();
  rig.up().output(Interaction(kSConResp, 1));
  sched->run();
  (void)rig.down().pop();  // AC
  ASSERT_EQ(rig.session->state(), SessionModule::kOpen);

  // Peer abort (AB SPDU) surfaces as S-ABORT indication.
  rig.down().output(Interaction(kTDatInd, build_spdu(Spdu::AB, {})));
  sched->run();
  ASSERT_TRUE(rig.up().has_input());
  EXPECT_EQ(rig.up().pop().kind, kSAbortInd);
  EXPECT_EQ(rig.session->state(), SessionModule::kIdle);
}

TEST(SessionLayer, TransportFailureAbortsOpenSession) {
  SessionRig rig;
  auto sched = make_executor(rig.spec);
  rig.down().output(Interaction(kTDatInd, build_spdu(Spdu::CN, {})));
  sched->run();
  (void)rig.up().pop();
  rig.up().output(Interaction(kSConResp, 1));
  sched->run();
  (void)rig.down().pop();

  rig.down().output(Interaction(kTDisInd));
  sched->run();
  ASSERT_TRUE(rig.up().has_input());
  EXPECT_EQ(rig.up().pop().kind, kSAbortInd);
  EXPECT_EQ(rig.session->state(), SessionModule::kIdle);
}

TEST(SessionLayer, MalformedSpduIsDroppedNotThrown) {
  SessionRig rig;
  auto sched = make_executor(rig.spec);
  rig.down().output(Interaction(kTDatInd, build_spdu(Spdu::CN, {})));
  sched->run();
  (void)rig.up().pop();
  rig.up().output(Interaction(kSConResp, 1));
  sched->run();
  (void)rig.down().pop();  // AC
  ASSERT_EQ(rig.session->state(), SessionModule::kOpen);

  // A DT SPDU whose length field claims 64 octets with 2 present, and a
  // bare SPDU identifier: both are discarded, and the session stays open.
  Bytes lying = {static_cast<std::uint8_t>(Spdu::DT), 0x00, 0x40, 'h', 'i'};
  rig.down().output(Interaction(kTDatInd, lying));
  rig.down().output(
      Interaction(kTDatInd, Bytes{static_cast<std::uint8_t>(Spdu::DT)}));
  EXPECT_NO_THROW(sched->run());
  EXPECT_FALSE(rig.up().has_input());
  EXPECT_EQ(rig.session->state(), SessionModule::kOpen);

  // The next well-formed DT is delivered as usual.
  rig.down().output(
      Interaction(kTDatInd, build_spdu(Spdu::DT, common::to_bytes("ok"))));
  sched->run();
  ASSERT_TRUE(rig.up().has_input());
  Interaction ind = rig.up().pop();
  EXPECT_EQ(ind.kind, kSDatInd);
  EXPECT_EQ(ind.payload, common::to_bytes("ok"));
}

// ---------------------------------------------------------------------------

/// Transport entity over a probe that plays the peer transport entity.
struct TransportRig {
  Specification spec{"tp"};
  TransportModule* tp;
  Module* user;
  Module* wire;

  TransportRig() {
    auto& sys =
        spec.root().create_child<Module>("sys", Attribute::SystemProcess);
    tp = &sys.create_child<TransportModule>("tp");
    user = &sys.create_child<Module>("user", Attribute::Process);
    wire = &sys.create_child<Module>("wire", Attribute::Process);
    estelle::connect(user->ip("svc"), tp->upper());
    estelle::connect(wire->ip("net"), tp->net());
    spec.initialize();
  }
  InteractionPoint& up() { return user->ip("svc"); }
  InteractionPoint& down() { return wire->ip("net"); }
};

TEST(TransportLayer, MalformedTpdusAreDroppedNotThrown) {
  TransportRig rig;
  auto sched = make_executor(rig.spec);
  rig.down().output(Interaction(static_cast<int>(Tpdu::CR),
                                build_tpdu(Tpdu::CR, 0, {})));
  sched->run();
  ASSERT_EQ(rig.tp->state(), TransportModule::kOpen);
  ASSERT_TRUE(rig.down().has_input());
  EXPECT_EQ(rig.down().pop().kind, static_cast<int>(Tpdu::CC));

  // A 2-octet DT and a 3-octet AK: shorter than the 5-octet header.
  rig.down().output(Interaction(static_cast<int>(Tpdu::DT),
                                Bytes{static_cast<std::uint8_t>(Tpdu::DT), 0}));
  rig.down().output(Interaction(
      static_cast<int>(Tpdu::AK),
      Bytes{static_cast<std::uint8_t>(Tpdu::AK), 0, 0}));
  EXPECT_NO_THROW(sched->run());
  EXPECT_FALSE(rig.up().has_input());
  EXPECT_FALSE(rig.down().has_input());  // nothing acknowledged
  EXPECT_EQ(rig.tp->state(), TransportModule::kOpen);

  // The in-order DT that follows is delivered and acknowledged.
  rig.down().output(Interaction(static_cast<int>(Tpdu::DT),
                                build_tpdu(Tpdu::DT, 0, common::to_bytes("x"))));
  sched->run();
  ASSERT_TRUE(rig.up().has_input());
  EXPECT_EQ(rig.up().pop().payload, common::to_bytes("x"));
  ASSERT_TRUE(rig.down().has_input());
  EXPECT_EQ(rig.down().pop().kind, static_cast<int>(Tpdu::AK));
}

// ---------------------------------------------------------------------------

/// Presentation entity over a probe that plays the session service.
struct PresRig {
  Specification spec{"pres"};
  PresentationModule* pres;
  Module* user;
  Module* wire;

  PresRig() {
    auto& sys =
        spec.root().create_child<Module>("sys", Attribute::SystemProcess);
    pres = &sys.create_child<PresentationModule>("pres");
    user = &sys.create_child<Module>("user", Attribute::Process);
    wire = &sys.create_child<Module>("wire", Attribute::Process);
    estelle::connect(user->ip("svc"), pres->upper());
    estelle::connect(wire->ip("ss"), pres->lower());
    spec.initialize();
  }
  InteractionPoint& up() { return user->ip("svc"); }
  InteractionPoint& down() { return wire->ip("ss"); }
};

TEST(PresentationLayer, ConnectCarriesCpWithContextList) {
  PresRig rig;
  auto sched = make_executor(rig.spec);
  rig.up().output(Interaction(kPConReq, common::to_bytes("user-data")));
  sched->run();
  ASSERT_TRUE(rig.down().has_input());
  Interaction out = rig.down().pop();
  EXPECT_EQ(out.kind, kSConReq);
  auto cp = parse_ppdu(out.payload);
  ASSERT_TRUE(cp.ok());
  EXPECT_EQ(cp.value().type, PpduView::Type::CP);
  EXPECT_EQ(cp.value().context_id, 1);
  EXPECT_EQ(cp.value().user_data, common::to_bytes("user-data"));
  EXPECT_EQ(rig.pres->state(), PresentationModule::kWaitConf);
  EXPECT_TRUE(rig.pres->transfer_syntax().empty());  // not negotiated yet
}

TEST(PresentationLayer, CpaCompletesNegotiation) {
  PresRig rig;
  auto sched = make_executor(rig.spec);
  rig.up().output(Interaction(kPConReq, Bytes{}));
  sched->run();
  (void)rig.down().pop();
  rig.down().output(
      Interaction(kSConConf, build_cpa(1, common::to_bytes("welcome"))));
  sched->run();
  ASSERT_TRUE(rig.up().has_input());
  Interaction conf = rig.up().pop();
  EXPECT_EQ(conf.kind, kPConConf);
  EXPECT_EQ(conf.payload, common::to_bytes("welcome"));
  EXPECT_EQ(rig.pres->transfer_syntax(), oids::kBerTransferSyntax);
  EXPECT_EQ(rig.pres->state(), PresentationModule::kOpen);
}

TEST(PresentationLayer, CprMeansRefusal) {
  PresRig rig;
  auto sched = make_executor(rig.spec);
  rig.up().output(Interaction(kPConReq, Bytes{}));
  sched->run();
  (void)rig.down().pop();
  rig.down().output(
      Interaction(kSConConf, build_cpr(2, common::to_bytes("denied"))));
  sched->run();
  ASSERT_TRUE(rig.up().has_input());
  Interaction refused = rig.up().pop();
  EXPECT_EQ(refused.kind, kPConRefuse);
  EXPECT_EQ(refused.payload, common::to_bytes("denied"));
  EXPECT_EQ(rig.pres->state(), PresentationModule::kIdle);
}

TEST(PresentationLayer, DataWrappedInTd) {
  PresRig rig;
  auto sched = make_executor(rig.spec);
  // Open via responder path.
  rig.down().output(Interaction(kSConInd, build_cp(1, {})));
  sched->run();
  (void)rig.up().pop();
  rig.up().output(Interaction(kPConResp, 1));
  sched->run();
  (void)rig.down().pop();  // CPA
  ASSERT_EQ(rig.pres->state(), PresentationModule::kOpen);

  rig.up().output(Interaction(kPDatReq, common::to_bytes("mcam-pdu")));
  sched->run();
  ASSERT_TRUE(rig.down().has_input());
  auto td = parse_ppdu(rig.down().pop().payload);
  ASSERT_TRUE(td.ok());
  EXPECT_EQ(td.value().type, PpduView::Type::TD);
  EXPECT_EQ(td.value().user_data, common::to_bytes("mcam-pdu"));

  // Non-TD garbage on the session service is ignored, not crashed on.
  rig.down().output(Interaction(kSDatInd, common::to_bytes("junk")));
  sched->run();
  EXPECT_FALSE(rig.up().has_input());
}

TEST(PresentationLayer, UserAbortCascadesDown) {
  PresRig rig;
  auto sched = make_executor(rig.spec);
  rig.down().output(Interaction(kSConInd, build_cp(1, {})));
  sched->run();
  (void)rig.up().pop();
  rig.up().output(Interaction(kPConResp, 1));
  sched->run();
  (void)rig.down().pop();

  rig.up().output(Interaction(kPAbortReq));
  sched->run();
  ASSERT_TRUE(rig.down().has_input());
  EXPECT_EQ(rig.down().pop().kind, kSAbortReq);
  EXPECT_EQ(rig.pres->state(), PresentationModule::kIdle);
}

}  // namespace
}  // namespace mcam::osi
