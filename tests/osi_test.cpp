// OSI stack tests: the TPDU/SPDU/PPDU codecs (copying and in place),
// transport ARQ (incl. loss recovery), session kernel, presentation kernel
// with BER PPDUs, full three-layer stacks back to back, and the hand-coded
// ISODE comparator.
#include <gtest/gtest.h>

#include "asn1/direct.hpp"
#include "estelle/executor.hpp"
#include "osi/isode.hpp"
#include "osi/presentation.hpp"
#include "osi/session.hpp"
#include "osi/stack.hpp"
#include "osi/transport.hpp"

namespace mcam::osi {
namespace {

using common::Bytes;
using common::SimTime;
using estelle::Attribute;
using estelle::Interaction;
using estelle::InteractionPoint;
using estelle::Module;
using estelle::make_executor;
using estelle::Specification;

// ---------------------------------------------------------------------------
// TPDU / SPDU / PPDU codecs

TEST(TpduCodec, RoundTrip) {
  const Bytes payload = common::to_bytes("data");
  const Bytes wire = build_tpdu(Tpdu::DT, 42, payload);
  const TpduView v = parse_tpdu(wire).value();
  EXPECT_EQ(v.type, Tpdu::DT);
  EXPECT_EQ(v.seq, 42u);
  EXPECT_EQ(v.payload, payload);
}

TEST(SpduCodec, RoundTrip) {
  const Bytes user = common::to_bytes("ppdu-bytes");
  const SpduView v = parse_spdu(build_spdu(Spdu::CN, user)).value();
  EXPECT_EQ(v.type, Spdu::CN);
  EXPECT_EQ(v.user_data, user);
}

TEST(SpduCodec, LongUserDataTakesTheLongFormAndRoundTrips) {
  // Below 0xFFFF octets of user data the header stays si + 2 length octets;
  // from 0xFFFF on, the length octets read FF FF and a 4-octet length
  // follows.
  for (const std::size_t n : {std::size_t{65534}, std::size_t{65535},
                              std::size_t{65536}, std::size_t{200000}}) {
    SCOPED_TRACE(n);
    Bytes user(n);
    for (std::size_t i = 0; i < n; ++i)
      user[i] = static_cast<std::uint8_t>(i * 31 + 7);
    const Bytes wire = build_spdu(Spdu::DT, user);
    const bool long_form = n >= 0xFFFF;
    ASSERT_EQ(wire.size(), n + (long_form ? 7u : 3u));
    EXPECT_EQ(wire[0], static_cast<std::uint8_t>(Spdu::DT));
    if (long_form) {
      EXPECT_EQ(wire[1], 0xFF);
      EXPECT_EQ(wire[2], 0xFF);
      EXPECT_EQ(std::size_t{wire[3]} << 24 | std::size_t{wire[4]} << 16 |
                    std::size_t{wire[5]} << 8 | wire[6],
                n);
    } else {
      EXPECT_EQ(std::size_t{wire[1]} << 8 | wire[2], n);
    }
    const auto v = parse_spdu(wire);
    ASSERT_TRUE(v.ok()) << v.error().message;
    EXPECT_EQ(v.value().type, Spdu::DT);
    EXPECT_EQ(v.value().user_data, user);
  }
}

TEST(PpduCodec, CpRoundTrip) {
  const Bytes user = common::to_bytes("associate-req");
  auto v = parse_ppdu(build_cp(1, user));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().type, PpduView::Type::CP);
  EXPECT_EQ(v.value().context_id, 1);
  EXPECT_EQ(v.value().user_data, user);
}

TEST(PpduCodec, CpaCprTdRoundTrip) {
  auto cpa = parse_ppdu(build_cpa(3, common::to_bytes("ok")));
  ASSERT_TRUE(cpa.ok());
  EXPECT_EQ(cpa.value().type, PpduView::Type::CPA);
  EXPECT_EQ(cpa.value().context_id, 3);

  auto cpr = parse_ppdu(build_cpr(2, {}));
  ASSERT_TRUE(cpr.ok());
  EXPECT_EQ(cpr.value().type, PpduView::Type::CPR);
  EXPECT_EQ(cpr.value().reason, 2);

  auto td = parse_ppdu(build_td(1, common::to_bytes("payload")));
  ASSERT_TRUE(td.ok());
  EXPECT_EQ(td.value().type, PpduView::Type::TD);
  EXPECT_EQ(td.value().user_data, common::to_bytes("payload"));
}

TEST(PpduCodec, RejectsGarbage) {
  EXPECT_FALSE(parse_ppdu(common::to_bytes("not ber")).ok());
  EXPECT_FALSE(parse_ppdu({}).ok());
}

// ---------------------------------------------------------------------------
// In-place headers: the entities prepend and strip their headers on the SDU
// they were handed. Each in-place step must give the octets of the copying
// builder and the user data (or the refusal) of the copying parser.

Bytes pattern(std::size_t n) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i)
    b[i] = static_cast<std::uint8_t>(i * 31 + 7);
  return b;
}

TEST(InPlaceCodec, TpduDtAgreesWithBuildAndParse) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                              std::size_t{127}, std::size_t{128},
                              std::size_t{70000}}) {
    SCOPED_TRACE(n);
    const Bytes sdu = pattern(n);
    Bytes tpdu = sdu;
    prepend_tpdu(Tpdu::DT, 0x01020304u, tpdu);
    const Bytes built = build_tpdu(Tpdu::DT, 0x01020304u, sdu);
    EXPECT_EQ(tpdu, built);
    const auto header = strip_tpdu(tpdu);
    ASSERT_TRUE(header.ok());
    const TpduView parsed = parse_tpdu(built).value();
    EXPECT_EQ(header.value().type, parsed.type);
    EXPECT_EQ(header.value().seq, parsed.seq);
    EXPECT_EQ(tpdu, parsed.payload);
  }
  Bytes shorter = {0xf0, 0, 0, 1};
  const auto refused = strip_tpdu(shorter);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().message, parse_tpdu(shorter).error().message);
  EXPECT_EQ(shorter, (Bytes{0xf0, 0, 0, 1})) << "a refused strip changed it";
}

TEST(InPlaceCodec, SpduBothLengthFormsAgreeWithBuildAndParse) {
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{65534},
        std::size_t{65535}, std::size_t{65536}}) {
    SCOPED_TRACE(n);
    const Bytes user = pattern(n);
    Bytes spdu = user;
    prepend_spdu(Spdu::DT, spdu);
    const Bytes built = build_spdu(Spdu::DT, user);
    EXPECT_EQ(spdu, built);
    // Octets after the announced user data are ignored by both.
    spdu.push_back(0xee);
    Bytes trailing = built;
    trailing.push_back(0xee);
    const auto type = strip_spdu(spdu);
    ASSERT_TRUE(type.ok());
    const SpduView parsed = parse_spdu(trailing).value();
    EXPECT_EQ(type.value(), parsed.type);
    EXPECT_EQ(spdu, parsed.user_data);
  }
  for (Bytes bad : {Bytes{0x01, 0x00}, Bytes{0x01, 0x00, 0x02, 'x'},
                    Bytes{0x01, 0xFF, 0xFF, 0x00}}) {
    const Bytes before = bad;
    const auto refused = strip_spdu(bad);
    ASSERT_FALSE(refused.ok());
    const auto parsed = parse_spdu(before);
    EXPECT_EQ(refused.error().code, parsed.error().code);
    EXPECT_EQ(refused.error().message, parsed.error().message);
    EXPECT_EQ(bad, before) << "a refused strip changed it";
  }
}

TEST(InPlaceCodec, TdAtBerLengthBoundariesAgreesWithBuildAndParse) {
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{127}, std::size_t{128}, std::size_t{255},
        std::size_t{256}, std::size_t{65535}, std::size_t{65536}}) {
    SCOPED_TRACE(n);
    const Bytes user = pattern(n);
    Bytes td = user;
    prepend_td(7, td);
    const Bytes built = build_td(7, user);
    EXPECT_EQ(td, built);
    const auto stripped = strip_ppdu(td);
    ASSERT_TRUE(stripped.ok());
    const PpduView parsed = parse_ppdu(built).value();
    EXPECT_EQ(stripped.value().type, PpduView::Type::TD);
    EXPECT_EQ(stripped.value().context_id, parsed.context_id);
    EXPECT_EQ(td, parsed.user_data);
  }
}

TEST(InPlaceCodec, ConnectPpdusStripToTheirUserData) {
  const Bytes user = common::to_bytes("associate-req");
  for (Bytes ppdu : {build_cp(3, user), build_cpa(3, user),
                     build_cpr(2, user), build_cpr(2, {})}) {
    const PpduView parsed = parse_ppdu(ppdu).value();
    const auto stripped = strip_ppdu(ppdu);
    ASSERT_TRUE(stripped.ok());
    EXPECT_EQ(stripped.value().type, parsed.type);
    EXPECT_EQ(stripped.value().context_id, parsed.context_id);
    EXPECT_EQ(stripped.value().reason, parsed.reason);
    EXPECT_EQ(ppdu, parsed.user_data);
  }
}

TEST(InPlaceCodec, TdQuirksForwardWhatParsePpduForwards) {
  // [4] { SEQUENCE { INTEGER 1 } }: fewer than two fields, empty SDU.
  const Bytes one_field = {0xA4, 0x05, 0x30, 0x03, 0x02, 0x01, 0x01};
  // [4] { SEQUENCE { INTEGER 1, SEQUENCE { OCTET STRING "x" } } }: a
  // constructed second field, empty SDU.
  const Bytes constructed = {0xA4, 0x0A, 0x30, 0x08, 0x02, 0x01, 0x01,
                             0x30, 0x03, 0x04, 0x01, 'x'};
  // [4] { SEQUENCE { INTEGER 1, INTEGER 7 } }: a primitive second field of
  // another tag forwards its content octets, as as_octets() reads them.
  const Bytes integer = {0xA4, 0x08, 0x30, 0x06, 0x02,
                         0x01, 0x01, 0x02, 0x01, 0x07};
  for (const Bytes& raw : {one_field, constructed, integer}) {
    const PpduView parsed = parse_ppdu(raw).value();
    Bytes in_place = raw;
    const auto stripped = strip_ppdu(in_place);
    ASSERT_TRUE(stripped.ok());
    EXPECT_EQ(stripped.value().type, PpduView::Type::TD);
    EXPECT_EQ(stripped.value().context_id, parsed.context_id);
    EXPECT_EQ(in_place, parsed.user_data);
  }
  EXPECT_TRUE(parse_ppdu(one_field).value().user_data.empty());
  EXPECT_TRUE(parse_ppdu(constructed).value().user_data.empty());
  EXPECT_EQ(parse_ppdu(integer).value().user_data, Bytes{0x07});

  Bytes garbage = common::to_bytes("not ber");
  const auto refused = strip_ppdu(garbage);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().message,
            parse_ppdu(common::to_bytes("not ber")).error().message);
  EXPECT_EQ(garbage, common::to_bytes("not ber"));
}

TEST(InPlaceCodec, AnEncodedSduTakesEveryHeaderWithoutReallocating) {
  // write_exact leaves kSduHeadroom octets behind each message, enough for
  // the longest TD, SPDU and DT TPDU headers together.
  for (const std::size_t n : {std::size_t{0}, std::size_t{200},
                              std::size_t{65536}, std::size_t{200000}}) {
    SCOPED_TRACE(n);
    Bytes sdu = asn1::write_exact(
        [n](asn1::Writer& w) { w.octet_string(pattern(n)); });
    EXPECT_GE(sdu.capacity(), sdu.size() + asn1::kSduHeadroom);
    const Bytes original = sdu;
    const std::uint8_t* const buffer = sdu.data();
    prepend_td(1, sdu);
    prepend_spdu(Spdu::DT, sdu);
    prepend_tpdu(Tpdu::DT, 9, sdu);
    EXPECT_EQ(sdu.data(), buffer) << "a prepend reallocated";
    EXPECT_EQ(sdu, build_tpdu(Tpdu::DT, 9,
                              build_spdu(Spdu::DT, build_td(1, original))));
  }
}

// ---------------------------------------------------------------------------
// Transport layer. `ua`/`ub` are transitionless user modules whose IPs stand
// in for the session entities above the transport service.

struct TransportWorld {
  Specification spec{"tp"};
  Module* sys;
  TransportModule* a;
  TransportModule* b;
  Module* ua;
  Module* ub;

  explicit TransportWorld(TransportModule::Config cfg = {}, double loss = 0.0,
                          common::Rng* rng = nullptr) {
    sys = &spec.root().create_child<Module>("sys", Attribute::SystemProcess);
    a = &sys->create_child<TransportModule>("tpA", cfg);
    b = &sys->create_child<TransportModule>("tpB", cfg);
    ua = &sys->create_child<Module>("userA", Attribute::Process);
    ub = &sys->create_child<Module>("userB", Attribute::Process);
    estelle::connect(ua->ip("svc"), a->upper());
    estelle::connect(ub->ip("svc"), b->upper());
    join_transports(*a, *b, loss, rng);
    spec.initialize();
  }

  InteractionPoint& user_a() { return ua->ip("svc"); }
  InteractionPoint& user_b() { return ub->ip("svc"); }
};

TEST(Transport, ConnectAndTransfer) {
  TransportWorld w;
  w.user_a().output(Interaction(kTConReq));
  auto sched = make_executor(w.spec);
  sched->run_until([&] { return w.user_a().has_input(); });
  ASSERT_TRUE(w.user_a().has_input());
  EXPECT_EQ(w.user_a().pop().kind, kTConConf);

  w.user_a().output(Interaction(kTDatReq, common::to_bytes("one")));
  w.user_a().output(Interaction(kTDatReq, common::to_bytes("two")));
  sched->run();
  ASSERT_EQ(w.user_b().queue_length(), 2u);
  EXPECT_EQ(w.user_b().pop().payload, common::to_bytes("one"));
  EXPECT_EQ(w.user_b().pop().payload, common::to_bytes("two"));
  EXPECT_EQ(w.a->retransmissions(), 0u);
}

class TransportLossTest : public ::testing::TestWithParam<double> {};

TEST_P(TransportLossTest, ArqDelivers100PercentInOrder) {
  common::Rng rng(17);
  TransportModule::Config cfg;
  cfg.rto = SimTime::from_ms(5);
  TransportWorld w(cfg, GetParam(), &rng);

  w.user_a().output(Interaction(kTConReq));
  const std::size_t kMessages = 40;
  for (std::size_t i = 0; i < kMessages; ++i)
    w.user_a().output(Interaction(kTDatReq, {static_cast<std::uint8_t>(i)}));

  auto sched = make_executor(w.spec, {.max_steps = 200000});
  sched->run_until([&] { return w.user_b().queue_length() >= kMessages; });

  // Table 1 control-path property: 100% reliable, in order, despite loss.
  ASSERT_EQ(w.user_b().queue_length(), kMessages);
  int expected = 0;
  while (w.user_b().has_input())
    EXPECT_EQ(w.user_b().pop().payload[0], expected++);
  EXPECT_EQ(expected, static_cast<int>(kMessages));
  if (GetParam() > 0.0) EXPECT_GT(w.a->retransmissions(), 0u);
}

INSTANTIATE_TEST_SUITE_P(LossSweep, TransportLossTest,
                         ::testing::Values(0.0, 0.05, 0.15, 0.30));

TEST(Transport, WindowLimitsOutstandingData) {
  TransportModule::Config cfg;
  cfg.window = 4;
  TransportWorld w(cfg);
  w.user_a().output(Interaction(kTConReq));
  auto sched = make_executor(w.spec);
  sched->run_until([&] { return w.user_a().has_input(); });
  (void)w.user_a().pop();

  for (int i = 0; i < 12; ++i)
    w.user_a().output(Interaction(kTDatReq, {static_cast<std::uint8_t>(i)}));
  sched->run();
  ASSERT_EQ(w.user_b().queue_length(), 12u);
  for (int i = 0; i < 12; ++i) EXPECT_EQ(w.user_b().pop().payload[0], i);
}

TEST(Transport, Disconnect) {
  TransportWorld w;
  w.user_a().output(Interaction(kTConReq));
  auto sched = make_executor(w.spec);
  sched->run_until([&] { return w.user_a().has_input(); });
  (void)w.user_a().pop();
  w.user_a().output(Interaction(kTDisReq));
  sched->run();
  ASSERT_TRUE(w.user_b().has_input());
  EXPECT_EQ(w.user_b().pop().kind, kTDisInd);
}

// ---------------------------------------------------------------------------
// Full generated stack (presentation + session + transport), back to back

struct StackWorld {
  Specification spec{"stk"};
  Module* client_sys;
  Module* server_sys;
  EstelleStack client;
  EstelleStack server;
  Module* cu;
  Module* su;

  explicit StackWorld(double loss = 0.0, common::Rng* rng = nullptr) {
    client_sys =
        &spec.root().create_child<Module>("client", Attribute::SystemProcess);
    server_sys =
        &spec.root().create_child<Module>("server", Attribute::SystemProcess);
    client = build_estelle_stack(*client_sys, "c");
    server = build_estelle_stack(*server_sys, "s");
    cu = &client_sys->create_child<Module>("userC", Attribute::Process);
    su = &server_sys->create_child<Module>("userS", Attribute::Process);
    estelle::connect(cu->ip("svc"), client.service());
    estelle::connect(su->ip("svc"), server.service());
    join_transports(*client.transport, *server.transport, loss, rng);
    spec.initialize();
  }

  InteractionPoint& user_c() { return cu->ip("svc"); }
  InteractionPoint& user_s() { return su->ip("svc"); }

  /// Drive a full P-CONNECT handshake (server responds with `accept`).
  void connect_stacks(estelle::Executor& sched, bool accept = true) {
    user_c().output(Interaction(kPConReq, common::to_bytes("hello")));
    sched.run_until([&] { return user_s().has_input(); });
    ASSERT_TRUE(user_s().has_input());
    const Interaction ind = user_s().pop();
    ASSERT_EQ(ind.kind, kPConInd);
    EXPECT_EQ(ind.payload, common::to_bytes("hello"));
    user_s().output(Interaction(kPConResp, accept ? 1 : 0,
                                common::to_bytes("welcome")));
    sched.run_until([&] { return user_c().has_input(); });
  }
};

TEST(FullStack, ConnectDataRelease) {
  StackWorld w;
  auto sched = make_executor(w.spec);
  w.connect_stacks(*sched);

  ASSERT_TRUE(w.user_c().has_input());
  Interaction conf = w.user_c().pop();
  EXPECT_EQ(conf.kind, kPConConf);
  EXPECT_EQ(conf.payload, common::to_bytes("welcome"));
  EXPECT_EQ(w.client.presentation->transfer_syntax(),
            oids::kBerTransferSyntax);

  // Data both ways.
  w.user_c().output(Interaction(kPDatReq, common::to_bytes("ping")));
  sched->run_until([&] { return w.user_s().has_input(); });
  Interaction ping = w.user_s().pop();
  EXPECT_EQ(ping.kind, kPDatInd);
  EXPECT_EQ(ping.payload, common::to_bytes("ping"));

  w.user_s().output(Interaction(kPDatReq, common::to_bytes("pong")));
  sched->run_until([&] { return w.user_c().has_input(); });
  Interaction pong = w.user_c().pop();
  EXPECT_EQ(pong.kind, kPDatInd);
  EXPECT_EQ(pong.payload, common::to_bytes("pong"));

  // Orderly release initiated by the client.
  w.user_c().output(Interaction(kPRelReq));
  sched->run_until([&] { return w.user_s().has_input(); });
  EXPECT_EQ(w.user_s().pop().kind, kPRelInd);
  w.user_s().output(Interaction(kPRelResp));
  sched->run_until([&] { return w.user_c().has_input(); });
  EXPECT_EQ(w.user_c().pop().kind, kPRelConf);
  EXPECT_EQ(w.client.presentation->state(), PresentationModule::kIdle);
  EXPECT_EQ(w.server.session->state(), SessionModule::kIdle);
}

TEST(FullStack, ConnectionRefusedPropagates) {
  StackWorld w;
  auto sched = make_executor(w.spec);
  w.connect_stacks(*sched, /*accept=*/false);
  ASSERT_TRUE(w.user_c().has_input());
  Interaction refused = w.user_c().pop();
  EXPECT_EQ(refused.kind, kPConRefuse);
  EXPECT_EQ(w.client.presentation->state(), PresentationModule::kIdle);
}

TEST(FullStack, SurvivesTransportLoss) {
  common::Rng rng(23);
  StackWorld w(0.2, &rng);
  auto sched = make_executor(w.spec, {.max_steps = 500000});
  w.connect_stacks(*sched);
  ASSERT_TRUE(w.user_c().has_input());
  EXPECT_EQ(w.user_c().pop().kind, kPConConf);

  const std::size_t kMessages = 20;
  for (std::size_t i = 0; i < kMessages; ++i)
    w.user_c().output(Interaction(kPDatReq, {static_cast<std::uint8_t>(i)}));
  sched->run_until([&] { return w.user_s().queue_length() >= kMessages; });
  ASSERT_EQ(w.user_s().queue_length(), kMessages);
  for (std::size_t i = 0; i < kMessages; ++i) {
    Interaction msg = w.user_s().pop();
    EXPECT_EQ(msg.kind, kPDatInd);
    EXPECT_EQ(msg.payload[0], static_cast<std::uint8_t>(i));
  }
}

// ---------------------------------------------------------------------------
// Hand-coded ISODE stack

TEST(Isode, ConnectDataRelease) {
  isode::IsodeEntity a, b;
  isode::link(a, b);

  a.p_connect_request(common::to_bytes("hi"));
  auto ind = b.next_indication();
  ASSERT_TRUE(ind.has_value());
  EXPECT_EQ(ind->event, isode::Event::ConnectInd);
  EXPECT_EQ(ind->user_data, common::to_bytes("hi"));

  b.p_connect_response(true, common::to_bytes("yo"));
  auto conf = a.next_indication();
  ASSERT_TRUE(conf.has_value());
  EXPECT_EQ(conf->event, isode::Event::ConnectConf);
  EXPECT_EQ(conf->user_data, common::to_bytes("yo"));
  EXPECT_EQ(a.state(), isode::IsodeEntity::State::kOpen);

  a.p_data_request(common::to_bytes("payload"));
  auto data = b.next_indication();
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(data->event, isode::Event::DataInd);
  EXPECT_EQ(data->user_data, common::to_bytes("payload"));

  a.p_release_request();
  ASSERT_EQ(b.next_indication()->event, isode::Event::ReleaseInd);
  b.p_release_response();
  ASSERT_EQ(a.next_indication()->event, isode::Event::ReleaseConf);
  EXPECT_EQ(a.state(), isode::IsodeEntity::State::kIdle);
  EXPECT_EQ(b.state(), isode::IsodeEntity::State::kIdle);
}

TEST(Isode, RefusalAndStateErrors) {
  isode::IsodeEntity a, b;
  isode::link(a, b);
  EXPECT_THROW(a.p_data_request({}), std::logic_error);
  a.p_connect_request({});
  (void)b.next_indication();
  b.p_connect_response(false, common::to_bytes("no"));
  auto refused = a.next_indication();
  ASSERT_TRUE(refused.has_value());
  EXPECT_EQ(refused->event, isode::Event::ConnectRefused);
  EXPECT_EQ(a.state(), isode::IsodeEntity::State::kIdle);
}

TEST(Isode, InterfaceModuleBridgesBothWays) {
  // The §4.3 interface module: same P-service as the generated stack.
  Specification spec("isode");
  auto& client_sys =
      spec.root().create_child<Module>("client", Attribute::SystemProcess);
  auto& server_sys =
      spec.root().create_child<Module>("server", Attribute::SystemProcess);
  auto& ci = client_sys.create_child<isode::IsodeInterfaceModule>("iface");
  auto& si = server_sys.create_child<isode::IsodeInterfaceModule>("iface");
  auto& cu = client_sys.create_child<Module>("userC", Attribute::Process);
  auto& su = server_sys.create_child<Module>("userS", Attribute::Process);
  estelle::connect(cu.ip("svc"), ci.upper());
  estelle::connect(su.ip("svc"), si.upper());
  isode::link(ci.entity(), si.entity());
  spec.initialize();

  auto sched = make_executor(spec);
  cu.ip("svc").output(Interaction(kPConReq, common::to_bytes("cp")));
  sched->run_until([&] { return su.ip("svc").has_input(); });
  ASSERT_TRUE(su.ip("svc").has_input());
  EXPECT_EQ(su.ip("svc").pop().kind, kPConInd);
  su.ip("svc").output(Interaction(kPConResp, 1, common::to_bytes("cpa")));
  sched->run_until([&] { return cu.ip("svc").has_input(); });
  ASSERT_TRUE(cu.ip("svc").has_input());
  EXPECT_EQ(cu.ip("svc").pop().kind, kPConConf);

  cu.ip("svc").output(Interaction(kPDatReq, common::to_bytes("x")));
  sched->run_until([&] { return su.ip("svc").has_input(); });
  Interaction msg = su.ip("svc").pop();
  EXPECT_EQ(msg.kind, kPDatInd);
  EXPECT_EQ(msg.payload, common::to_bytes("x"));
}

}  // namespace
}  // namespace mcam::osi
