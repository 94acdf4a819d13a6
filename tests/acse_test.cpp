// ACSE tests: APDU codec round-trips, the protocol machine over a full
// generated stack, application-context rejection, release wrapping, and the
// end-to-end Testbed integration of Fig. 3 (MCA / ACSE / presentation).
#include <gtest/gtest.h>

#include "estelle/executor.hpp"
#include "mcam/testbed.hpp"
#include "osi/acse.hpp"
#include "osi/stack.hpp"

namespace mcam::osi {
namespace {

using common::Bytes;
using estelle::Attribute;
using estelle::Interaction;
using estelle::Module;
using estelle::make_executor;
using estelle::Specification;

TEST(AcseCodec, AarqRoundTrip) {
  const Bytes user = common::to_bytes("associate-req-pdu");
  auto apdu = parse_acse(build_aarq(oids::kMcamApplicationContext, user));
  ASSERT_TRUE(apdu.ok());
  EXPECT_EQ(apdu.value().type, AcseApdu::Type::AARQ);
  EXPECT_EQ(apdu.value().version, 1);
  EXPECT_EQ(apdu.value().context, oids::kMcamApplicationContext);
  EXPECT_EQ(apdu.value().user_information, user);
}

TEST(AcseCodec, AareResults) {
  for (AcseResult result :
       {AcseResult::Accepted, AcseResult::RejectedPermanent,
        AcseResult::RejectedContextMismatch}) {
    auto apdu =
        parse_acse(build_aare(result, oids::kMcamApplicationContext, {}));
    ASSERT_TRUE(apdu.ok());
    EXPECT_EQ(apdu.value().type, AcseApdu::Type::AARE);
    EXPECT_EQ(apdu.value().result, result);
  }
}

TEST(AcseCodec, ReleaseAndAbort) {
  auto rlrq = parse_acse(build_rlrq(1, common::to_bytes("bye")));
  ASSERT_TRUE(rlrq.ok());
  EXPECT_EQ(rlrq.value().type, AcseApdu::Type::RLRQ);
  EXPECT_EQ(rlrq.value().reason, 1);
  EXPECT_EQ(rlrq.value().user_information, common::to_bytes("bye"));

  auto rlre = parse_acse(build_rlre(0, {}));
  ASSERT_TRUE(rlre.ok());
  EXPECT_EQ(rlre.value().type, AcseApdu::Type::RLRE);

  auto abrt = parse_acse(build_abrt(1));
  ASSERT_TRUE(abrt.ok());
  EXPECT_EQ(abrt.value().type, AcseApdu::Type::ABRT);
  EXPECT_EQ(abrt.value().reason, 1);
}

TEST(AcseCodec, RejectsGarbage) {
  EXPECT_FALSE(parse_acse(common::to_bytes("nope")).ok());
  EXPECT_FALSE(parse_acse({}).ok());
}

/// Two ACSE entities over two full generated stacks, driven through user
/// modules (same harness pattern as osi_test).
struct AcseWorld {
  Specification spec{"acse"};
  Module* cu;
  Module* su;
  AcseModule* ca;
  AcseModule* sa;

  explicit AcseWorld(AcseModule::Config responder_cfg = {}) {
    auto& client_sys =
        spec.root().create_child<Module>("client", Attribute::SystemProcess);
    auto& server_sys =
        spec.root().create_child<Module>("server", Attribute::SystemProcess);
    ca = &client_sys.create_child<AcseModule>("acseC");
    sa = &server_sys.create_child<AcseModule>("acseS", responder_cfg);
    EstelleStack cstk = build_estelle_stack(client_sys, "c");
    EstelleStack sstk = build_estelle_stack(server_sys, "s");
    estelle::connect(ca->lower(), cstk.service());
    estelle::connect(sa->lower(), sstk.service());
    join_transports(*cstk.transport, *sstk.transport);
    cu = &client_sys.create_child<Module>("userC", Attribute::Process);
    su = &server_sys.create_child<Module>("userS", Attribute::Process);
    estelle::connect(cu->ip("svc"), ca->upper());
    estelle::connect(su->ip("svc"), sa->upper());
    spec.initialize();
  }
};

TEST(AcseModuleTest, AssociateDataRelease) {
  AcseWorld w;
  auto sched = make_executor(w.spec);

  w.cu->ip("svc").output(Interaction(kPConReq, common::to_bytes("areq")));
  sched->run_until([&] { return w.su->ip("svc").has_input(); });
  ASSERT_TRUE(w.su->ip("svc").has_input());
  Interaction ind = w.su->ip("svc").pop();
  EXPECT_EQ(ind.kind, kPConInd);
  EXPECT_EQ(ind.payload, common::to_bytes("areq"));  // AARQ unwrapped

  w.su->ip("svc").output(Interaction(kPConResp, 1, common::to_bytes("aresp")));
  sched->run_until([&] { return w.cu->ip("svc").has_input(); });
  Interaction conf = w.cu->ip("svc").pop();
  EXPECT_EQ(conf.kind, kPConConf);
  EXPECT_EQ(conf.payload, common::to_bytes("aresp"));
  EXPECT_EQ(w.ca->state(), AcseModule::kOpen);

  // Data passes through untouched.
  w.cu->ip("svc").output(Interaction(kPDatReq, common::to_bytes("data")));
  sched->run_until([&] { return w.su->ip("svc").has_input(); });
  Interaction data = w.su->ip("svc").pop();
  EXPECT_EQ(data.kind, kPDatInd);
  EXPECT_EQ(data.payload, common::to_bytes("data"));

  // Release wraps RLRQ/RLRE and unwraps the user data.
  w.cu->ip("svc").output(Interaction(kPRelReq, common::to_bytes("closing")));
  sched->run_until([&] { return w.su->ip("svc").has_input(); });
  Interaction rel = w.su->ip("svc").pop();
  EXPECT_EQ(rel.kind, kPRelInd);
  EXPECT_EQ(rel.payload, common::to_bytes("closing"));
  w.su->ip("svc").output(Interaction(kPRelResp, common::to_bytes("ok")));
  sched->run_until([&] { return w.cu->ip("svc").has_input(); });
  Interaction relconf = w.cu->ip("svc").pop();
  EXPECT_EQ(relconf.kind, kPRelConf);
  EXPECT_EQ(relconf.payload, common::to_bytes("ok"));
  EXPECT_EQ(w.ca->state(), AcseModule::kIdle);
  EXPECT_EQ(w.sa->state(), AcseModule::kIdle);
  EXPECT_GT(w.ca->apdus_sent(), 0u);
}

TEST(AcseModuleTest, ContextMismatchRefusedBeforeApplication) {
  AcseModule::Config wrong_context;
  wrong_context.context = {1, 3, 9999, 77};  // responder speaks another app
  AcseWorld w(wrong_context);
  auto sched = make_executor(w.spec);

  w.cu->ip("svc").output(Interaction(kPConReq, common::to_bytes("areq")));
  sched->run_until([&] { return w.cu->ip("svc").has_input(); });
  ASSERT_TRUE(w.cu->ip("svc").has_input());
  EXPECT_EQ(w.cu->ip("svc").pop().kind, kPConRefuse);
  // The server application never saw the indication.
  EXPECT_FALSE(w.su->ip("svc").has_input());
  EXPECT_EQ(w.sa->context_rejections(), 1u);
  EXPECT_EQ(w.ca->state(), AcseModule::kIdle);
}

TEST(AcseModuleTest, UserRefusalCarriesUserData) {
  AcseWorld w;
  auto sched = make_executor(w.spec);
  w.cu->ip("svc").output(Interaction(kPConReq, common::to_bytes("areq")));
  sched->run_until([&] { return w.su->ip("svc").has_input(); });
  (void)w.su->ip("svc").pop();
  w.su->ip("svc").output(Interaction(kPConResp, 0, common::to_bytes("denied")));
  sched->run_until([&] { return w.cu->ip("svc").has_input(); });
  Interaction refused = w.cu->ip("svc").pop();
  EXPECT_EQ(refused.kind, kPConRefuse);
  EXPECT_EQ(refused.payload, common::to_bytes("denied"));
}

// ---- end-to-end through the MCAM testbed (Fig. 3 layering) ----

class AcseStackParam : public ::testing::TestWithParam<core::StackKind> {};

TEST_P(AcseStackParam, McamSessionOverAcse) {
  core::Testbed::Config cfg;
  cfg.stack = GetParam();
  cfg.use_acse = true;
  core::Testbed bed(cfg);

  directory::MovieEntry e;
  e.title = "acse-movie";
  e.duration_frames = 20;
  e.location_host = cfg.server_host;
  (void)bed.server().directory().add(e);

  core::McamClient client = bed.client(0);
  ASSERT_TRUE(client.associate("alice").ok());
  ASSERT_NE(bed.connection(0).client_acse, nullptr);
  EXPECT_EQ(bed.connection(0).client_acse->state(), AcseModule::kOpen);

  auto select = client.select_movie("acse-movie");
  ASSERT_TRUE(select.ok());
  EXPECT_EQ(select.value().result, core::ResultCode::Success);

  ASSERT_TRUE(client.release().ok());
  EXPECT_EQ(bed.connection(0).client_acse->state(), AcseModule::kIdle);
  EXPECT_EQ(bed.server().active_sessions(), 0u);
}

INSTANTIATE_TEST_SUITE_P(BothStacks, AcseStackParam,
                         ::testing::Values(core::StackKind::EstelleGenerated,
                                           core::StackKind::IsodeHandCoded),
                         [](const auto& info) {
                           return info.param ==
                                          core::StackKind::EstelleGenerated
                                      ? "EstelleGenerated"
                                      : "IsodeHandCoded";
                         });

}  // namespace
}  // namespace mcam::osi
