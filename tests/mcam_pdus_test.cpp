// MCAM PDU codec tests: typed round-trips for every operation, malformed
// input handling, and a property-style random round-trip over the variant.
#include <gtest/gtest.h>

#include "asn1/ber.hpp"
#include "common/rng.hpp"
#include "mcam/pdus.hpp"
#include "random_pdu_gen.hpp"

namespace mcam::core {
namespace {

template <typename T>
void expect_roundtrip(const T& pdu) {
  const Bytes wire = encode(Pdu{pdu});
  auto decoded = decode(wire);
  ASSERT_TRUE(decoded.ok()) << op_name(op_of(Pdu{pdu})) << ": "
                            << decoded.error().message;
  ASSERT_TRUE(std::holds_alternative<T>(decoded.value()))
      << op_name(op_of(decoded.value()));
  EXPECT_EQ(std::get<T>(decoded.value()), pdu);
  auto op = peek_op(wire);
  ASSERT_TRUE(op.ok());
  EXPECT_EQ(op.value(), op_of(Pdu{pdu}));
}

TEST(McamPdus, AssociationRoundTrips) {
  expect_roundtrip(AssociateReq{"alice", 1});
  expect_roundtrip(AssociateResp{ResultCode::Success, "welcome"});
  expect_roundtrip(AssociateResp{ResultCode::AccessDenied, "go away"});
  expect_roundtrip(ReleaseReq{});
  expect_roundtrip(ReleaseResp{});
}

TEST(McamPdus, MovieAccessRoundTrips) {
  expect_roundtrip(MovieCreateReq{
      "casablanca",
      {{"format", "mjpeg"}, {"fps", "25.000"}, {"duration", "1500"}}});
  expect_roundtrip(MovieCreateResp{ResultCode::Success, 42});
  expect_roundtrip(MovieDeleteReq{42});
  expect_roundtrip(MovieDeleteResp{ResultCode::NoSuchMovie});
  expect_roundtrip(MovieSelectReq{"casablanca"});
  expect_roundtrip(MovieSelectResp{
      ResultCode::Success, 42, {{"title", "casablanca"}, {"fps", "25"}}});
}

TEST(McamPdus, ManagementRoundTrips) {
  expect_roundtrip(AttrQueryReq{7, {"fps", "format"}});
  expect_roundtrip(AttrQueryReq{7, {}});  // all attributes
  expect_roundtrip(AttrQueryResp{ResultCode::Success, {{"fps", "25.000"}}});
  expect_roundtrip(AttrModifyReq{7, {{"rights", "public"}}});
  expect_roundtrip(AttrModifyResp{ResultCode::AccessDenied});
}

TEST(McamPdus, ControlRoundTrips) {
  expect_roundtrip(PlayReq{7, 100, "client1", 7000});
  expect_roundtrip(PlayResp{ResultCode::Success, 3});
  expect_roundtrip(StopReq{7});
  expect_roundtrip(StopResp{ResultCode::Success, 1499});
  expect_roundtrip(PauseReq{7});
  expect_roundtrip(PauseResp{ResultCode::NotPlaying});
  expect_roundtrip(ResumeReq{7});
  expect_roundtrip(ResumeResp{ResultCode::Success});
  expect_roundtrip(RecordReq{"lecture", 2, {{"fps", "25"}}});
  expect_roundtrip(RecordResp{ResultCode::Success, 99});
  expect_roundtrip(RecordStopReq{99});
  expect_roundtrip(RecordStopResp{ResultCode::Success, 750});
}

TEST(McamPdus, EquipmentRoundTrips) {
  expect_roundtrip(EquipListReq{-1});
  expect_roundtrip(EquipListReq{0});
  expect_roundtrip(EquipListResp{
      ResultCode::Success,
      {{1, 0, "studio-cam", true, "alice"}, {2, 2, "speaker", false, ""}}});
  expect_roundtrip(EquipControlReq{1, 2, "volume", 80});
  expect_roundtrip(EquipControlResp{ResultCode::Success, true, 80, "alice"});
}

TEST(McamPdus, NotificationsRoundTrip) {
  expect_roundtrip(PositionInd{7, 1234});  // high-tag-number PDU
  expect_roundtrip(ErrorResp{ResultCode::ProtocolError, "bad"});
}

TEST(McamPdus, EmptyStringsAndLists) {
  expect_roundtrip(AssociateReq{"", 1});
  expect_roundtrip(MovieCreateReq{"", {}});
  expect_roundtrip(EquipListResp{ResultCode::Success, {}});
}

TEST(McamPdus, DecodeRejectsGarbage) {
  EXPECT_FALSE(decode(common::to_bytes("junk")).ok());
  EXPECT_FALSE(decode({}).ok());
  EXPECT_FALSE(peek_op(common::to_bytes("junk")).ok());
}

TEST(McamPdus, DecodeRejectsUnknownTag) {
  // APPLICATION[500] is not an MCAM operation.
  const Bytes wire =
      ::mcam::asn1::encode(asn1::Value::application(500, {asn1::Value::integer(1)}));
  auto r = decode(wire);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, kUnknownOp);
}

TEST(McamPdus, DecodeRejectsWrongUniversalClass) {
  const Bytes wire = ::mcam::asn1::encode(asn1::Value::sequence({}));
  EXPECT_FALSE(decode(wire).ok());
}

TEST(McamPdus, DecodeRejectsMissingFields) {
  // AssociateReq with only one of two fields.
  const Bytes wire = ::mcam::asn1::encode(asn1::Value::application(
      static_cast<std::uint32_t>(Op::AssociateReq),
      {asn1::Value::ia5string("alice")}));
  auto r = decode(wire);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, kBadPduBody);
}

TEST(McamPdus, DecodeRejectsWrongFieldTypes) {
  const Bytes wire = ::mcam::asn1::encode(asn1::Value::application(
      static_cast<std::uint32_t>(Op::MovieDeleteReq),
      {asn1::Value::ia5string("not-an-integer")}));
  EXPECT_FALSE(decode(wire).ok());
}

TEST(McamPdus, AttrRowsMustBeNameValuePairs) {
  // AttrModifyReq{7, [row]}: a row of zero, one or three fields is an arity
  // error, reported before a field's own type error; a pair with a
  // non-string field is a type error. The direct reader and the tree agree
  // on each.
  using asn1::Value;
  const auto with_row = [](std::vector<Value> row) {
    return ::mcam::asn1::encode(Value::application(
        static_cast<std::uint32_t>(Op::AttrModifyReq),
        {Value::integer(7),
         Value::sequence({Value::sequence(std::move(row))})}));
  };
  const auto expect_error = [](const Bytes& wire, int code,
                               const std::string& message) {
    auto direct = decode(wire);
    ASSERT_FALSE(direct.ok());
    EXPECT_EQ(direct.error().code, code);
    EXPECT_EQ(direct.error().message, message);
    auto tree = pdu_from_value(::mcam::asn1::decode(wire).value());
    ASSERT_FALSE(tree.ok());
    EXPECT_EQ(tree.error().code, code);
    EXPECT_EQ(tree.error().message, message);
  };
  expect_error(with_row({}), kBadPduBody, "attr row arity");
  expect_error(with_row({Value::integer(1)}), kBadPduBody, "attr row arity");
  expect_error(with_row({Value::integer(1), Value::integer(2),
                         Value::integer(3)}),
               kBadPduBody, "attr row arity");
  expect_error(with_row({Value::integer(1), Value::ia5string("v")}),
               asn1::kWrongType, "not a string: 1");

  auto ok = decode(with_row({Value::ia5string("rights"),
                             Value::ia5string("public")}));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(std::get<AttrModifyReq>(ok.value()),
            (AttrModifyReq{7, {{"rights", "public"}}}));
}

TEST(McamPdus, TruncatedWireNeverDecodes) {
  const Bytes full = encode(Pdu{MovieSelectResp{
      ResultCode::Success, 42, {{"title", "x"}, {"rights", "public"}}}});
  for (std::size_t cut = 1; cut < full.size(); ++cut) {
    Bytes partial(full.begin(), full.begin() + static_cast<long>(cut));
    EXPECT_FALSE(decode(partial).ok()) << cut;
  }
}

// ---- property: random PDUs round-trip ----

class McamPduProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(McamPduProperty, RandomPdusRoundTrip) {
  common::Rng rng(GetParam());
  for (int i = 0; i < 300; ++i) {
    const Pdu pdu = random_pdu(rng);
    auto decoded = decode(encode(pdu));
    ASSERT_TRUE(decoded.ok()) << op_name(op_of(pdu));
    EXPECT_TRUE(decoded.value() == pdu) << op_name(op_of(pdu));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, McamPduProperty,
                         ::testing::Values(101, 202, 303, 404, 505));

TEST(McamPdus, NamesAreStable) {
  EXPECT_STREQ(op_name(Op::PlayReq), "PlayReq");
  EXPECT_STREQ(op_name(Op::PositionInd), "PositionInd");
  EXPECT_STREQ(result_name(ResultCode::Success), "success");
  EXPECT_STREQ(result_name(ResultCode::NoSuchMovie), "no-such-movie");
}

}  // namespace
}  // namespace mcam::core
