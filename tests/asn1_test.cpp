// ASN.1 value model and BER codec tests, including property-style random
// round-trips (the MCAM PDUs lean on every branch exercised here).
#include <gtest/gtest.h>

#include "asn1/ber.hpp"
#include "asn1/parallel.hpp"
#include "asn1/value.hpp"
#include "common/rng.hpp"

namespace mcam::asn1 {
namespace {

using common::Bytes;

TEST(Asn1Value, IntegerRoundTripSmall) {
  for (std::int64_t v : {0LL, 1LL, -1LL, 127LL, 128LL, -128LL, -129LL,
                         255LL, 256LL, 65535LL, -65536LL}) {
    auto decoded = decode(encode(Value::integer(v)));
    ASSERT_TRUE(decoded.ok()) << v;
    EXPECT_EQ(decoded.value().as_int().value(), v) << v;
  }
}

TEST(Asn1Value, IntegerRoundTripExtremes) {
  for (std::int64_t v : {std::numeric_limits<std::int64_t>::max(),
                         std::numeric_limits<std::int64_t>::min()}) {
    auto decoded = decode(encode(Value::integer(v)));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().as_int().value(), v);
  }
}

TEST(Asn1Value, IntegerMinimalEncoding) {
  // BER: INTEGER 127 must be 1 content octet, 128 needs 2 (sign bit).
  EXPECT_EQ(encode(Value::integer(127)).size(), 3u);   // tag + len + 1
  EXPECT_EQ(encode(Value::integer(128)).size(), 4u);   // tag + len + 2
  EXPECT_EQ(encode(Value::integer(-128)).size(), 3u);
}

TEST(Asn1Value, BooleanRoundTrip) {
  EXPECT_TRUE(decode(encode(Value::boolean(true))).value().as_bool().value());
  EXPECT_FALSE(
      decode(encode(Value::boolean(false))).value().as_bool().value());
}

TEST(Asn1Value, StringsRoundTrip) {
  auto v = decode(encode(Value::ia5string("movie-title")));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().as_string().value(), "movie-title");
  EXPECT_TRUE(v.value().is_universal(UniversalTag::Ia5String));

  auto empty = decode(encode(Value::ia5string("")));
  EXPECT_EQ(empty.value().as_string().value(), "");
}

TEST(Asn1Value, OidRoundTrip) {
  const std::vector<std::uint32_t> arcs = {1, 3, 9999, 1};
  auto v = decode(encode(Value::oid(arcs)));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().as_oid().value(), arcs);
}

TEST(Asn1Value, OidLargeArcs) {
  const std::vector<std::uint32_t> arcs = {2, 25, 1000000, 127, 128, 16384};
  auto v = decode(encode(Value::oid(arcs)));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().as_oid().value(), arcs);
}

TEST(Asn1Value, SequenceNesting) {
  Value v = Value::sequence({
      Value::integer(5),
      Value::sequence({Value::ia5string("x"), Value::boolean(true)}),
      Value::octet_string({0xde, 0xad}),
  });
  auto decoded = decode(encode(v));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), v);
  EXPECT_EQ(decoded.value().size(), 3u);
  EXPECT_EQ(decoded.value().child(1).child(0).as_string().value(), "x");
}

TEST(Asn1Value, ContextTags) {
  Value v = Value::sequence({
      Value::context(0, Value::integer(7)),
      Value::context(3, Value::ia5string("opt")),
  });
  auto decoded = decode(encode(v));
  ASSERT_TRUE(decoded.ok());
  const Value* c0 = decoded.value().find_context(0);
  const Value* c3 = decoded.value().find_context(3);
  const Value* c9 = decoded.value().find_context(9);
  ASSERT_NE(c0, nullptr);
  ASSERT_NE(c3, nullptr);
  EXPECT_EQ(c9, nullptr);
  EXPECT_EQ(c0->unwrap_context(0).value().as_int().value(), 7);
  EXPECT_EQ(c3->unwrap_context(3).value().as_string().value(), "opt");
}

TEST(Asn1Value, HighTagNumberForm) {
  // Tag 14001 (used by MCAM PositionInd) needs the multi-octet tag form.
  Value v = Value::application(14001, {Value::integer(1)});
  auto decoded = decode(encode(v));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().tag(), 14001u);
  EXPECT_EQ(decoded.value().tag_class(), TagClass::Application);
}

TEST(Asn1Value, LongLengthForm) {
  Bytes big(100000, 0xab);
  auto decoded = decode(encode(Value::octet_string(big)));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().as_octets().value(), big);
}

TEST(Asn1Decode, RejectsTruncated) {
  Bytes full = encode(Value::sequence({Value::integer(1234567)}));
  for (std::size_t cut = 1; cut < full.size(); ++cut) {
    Bytes partial(full.begin(), full.begin() + static_cast<long>(cut));
    EXPECT_FALSE(decode(partial).ok()) << "cut=" << cut;
  }
}

TEST(Asn1Decode, RejectsTrailingGarbage) {
  Bytes buf = encode(Value::integer(1));
  buf.push_back(0x00);
  auto r = decode(buf);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, kTrailingBytes);
}

TEST(Asn1Decode, RejectsIndefiniteLength) {
  Bytes buf = {0x30, 0x80, 0x00, 0x00};  // SEQUENCE, indefinite, EOC
  auto r = decode(buf);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, kBadLength);
}

TEST(Asn1Decode, RejectsDepthBomb) {
  // kMaxDecodeDepth+4 nested SEQUENCEs.
  Value v = Value::integer(1);
  for (int i = 0; i < kMaxDecodeDepth + 4; ++i) v = Value::sequence({v});
  auto r = decode(encode(v));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, kDepthExceeded);
}

TEST(Asn1Decode, PrefixDecodingConcatenatedPdus) {
  Bytes stream;
  for (int i = 0; i < 5; ++i) {
    Bytes one = encode(Value::integer(i * 100));
    stream.insert(stream.end(), one.begin(), one.end());
  }
  std::size_t offset = 0;
  for (int i = 0; i < 5; ++i) {
    auto v = decode_prefix(stream, offset);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v.value().as_int().value(), i * 100);
  }
  EXPECT_EQ(offset, stream.size());
}

TEST(Asn1Accessors, TypeMismatchesAreErrors) {
  EXPECT_FALSE(Value::ia5string("x").as_int().ok());
  EXPECT_FALSE(Value::integer(1).as_bool().ok());
  EXPECT_FALSE(Value::sequence({}).as_octets().ok());
  EXPECT_FALSE(Value::integer(1).as_oid().ok());
  EXPECT_FALSE(Value::integer(1).unwrap_context(0).ok());
}

TEST(Asn1Value, ToStringEscapesStringContents) {
  // Printable ASCII renders verbatim, as before.
  EXPECT_EQ(Value::ia5string("plain title 42 ~!").to_string(),
            "\"plain title 42 ~!\"");
  EXPECT_EQ(Value::sequence({Value::integer(5), Value::utf8string("x")})
                .to_string(),
            "SEQUENCE { 5, \"x\" }");
  // Control characters and non-ASCII octets become \xHH; quote and
  // backslash are escaped, so the rendering is one line with one quoting.
  EXPECT_EQ(Value::ia5string(std::string_view("a\nb\r\t\x01\x7f\xff", 8))
                .to_string(),
            R"("a\x0ab\x0d\x09\x01\x7f\xff")");
  EXPECT_EQ(Value::printable(R"(say "hi" \ bye)").to_string(),
            R"("say \"hi\" \\ bye")");
  // Decode diagnostics quote through the same rendering.
  const auto bad = Value::ia5string("x\ny").as_int();
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().message, R"(not an INTEGER: "x\x0ay")");
}

// ---- property-style random round-trip ----

Value random_value(common::Rng& rng, int depth) {
  const int choice = depth <= 0 ? static_cast<int>(rng.below(5))
                                : static_cast<int>(rng.below(8));
  switch (choice) {
    case 0:
      return Value::integer(static_cast<std::int64_t>(rng()));
    case 1:
      return Value::boolean(rng.chance(0.5));
    case 2: {
      Bytes b(rng.below(64));
      for (auto& octet : b) octet = static_cast<std::uint8_t>(rng());
      return Value::octet_string(std::move(b));
    }
    case 3: {
      std::string s;
      const std::size_t n = rng.below(32);
      for (std::size_t i = 0; i < n; ++i)
        s.push_back(static_cast<char>('a' + rng.below(26)));
      return Value::ia5string(s);
    }
    case 4:
      return Value::null();
    case 5:
    case 6: {
      std::vector<Value> children;
      const std::size_t n = rng.below(4);
      for (std::size_t i = 0; i < n; ++i)
        children.push_back(random_value(rng, depth - 1));
      return Value::sequence(std::move(children));
    }
    default:
      return Value::context(static_cast<std::uint32_t>(rng.below(64)),
                            random_value(rng, depth - 1));
  }
}

class Asn1RoundTripProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(Asn1RoundTripProperty, EncodeDecodeIsIdentity) {
  common::Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    Value v = random_value(rng, 4);
    Bytes wire = encode(v);
    EXPECT_EQ(wire.size(), encoded_length(v));
    auto decoded = decode(wire);
    ASSERT_TRUE(decoded.ok()) << v.to_string();
    EXPECT_EQ(decoded.value(), v) << v.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Asn1RoundTripProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---- parallel encoder ----

TEST(Asn1Parallel, OutputMatchesSequential) {
  common::Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Value> children;
    const std::size_t n = 1 + rng.below(40);
    for (std::size_t i = 0; i < n; ++i)
      children.push_back(random_value(rng, 2));
    Value v = Value::sequence(std::move(children));
    const Bytes expected = encode(v);
    for (int workers : {1, 2, 3, 4, 8}) {
      EXPECT_EQ(encode_parallel(v, workers), expected)
          << "workers=" << workers << " n=" << n;
    }
  }
}

TEST(Asn1Parallel, LargeSequenceLongLengthHeader) {
  // Content > 127 bytes forces the long length form in the merged header.
  std::vector<Value> children;
  for (int i = 0; i < 50; ++i)
    children.push_back(Value::octet_string(Bytes(100, 0x55)));
  Value v = Value::sequence(std::move(children));
  EXPECT_EQ(encode_parallel(v, 4), encode(v));
}

TEST(Asn1Parallel, HighTagNumberHeader) {
  // The merged header must carry the tag-number octets of the high-tag form
  // (the PositionInd and ErrorResp PDUs use APPLICATION 14001 and 14002).
  Value v = Value::application(
      14001, {Value::integer(1), Value::integer(2), Value::integer(3)});
  EXPECT_EQ(encode_parallel(v, 2), encode(v));
}

TEST(Asn1Parallel, ModelShowsNoGainForSmallPdus) {
  // The [12] negative result: for typical (small) control PDUs, parallel
  // encoding is *slower* than sequential once dispatch+join are counted.
  ParallelEncodeModel model;
  std::vector<Value> fields;
  for (int i = 0; i < 6; ++i) fields.push_back(Value::integer(i));
  Value pdu = Value::sequence(std::move(fields));
  const auto seq = model.encode_time(pdu, 1);
  for (int workers : {2, 4, 8}) {
    EXPECT_GT(model.encode_time(pdu, workers).ns, seq.ns)
        << "workers=" << workers;
  }
}

TEST(Asn1Parallel, ModelGainsOnlyForHugeValues) {
  // With megabyte-scale content the critical path shrinks below sequential —
  // showing the crossover exists but far above control-PDU sizes.
  ParallelEncodeModel model;
  std::vector<Value> fields;
  for (int i = 0; i < 16; ++i)
    fields.push_back(Value::octet_string(Bytes(200000, 1)));
  Value huge = Value::sequence(std::move(fields));
  EXPECT_LT(model.encode_time(huge, 8).ns, model.encode_time(huge, 1).ns);
}

}  // namespace
}  // namespace mcam::asn1
