// Codec differential: the direct BER codec (asn1/direct.hpp) against the
// Value-tree codec it replaced on the request path.
//
//   Golden vectors — every MCAM operation, every PPDU (CP, CPA, CPR, TD) and
//     every ACSE APDU (AARQ, AARE, RLRQ, RLRE, ABRT) must encode to the exact
//     octets the tree encoder produced for them (captured from it as hex).
//   Re-encode identity — asn1::encode(asn1::decode(x)) == x for random PDUs,
//     so the tree is a faithful oracle for the writer's output.
//   Mutation — a seeded mutator (bit flips, truncations, length-octet and
//     tag-octet edits, splices) corrupts that corpus and the frame
//     catalogue. On every input the direct decoders (core::decode,
//     core::peek_op, osi::parse_ppdu, osi::parse_acse, decode_frame, which
//     reads every frame type through asn1::Node) and the tree oracle
//     (asn1::decode, then the same field extraction run over the Value)
//     must agree: same accept or reject, same error code and message, same
//     decoded fields. parse_tpdu and parse_spdu see every input too and
//     must reject short or inconsistent headers without throwing.
//
// 20,000 mutated inputs by default; MCAM_SOAK_SPECS scales the count (400
// inputs per spec, as the other differential suites scale their specs).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "asn1/ber.hpp"
#include "codec_corpus.hpp"
#include "common/rng.hpp"
#include "estelle/transport/frame.hpp"
#include "frame_catalogue.hpp"
#include "mcam/pdus.hpp"
#include "osi/acse.hpp"
#include "osi/presentation.hpp"
#include "osi/session.hpp"
#include "osi/transport.hpp"
#include "random_pdu_gen.hpp"

namespace mcam {
namespace {

using common::ByteSpan;
using common::Bytes;
using common::Error;
using common::Result;

int input_count() {
  int specs = 50;
  if (const char* env = std::getenv("MCAM_SOAK_SPECS"))
    specs = std::max(1, std::atoi(env));
  return 400 * specs;
}

std::string hex(ByteSpan b) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::uint8_t octet : b) {
    out.push_back(kDigits[octet >> 4]);
    out.push_back(kDigits[octet & 0x0f]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Golden vectors, captured from the Value-tree encoder.

struct Golden {
  const char* name;
  const char* hex;
};

constexpr Golden kPduGolden[] = {
    {"AssociateReq",
     "610a1605616c696365020101"},
    {"AssociateResp",
     "628201330a01041682012c646464646464646464646464646464646464646464"
     "6464646464646464646464646464646464646464646464646464646464646464"
     "6464646464646464646464646464646464646464646464646464646464646464"
     "6464646464646464646464646464646464646464646464646464646464646464"
     "6464646464646464646464646464646464646464646464646464646464646464"
     "6464646464646464646464646464646464646464646464646464646464646464"
     "6464646464646464646464646464646464646464646464646464646464646464"
     "6464646464646464646464646464646464646464646464646464646464646464"
     "6464646464646464646464646464646464646464646464646464646464646464"
     "6464646464646464646464646464646464646464646464"},
    {"ReleaseReq",
     "6300"},
    {"ReleaseResp",
     "6400"},
    {"MovieCreateReq",
     "652e160a63617361626c616e63613020300f1606666f726d617416056d6a7065"
     "67300d1603667073160632352e303030"},
    {"MovieCreateResp",
     "660d0a010002088000000000000001"},
    {"MovieDeleteReq",
     "670302012a"},
    {"MovieDeleteResp",
     "68030a0101"},
    {"MovieSelectReq",
     "69021600"},
    {"MovieSelectResp",
     "6a8201120a010002010730820108301416057469746c65160b7469746c652d76"
     "616c756530161606666f726d6174160c666f726d61742d76616c756530101603"
     "66707316096670732d76616c7565301a16086475726174696f6e160e64757261"
     "74696f6e2d76616c7565301616066672616d6573160c6672616d65732d76616c"
     "756530161606726967687473160c7269676874732d76616c7565301416056f77"
     "6e6572160b6f776e65722d76616c75653024160d6c6f636174696f6e2d686f73"
     "7416136c6f636174696f6e2d686f73742d76616c75653024160d6c6f63617469"
     "6f6e2d7061746816136c6f636174696f6e2d706174682d76616c756530181607"
     "63726561746564160d637265617465642d76616c7565"},
    {"AttrQueryReq",
     "6b12020107300d16036670731606666f726d6174"},
    {"AttrQueryReq-all",
     "6b050201073000"},
    {"AttrQueryResp",
     "6c82010f0a010030820108301416057469746c65160b7469746c652d76616c75"
     "6530161606666f726d6174160c666f726d61742d76616c756530101603667073"
     "16096670732d76616c7565301a16086475726174696f6e160e6475726174696f"
     "6e2d76616c7565301616066672616d6573160c6672616d65732d76616c756530"
     "161606726967687473160c7269676874732d76616c7565301416056f776e6572"
     "160b6f776e65722d76616c75653024160d6c6f636174696f6e2d686f73741613"
     "6c6f636174696f6e2d686f73742d76616c75653024160d6c6f636174696f6e2d"
     "7061746816136c6f636174696f6e2d706174682d76616c756530181607637265"
     "61746564160d637265617465642d76616c7565"},
    {"AttrModifyReq",
     "6d1702017f30123010160672696768747316067075626c6963"},
    {"AttrModifyResp",
     "6e030a0104"},
    {"PlayReq",
     "6f130201070201641607636c69656e743102021b58"},
    {"PlayReq-qos",
     "6f1f020200800201001607636c69656e7432020300ffffa003020128a1030201"
     "05"},
    {"PlayResp",
     "70080a0100020300ffff"},
    {"StopReq",
     "710402020080"},
    {"StopResp",
     "72070a0100020205db"},
    {"PauseReq",
     "7304020200ff"},
    {"PauseResp",
     "74030a0109"},
    {"ResumeReq",
     "750402020100"},
    {"ResumeResp",
     "76030a0100"},
    {"RecordReq",
     "771916076c656374757265020102300b3009160366707316023235"},
    {"RecordResp",
     "78060a0100020163"},
    {"RecordStopReq",
     "7903020163"},
    {"RecordStopResp",
     "7a060a01000201ff"},
    {"EquipListReq",
     "7b030201ff"},
    {"EquipListResp",
     "7c390a01003034301c020101020100160a73747564696f2d63616d0101ff1605"
     "616c69636530140201020201021607737065616b65720101001600"},
    {"EquipControlReq",
     "7d110201010201021606766f6c756d650201b0"},
    {"EquipControlResp",
     "7e100a01000101ff0201501605616c696365"},
    {"MovieSearchReq",
     "7f1f3ca0373035a40f300d16057469746c6516046e657773a213a311300f1606"
     "666f726d617416056d6a706567a10d300ba5051603667073a6020500010100"},
    {"MovieSearchResp",
     "7f20260a010030213011020101300c300a16057469746c65160161300c020880"
     "000000000000013000"},
    {"PositionInd",
     "7fed3107020107020204d2"},
    {"ErrorResp",
     "7fed32080a01081603626164"},
};

constexpr Golden kOsiGolden[] = {
    {"CP",
     "a12330213011300f02010106042bce0f01300406025101a00c040a6108160362"
     "6f62020101"},
    {"CP-empty",
     "a11930173011300f02010106042bce0f01300406025101a0020400"},
    {"CPA",
     "a21d301b300c300a0201010a010006025101a00b0409757365722d64617461"},
    {"CPA-big",
     "a282014730820143300d300b020200c80a010006025101a08201300482012c00"
     "070e151c232a31383f464d545b626970777e858c939aa1a8afb6bdc4cbd2d9e0"
     "e7eef5fc030a11181f262d343b424950575e656c737a81888f969da4abb2b9c0"
     "c7ced5dce3eaf1f8ff060d141b222930373e454c535a61686f767d848b9299a0"
     "a7aeb5bcc3cad1d8dfe6edf4fb020910171e252c333a41484f565d646b727980"
     "878e959ca3aab1b8bfc6cdd4dbe2e9f0f7fe050c131a21282f363d444b525960"
     "676e757c838a91989fa6adb4bbc2c9d0d7dee5ecf3fa01080f161d242b323940"
     "474e555c636a71787f868d949ba2a9b0b7bec5ccd3dae1e8eff6fd040b121920"
     "272e353c434a51585f666d747b828990979ea5acb3bac1c8cfd6dde4ebf2f900"
     "070e151c232a31383f464d545b626970777e858c939aa1a8afb6bdc4cbd2d9e0"
     "e7eef5fc030a11181f262d"},
    {"CPR",
     "a31230100a0102a00b0409757365722d64617461"},
    {"TD",
     "a410300e0201010409757365722d64617461"},
    {"TD-big",
     "a4820137308201330201fd0482012c00070e151c232a31383f464d545b626970"
     "777e858c939aa1a8afb6bdc4cbd2d9e0e7eef5fc030a11181f262d343b424950"
     "575e656c737a81888f969da4abb2b9c0c7ced5dce3eaf1f8ff060d141b222930"
     "373e454c535a61686f767d848b9299a0a7aeb5bcc3cad1d8dfe6edf4fb020910"
     "171e252c333a41484f565d646b727980878e959ca3aab1b8bfc6cdd4dbe2e9f0"
     "f7fe050c131a21282f363d444b525960676e757c838a91989fa6adb4bbc2c9d0"
     "d7dee5ecf3fa01080f161d242b323940474e555c636a71787f868d949ba2a9b0"
     "b7bec5ccd3dae1e8eff6fd040b121920272e353c434a51585f666d747b828990"
     "979ea5acb3bac1c8cfd6dde4ebf2f900070e151c232a31383f464d545b626970"
     "777e858c939aa1a8afb6bdc4cbd2d9e0e7eef5fc030a11181f262d"},
    {"TD-empty",
     "a40730050201010400"},
    {"AARQ",
     "601702010106042bce0f02be0c040a61081603626f62020101"},
    {"AARQ-wide",
     "6082014002010106072bce0f02822c00be8201300482012c00070e151c232a31"
     "383f464d545b626970777e858c939aa1a8afb6bdc4cbd2d9e0e7eef5fc030a11"
     "181f262d343b424950575e656c737a81888f969da4abb2b9c0c7ced5dce3eaf1"
     "f8ff060d141b222930373e454c535a61686f767d848b9299a0a7aeb5bcc3cad1"
     "d8dfe6edf4fb020910171e252c333a41484f565d646b727980878e959ca3aab1"
     "b8bfc6cdd4dbe2e9f0f7fe050c131a21282f363d444b525960676e757c838a91"
     "989fa6adb4bbc2c9d0d7dee5ecf3fa01080f161d242b323940474e555c636a71"
     "787f868d949ba2a9b0b7bec5ccd3dae1e8eff6fd040b121920272e353c434a51"
     "585f666d747b828990979ea5acb3bac1c8cfd6dde4ebf2f900070e151c232a31"
     "383f464d545b626970777e858c939aa1a8afb6bdc4cbd2d9e0e7eef5fc030a11"
     "181f262d"},
    {"AARE",
     "61160a010006042bce0f02be0b0409757365722d64617461"},
    {"AARE-mismatch",
     "610d0a010206042bce0f02be020400"},
    {"RLRQ",
     "6210020100be0b0409757365722d64617461"},
    {"RLRE",
     "6307020101be020400"},
    {"ABRT",
     "64030a0100"},
    {"ABRT-provider",
     "64030a0101"},
};

TEST(CodecGolden, EveryMcamOperationEncodesToItsVector) {
  const auto corpus = codec_corpus::pdus();
  ASSERT_EQ(corpus.size(), std::size(kPduGolden));
  std::set<core::Op> ops;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    SCOPED_TRACE(corpus[i].first);
    ASSERT_EQ(corpus[i].first, kPduGolden[i].name);
    const Bytes wire = core::encode(corpus[i].second);
    EXPECT_EQ(hex(wire), kPduGolden[i].hex);
    ops.insert(core::op_of(corpus[i].second));
    // The tree reads the direct writer's octets back as the same PDU.
    auto tree = asn1::decode(wire);
    ASSERT_TRUE(tree.ok()) << tree.error().message;
    auto decoded = core::pdu_from_value(tree.value());
    ASSERT_TRUE(decoded.ok()) << decoded.error().message;
    EXPECT_TRUE(decoded.value() == corpus[i].second);
  }
  EXPECT_EQ(ops.size(), 34u) << "an MCAM operation has no golden vector";
}

TEST(CodecGolden, EveryPpduAndApduEncodesToItsVector) {
  const auto corpus = codec_corpus::osi_pdus();
  ASSERT_EQ(corpus.size(), std::size(kOsiGolden));
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    SCOPED_TRACE(corpus[i].first);
    ASSERT_EQ(corpus[i].first, kOsiGolden[i].name);
    EXPECT_EQ(hex(corpus[i].second), kOsiGolden[i].hex);
  }
}

// ---------------------------------------------------------------------------
// Re-encode identity (the McamPduProperty seeds and generator).

TEST(CodecReencode, TreeReencodesTheWritersOctetsUnchanged) {
  for (const std::uint64_t seed : {101, 202, 303, 404, 505}) {
    common::Rng rng(seed);
    for (int i = 0; i < 300; ++i) {
      const core::Pdu pdu = core::random_pdu(rng);
      const Bytes wire = core::encode(pdu);
      auto tree = asn1::decode(wire);
      ASSERT_TRUE(tree.ok()) << tree.error().message;
      EXPECT_EQ(asn1::encode(tree.value()), wire)
          << core::op_name(core::op_of(pdu)) << " seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Mutation differential.

/// Agreement bookkeeping: every disagreement is counted and the first few
/// are kept, with the input in hex, for the failure message.
struct Tally {
  long inputs = 0;
  long disagreements = 0;
  std::vector<std::string> examples;

  void disagree(const std::string& what, ByteSpan input) {
    ++disagreements;
    if (examples.size() < 8) examples.push_back(what + " on " + hex(input));
  }
};

template <typename T>
std::string describe(const Result<T>& r) {
  if (r.ok()) return "ok";
  return "error " + std::to_string(r.error().code) + " '" +
         r.error().message + "'";
}

/// Same accept/reject and, on reject, the same code and message. Returns
/// whether both accepted (the caller then compares fields).
template <typename T>
bool same_outcome(const char* codec, const Result<T>& direct,
                  const Result<T>& oracle, ByteSpan input, Tally& t) {
  if (direct.ok() == oracle.ok() &&
      (direct.ok() || (direct.error().code == oracle.error().code &&
                       direct.error().message == oracle.error().message)))
    return direct.ok();
  t.disagree(std::string(codec) + ": direct " + describe(direct) +
                 ", tree " + describe(oracle),
             input);
  return false;
}

/// The tree oracle: asn1::decode, then `extract` over the Value.
template <typename T, typename F>
Result<T> via_tree(ByteSpan input, F&& extract) {
  auto tree = asn1::decode(input);
  if (!tree.ok()) return tree.error();
  return extract(tree.value());
}

void compare_mcam(ByteSpan in, Tally& t) {
  const auto direct = core::decode(in);
  const auto oracle = via_tree<core::Pdu>(
      in, [](const asn1::Value& v) { return core::pdu_from_value(v); });
  if (same_outcome("core::decode", direct, oracle, in, t) &&
      !(direct.value() == oracle.value()))
    t.disagree("core::decode: fields differ", in);

  const auto peek = core::peek_op(in);
  const auto peek_oracle = via_tree<core::Op>(
      in, [](const asn1::Value& v) -> Result<core::Op> {
        if (v.tag_class() != asn1::TagClass::Application)
          return Error::make(core::kUnknownOp, "not an MCAM PDU");
        return static_cast<core::Op>(v.tag());
      });
  if (same_outcome("core::peek_op", peek, peek_oracle, in, t) &&
      peek.value() != peek_oracle.value())
    t.disagree("core::peek_op: op differs", in);
}

void compare_ppdu(const Bytes& in, Tally& t) {
  const auto direct = osi::parse_ppdu(in);
  const auto oracle = via_tree<osi::PpduView>(
      in, [](const asn1::Value& v) { return osi::ppdu_from_value(v); });
  if (!same_outcome("osi::parse_ppdu", direct, oracle, in, t)) return;
  const osi::PpduView& a = direct.value();
  const osi::PpduView& b = oracle.value();
  if (a.type != b.type || a.context_id != b.context_id ||
      a.reason != b.reason || a.user_data != b.user_data)
    t.disagree("osi::parse_ppdu: fields differ", in);
}

void compare_acse(const Bytes& in, Tally& t) {
  const auto direct = osi::parse_acse(in);
  const auto oracle = via_tree<osi::AcseApdu>(
      in, [](const asn1::Value& v) { return osi::acse_from_value(v); });
  if (!same_outcome("osi::parse_acse", direct, oracle, in, t)) return;
  const osi::AcseApdu& a = direct.value();
  const osi::AcseApdu& b = oracle.value();
  if (a.type != b.type || a.version != b.version || a.result != b.result ||
      a.context != b.context || a.reason != b.reason ||
      a.user_information != b.user_information)
    t.disagree("osi::parse_acse: fields differ", in);
}

bool same_msg(const estelle::Interaction& a, const estelle::Interaction& b) {
  return a.kind == b.kind && a.payload == b.payload && a.value == b.value;
}

bool same_frame(const estelle::Frame& a, const estelle::Frame& b) {
  if (a.type != b.type || a.node != b.node || a.nodes != b.nodes ||
      a.shards != b.shards || a.spec_hash != b.spec_hash ||
      a.topology_version != b.topology_version ||
      a.assign_hash != b.assign_hash || a.accept != b.accept ||
      a.reason != b.reason || a.round != b.round ||
      a.quiescent != b.quiescent || a.epoch != b.epoch || a.recv != b.recv ||
      a.entries.size() != b.entries.size())
    return false;
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    const estelle::TransferEntry& x = a.entries[i];
    const estelle::TransferEntry& y = b.entries[i];
    if (x.channel != y.channel || x.dir != y.dir ||
        x.sent_at_ns != y.sent_at_ns || !same_msg(x.msg, y.msg))
      return false;
  }
  return true;
}

void compare_frame(ByteSpan in, Tally& t) {
  const auto direct = estelle::decode_frame(in);
  const auto oracle = via_tree<estelle::Frame>(
      in, [](const asn1::Value& v) { return estelle::frame_from_value(v); });
  if (same_outcome("decode_frame", direct, oracle, in, t) &&
      !same_frame(direct.value(), oracle.value()))
    t.disagree("decode_frame: fields differ", in);
}

/// The byte-header parsers have no tree twin: they must reject exactly the
/// inputs too short for their header (or, for an SPDU, for its length
/// field, in either length form), read the rest faithfully, and never throw.
void check_tpdu_spdu(const Bytes& in, Tally& t) {
  try {
    const auto tpdu = osi::parse_tpdu(in);
    if (tpdu.ok() != (in.size() >= 5)) {
      t.disagree("osi::parse_tpdu: " + describe(tpdu), in);
    } else if (tpdu.ok()) {
      const std::uint32_t seq = (std::uint32_t{in[1]} << 24) |
                                (std::uint32_t{in[2]} << 16) |
                                (std::uint32_t{in[3]} << 8) | in[4];
      if (static_cast<std::uint8_t>(tpdu.value().type) != in[0] ||
          tpdu.value().seq != seq ||
          tpdu.value().payload != Bytes(in.begin() + 5, in.end()))
        t.disagree("osi::parse_tpdu: fields differ", in);
    }
    // SPDU header: si + 2 length octets, or si + FF FF + 4 length octets.
    const auto spdu = osi::parse_spdu(in);
    const bool long_form = in.size() >= 3 && in[1] == 0xFF && in[2] == 0xFF;
    const std::size_t header = long_form ? 7 : 3;
    std::size_t len = 0;
    if (in.size() >= header)
      for (std::size_t i = long_form ? 3 : 1; i < header; ++i)
        len = len << 8 | in[i];
    if (spdu.ok() != (in.size() >= header && len <= in.size() - header) ||
        (!spdu.ok() && spdu.error().code != osi::kShortSpdu)) {
      t.disagree("osi::parse_spdu: " + describe(spdu), in);
    } else if (spdu.ok()) {
      const auto first = in.begin() + static_cast<std::ptrdiff_t>(header);
      if (static_cast<std::uint8_t>(spdu.value().type) != in[0] ||
          spdu.value().user_data !=
              Bytes(first, first + static_cast<std::ptrdiff_t>(len)))
        t.disagree("osi::parse_spdu: fields differ", in);
    }
  } catch (const std::exception& e) {
    t.disagree(std::string("TPDU/SPDU parser threw: ") + e.what(), in);
  }
}

/// Offsets of every TLV header in a valid BER value (depth-first), so the
/// mutator can aim at tag and length octets.
struct Tlv {
  std::size_t start;
  std::size_t header;  // octets of tag + length
};

void collect_tlvs(ByteSpan data, std::size_t base, std::vector<Tlv>& out) {
  const std::uint8_t* p = data.data();
  const std::uint8_t* const end = p + data.size();
  while (p != end) {
    const std::uint8_t* const start = p;
    asn1::Header h;
    if (asn1::read_header(p, end, h) != asn1::BerFault::kNone) return;
    const std::size_t offset = base + static_cast<std::size_t>(start - data.data());
    out.push_back(Tlv{offset, static_cast<std::size_t>(p - start)});
    if (h.constructed)
      collect_tlvs(ByteSpan{p, h.length},
                   base + static_cast<std::size_t>(p - data.data()), out);
    p += h.length;
  }
}

struct Seed {
  Bytes bytes;
  std::vector<Tlv> tlvs;
};

std::vector<Seed> build_corpus() {
  std::vector<Bytes> inputs;
  for (const auto& [name, pdu] : codec_corpus::pdus())
    inputs.push_back(core::encode(pdu));
  for (const auto& [name, bytes] : codec_corpus::osi_pdus())
    inputs.push_back(bytes);
  common::Rng rng(0xc0dec);
  for (int i = 0; i < 64; ++i) {
    const Bytes pdu = core::encode(core::random_pdu(rng));
    inputs.push_back(pdu);
    inputs.push_back(osi::build_td(1, pdu));  // the P-DATA a request rides
  }
  for (const estelle::Frame& f : estelle::catalogue()) {
    const Bytes wire = estelle::encode_frame(f);
    inputs.emplace_back(wire.begin() + 4, wire.end());  // the BER body
  }
  // A batch of request-path traffic, as a Distributed node ships it.
  estelle::Frame batch;
  batch.type = estelle::FrameType::TransferBatch;
  batch.round = 77;
  for (std::uint32_t i = 0; i < 6; ++i)
    batch.entries.push_back(estelle::TransferEntry{
        i, static_cast<std::uint8_t>(i & 1), 1000 * static_cast<int>(i),
        estelle::Interaction(0xf0, inputs[i])});
  const Bytes wire = estelle::encode_frame(batch);
  inputs.emplace_back(wire.begin() + 4, wire.end());

  std::vector<Seed> corpus;
  for (Bytes& b : inputs) {
    Seed s{std::move(b), {}};
    collect_tlvs(s.bytes, 0, s.tlvs);
    corpus.push_back(std::move(s));
  }
  return corpus;
}

/// One to three seeded corruptions of a corpus entry.
Bytes mutate(const std::vector<Seed>& corpus, common::Rng& rng) {
  const Seed& seed = corpus[rng.below(corpus.size())];
  Bytes b = seed.bytes;
  const auto pick_tlv = [&]() -> const Tlv* {
    if (seed.tlvs.empty()) return nullptr;
    const Tlv& tlv = seed.tlvs[rng.below(seed.tlvs.size())];
    return tlv.start + tlv.header <= b.size() ? &tlv : nullptr;
  };
  for (std::size_t n = 1 + rng.below(3); n-- > 0;) {
    switch (rng.below(7)) {
      case 0:  // bit flips
        for (std::size_t k = 1 + rng.below(3); k-- > 0 && !b.empty();)
          b[rng.below(b.size())] ^= static_cast<std::uint8_t>(1u << rng.below(8));
        break;
      case 1:  // truncation
        if (!b.empty()) b.resize(rng.below(b.size()));
        break;
      case 2:  // drop a run of octets
        if (!b.empty()) {
          const std::size_t at = rng.below(b.size());
          const std::size_t len = std::min<std::size_t>(1 + rng.below(8), b.size() - at);
          b.erase(b.begin() + static_cast<std::ptrdiff_t>(at),
                  b.begin() + static_cast<std::ptrdiff_t>(at + len));
        }
        break;
      case 3:  // length-octet edit
        if (const Tlv* tlv = pick_tlv()) {
          std::uint8_t& len = b[tlv->start + tlv->header - 1];
          static constexpr std::uint8_t kLengths[] = {0x00, 0x7f, 0x80, 0x81,
                                                      0x82, 0x84, 0x88, 0x89,
                                                      0xff};
          switch (rng.below(3)) {
            case 0:
              len = static_cast<std::uint8_t>(len + 1);
              break;
            case 1:
              len = static_cast<std::uint8_t>(len - 1);
              break;
            default:
              len = kLengths[rng.below(std::size(kLengths))];
          }
        }
        break;
      case 4:  // tag-octet edit: class, form, number, high-tag escape
        if (const Tlv* tlv = pick_tlv()) {
          std::uint8_t& tag = b[tlv->start];
          static constexpr std::uint8_t kMasks[] = {0x20, 0x40, 0x80, 0x01,
                                                    0x1f};
          tag ^= kMasks[rng.below(std::size(kMasks))];
        }
        break;
      case 5: {  // splice a TLV of another corpus entry over one of this one
        const Seed& donor = corpus[rng.below(corpus.size())];
        if (donor.tlvs.empty() || b.empty()) break;
        const Tlv& from = donor.tlvs[rng.below(donor.tlvs.size())];
        const std::size_t from_len =
            std::min<std::size_t>(donor.bytes.size() - from.start,
                                  from.header + rng.below(24));
        const std::size_t at = rng.below(b.size());
        const std::size_t cut = std::min<std::size_t>(rng.below(16), b.size() - at);
        b.erase(b.begin() + static_cast<std::ptrdiff_t>(at),
                b.begin() + static_cast<std::ptrdiff_t>(at + cut));
        b.insert(b.begin() + static_cast<std::ptrdiff_t>(at),
                 donor.bytes.begin() + static_cast<std::ptrdiff_t>(from.start),
                 donor.bytes.begin() +
                     static_cast<std::ptrdiff_t>(from.start + from_len));
        break;
      }
      default:  // random octet
        if (!b.empty())
          b[rng.below(b.size())] = static_cast<std::uint8_t>(rng.below(256));
        break;
    }
  }
  return b;
}

TEST(CodecDifferential, SpduLongFormHeadersRejectWithoutThrowing) {
  // The long length form (FF FF, then four length octets) cut short at
  // every octet, a length one past the data, and well-formed edge sizes.
  const std::uint8_t dt = 0x01;
  std::vector<Bytes> inputs = {
      {dt, 0xFF},
      {dt, 0xFF, 0xFF},
      {dt, 0xFF, 0xFF, 0x00},
      {dt, 0xFF, 0xFF, 0x00, 0x00},
      {dt, 0xFF, 0xFF, 0x00, 0x00, 0xFF},
      {dt, 0xFF, 0xFF, 0x00, 0x00, 0xFF, 0xFF},
      {dt, 0xFF, 0xFF, 0x00, 0x00, 0x00, 0x02, 'x'},
      {dt, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 'x'},
      {dt, 0xFF, 0xFF, 0x00, 0x00, 0x00, 0x00},
      {dt, 0xFF, 0xFE},
  };
  for (const std::size_t n : {std::size_t{65534}, std::size_t{65535},
                              std::size_t{65536}}) {
    Bytes wire = osi::build_spdu(osi::Spdu::DT, Bytes(n, 0x5a));
    inputs.push_back(wire);
    wire.pop_back();
    inputs.push_back(std::move(wire));
  }
  Tally t;
  for (const Bytes& in : inputs) check_tpdu_spdu(in, t);
  std::string examples;
  for (const std::string& e : t.examples) examples += "\n  " + e;
  EXPECT_EQ(t.disagreements, 0) << examples;
}

TEST(CodecDifferential, DirectDecodersAgreeWithTheTreeOnMutatedInput) {
  const std::vector<Seed> corpus = build_corpus();
  common::Rng rng(0x5eed);
  Tally t;
  const int n = input_count();
  // The unmutated corpus first: every direct decoder must accept what the
  // tree accepts on clean input, too.
  for (const Seed& s : corpus) {
    compare_mcam(s.bytes, t);
    compare_ppdu(s.bytes, t);
    compare_acse(s.bytes, t);
    compare_frame(s.bytes, t);
    check_tpdu_spdu(s.bytes, t);
  }
  for (int i = 0; i < n; ++i) {
    const Bytes input = mutate(corpus, rng);
    ++t.inputs;
    try {
      compare_mcam(input, t);
      compare_ppdu(input, t);
      compare_acse(input, t);
      compare_frame(input, t);
    } catch (const std::exception& e) {
      t.disagree(std::string("a decoder threw: ") + e.what(), input);
    }
    check_tpdu_spdu(input, t);
  }
  std::string examples;
  for (const std::string& e : t.examples) examples += "\n  " + e;
  EXPECT_EQ(t.disagreements, 0) << "over " << t.inputs << " inputs:"
                                << examples;
  EXPECT_EQ(t.inputs, n);
}

}  // namespace
}  // namespace mcam
