// Wire-frame tests for the distributed shard runtime (transport/frame.hpp):
// every catalogue frame must survive BER encode → length-prefixed framing →
// reassembly → decode bit-exactly (u64 extremes included — hashes ride an
// int64 bit-cast), split read() boundaries must never corrupt or duplicate a
// frame, and malformed bytes (truncation, garbage, absurd length prefixes,
// flipped bits) must surface kNeedMore/kError — never a crash, never a
// silently wrong frame.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "asn1/ber.hpp"
#include "asn1/value.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "estelle/transport/frame.hpp"
#include "frame_catalogue.hpp"

namespace mcam::estelle {
namespace {

using common::ByteSpan;
using common::Bytes;
using common::Result;

void expect_equal(const Frame& got, const Frame& want, const char* where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(got.type, want.type) << frame_type_name(want.type);
  EXPECT_EQ(got.node, want.node);
  EXPECT_EQ(got.nodes, want.nodes);
  EXPECT_EQ(got.shards, want.shards);
  EXPECT_EQ(got.spec_hash, want.spec_hash);
  EXPECT_EQ(got.topology_version, want.topology_version);
  EXPECT_EQ(got.assign_hash, want.assign_hash);
  EXPECT_EQ(got.accept, want.accept);
  EXPECT_EQ(got.reason, want.reason);
  EXPECT_EQ(got.round, want.round);
  EXPECT_EQ(got.epoch, want.epoch);
  EXPECT_EQ(got.quiescent, want.quiescent);
  EXPECT_EQ(got.recv, want.recv);
  ASSERT_EQ(got.entries.size(), want.entries.size());
  for (std::size_t i = 0; i < want.entries.size(); ++i) {
    SCOPED_TRACE("entry " + std::to_string(i));
    EXPECT_EQ(got.entries[i].channel, want.entries[i].channel);
    EXPECT_EQ(got.entries[i].dir, want.entries[i].dir);
    EXPECT_EQ(got.entries[i].sent_at_ns, want.entries[i].sent_at_ns);
    EXPECT_EQ(got.entries[i].msg.kind, want.entries[i].msg.kind);
    EXPECT_EQ(got.entries[i].msg.payload, want.entries[i].msg.payload);
    EXPECT_EQ(got.entries[i].msg.value, want.entries[i].msg.value);
  }
}

TEST(TransportFrame, EveryCatalogueFrameRoundTrips) {
  for (const Frame& f : catalogue()) {
    SCOPED_TRACE(frame_type_name(f.type));
    const Bytes wire = encode_frame(f);
    ASSERT_GE(wire.size(), 4u);
    // Body decode (no prefix).
    const auto body = decode_frame(ByteSpan{wire.data() + 4, wire.size() - 4});
    ASSERT_TRUE(body.ok()) << body.error().message;
    expect_equal(body.value(), f, "decode_frame");
    // Full framed path.
    FrameReassembler rx;
    rx.feed(ByteSpan{wire.data(), wire.size()});
    Frame out;
    std::string err;
    ASSERT_EQ(rx.next(&out, &err), FrameReassembler::Next::kFrame) << err;
    expect_equal(out, f, "reassembler");
    EXPECT_EQ(rx.next(&out, &err), FrameReassembler::Next::kNeedMore);
    EXPECT_EQ(rx.pending(), 0u);
  }
}

TEST(TransportFrame, ReassemblySurvivesEverySplitBoundary) {
  // The whole catalogue on one stream, fed with a split at every byte
  // offset: first `cut` bytes, then the rest. Every split must yield the
  // same frame sequence.
  const std::vector<Frame> frames = catalogue();
  Bytes stream;
  for (const Frame& f : frames) encode_frame_to(f, stream);
  for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    FrameReassembler rx;
    rx.feed(ByteSpan{stream.data(), cut});
    Frame out;
    std::string err;
    std::size_t got = 0;
    while (rx.next(&out, &err) == FrameReassembler::Next::kFrame) {
      ASSERT_LT(got, frames.size());
      expect_equal(out, frames[got], "pre-split");
      ++got;
    }
    rx.feed(ByteSpan{stream.data() + cut, stream.size() - cut});
    while (rx.next(&out, &err) == FrameReassembler::Next::kFrame) {
      ASSERT_LT(got, frames.size());
      expect_equal(out, frames[got], "post-split");
      ++got;
    }
    EXPECT_EQ(got, frames.size());
    EXPECT_EQ(rx.pending(), 0u);
  }
}

TEST(TransportFrame, ByteAtATimeFeedReassemblesAndReusesItsBuffer) {
  const std::vector<Frame> frames = catalogue();
  Bytes stream;
  // Enough traffic to push the reassembler past its compaction threshold.
  for (int rep = 0; rep < 200; ++rep)
    for (const Frame& f : frames) encode_frame_to(f, stream);
  FrameReassembler rx;
  Frame out;
  std::string err;
  std::size_t got = 0;
  for (const std::uint8_t b : stream) {
    rx.feed(ByteSpan{&b, 1});
    while (rx.next(&out, &err) == FrameReassembler::Next::kFrame) {
      expect_equal(out, frames[got % frames.size()], "byte-at-a-time");
      ++got;
    }
  }
  EXPECT_EQ(got, 200 * frames.size());
  EXPECT_EQ(rx.pending(), 0u);
}

TEST(TransportFrame, TruncationIsNeedMoreNeverError) {
  // The one-entry batch whose entry carries a [0] value.
  const Bytes wire = encode_frame(catalogue()[2]);
  for (std::size_t len = 0; len < wire.size(); ++len) {
    FrameReassembler rx;
    rx.feed(ByteSpan{wire.data(), len});
    Frame out;
    std::string err;
    EXPECT_EQ(rx.next(&out, &err), FrameReassembler::Next::kNeedMore)
        << "prefix of " << len << " bytes";
  }
}

TEST(TransportFrame, AbsurdLengthPrefixIsRejectedWithoutAllocating) {
  FrameReassembler rx;
  const std::uint8_t huge[4] = {0xff, 0xff, 0xff, 0xff};  // ~4 GiB claim
  rx.feed(ByteSpan{huge, 4});
  Frame out;
  std::string err;
  EXPECT_EQ(rx.next(&out, &err), FrameReassembler::Next::kError);
  EXPECT_NE(err.find("exceeds"), std::string::npos) << err;
}

TEST(TransportFrame, FramedGarbageBodyIsAnError) {
  // A well-formed length prefix around bytes that are not a frame: the
  // stream is framed but desynchronized — fatal, not skippable.
  Bytes wire = {0x00, 0x00, 0x00, 0x04, 0xde, 0xad, 0xbe, 0xef};
  FrameReassembler rx;
  rx.feed(ByteSpan{wire.data(), wire.size()});
  Frame out;
  std::string err;
  EXPECT_EQ(rx.next(&out, &err), FrameReassembler::Next::kError);
  EXPECT_FALSE(err.empty());
}

TEST(TransportFrame, WrongEnvelopeAndBadFieldsAreDecodeErrors) {
  // A UNIVERSAL SEQUENCE is a valid BER value but not a frame envelope.
  Bytes body;
  asn1::encode_to(asn1::Value::sequence({asn1::Value::integer(1)}), body);
  EXPECT_FALSE(decode_frame(ByteSpan{body.data(), body.size()}).ok());

  // APPLICATION tags outside the catalogue: the retired Transfer (3),
  // Advertise (4), NullRound (5), Probe (7) and ProbeAck (8) tags, and one
  // never assigned. Each body carries enough integer fields for any retired
  // layout.
  for (const std::uint32_t tag : {3u, 4u, 5u, 7u, 8u, 99u}) {
    SCOPED_TRACE("APPLICATION " + std::to_string(tag));
    body.clear();
    asn1::encode_to(
        asn1::Value::application(
            tag, {asn1::Value::integer(1), asn1::Value::integer(2),
                  asn1::Value::boolean(true), asn1::Value::integer(3),
                  asn1::Value::integer(4)}),
        body);
    const auto got = decode_frame(ByteSpan{body.data(), body.size()});
    ASSERT_FALSE(got.ok()) << frame_type_name(got.value().type);
    EXPECT_NE(got.error().message.find("unknown type"), std::string::npos)
        << got.error().message;
  }

  // Right envelope, missing fields.
  body.clear();
  asn1::encode_to(asn1::Value::application(
                      static_cast<std::uint32_t>(FrameType::Hello),
                      {asn1::Value::integer(1)}),
                  body);
  EXPECT_FALSE(decode_frame(ByteSpan{body.data(), body.size()}).ok());

  // One-entry batches whose entry is bad: dir outside 0/1, and a [0]
  // interaction value that is not an INTEGER.
  const auto one_entry_batch = [&body](std::vector<asn1::Value> entry) {
    body.clear();
    asn1::encode_to(
        asn1::Value::application(
            static_cast<std::uint32_t>(FrameType::TransferBatch),
            {asn1::Value::integer(1),
             asn1::Value::sequence({asn1::Value::sequence(std::move(entry))})}),
        body);
    return decode_frame(ByteSpan{body.data(), body.size()});
  };
  const auto bad_dir = one_entry_batch(
      {asn1::Value::integer(0), asn1::Value::integer(2),
       asn1::Value::integer(0), asn1::Value::integer(0),
       asn1::Value::octet_string({})});
  ASSERT_FALSE(bad_dir.ok());
  EXPECT_EQ(bad_dir.error().code, asn1::kWrongType);

  const auto not_int = one_entry_batch(
      {asn1::Value::integer(0), asn1::Value::integer(1),
       asn1::Value::integer(0), asn1::Value::integer(0),
       asn1::Value::octet_string({}),
       asn1::Value::context(0, asn1::Value::boolean(true))});
  ASSERT_FALSE(not_int.ok());
  EXPECT_EQ(not_int.error().code, asn1::kWrongType);
}

/// The documented abstract syntax of every frame (the catalogue in
/// frame.hpp), built as a plain Value tree. encode_frame_to's writer must
/// emit exactly these octets — minimal INTEGERs, definite lengths — or a
/// peer's reader would see bytes no tree encoder produces.
asn1::Value frame_value(const Frame& f) {
  using asn1::Value;
  // u64 fields ride the INTEGER as an int64 bit-cast.
  auto u64v = [](std::uint64_t v) {
    return Value::integer(static_cast<std::int64_t>(v));
  };
  // kind, payload, then a non-zero value as [0] EXPLICIT INTEGER.
  auto add_msg = [](std::vector<Value>& fields, const Interaction& msg) {
    fields.push_back(Value::integer(msg.kind));
    fields.push_back(Value::octet_string(msg.payload));
    if (msg.value != 0)
      fields.push_back(Value::context(0, Value::integer(msg.value)));
  };
  std::vector<Value> body;
  switch (f.type) {
    case FrameType::Hello:
      body = {u64v(f.node),      u64v(f.nodes),
              u64v(f.shards),    u64v(f.spec_hash),
              u64v(f.topology_version), u64v(f.assign_hash)};
      break;
    case FrameType::Welcome:
      body = {u64v(f.node), Value::boolean(f.accept),
              Value::utf8string(f.reason)};
      break;
    case FrameType::RoundDone:
      body = {u64v(f.node), u64v(f.round), Value::boolean(f.quiescent)};
      break;
    case FrameType::Bye:
      body = {u64v(f.node)};
      break;
    case FrameType::TransferBatch: {
      std::vector<Value> entries;
      for (const TransferEntry& e : f.entries) {
        std::vector<Value> ev = {u64v(e.channel), Value::integer(e.dir),
                                 Value::integer(e.sent_at_ns)};
        add_msg(ev, e.msg);
        entries.push_back(Value::sequence(std::move(ev)));
      }
      body = {u64v(f.round), Value::sequence(std::move(entries))};
      break;
    }
    case FrameType::HelloResume:
      body = {u64v(f.node), u64v(f.spec_hash), u64v(f.epoch), u64v(f.recv)};
      break;
    case FrameType::SessionAck:
      body = {u64v(f.recv)};
      break;
  }
  return Value::application(static_cast<std::uint32_t>(f.type),
                            std::move(body));
}

TEST(TransportFrame, DirectWriterMatchesTheValueTreeEncoder) {
  for (const Frame& f : catalogue()) {
    SCOPED_TRACE(frame_type_name(f.type));
    const Bytes wire = encode_frame(f);
    Bytes ref;
    asn1::encode_to(frame_value(f), ref);
    ASSERT_EQ(wire.size(), ref.size() + 4);
    EXPECT_TRUE(std::equal(wire.begin() + 4, wire.end(), ref.begin()))
        << "direct writer diverged from the tree encoder";
    // The sequenced dialect carries the same body after its sequence number.
    Bytes seq;
    encode_frame_seq_to(f, 0x0102030405060708ull, seq);
    ASSERT_EQ(seq.size(), ref.size() + 12);
    EXPECT_TRUE(std::equal(seq.begin(), seq.begin() + 4, wire.begin()));
    EXPECT_TRUE(std::equal(seq.begin() + 12, seq.end(), ref.begin()));
  }
}

TEST(TransportFrame, ABadBatchEntryFailsTheWholeFrame) {
  // A batch entry is a frame field like any other: one bad entry among good
  // ones fails the decode with that entry's error, on the direct reader and
  // on the tree reference alike, and the reassembler then treats the stream
  // as corrupt.
  using asn1::Value;
  auto good = [](int i) {
    return Value::sequence({Value::integer(i), Value::integer(0),
                            Value::integer(100 + i), Value::integer(1),
                            Value::octet_string({0x01})});
  };
  struct Bad {
    const char* what;
    Value entry;
    int code;
  };
  const Bad bad[] = {
      {"missing fields", Value::sequence({Value::integer(1)}),
       asn1::kTruncated},
      {"dir not 0/1",
       Value::sequence({Value::integer(7), Value::integer(2),
                        Value::integer(0), Value::integer(0),
                        Value::octet_string({})}),
       asn1::kWrongType},
      {"not a SEQUENCE", Value::integer(9), asn1::kWrongType},
      {"[0] holding a string",
       Value::sequence({Value::integer(8), Value::integer(0),
                        Value::integer(0), Value::integer(0),
                        Value::octet_string({}),
                        Value::context(0, Value::utf8string("v"))}),
       asn1::kWrongType},
  };
  for (const Bad& b : bad) {
    SCOPED_TRACE(b.what);
    Bytes body;
    asn1::encode_to(
        Value::application(
            static_cast<std::uint32_t>(FrameType::TransferBatch),
            {Value::integer(5),
             Value::sequence({good(0), good(1), b.entry, good(2)})}),
        body);
    const auto direct = decode_frame(ByteSpan{body.data(), body.size()});
    ASSERT_FALSE(direct.ok());
    EXPECT_EQ(direct.error().code, b.code) << direct.error().message;

    const auto tree = asn1::decode(ByteSpan{body.data(), body.size()});
    ASSERT_TRUE(tree.ok()) << tree.error().message;
    const auto oracle = frame_from_value(tree.value());
    ASSERT_FALSE(oracle.ok());
    EXPECT_EQ(oracle.error().code, direct.error().code);
    EXPECT_EQ(oracle.error().message, direct.error().message);

    ASSERT_LT(body.size(), 256u);
    Bytes wire = {0, 0, 0, static_cast<std::uint8_t>(body.size())};
    wire.insert(wire.end(), body.begin(), body.end());
    FrameReassembler rx;
    rx.feed(ByteSpan{wire.data(), wire.size()});
    Frame out;
    std::string err;
    EXPECT_EQ(rx.next(&out, &err), FrameReassembler::Next::kError);
  }
}

TEST(TransportFrame, BatchReaderAcceptsExactlyWhatTheTreeAccepts) {
  // Two TransferBatch bodies on which a cursor reader that skipped the
  // validating walk disagreed with the tree decoder (found by
  // codec_differential_test's mutator).
  //
  // An entry whose sent_at_ns is a [2] IMPLICIT primitive: as_int() takes a
  // context-tagged primitive, so the entry, and the frame, are good.
  const Bytes context_int = {0x6a, 0x15, 0x02, 0x01, 0x05, 0x30, 0x10, 0x30,
                             0x0e, 0x02, 0x01, 0x01, 0x02, 0x01, 0x00, 0x82,
                             0x01, 0x07, 0x02, 0x01, 0x09, 0x04, 0x00};
  const auto got = decode_frame(ByteSpan{context_int});
  ASSERT_TRUE(got.ok()) << got.error().message;
  ASSERT_EQ(got.value().entries.size(), 1u);
  EXPECT_EQ(got.value().entries[0].channel, 1u);
  EXPECT_EQ(got.value().entries[0].sent_at_ns, 7);
  EXPECT_EQ(got.value().entries[0].msg.kind, 9);

  // An entry whose second INTEGER claims five content octets it does not
  // have: the body is not valid BER, so the frame fails as the tree fails.
  const Bytes broken = {0x6a, 0x0c, 0x02, 0x01, 0x01, 0x30, 0x07,
                        0x30, 0x05, 0x02, 0x01, 0x00, 0x02, 0x05};
  const auto failed = decode_frame(ByteSpan{broken});
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.error().code, asn1::kTruncated);
  EXPECT_EQ(failed.error().message, "content extends past buffer");

  for (const Bytes* body : {&context_int, &broken}) {
    const auto tree = asn1::decode(ByteSpan{*body});
    const auto oracle =
        tree.ok() ? frame_from_value(tree.value()) : Result<Frame>(tree.error());
    const auto direct = decode_frame(ByteSpan{*body});
    ASSERT_EQ(direct.ok(), oracle.ok());
    if (direct.ok())
      expect_equal(direct.value(), oracle.value(), "direct vs tree");
    else
      EXPECT_EQ(direct.error().message, oracle.error().message);
  }
}

TEST(TransportFrame, ReassemblerReusesItsBufferAcrossBatchFrames) {
  // Satellite guarantee: batch-sized frames arriving in read()-sized chunks
  // must stop regrowing the receive buffer once it has warmed up.
  Frame f;
  f.type = FrameType::TransferBatch;
  f.round = 1;
  for (std::uint32_t i = 0; i < 64; ++i) {
    TransferEntry e;
    e.channel = i;
    e.dir = 0;
    e.sent_at_ns = static_cast<std::int64_t>(i);
    e.msg.kind = static_cast<int>(i);
    e.msg.payload = Bytes(64, 0xab);
    f.entries.push_back(std::move(e));
  }
  Bytes wire;
  encode_frame_to(f, wire);
  ASSERT_GT(wire.size(), 4096u);  // big enough to exercise compaction
  FrameReassembler rx;
  Frame out;
  std::string err;
  std::uint64_t warmed = 0;
  for (int rep = 0; rep < 200; ++rep) {
    std::size_t off = 0;
    while (off < wire.size()) {
      const std::size_t n = std::min<std::size_t>(1024, wire.size() - off);
      rx.feed(ByteSpan{wire.data() + off, n});
      off += n;
      while (rx.next(&out, &err) == FrameReassembler::Next::kFrame) {
      }
    }
    if (rep == 19) warmed = rx.regrowths();
  }
  EXPECT_EQ(rx.regrowths(), warmed)
      << "receive buffer kept regrowing in the steady state";
  EXPECT_EQ(rx.pending(), 0u);
}

TEST(TransportFrame, BitFlipFuzzNeverCrashesOrMisframes) {
  // Flip every single byte of a valid frame to 64 random values: decode
  // must either fail cleanly or produce *some* frame — never crash. (The
  // length prefix is kept intact so the flip lands in the BER body.) The
  // one-entry batch with a value and the fat batch are the two frames with
  // real structure to corrupt.
  const std::vector<Frame> all = catalogue();
  common::Rng rng(0x7ea7);
  Frame out;
  std::string err;
  for (const Frame* victim : {&all[2], &all.back()}) {
    const Bytes wire = encode_frame(*victim);
    for (std::size_t i = 4; i < wire.size(); ++i) {
      for (int rep = 0; rep < 64; ++rep) {
        Bytes mutated = wire;
        mutated[i] = static_cast<std::uint8_t>(rng.below(256));
        FrameReassembler rx;
        rx.feed(ByteSpan{mutated.data(), mutated.size()});
        (void)rx.next(&out, &err);  // any outcome, no crash
      }
    }
  }
}

TEST(TransportFrame, RandomGarbageStreamsFailCleanly) {
  common::Rng rng(0xfeed);
  for (int round = 0; round < 200; ++round) {
    Bytes junk(1 + rng.below(512));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
    FrameReassembler rx;
    // Feed in random-sized slices.
    std::size_t off = 0;
    Frame out;
    std::string err;
    bool dead = false;
    while (off < junk.size() && !dead) {
      const std::size_t n =
          std::min<std::size_t>(1 + rng.below(64), junk.size() - off);
      rx.feed(ByteSpan{junk.data() + off, n});
      off += n;
      for (;;) {
        const auto next = rx.next(&out, &err);
        if (next == FrameReassembler::Next::kError) {
          dead = true;  // corrupt stream detected — the expected outcome
          break;
        }
        if (next == FrameReassembler::Next::kNeedMore) break;
      }
    }
    SUCCEED();  // reaching here without UB/crash is the assertion
  }
}

}  // namespace
}  // namespace mcam::estelle
