// Wire frames of the distributed shard runtime (transport/).
//
// Distributed nodes synchronize through exactly two primitives: round-stamped
// transfers, which carry a shard's outputs to a remote shard's mailbox with
// the sender's round and clock stamps intact, and the RoundDone barrier,
// which every node sends to every peer after each round and waits on before
// the next. This header makes those primitives *explicit frames* so a
// MailboxTransport can carry them between processes — the paper's "system
// modules are asynchronous units placeable on separate processors" taken
// literally. The frame syntax is ASN.1, written and read by the project's
// direct BER codec (asn1/direct.hpp), the same abstract-syntax layer the
// paper uses for its PDUs; on a byte stream each frame travels
// length-prefixed:
//
//   u32 big-endian body length | BER body ([APPLICATION n] SEQUENCE)
//
// Frame catalogue (APPLICATION tag in brackets; tags 3, 4, 5, 7 and 8 are
// retired and fail to decode):
//   Hello [1]      node, nodes, shards, spec_hash, topology_version,
//                  assign_hash — membership handshake; a peer whose own
//                  values differ answers Welcome{accept=false}.
//   Welcome [2]    node, accept, reason.
//   RoundDone [6]  node, round, quiescent — the node finished round
//                  `round`, after its transfers of that round; every peer
//                  waits for it before starting round+1. quiescent says the
//                  round fired nothing and leapt to no deadline: a round in
//                  which every node says so ends the run.
//   Bye [9]        node — the node left its run; sent once at run end.
//   TransferBatch [10]
//                  round, then SEQUENCE OF entry — the only frame that
//                  carries transfers: a round's transfers to one peer under
//                  one shared round stamp. Each entry is {channel, dir,
//                  sent_at_ns, kind, payload, [0] value unless 0}. channel
//                  indexes ConflictAnalysis::cross_shard_channels()
//                  (deterministic on every node); dir 0 delivers into
//                  endpoint a, 1 into b; round and sent_at_ns are the sender
//                  shard's stamps, preserved bit-exactly so
//                  drain_transfers_until applies the same visibility rule as
//                  in-process. A bad entry fails the frame, like a bad field
//                  of any other frame.
//   HelloResume [11]
//                  node, spec_hash, epoch, recv — the session resume
//                  handshake. Sent as the first frame on a reconnected
//                  stream: spec_hash is the sender's configured session
//                  fingerprint (a mismatch refuses the resume), epoch counts
//                  the sender's reconnect generations, recv is the highest
//                  in-order data sequence number the sender has delivered —
//                  the peer replays its unacknowledged records from recv+1.
//   SessionAck [12]
//                  recv — cumulative delivery acknowledgement; the peer
//                  prunes its outbound log through recv. HelloResume and
//                  SessionAck are session-control frames: on a sequenced
//                  stream they travel with sequence number 0, are consumed
//                  inside the transport, and never reach the runner.
//
// No frame builds a Value tree. The writer computes TransferBatch lengths
// up front, so a warmed send encodes without allocating; the per-round
// frames are small, so their envelope length is patched in once their
// fields are written. The reader (asn1::Node) validates a body exactly as
// the tree decoder would: same accept/reject, same errors. frame_from_value
// runs the same field extraction over a tree, as the tests' reference.
//
// FrameReassembler turns an arbitrary split of the byte stream back into
// frames: feed() whatever read() returned, next() yields complete frames.
// Its receive buffer is reused across frames (compacted in place before it
// would regrow, never shrunk), so steady-state reassembly performs no
// per-frame allocation even at TransferBatch sizes — regrowths() counts the
// times capacity had to be extended, and the transport bench asserts the
// count stays flat once warmed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "estelle/interaction.hpp"

namespace mcam::asn1 {
class Value;
}

namespace mcam::estelle {

enum class FrameType : std::uint32_t {
  Hello = 1,
  Welcome = 2,
  RoundDone = 6,
  Bye = 9,
  TransferBatch = 10,
  HelloResume = 11,
  SessionAck = 12,
};

[[nodiscard]] const char* frame_type_name(FrameType t) noexcept;

/// One transfer inside a TransferBatch. Its round stamp is the batch's,
/// carried once for all of its entries.
struct TransferEntry {
  std::uint32_t channel = 0;
  std::uint8_t dir = 0;  // 0 ⇒ deliver into endpoint a, 1 ⇒ into b
  std::int64_t sent_at_ns = 0;
  Interaction msg;
};

/// One decoded frame. A flat product of every catalogue field — only the
/// fields of `type` are meaningful, the rest stay default. Flat beats a
/// variant here: the transports move Frames through queues by value, and the
/// runner dispatches on `type` in one switch.
struct Frame {
  FrameType type = FrameType::Hello;

  // Hello / Welcome / RoundDone / Bye / HelloResume
  std::uint32_t node = 0;
  std::uint32_t nodes = 0;
  std::uint32_t shards = 0;
  std::uint64_t spec_hash = 0;
  std::uint64_t topology_version = 0;
  std::uint64_t assign_hash = 0;
  bool accept = false;
  std::string reason;

  // TransferBatch / RoundDone
  std::uint64_t round = 0;
  // RoundDone
  bool quiescent = false;

  // HelloResume / SessionAck
  std::uint64_t epoch = 0;
  std::uint64_t recv = 0;

  // TransferBatch (round is shared by every entry)
  std::vector<TransferEntry> entries;
};

/// Frames larger than this are rejected by the reassembler — a garbage
/// length prefix must not make it allocate gigabytes.
inline constexpr std::size_t kMaxFrameBytes = 1u << 24;

/// Append the length-prefixed encoding of `f` to `out` (the send path —
/// appending lets one outbound buffer batch many frames per write()). With
/// `out` warmed to capacity a TransferBatch performs no allocation.
void encode_frame_to(const Frame& f, common::Bytes& out);
/// The length-prefixed encoding of `f` as a fresh buffer (tests).
[[nodiscard]] common::Bytes encode_frame(const Frame& f);
/// The sequenced-stream record of `f`: u32 body length | u64 big-endian
/// sequence number | BER body. Data frames carry seq >= 1; session-control
/// frames (HelloResume, SessionAck) travel with seq 0. Appended to `out`
/// like encode_frame_to — the session transport's only wire dialect.
void encode_frame_seq_to(const Frame& f, std::uint64_t seq,
                         common::Bytes& out);

/// Decode one frame *body* (the BER value, no length prefix). Malformed
/// input is an expected peer condition, not a programming error.
[[nodiscard]] common::Result<Frame> decode_frame(common::ByteSpan body);
/// decode_frame's field extraction over a decoded value tree, the tests'
/// reference: decode_frame(body) and frame_from_value(asn1::decode(body))
/// agree on every input.
[[nodiscard]] common::Result<Frame> frame_from_value(const asn1::Value& v);

/// Incremental stream-to-frame reassembly over split read() boundaries.
/// Default-constructed it speaks the plain `u32 len | body` dialect; with
/// seq_prefixed it parses the sequenced-stream records encode_frame_seq_to
/// emits and exposes each frame's sequence number through last_seq().
class FrameReassembler {
 public:
  enum class Next {
    kFrame,     ///< *out holds a complete frame
    kNeedMore,  ///< the buffered bytes end mid-frame — feed() more
    kError,     ///< unrecoverable stream corruption; *error says what
  };

  FrameReassembler() = default;
  explicit FrameReassembler(bool seq_prefixed) : seq_prefixed_(seq_prefixed) {}

  /// Append raw stream bytes (any split, including zero-length).
  void feed(common::ByteSpan data);
  /// Extract the next complete frame from the buffered bytes.
  Next next(Frame* out, std::string* error);

  /// Sequence number of the frame the last successful next() returned
  /// (always 0 on a plain, non-sequenced stream).
  [[nodiscard]] std::uint64_t last_seq() const noexcept { return last_seq_; }

  /// Discard every buffered byte (a reconnected stream starts clean). The
  /// buffer keeps its capacity; regrowths() keeps counting cumulatively.
  void reset() noexcept {
    buf_.clear();
    pos_ = 0;
    last_seq_ = 0;
  }

  /// Bytes currently buffered but not yet consumed as frames.
  [[nodiscard]] std::size_t pending() const noexcept {
    return buf_.size() - pos_;
  }
  /// Times feed() had to extend the buffer's capacity. Flat after warmup ⇒
  /// reassembly reuses its buffer across frames (the bench gate).
  [[nodiscard]] std::uint64_t regrowths() const noexcept { return regrowths_; }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return buf_.capacity();
  }

 private:
  common::Bytes buf_;
  std::size_t pos_ = 0;  // consumed prefix, compacted before regrowth
  std::uint64_t regrowths_ = 0;
  std::uint64_t last_seq_ = 0;
  bool seq_prefixed_ = false;
};

}  // namespace mcam::estelle
