// One frame of every catalogue type, with the extremes each field must
// survive (u64 hashes with the sign bit set, negative virtual stamps, the
// int64 extremes as interaction values, empty and fat batches). Shared by
// the frame tests (transport_frame_test) and the codec differential
// (codec_differential_test).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/bytes.hpp"
#include "estelle/transport/frame.hpp"

namespace mcam::estelle {

inline std::vector<Frame> catalogue() {
  std::vector<Frame> all;

  Frame hello;
  hello.type = FrameType::Hello;
  hello.node = 3;
  hello.nodes = 7;
  hello.shards = 4096;
  hello.spec_hash = std::numeric_limits<std::uint64_t>::max();  // sign bit set
  hello.topology_version = 0x8000000000000001ull;
  hello.assign_hash = 0xdeadbeefcafef00dull;
  all.push_back(hello);

  Frame welcome;
  welcome.type = FrameType::Welcome;
  welcome.node = 0;
  welcome.accept = false;
  welcome.reason = "specification fingerprint mismatch — Ω≠ω";  // UTF-8
  all.push_back(welcome);

  Frame transfer;  // one transfer, as an unbatched run sends it
  transfer.type = FrameType::TransferBatch;
  transfer.round = std::numeric_limits<std::uint64_t>::max() - 1;
  {
    TransferEntry e;
    e.channel = 11;
    e.dir = 1;
    e.sent_at_ns = -42;  // negative virtual stamps must survive
    e.msg.kind = 104;
    e.msg.payload = common::Bytes{0x00, 0xff, 0x80, 0x7f};
    e.msg.value = -7;
    transfer.entries.push_back(std::move(e));
  }
  all.push_back(transfer);

  Frame bare_transfer;  // value 0 ("none") — the [0] wrapper is absent
  bare_transfer.type = FrameType::TransferBatch;
  bare_transfer.round = 1;
  {
    TransferEntry e;
    e.channel = 0;
    e.dir = 0;
    e.sent_at_ns = std::numeric_limits<std::int64_t>::max();
    e.msg.kind = 0;
    bare_transfer.entries.push_back(std::move(e));
  }
  all.push_back(bare_transfer);

  Frame done;
  done.type = FrameType::RoundDone;
  done.node = 6;
  done.round = 99;
  done.quiescent = true;
  all.push_back(done);

  Frame last_done;  // the largest round a cursor can name
  last_done.type = FrameType::RoundDone;
  last_done.node = 0xffffffffu;
  last_done.round = std::numeric_limits<std::uint64_t>::max();
  last_done.quiescent = false;
  all.push_back(last_done);

  Frame bye;
  bye.type = FrameType::Bye;
  bye.node = 1;
  all.push_back(bye);

  Frame resume;
  resume.type = FrameType::HelloResume;
  resume.node = 2;
  resume.spec_hash = 0x8000000000000000ull;  // sign bit set, rest clear
  resume.epoch = 3;
  resume.recv = std::numeric_limits<std::uint64_t>::max();
  all.push_back(resume);

  Frame ack;
  ack.type = FrameType::SessionAck;
  ack.recv = 0;
  all.push_back(ack);

  Frame empty_batch;  // legal, if pointless: a batch with no entries
  empty_batch.type = FrameType::TransferBatch;
  empty_batch.round = 7;
  all.push_back(empty_batch);

  Frame one_batch;
  one_batch.type = FrameType::TransferBatch;
  one_batch.round = std::numeric_limits<std::uint64_t>::max();
  {
    TransferEntry e;
    e.channel = 3;
    e.dir = 1;
    e.sent_at_ns = -1;
    e.msg.kind = 9;
    e.msg.payload = common::Bytes{0x80};
    one_batch.entries.push_back(std::move(e));
  }
  all.push_back(one_batch);

  Frame fat_batch;  // a round's worth of mixed entries, extremes included
  fat_batch.type = FrameType::TransferBatch;
  fat_batch.round = 123456;
  for (int i = 0; i < 17; ++i) {
    TransferEntry e;
    e.channel = i == 0 ? 0xffffffffu : static_cast<std::uint32_t>(i);
    e.dir = static_cast<std::uint8_t>(i & 1);
    e.sent_at_ns = i == 1 ? std::numeric_limits<std::int64_t>::min() : i * 1000;
    e.msg.kind = i;
    e.msg.payload = common::Bytes(static_cast<std::size_t>(i % 5),
                                  static_cast<std::uint8_t>(255 - i));
    // Every third entry cycles through INT64_MIN, INT64_MAX and 0.
    static constexpr std::int64_t kValues[] = {
        std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max(), 0};
    if (i % 3 == 0) e.msg.value = kValues[(i / 3) % 3];
    fat_batch.entries.push_back(std::move(e));
  }
  all.push_back(fat_batch);

  return all;
}

}  // namespace mcam::estelle
