// StreamSocketTransport's outbound log (transport/socket_transport.hpp): one
// log of encoded records per peer, written in place by sendmsg and kept
// until the peer acknowledges it.
//
// Pinned here:
//   * partial writes keep order: over a socketpair with a small send
//     buffer, a seeded mix of frames from a few bytes to more than 64 KiB,
//     with send, flush and receive interleaved, arrives in order and
//     byte-identical, and both sides count the same bytes;
//   * a resume writes again exactly the tail the peer lacks: a session
//     link severed while its records sit written-but-unacknowledged, partly
//     written and queued delivers every frame exactly once and in order,
//     and frames_replayed counts exactly the records the sever caught
//     partly written or still queued;
//   * a delayed wire record is written after the records behind it, not
//     lost.
#include <gtest/gtest.h>
#include <stdlib.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "estelle/transport/socket_transport.hpp"

namespace mcam::estelle {
namespace {

using common::Bytes;
using Outcome = MailboxTransport::RecvOutcome;

Frame round_done(std::uint64_t round) {
  Frame f;
  f.type = FrameType::RoundDone;
  f.node = 0;
  f.round = round;
  return f;
}

Frame welcome(std::size_t reason_bytes, char fill) {
  Frame f;
  f.type = FrameType::Welcome;
  f.node = 1;
  f.reason.assign(reason_bytes, fill);
  return f;
}

/// A seeded frame from a few bytes (Bye, RoundDone) to well over 64 KiB
/// (a long Welcome reason, a 200-entry batch of 400-byte payloads).
Frame random_frame(std::mt19937_64& rng) {
  const auto below = [&rng](std::uint64_t n) { return rng() % n; };
  Frame f;
  switch (below(5)) {
    case 0:
      f.type = FrameType::Bye;
      f.node = static_cast<std::uint32_t>(below(8));
      break;
    case 1:
      f = round_done(below(1u << 20));
      f.quiescent = below(2) == 0;
      break;
    case 2:
      f = welcome(below(2) == 0 ? below(64) : 40000 + below(60000),
                  static_cast<char>('a' + below(26)));
      break;
    case 3: {  // one transfer, as an unbatched run sends it
      f.type = FrameType::TransferBatch;
      TransferEntry e;
      e.channel = static_cast<std::uint32_t>(below(64));
      f.round = below(1u << 20);
      e.sent_at_ns = static_cast<std::int64_t>(below(1u << 30));
      e.msg.kind = static_cast<int>(below(200));
      e.msg.payload = Bytes(below(2000), static_cast<std::uint8_t>(below(256)));
      f.entries.push_back(std::move(e));
      break;
    }
    default: {
      f.type = FrameType::TransferBatch;
      f.round = below(1u << 20);
      const std::size_t entries = 1 + below(200);
      const std::size_t payload = below(2) == 0 ? below(16) : below(400);
      for (std::size_t i = 0; i < entries; ++i) {
        TransferEntry e;
        e.channel = static_cast<std::uint32_t>(i);
        e.dir = static_cast<std::uint8_t>(i & 1);
        e.sent_at_ns = static_cast<std::int64_t>(below(1u << 30));
        e.msg.kind = static_cast<int>(below(200));
        e.msg.value = static_cast<std::int64_t>(below(3)) - 1;
        e.msg.payload = Bytes(payload, static_cast<std::uint8_t>(i));
        f.entries.push_back(std::move(e));
      }
      break;
    }
  }
  return f;
}

TEST(SocketTransport, PartialWritesKeepOrder) {
  int sv[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const int small = 4096;  // the kernel's floor; most frames need several writes
  ASSERT_EQ(::setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof small),
            0);
  auto sender = StreamSocketTransport::from_fds({{1, sv[0]}});
  auto receiver = StreamSocketTransport::from_fds({{0, sv[1]}});

  std::mt19937_64 rng(0x50c4e7);
  std::vector<Bytes> sent;  // the plain encoding of every frame, in order
  std::size_t got = 0;
  std::size_t largest = 0;
  const auto drain = [&] {
    Frame in;
    int from = -1;
    std::string err;
    for (;;) {
      const Outcome rc = receiver->recv(&from, &in, 0, &err);
      ASSERT_NE(rc, Outcome::kClosed) << err;
      if (rc == Outcome::kIdle) return;
      ASSERT_LT(got, sent.size()) << "more frames arrived than were sent";
      ASSERT_EQ(encode_frame(in), sent[got]) << "frame " << got;
      ++got;
    }
  };
  for (int i = 0; i < 400; ++i) {
    Frame f = random_frame(rng);
    sent.push_back(encode_frame(f));
    largest = std::max(largest, sent.back().size());
    for (;;) {
      const common::Status st = sender->send(1, f);
      if (st.ok()) break;
      ASSERT_EQ(st.error().code, kQueueFull) << st.error().message;
      sender->flush();
      drain();
      if (HasFatalFailure()) return;
    }
    switch (rng() % 4) {
      case 0:
        sender->flush();
        break;
      case 1:
        drain();
        break;
      case 2: {  // the sender's own pump flushes opportunistically
        Frame in;
        int from = -1;
        std::string err;
        ASSERT_EQ(sender->recv(&from, &in, 0, &err), Outcome::kIdle) << err;
        break;
      }
      default:
        break;  // leave it queued behind the next send
    }
    if (HasFatalFailure()) return;
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (got < sent.size() && std::chrono::steady_clock::now() < deadline) {
    sender->flush();
    drain();
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(got, sent.size());
  EXPECT_GT(largest, std::size_t{64} << 10) << "no frame above 64 KiB";
  EXPECT_EQ(sender->stats().bytes_sent, receiver->stats().bytes_received);
  EXPECT_EQ(sender->stats().frames_sent, sent.size());
  EXPECT_GT(sender->stats().syscalls, sent.size())
      << "the small send buffer never forced a partial write";
}

TEST(SocketTransport, ResumeRewritesExactlyTheUnacknowledgedTail) {
  char tmpl[] = "/tmp/mcam_socket_transport_XXXXXX";
  const char* made = ::mkdtemp(tmpl);
  ASSERT_NE(made, nullptr);
  const std::string dir = made;
  // Mesh construction blocks on the peer, so the ends are built on two
  // threads; everything after that runs on this one.
  std::unique_ptr<StreamSocketTransport> ends[2];
  std::string mesh_error[2];
  {
    std::vector<std::thread> threads;
    for (int node = 0; node < 2; ++node)
      threads.emplace_back([&, node] {
        auto mesh = StreamSocketTransport::unix_mesh(node, 2, dir);
        if (mesh.ok())
          ends[node] = std::move(mesh.value());
        else
          mesh_error[node] = mesh.error().message;
      });
    for (std::thread& t : threads) t.join();
  }
  ASSERT_TRUE(mesh_error[0].empty()) << mesh_error[0];
  ASSERT_TRUE(mesh_error[1].empty()) << mesh_error[1];
  MailboxTransport::SessionOptions so;
  so.reconnect_max_attempts = 5;
  so.backoff_initial_ms = 5;
  so.backoff_cap_ms = 40;
  so.resend_timeout_ms = 60000;  // only the sever may reconnect
  so.fingerprint = 0x5e55;
  for (auto& end : ends) end->configure_session(so);
  StreamSocketTransport& sender = *ends[0];
  StreamSocketTransport& receiver = *ends[1];

  std::vector<Frame> frames;
  std::vector<std::size_t> wire_size;  // each record's bytes on the wire
  const auto send = [&](Frame f) {
    Bytes rec;
    encode_frame_seq_to(f, frames.size() + 1, rec);
    wire_size.push_back(rec.size());
    frames.push_back(f);
    ASSERT_TRUE(sender.send(1, f).ok());
  };
  std::size_t got = 0;
  const auto pump = [&](int timeout_ms) {
    Frame in;
    int from = -1;
    std::string err;
    for (;;) {
      const Outcome rc = receiver.recv(&from, &in, timeout_ms, &err);
      ASSERT_NE(rc, Outcome::kClosed) << err;
      if (rc == Outcome::kIdle) break;
      ASSERT_LT(got, frames.size()) << "a frame was delivered twice";
      ASSERT_EQ(encode_frame(in), encode_frame(frames[got])) << "frame " << got;
      ++got;
    }
    (void)sender.recv(&from, &in, timeout_ms, &err);  // acks, accepts
  };

  // Acknowledged records: delivered, and the ack pruned them.
  for (int i = 0; i < 10; ++i) send(round_done(static_cast<std::uint64_t>(i)));
  sender.flush();
  while (got < frames.size()) {
    pump(20);
    if (HasFatalFailure()) return;
  }
  pump(30);  // the receiver's idle ack reaches the sender
  if (HasFatalFailure()) return;

  // Unacknowledged records, far more than the socket buffer holds: the
  // flush leaves some written in full, one partly written, the rest queued.
  for (int i = 0; i < 96; ++i) {
    send(welcome(20000 + 7 * static_cast<std::size_t>(i),
                 static_cast<char>('a' + i % 26)));
    if (HasFatalFailure()) return;
  }
  sender.flush();
  const std::uint64_t written = sender.stats().bytes_sent;
  std::size_t complete = 0;
  std::uint64_t end = 0;
  while (complete < wire_size.size() && end + wire_size[complete] <= written)
    end += wire_size[complete++];
  ASSERT_EQ(sender.stats().frames_replayed, 0u);
  ASSERT_GT(complete, 10u) << "no unacknowledged record was written in full";
  ASSERT_GT(written, end) << "the sever must catch a record partly written";
  ASSERT_LT(complete + 1, frames.size()) << "no record was left queued";

  ASSERT_TRUE(sender.sever(1));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (got < frames.size() && std::chrono::steady_clock::now() < deadline) {
    pump(5);
    if (HasFatalFailure()) return;
  }
  pump(50);  // nothing more may arrive
  if (HasFatalFailure()) return;
  EXPECT_EQ(got, frames.size());
  EXPECT_EQ(sender.stats().reconnects, 1u);
  EXPECT_EQ(receiver.stats().reconnects, 1u);
  // The records the peer held in full were delivered from its receive
  // buffer and pruned by its HelloResume; the rest were written again.
  EXPECT_EQ(sender.stats().frames_replayed, frames.size() - complete);
  EXPECT_EQ(receiver.stats().dup_frames_dropped, 0u);
  ends[0].reset();
  ends[1].reset();
  std::filesystem::remove_all(dir);
}

TEST(SocketTransport, DelayedWireRecordIsWrittenLaterNotLost) {
  // A delay holds a transient copy back past later records; one that
  // outlives a send must still reach the wire. The peer reads raw records
  // here, since any reordering is a sequence gap to a transport receiver.
  int sv[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  auto sender = StreamSocketTransport::from_fds({{1, sv[0]}});
  FaultPlan plan;
  plan.actions.push_back({0, FaultKind::kDelay, 3});
  sender->set_wire_faults(1, std::move(plan));
  for (std::uint64_t r = 0; r < 5; ++r) {
    Frame f = round_done(r);
    ASSERT_TRUE(sender->send(1, f).ok());
  }
  sender->flush();
  FrameReassembler rx(true);
  std::vector<std::uint64_t> rounds;
  std::uint8_t chunk[4096];
  const ssize_t n = ::read(sv[1], chunk, sizeof chunk);
  ASSERT_GT(n, 0);
  rx.feed(common::ByteSpan{chunk, static_cast<std::size_t>(n)});
  Frame f;
  std::string why;
  while (rx.next(&f, &why) == FrameReassembler::Next::kFrame)
    rounds.push_back(f.round);
  EXPECT_EQ(rounds, (std::vector<std::uint64_t>{1, 2, 3, 0, 4}));
  EXPECT_EQ(sender->stats().faults_injected, 1u);
  ::close(sv[1]);
}

}  // namespace
}  // namespace mcam::estelle
