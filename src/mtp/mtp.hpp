// MTP — the XMovie Movie Transmission Protocol (Lamparter & Effelsberg).
//
// The paper runs the CM-stream protocol stack as "the XMovie transmission
// protocol MTP directly on top of UDP, IP and FDDI" (§3), deliberately
// separate from the control stack (Table 1): high data rate, lightweight or
// no error correction, isochronous timing, delay/jitter control.
//
// This module implements MTP over net::SimNetwork:
//   * synthetic FrameSource standing in for the 1994 digital-video pipeline
//     (DESIGN.md §2): configurable fps, frame-size distribution, periodic
//     large intra frames;
//   * StreamSender: isochronous pacing (one frame per 1/fps tick),
//     fragmentation to MTU-sized MTP packets, sequence numbering;
//   * StreamReceiver: reassembly, loss detection by sequence gap, per-frame
//     completion, delay/jitter accounting against a playout deadline.
//
// MTP packet header (big-endian):
//   [ stream:2 ][ seq:4 ][ frame:4 ][ frag:2 ][ nfrags:2 ][ flags:1 ]
//   [ capture_ts_ns:8 ]  + payload
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "net/network.hpp"

namespace mcam::mtp {

using common::Bytes;
using common::SimTime;

inline constexpr std::size_t kHeaderSize = 2 + 4 + 4 + 2 + 2 + 1 + 8;

enum PacketFlags : std::uint8_t {
  kFlagIntra = 0x01,      // frame is an intra (I) frame
  kFlagEndOfStream = 0x02,
};

struct PacketHeader {
  std::uint16_t stream = 0;
  std::uint32_t seq = 0;
  std::uint32_t frame = 0;
  std::uint16_t frag = 0;
  std::uint16_t nfrags = 1;
  std::uint8_t flags = 0;
  std::int64_t capture_ts_ns = 0;
};

Bytes build_packet(const PacketHeader& h, common::ByteSpan payload);
struct PacketView {
  PacketHeader header;
  Bytes payload;
};
common::Result<PacketView> parse_packet(const Bytes& raw);

/// Synthetic movie frame generator. Frame sizes follow a clamped normal
/// distribution; every `gop` frames an intra frame `intra_scale`× larger is
/// produced (the size pattern of motion-JPEG/MPEG-era material).
class FrameSource {
 public:
  struct Config {
    double fps = 25.0;
    std::size_t mean_frame_bytes = 8000;
    std::size_t stddev_bytes = 1500;
    int gop = 12;
    double intra_scale = 2.5;
    std::uint64_t total_frames = 250;  // movie length
    std::uint64_t seed = 7;
  };

  FrameSource() : FrameSource(Config{}) {}
  explicit FrameSource(Config cfg) : cfg_(cfg), rng_(cfg.seed) {}

  [[nodiscard]] const Config& config() const noexcept { return cfg_; }
  [[nodiscard]] std::uint64_t frames_produced() const noexcept {
    return next_frame_;
  }
  [[nodiscard]] bool exhausted() const noexcept {
    return next_frame_ >= cfg_.total_frames;
  }
  [[nodiscard]] SimTime frame_interval() const noexcept {
    return SimTime::from_ns(static_cast<std::int64_t>(1e9 / cfg_.fps));
  }

  /// Produce the next frame (payload content is a deterministic pattern so
  /// receivers can verify integrity). Returns nullopt when exhausted.
  struct Frame {
    std::uint64_t number = 0;
    bool intra = false;
    Bytes data;
  };
  std::optional<Frame> next();

  /// Reposition (seek) — playback from an arbitrary frame.
  void seek(std::uint64_t frame) noexcept { next_frame_ = frame; }

 private:
  Config cfg_;
  common::Rng rng_;
  std::uint64_t next_frame_ = 0;
};

/// Sender statistics.
struct SenderStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t bytes_sent = 0;
};

/// Isochronous MTP sender: call step(now) regularly; it emits every frame
/// whose presentation tick has arrived.
class StreamSender {
 public:
  struct Config {
    std::uint16_t stream_id = 1;
    std::size_t mtu_payload = 1400;  // FDDI-era safe payload
  };

  StreamSender(net::Socket& socket, net::Address dest, FrameSource source);
  StreamSender(net::Socket& socket, net::Address dest, FrameSource source,
               Config cfg);

  /// Emit all frames due at or before `now`. Returns packets sent.
  std::size_t step(SimTime now);

  void pause() noexcept { paused_ = true; }
  /// Resume: re-anchors pacing at `now` so paused time is not "caught up".
  void resume(SimTime now) noexcept;
  [[nodiscard]] bool paused() const noexcept { return paused_; }
  [[nodiscard]] bool finished() const noexcept { return finished_; }
  [[nodiscard]] std::uint64_t current_frame() const noexcept {
    return source_.frames_produced();
  }
  void seek(std::uint64_t frame) noexcept { source_.seek(frame); }

  [[nodiscard]] const SenderStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const FrameSource& source() const noexcept { return source_; }

 private:
  void send_frame(const FrameSource::Frame& frame, SimTime now);

  net::Socket& socket_;
  net::Address dest_;
  FrameSource source_;
  Config cfg_;
  SimTime next_tick_{};
  bool started_ = false;
  bool paused_ = false;
  bool finished_ = false;
  std::uint32_t next_seq_ = 0;
  SenderStats stats_;
};

/// Receiver statistics — the measurements Table 1 compares against the
/// control path.
struct ReceiverStats {
  std::uint64_t packets_received = 0;
  std::uint64_t packets_lost = 0;      // sequence gaps
  std::uint64_t frames_complete = 0;
  std::uint64_t frames_damaged = 0;    // missing fragments at eviction
  std::uint64_t frames_late = 0;       // complete but after playout deadline
  std::uint64_t bytes_received = 0;
  double mean_delay_ms = 0.0;          // packet end-to-end delay
  double jitter_ms = 0.0;              // RFC-3550 style smoothed jitter
  bool end_of_stream = false;

  [[nodiscard]] double packet_delivery_ratio() const noexcept {
    const auto total = packets_received + packets_lost;
    return total == 0 ? 1.0
                      : static_cast<double>(packets_received) /
                            static_cast<double>(total);
  }
};

/// MTP receiver: poll() drains the socket, reassembles frames and hands
/// complete ones to the sink in frame order (incomplete frames are given up
/// after `reorder_window` newer frames arrive — lightweight error handling,
/// no retransmission, per Table 1).
class StreamReceiver {
 public:
  struct Config {
    SimTime playout_delay = SimTime::from_ms(120);
    std::uint32_t reorder_window = 8;
  };

  using FrameSink =
      std::function<void(std::uint32_t frame, const Bytes& data, bool intra)>;

  explicit StreamReceiver(net::Socket& socket);
  StreamReceiver(net::Socket& socket, Config cfg);

  void set_sink(FrameSink sink) { sink_ = std::move(sink); }

  /// Drain all delivered datagrams; returns frames completed this call.
  std::size_t poll(SimTime now);

  [[nodiscard]] const ReceiverStats& stats() const noexcept { return stats_; }

 private:
  struct PartialFrame {
    std::uint16_t nfrags = 0;
    std::uint8_t flags = 0;
    std::int64_t capture_ts_ns = 0;
    std::map<std::uint16_t, Bytes> frags;
  };

  void evict_stale(std::uint32_t newest_frame);
  void complete(std::uint32_t frame, PartialFrame& pf, SimTime now);

  net::Socket& socket_;
  Config cfg_;
  FrameSink sink_;
  std::map<std::uint32_t, PartialFrame> partial_;
  std::optional<std::uint32_t> first_seq_;
  std::optional<std::uint32_t> highest_seq_;
  std::uint64_t delay_samples_ = 0;
  double delay_accum_ms_ = 0.0;
  double last_transit_ms_ = 0.0;
  bool have_transit_ = false;
  ReceiverStats stats_;
};

}  // namespace mcam::mtp
