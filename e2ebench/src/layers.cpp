// Per-layer timings taken from outside each layer: the MCAM codec, the BER
// decoder, the directory DSA, McamServerCore::handle and the transport frame
// codec, each timed by calling its public functions on the workload's own
// request/response stream.
#include <algorithm>

#include "asn1/ber.hpp"
#include "bench.hpp"
#include "estelle/transport/frame.hpp"
#include "mcam/server_core.hpp"
#include "net/network.hpp"

namespace e2e {

namespace core = mcam::core;
namespace directory = mcam::directory;
namespace estelle = mcam::estelle;
using mcam::common::Bytes;
using mcam::common::ByteSpan;

namespace {

volatile std::size_t g_sink = 0;  // keeps timed results observable

/// Median over 5 repetitions of the wall time per call of `pass`, which
/// performs `calls` calls; each repetition loops `pass` for >= 5 ms.
template <typename F>
double ns_per_call(std::size_t calls, F&& pass) {
  if (calls == 0) return 0;
  std::vector<double> reps;
  for (int r = 0; r < 5; ++r) {
    std::size_t loops = 0;
    const auto t0 = Clock::now();
    double ns = 0;
    do {
      pass();
      ++loops;
      ns = ns_between(t0, Clock::now());
    } while (ns < 5e6);
    reps.push_back(ns / static_cast<double>(loops * calls));
  }
  return median(reps);
}

}  // namespace

void report_layers(const LayerTracer& t, double app_ns, std::uint64_t requests,
                   Report& out) {
  const double req = static_cast<double>(requests);
  out.set("layer.app.self_us_per_req", app_ns / 1e3 / req, "us",
          "driver work between runs");
  for (int k = kMca; k <= kSmca; ++k) {
    const std::string base = std::string("layer.") + layer_name(k);
    out.set(base + ".fired_per_req", static_cast<double>(t.fired[k]) / req,
            "count");
    out.set(base + ".self_us_per_req", t.self_ns[k] / 1e3 / req, "us",
            "Sequential gap attribution");
  }
}

void replay_layers(const StreamSample& sample, const Catalogue& cat,
                   int batch_entries, std::uint64_t seed, Report& out) {
  // ---- MCAM codec and BER, over requests and responses alike.
  std::vector<Pdu> pdus;
  std::vector<Bytes> wire;
  for (const Pdu& p : sample.requests) {
    pdus.push_back(p);
    wire.push_back(core::encode(p));
  }
  for (const Bytes& b : sample.responses) {
    auto p = core::decode(b);
    if (!p.ok()) continue;
    pdus.push_back(std::move(p).take());
    wire.push_back(b);
  }
  std::size_t bytes = 0;
  for (const Bytes& b : wire) bytes += b.size();
  out.set("mcam.encode_us", ns_per_call(pdus.size(), [&] {
            for (const Pdu& p : pdus) g_sink = g_sink + core::encode(p).size();
          }) / 1e3,
          "us", "n=" + std::to_string(pdus.size()) + " PDUs");
  out.set("mcam.decode_us", ns_per_call(wire.size(), [&] {
            for (const Bytes& b : wire)
              g_sink = g_sink + core::decode(b).ok();
          }) / 1e3,
          "us");
  out.set("mcam.pdu_bytes",
          wire.empty() ? 0.0
                       : static_cast<double>(bytes) /
                             static_cast<double>(wire.size()),
          "bytes");
  out.set("asn1.decode_ns_per_byte",
          ns_per_call(wire.size(), [&] {
            for (const Bytes& b : wire)
              g_sink = g_sink + mcam::asn1::decode(b).ok();
          }) * static_cast<double>(wire.size()) / static_cast<double>(bytes),
          "ns/byte");

  // ---- Directory: a replica catalogue of the same size, the stream's keys.
  std::vector<int> keys(sample.keys.begin(),
                        sample.keys.begin() +
                            static_cast<std::ptrdiff_t>(
                                std::min<std::size_t>(sample.keys.size(), 512)));
  const auto& movies = cat.movies();
  std::vector<double> add_ns;
  for (int r = 0; r < 3; ++r) {
    directory::Dsa replica("ksr1");
    const auto t0 = Clock::now();
    for (const auto& e : cat.entries()) g_sink = g_sink + replica.add(e).ok();
    add_ns.push_back(ns_between(t0, Clock::now()) /
                     static_cast<double>(cat.entries().size()));
  }
  out.set("directory.add_us", median(add_ns) / 1e3, "us",
          "mean over a " + std::to_string(cat.entries().size()) +
              "-movie preload");
  directory::Dsa replica("ksr1");
  for (const auto& e : cat.entries()) (void)replica.add(e);
  const auto movie = [&](int k) -> const Movie& {
    return movies[static_cast<std::size_t>(k)];
  };
  out.set("directory.find_by_title_us", ns_per_call(keys.size(), [&] {
            for (int k : keys)
              g_sink = g_sink + replica.find_by_title(movie(k).title).ok();
          }) / 1e3,
          "us", "n=" + std::to_string(keys.size()) + " keys");
  out.set("directory.read_us", ns_per_call(keys.size(), [&] {
            for (int k : keys) g_sink = g_sink + replica.read(movie(k).id).ok();
          }) / 1e3,
          "us");
  out.set("directory.modify_us", ns_per_call(keys.size(), [&] {
            for (int k : keys)
              g_sink = g_sink +
                       replica.modify(movie(k).id, "location-path", "/r").ok();
          }) / 1e3,
          "us");
  const std::size_t search_keys = std::min<std::size_t>(keys.size(), 64);
  out.set("directory.search_us", ns_per_call(search_keys, [&] {
            for (std::size_t i = 0; i < search_keys; ++i)
              g_sink = g_sink +
                       replica
                           .search(directory::Filter::equal(
                               "title", movie(keys[i]).title))
                           .size();
          }) / 1e3,
          "us", "equality search on title");

  // ---- Server core: the stream's requests against a fresh replica server.
  std::vector<double> handle_ns;
  std::size_t handled = 0;
  for (int r = 0; r < 3; ++r) {
    mcam::net::SimNetwork net(seed);
    core::McamServerCore server(net, "ksr1");
    for (const auto& e : cat.entries()) (void)server.directory().add(e);
    const auto session = server.associate(core::AssociateReq{"replay", 1});
    if (!session.ok()) break;
    double ns = 0;
    handled = 0;
    for (const Pdu& p : sample.requests) {
      if (std::holds_alternative<core::AssociateReq>(p)) continue;
      const auto t0 = Clock::now();
      const Pdu resp = server.handle(session.value(), p);
      ns += ns_between(t0, Clock::now());
      g_sink = g_sink + resp.index();
      ++handled;
    }
    if (handled > 0) handle_ns.push_back(ns / static_cast<double>(handled));
  }
  out.set("server.handle_us", median(handle_ns) / 1e3, "us",
          "n=" + std::to_string(handled) + " requests");

  // ---- Transport frame codec: a TransferBatch of the typical size carrying
  // the stream's own PDUs.
  estelle::Frame f;
  f.type = estelle::FrameType::TransferBatch;
  f.round = 12345;
  for (int i = 0; i < batch_entries && !wire.empty(); ++i) {
    const Bytes& w = wire[static_cast<std::size_t>(i) % wire.size()];
    f.entries.push_back(estelle::TransferEntry{
        static_cast<std::uint32_t>(i), 0, 1000 * static_cast<std::int64_t>(i),
        estelle::Interaction(static_cast<int>(core::op_of(
                                 pdus[static_cast<std::size_t>(i) %
                                      pdus.size()])),
                             w)});
  }
  Bytes buf;
  out.set("frame.encode_ns", ns_per_call(1, [&] {
            buf.clear();
            estelle::encode_frame_to(f, buf);
            g_sink = g_sink + buf.size();
          }),
          "ns", std::to_string(f.entries.size()) + "-entry TransferBatch");
  buf.clear();
  estelle::encode_frame_to(f, buf);
  const ByteSpan body = ByteSpan(buf).subspan(4);
  out.set("frame.decode_ns", ns_per_call(1, [&] {
            g_sink = g_sink + estelle::decode_frame(body).ok();
          }),
          "ns");
}

}  // namespace e2e
