// Catalogue, request mixes, response checks and small shared helpers.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <variant>

#include "bench.hpp"

namespace e2e {

using mcam::core::Attr;
using mcam::core::ResultCode;
namespace core = mcam::core;
namespace directory = mcam::directory;

namespace {

const char* const kFormatNames[] = {"raw-rgb", "colormap", "mjpeg", "mpeg1"};
const double kFps[] = {24.0, 25.0, 30.0, 12.5};
constexpr std::size_t kPathAttr = 7;  // position of location-path

std::string fmt_fps(double fps) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", fps);
  return buf;
}

std::string attrs_mismatch(const std::vector<Attr>& got, const Movie& m,
                           const Shadow& shadow, int movie, int conn) {
  if (got.size() != m.attrs.size())
    return "attribute count " + std::to_string(got.size());
  const bool path_known =
      shadow.writer[static_cast<std::size_t>(movie)] < 0 ||
      shadow.writer[static_cast<std::size_t>(movie)] == conn;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].name != m.attrs[i].first) return "attribute " + got[i].name;
    if (i == kPathAttr) {
      if (path_known &&
          got[i].value != shadow.path[static_cast<std::size_t>(movie)])
        return "stale location-path of " + m.title;
    } else if (got[i].value != m.attrs[i].second) {
      return "attribute " + got[i].name + " of " + m.title;
    }
  }
  return {};
}

}  // namespace

Catalogue::Catalogue(std::uint64_t seed, int size, int conns, bool corrupt) {
  mcam::common::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0xCA7A);
  char tag[24];
  std::snprintf(tag, sizeof tag, "%08llx",
                static_cast<unsigned long long>(rng() >> 32));
  tag_ = tag;
  for (int i = 0; i < size; ++i) {
    directory::MovieEntry e;
    e.title = "t" + tag_ + "-" + std::to_string(i);
    const auto fmt = rng.below(4);
    e.format = static_cast<directory::Format>(fmt);
    e.width = 160 * static_cast<int>(1 + rng.below(4));
    e.height = 120 * static_cast<int>(1 + rng.below(4));
    e.fps = kFps[rng.below(4)];
    e.duration_frames = 250 + rng.below(100000);
    e.location_host = "ksr1";
    e.location_path = "/movies/" + e.title + ".mov";
    e.rights = "public";
    e.size_bytes = 1000000 + rng.below(1ull << 30);

    Movie m;
    m.title = e.title;
    m.owner = i % conns;
    m.attrs = {{"title", e.title},
               {"format", kFormatNames[fmt]},
               {"width", std::to_string(e.width)},
               {"height", std::to_string(e.height)},
               {"fps", fmt_fps(e.fps)},
               {"duration", std::to_string(e.duration_frames)},
               {"location-host", e.location_host},
               {"location-path", e.location_path},
               {"rights", e.rights},
               {"size", std::to_string(e.size_bytes)}};
    if (corrupt) m.attrs[1].second = "not-a-format";
    entries_.push_back(std::move(e));
    movies_.push_back(std::move(m));
  }
}

bool Catalogue::preload(directory::Dsa& dsa) {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    auto id = dsa.add(entries_[i]);
    if (!id.ok()) return false;
    if (movies_[i].id == 0) movies_[i].id = id.value();
    if (movies_[i].id != id.value()) return false;
  }
  return true;
}

Shadow make_shadow(Mix::Kind kind, const Catalogue& cat, const Shape& shape,
                   const std::vector<core::EquipItem>& equipment) {
  Shadow s;
  const auto& movies = cat.movies();
  const int reserved = shape.conns() * shape.batch_deletes;
  for (std::size_t i = 0; i < movies.size(); ++i) {
    s.path.push_back(movies[i].attrs[kPathAttr].second);
    const bool written = kind == Mix::Kind::Control ||
                         static_cast<int>(i) < reserved;
    s.writer.push_back(written ? movies[i].owner : -1);
  }
  s.equipment = equipment;
  return s;
}

Mix::Mix(Kind kind, const Catalogue& cat, const Shape& shape,
         std::uint64_t seed, int conn)
    : kind_(kind), cat_(cat), shape_(shape), conn_(conn),
      rng_(seed * 0x2545F4914F6CDD1DULL + static_cast<std::uint64_t>(conn)) {
  const int n = static_cast<int>(cat.movies().size());
  const int limit =
      kind == Kind::Control ? n : shape.conns() * shape.batch_deletes;
  for (int i = conn; i < limit; i += shape.conns()) own_.push_back(i);
}

Request Mix::next() {
  Request rq;
  const auto& movies = cat_.movies();
  const std::uint64_t n = n_++;
  const auto any_movie = [&] {
    return static_cast<int>(rng_.below(movies.size()));
  };
  const auto write_path = [&] {
    return "/w/" + std::to_string(conn_) + "/" + std::to_string(n);
  };

  if (kind_ == Kind::Control) {
    const auto r = rng_.below(100);
    if (r < 35) {
      rq.movie = any_movie();
      rq.full_attrs = rng_.chance(0.5);
      core::AttrQueryReq q{movies[static_cast<std::size_t>(rq.movie)].id, {}};
      if (!rq.full_attrs) q.names = {"title", "format", "location-path"};
      rq.pdu = std::move(q);
      rq.expect = Op::AttrQueryResp;
    } else if (r < 60) {
      rq.movie = any_movie();
      rq.pdu = core::MovieSelectReq{
          movies[static_cast<std::size_t>(rq.movie)].title};
      rq.expect = Op::MovieSelectResp;
    } else if (r < 70) {
      rq.movie = any_movie();
      rq.pdu = core::MovieSearchReq{
          directory::Filter::equal(
              "title", movies[static_cast<std::size_t>(rq.movie)].title),
          true};
      rq.expect = Op::MovieSearchResp;
    } else if (r < 80) {
      rq.pdu = core::EquipListReq{-1};
      rq.expect = Op::EquipListResp;
    } else {
      rq.movie = own_[rng_.below(own_.size())];
      rq.path = write_path();
      rq.pdu = core::AttrModifyReq{
          movies[static_cast<std::size_t>(rq.movie)].id,
          {Attr{"location-path", rq.path}}};
      rq.expect = Op::AttrModifyResp;
    }
    return rq;
  }

  // Batch: create a fresh title, rewrite then delete one reserved movie,
  // select a stable one — the catalogue size stays constant.
  const std::size_t j = (n / 4) % own_.size();
  switch (n % 4) {
    case 0:
      rq.pdu = core::MovieCreateReq{
          "n" + cat_.tag() + "-" + std::to_string(conn_) + "-" +
              std::to_string(n / 4),
          {Attr{"format", "mpeg1"}, Attr{"size", "4096"}}};
      rq.expect = Op::MovieCreateResp;
      break;
    case 1:
      rq.movie = own_[j];
      rq.path = write_path();
      rq.pdu = core::AttrModifyReq{
          movies[static_cast<std::size_t>(rq.movie)].id,
          {Attr{"location-path", rq.path}}};
      rq.expect = Op::AttrModifyResp;
      break;
    case 2:
      rq.movie = own_[j];
      rq.pdu =
          core::MovieDeleteReq{movies[static_cast<std::size_t>(rq.movie)].id};
      rq.expect = Op::MovieDeleteResp;
      break;
    default: {
      const int reserved = shape_.conns() * shape_.batch_deletes;
      rq.movie = reserved + static_cast<int>(rng_.below(
                                movies.size() -
                                static_cast<std::size_t>(reserved)));
      rq.pdu = core::MovieSelectReq{
          movies[static_cast<std::size_t>(rq.movie)].title};
      rq.expect = Op::MovieSelectResp;
    }
  }
  return rq;
}

Request associate_request(int conn) {
  Request rq;
  rq.pdu = core::AssociateReq{"user" + std::to_string(conn), 1};
  rq.expect = Op::AssociateResp;
  return rq;
}

std::string check_response(const Request& rq, const Pdu& resp,
                           const Catalogue& cat, Shadow& shadow, int conn) {
  if (const auto* err = std::get_if<core::ErrorResp>(&resp))
    return std::string("ErrorResp ") + core::result_name(err->result) + ": " +
           err->diagnostic;
  if (core::op_of(resp) != rq.expect)
    return std::string("expected ") + core::op_name(rq.expect) + ", got " +
           core::op_name(core::op_of(resp));
  const auto not_ok = [](ResultCode rc) {
    return std::string("result ") + core::result_name(rc);
  };
  const Movie* m = rq.movie >= 0
                       ? &cat.movies()[static_cast<std::size_t>(rq.movie)]
                       : nullptr;

  switch (rq.expect) {
    case Op::AssociateResp: {
      const auto& r = std::get<core::AssociateResp>(resp);
      return r.result == ResultCode::Success ? "" : not_ok(r.result);
    }
    case Op::AttrQueryResp: {
      const auto& r = std::get<core::AttrQueryResp>(resp);
      if (r.result != ResultCode::Success) return not_ok(r.result);
      if (rq.full_attrs) return attrs_mismatch(r.attrs, *m, shadow, rq.movie, conn);
      if (r.attrs.size() != 3 || r.attrs[0].value != m->attrs[0].second ||
          r.attrs[1].value != m->attrs[1].second)
        return "attribute subset of " + m->title;
      const int w = shadow.writer[static_cast<std::size_t>(rq.movie)];
      if ((w < 0 || w == conn) &&
          r.attrs[2].value != shadow.path[static_cast<std::size_t>(rq.movie)])
        return "stale location-path of " + m->title;
      return {};
    }
    case Op::MovieSelectResp: {
      const auto& r = std::get<core::MovieSelectResp>(resp);
      if (r.result != ResultCode::Success) return not_ok(r.result);
      if (r.movie_id != m->id) return "selected the wrong movie";
      return attrs_mismatch(r.attrs, *m, shadow, rq.movie, conn);
    }
    case Op::MovieSearchResp: {
      const auto& r = std::get<core::MovieSearchResp>(resp);
      if (r.result != ResultCode::Success) return not_ok(r.result);
      if (r.hits.size() != 1 || r.hits[0].movie_id != m->id)
        return "search hits for " + m->title;
      return attrs_mismatch(r.hits[0].attrs, *m, shadow, rq.movie, conn);
    }
    case Op::EquipListResp: {
      const auto& r = std::get<core::EquipListResp>(resp);
      if (r.result != ResultCode::Success) return not_ok(r.result);
      return r.items == shadow.equipment ? "" : "equipment list";
    }
    case Op::AttrModifyResp: {
      const auto& r = std::get<core::AttrModifyResp>(resp);
      if (r.result != ResultCode::Success) return not_ok(r.result);
      shadow.path[static_cast<std::size_t>(rq.movie)] = rq.path;
      return {};
    }
    case Op::MovieCreateResp: {
      const auto& r = std::get<core::MovieCreateResp>(resp);
      if (r.result != ResultCode::Success) return not_ok(r.result);
      if (r.movie_id <= cat.movies().back().id ||
          !shadow.created.insert(r.movie_id).second)
        return "created id " + std::to_string(r.movie_id) + " is not fresh";
      return {};
    }
    case Op::MovieDeleteResp: {
      const auto& r = std::get<core::MovieDeleteResp>(resp);
      return r.result == ResultCode::Success ? "" : not_ok(r.result);
    }
    default:
      return "unexpected request kind";
  }
}

core::Testbed::Config testbed_config(const Shape& s, std::uint64_t seed) {
  core::Testbed::Config cfg;
  cfg.clients = s.clients;
  cfg.connections_per_client = s.conns_per_client;
  cfg.use_acse = true;
  cfg.seed = seed;
  return cfg;
}

std::vector<mcam::estelle::InteractionPoint*> app_channels(
    core::Testbed& bed) {
  std::vector<mcam::estelle::InteractionPoint*> ips;
  for (int c = 0; c < bed.clients(); ++c)
    for (int k = 0; k < bed.config().connections_per_client; ++k)
      ips.push_back(&bed.connection(c, k).app->mca());
  return ips;
}

void send(mcam::estelle::InteractionPoint& ip, const Request& rq) {
  ip.output(mcam::estelle::Interaction(static_cast<int>(core::op_of(rq.pdu)),
                                       core::encode(rq.pdu)));
}

std::vector<core::EquipItem> equipment_of(core::McamServerCore& server) {
  std::vector<core::EquipItem> out;
  for (const auto& d : server.eca().list(std::nullopt))
    out.push_back(core::EquipItem{d.id, static_cast<int>(d.kind), d.name,
                                  d.powered, d.reserved_by});
  return out;
}

// ---------------------------------------------------------------------------

const char* layer_name(int kind) {
  static const char* const kNames[] = {"app", "mca", "acse", "pres",
                                       "sess", "tp", "smca", "other"};
  return kNames[kind];
}

LayerTracer::LayerTracer(core::Testbed& bed, bool time_gaps)
    : time_gaps_(time_gaps) {
  for (int c = 0; c < bed.clients(); ++c)
    for (int k = 0; k < bed.config().connections_per_client; ++k) {
      auto& conn = bed.connection(c, k);
      kind_[conn.app] = kApp;
      kind_[conn.mca] = kMca;
      kind_[conn.server_mca] = kSmca;
      kind_[conn.client_acse] = kAcse;
      kind_[conn.server_acse] = kAcse;
      for (const auto* stack : {&conn.client_stack, &conn.server_stack}) {
        kind_[stack->presentation] = kPres;
        kind_[stack->session] = kSess;
        kind_[stack->transport] = kTp;
      }
    }
}

void LayerTracer::on_fire(const mcam::estelle::Module& m,
                          const mcam::estelle::Transition&,
                          mcam::common::SimTime) {
  const auto it = kind_.find(&m);
  const int k = it == kind_.end() ? kOther : it->second;
  ++fired[k];
  if (!time_gaps_) return;
  const auto now = Clock::now();
  if (last_ >= 0) self_ns[last_] += ns_between(last_at_, now);
  last_ = k;
  last_at_ = now;
}

void LayerTracer::on_run_end(mcam::estelle::Executor&,
                             const mcam::estelle::RunReport&) {
  if (time_gaps_ && last_ >= 0)
    self_ns[last_] += ns_between(last_at_, Clock::now());
  last_ = -1;
}

// ---------------------------------------------------------------------------

void Report::set(const std::string& name, double value,
                 const std::string& unit, const std::string& note) {
  for (auto& e : entries_)
    if (e.name == name) {
      e = Entry{name, value, unit, note};
      return;
    }
  entries_.push_back(Entry{name, value, unit, note});
}

bool Report::has(const std::string& name) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const Entry& e) { return e.name == name; });
}

double Report::get(const std::string& name) const {
  for (const auto& e : entries_)
    if (e.name == name) return e.value;
  return 0;
}

std::vector<std::string> Report::non_finite() const {
  std::vector<std::string> out;
  for (const auto& e : entries_)
    if (!std::isfinite(e.value)) out.push_back(e.name);
  return out;
}

const std::string& Report::unit(const std::string& name) const {
  static const std::string kNone;
  for (const auto& e : entries_)
    if (e.name == name) return e.unit;
  return kNone;
}

void Report::print_lines() const {
  for (const auto& e : entries_)
    std::printf("%-36s %14.6g %-8s %s\n", e.name.c_str(), e.value,
                e.unit.c_str(), e.note.c_str());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

namespace {

constexpr int kSubBuckets = 128;  // per octave

std::uint32_t bucket_of(float us) {
  int exp = 0;
  const double m = std::frexp(std::clamp(static_cast<double>(us), 0x1p-20,
                                         0x1p40),
                              &exp);  // us = m * 2^exp, m in [0.5, 1)
  return static_cast<std::uint32_t>(exp + 20) * kSubBuckets +
         static_cast<std::uint32_t>((m - 0.5) * 2 * kSubBuckets);
}

double bucket_low(std::uint32_t b) {
  return std::ldexp(0.5 + 0.5 * (b % kSubBuckets) / kSubBuckets,
                    static_cast<int>(b / kSubBuckets) - 20);
}

}  // namespace

LatencyHistogram::LatencyHistogram(const std::vector<float>& lat_us) {
  std::vector<std::uint32_t> ids;
  ids.reserve(lat_us.size());
  for (const float us : lat_us) ids.push_back(bucket_of(us));
  std::sort(ids.begin(), ids.end());
  for (const std::uint32_t b : ids) {
    if (buckets_.empty() || buckets_.back().first != b)
      buckets_.emplace_back(b, 0);
    ++buckets_.back().second;
  }
  count_ = lat_us.size();
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> out;
  out.reserve(buckets_.size() + other.buckets_.size());
  std::merge(buckets_.begin(), buckets_.end(), other.buckets_.begin(),
             other.buckets_.end(), std::back_inserter(out));
  buckets_.clear();
  for (const auto& [b, n] : out) {
    if (buckets_.empty() || buckets_.back().first != b)
      buckets_.emplace_back(b, 0);
    buckets_.back().second += n;
  }
  count_ += other.count_;
}

double LatencyHistogram::percentile(double p) const {
  if (count_ == 0) return 0;
  const auto rank = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(p * static_cast<double>(count_))),
      1, count_);
  std::uint64_t below = 0;
  for (const auto& [b, n] : buckets_) {
    if (below + n >= rank) {
      const double lo = bucket_low(b);
      const double width = bucket_low(b + 1) - lo;
      return lo + width * (static_cast<double>(rank - below) - 0.5) /
                      static_cast<double>(n);
    }
    below += n;
  }
  return bucket_low(buckets_.back().first + 1);
}

void Windows::close(double requests, double seconds,
                    std::vector<float>& lat_us) {
  rps.push_back(requests / seconds);
  latency.emplace_back(lat_us);
  const std::size_t beyond = lat_us.size() / 100;
  min_beyond_p99 = samples == 0 ? beyond : std::min(min_beyond_p99, beyond);
  samples += lat_us.size();
  lat_us.clear();
}

double Windows::rate() const { return quantile(rps, 0.9); }

CpuRotor::CpuRotor() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &allowed)) cpus_.push_back(c);
}

bool CpuRotor::next() {
  if (cpus_.empty()) return false;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[at_], &one);
  at_ = (at_ + 1) % cpus_.size();
  return ::sched_setaffinity(0, sizeof one, &one) == 0;
}

void Windows::report(Report& out, const char* windows) const {
  // The fast decile: the tenth of windows with the highest rates.
  std::vector<std::size_t> order(rps.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return rps[a] > rps[b]; });
  order.resize((order.size() + 9) / 10);
  LatencyHistogram fast;
  for (const std::size_t i : order) fast.merge(latency[i]);

  const std::string of = "fast decile of " + std::to_string(rps.size()) +
                         " " + windows;
  char med[48];
  std::snprintf(med, sizeof med, ", median %.6g", median(rps));
  out.set("requests_per_s", rate(), "1/s", of + med + spread_note(rps));
  const std::string pooled = "latencies of the " +
                             std::to_string(order.size()) + " fastest of " +
                             std::to_string(rps.size()) + " " + windows +
                             ", n=" + std::to_string(fast.count());
  out.set("latency_p50_ms", fast.percentile(0.50) / 1e3, "ms", pooled);
  out.set("latency_p99_ms", fast.percentile(0.99) / 1e3, "ms",
          pooled + ", >= " + std::to_string(min_beyond_p99) +
              " beyond each window's p99");
}

std::string spread_note(const std::vector<double>& v) {
  if (v.empty()) return {};
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  char buf[64];
  std::snprintf(buf, sizeof buf, " (min %.6g, max %.6g)", *lo, *hi);
  return buf;
}

}  // namespace e2e
