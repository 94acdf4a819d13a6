#include "mcam/server_core.hpp"

#include <algorithm>

namespace mcam::core {

using common::Error;
using common::Result;
using directory::MovieEntry;

McamServerCore::McamServerCore(net::SimNetwork& net, std::string host)
    : net_(net),
      host_(host),
      dsa_(host),
      eca_(host),
      spa_(net, std::move(host)) {}

Result<std::uint64_t> McamServerCore::associate(const AssociateReq& req) {
  if (req.user.empty())
    return Error::make(static_cast<int>(ResultCode::AccessDenied),
                       "empty user name");
  if (req.version != 1)
    return Error::make(static_cast<int>(ResultCode::ProtocolError),
                       "unsupported MCAM version");
  const std::uint64_t id = next_session_++;
  sessions_.emplace(id, Session{req.user, {}, {}, {}, {}});
  return id;
}

void McamServerCore::release(std::uint64_t session) {
  auto it = sessions_.find(session);
  if (it == sessions_.end()) return;
  // Tear down any streams and recordings the association still holds.
  for (const auto& [movie, stream] : it->second.playing)
    (void)spa_.stop(stream);
  sessions_.erase(it);
}

void McamServerCore::add_selection(Session& s, std::uint64_t movie) {
  const auto it = std::lower_bound(s.selected.begin(), s.selected.end(), movie);
  if (it == s.selected.end() || *it != movie) s.selected.insert(it, movie);
}

void McamServerCore::drop_selection(Session& s, std::uint64_t movie) {
  const auto it = std::lower_bound(s.selected.begin(), s.selected.end(), movie);
  if (it != s.selected.end() && *it == movie) s.selected.erase(it);
}

McamServerCore::Session* McamServerCore::find(std::uint64_t session) {
  auto it = sessions_.find(session);
  return it == sessions_.end() ? nullptr : &it->second;
}

mtp::FrameSource McamServerCore::source_for(const MovieEntry& movie) const {
  mtp::FrameSource::Config cfg;
  cfg.fps = movie.fps;
  cfg.total_frames = std::max<std::uint64_t>(1, movie.duration_frames);
  if (movie.duration_frames > 0 && movie.size_bytes > 0)
    cfg.mean_frame_bytes = static_cast<std::size_t>(
        std::max<std::uint64_t>(256, movie.size_bytes / movie.duration_frames));
  cfg.stddev_bytes = cfg.mean_frame_bytes / 5;
  cfg.seed = movie.id * 7919 + 17;  // per-movie deterministic content
  return mtp::FrameSource(cfg);
}

bool McamServerCore::has_position_updates(std::uint64_t session) const {
  auto it = sessions_.find(session);
  if (it == sessions_.end()) return false;
  for (const auto& [movie, stream] : it->second.playing) {
    auto pos = spa_.position(stream);
    if (!pos.ok()) continue;
    auto reported = it->second.reported.find(movie);
    const std::uint64_t last =
        reported == it->second.reported.end() ? 0 : reported->second;
    if (pos.value() >= last + kPositionReportInterval) return true;
  }
  return false;
}

std::vector<PositionInd> McamServerCore::drain_position_updates(
    std::uint64_t session) {
  std::vector<PositionInd> out;
  Session* s = find(session);
  if (s == nullptr) return out;
  for (const auto& [movie, stream] : s->playing) {
    auto pos = spa_.position(stream);
    if (!pos.ok()) continue;
    std::uint64_t& last = s->reported[movie];
    if (pos.value() >= last + kPositionReportInterval) {
      last = pos.value();
      out.push_back(PositionInd{movie, pos.value()});
    }
  }
  return out;
}

Pdu McamServerCore::handle(std::uint64_t session, const Pdu& request) {
  Session* s = find(session);
  if (s == nullptr)
    return ErrorResp{ResultCode::NotAssociated, "no such association"};
  return handle_in_session(*s, request);
}

Pdu McamServerCore::handle_in_session(Session& s, const Pdu& request) {
  return std::visit(
      [&](const auto& req) -> Pdu {
        using T = std::decay_t<decltype(req)>;

        // ---- movie access ----
        if constexpr (std::is_same_v<T, MovieCreateReq>) {
          MovieEntry entry;
          entry.title = req.title;
          entry.location_host = host_;
          entry.rights = s.user;  // creator owns it until made public
          for (const Attr& a : req.attrs) {
            if (auto st = entry.set_attribute(a.name, a.value); !st.ok())
              return MovieCreateResp{ResultCode::BadAttribute, 0};
          }
          entry.title = req.title;  // title attr may not override the name
          auto id = dsa_.add(std::move(entry));
          if (!id.ok()) return MovieCreateResp{ResultCode::DuplicateMovie, 0};
          add_selection(s, id.value());
          return MovieCreateResp{ResultCode::Success, id.value()};
        } else if constexpr (std::is_same_v<T, MovieDeleteReq>) {
          auto movie = dsa_.read(req.movie_id);
          if (!movie.ok()) return MovieDeleteResp{ResultCode::NoSuchMovie};
          if (movie.value().rights != "public" &&
              movie.value().rights != s.user)
            return MovieDeleteResp{ResultCode::AccessDenied};
          if (s.playing.contains(req.movie_id))
            return MovieDeleteResp{ResultCode::AlreadyPlaying};
          (void)dsa_.remove(req.movie_id);
          drop_selection(s, req.movie_id);
          return MovieDeleteResp{ResultCode::Success};
        } else if constexpr (std::is_same_v<T, MovieSelectReq>) {
          auto movie = dsa_.find_by_title(req.title);
          if (!movie.ok()) {
            // Consult peer DSAs (distributed directory).
            auto chained = dsa_.search_chained(
                directory::Filter::equal("title", req.title));
            if (chained.empty())
              return MovieSelectResp{ResultCode::NoSuchMovie, 0, {}};
            movie = chained.front();
          }
          const MovieEntry& e = movie.value();
          if (e.rights != "public" && e.rights != s.user)
            return MovieSelectResp{ResultCode::AccessDenied, 0, {}};
          add_selection(s, e.id);
          std::vector<Attr> attrs;
          for (auto& [name, value] : e.attributes())
            attrs.push_back(Attr{name, value});
          return MovieSelectResp{ResultCode::Success, e.id, std::move(attrs)};
        }

        // ---- movie management ----
        else if constexpr (std::is_same_v<T, AttrQueryReq>) {
          auto movie = dsa_.read(req.movie_id);
          if (!movie.ok()) return AttrQueryResp{ResultCode::NoSuchMovie, {}};
          std::vector<Attr> attrs;
          if (req.names.empty()) {
            for (auto& [name, value] : movie.value().attributes())
              attrs.push_back(Attr{name, value});
          } else {
            for (const std::string& name : req.names) {
              auto v = movie.value().attribute(name);
              if (!v) return AttrQueryResp{ResultCode::BadAttribute, {}};
              attrs.push_back(Attr{name, *v});
            }
          }
          return AttrQueryResp{ResultCode::Success, std::move(attrs)};
        } else if constexpr (std::is_same_v<T, AttrModifyReq>) {
          auto movie = dsa_.read(req.movie_id);
          if (!movie.ok()) return AttrModifyResp{ResultCode::NoSuchMovie};
          MovieEntry& e = movie.value();
          if (e.rights != "public" && e.rights != s.user)
            return AttrModifyResp{ResultCode::AccessDenied};
          // All or nothing: edit the copy, then commit it in one step.
          for (const Attr& a : req.attrs) {
            if (auto st = e.set_attribute(a.name, a.value); !st.ok())
              return AttrModifyResp{ResultCode::BadAttribute};
          }
          if (!dsa_.update(std::move(e)).ok())
            return AttrModifyResp{ResultCode::DuplicateMovie};
          return AttrModifyResp{ResultCode::Success};
        }

        // ---- directory search over the wire ----
        else if constexpr (std::is_same_v<T, MovieSearchReq>) {
          MovieSearchResp resp;
          resp.result = ResultCode::Success;
          const auto matches = req.chained
                                   ? dsa_.search_chained(req.filter)
                                   : dsa_.search(req.filter);
          for (const MovieEntry& e : matches) {
            if (e.rights != "public" && e.rights != s.user)
              continue;  // invisible to other users
            SearchHit hit;
            hit.movie_id = e.id;
            for (auto& [name, value] : e.attributes())
              hit.attrs.push_back(Attr{name, value});
            resp.hits.push_back(std::move(hit));
          }
          return resp;
        }

        // ---- movie control: playback ----
        else if constexpr (std::is_same_v<T, PlayReq>) {
          // §6 QoS extension: validate requested bounds before admission.
          if (req.qos_max_delay_ms > 10'000 || req.qos_max_jitter_ms > 1'000)
            return PlayResp{ResultCode::BadAttribute, 0};
          if (!std::binary_search(s.selected.begin(), s.selected.end(),
                                  req.movie_id))
            return PlayResp{ResultCode::NotSelected, 0};
          if (s.playing.contains(req.movie_id))
            return PlayResp{ResultCode::AlreadyPlaying, 0};
          auto movie = dsa_.read(req.movie_id);
          if (!movie.ok()) return PlayResp{ResultCode::NoSuchMovie, 0};
          const std::uint16_t stream = spa_.open_stream(
              source_for(movie.value()),
              net::Address{req.dest_host, req.dest_port}, req.start_frame);
          s.playing.emplace(req.movie_id, stream);
          return PlayResp{ResultCode::Success, stream};
        } else if constexpr (std::is_same_v<T, StopReq>) {
          auto it = s.playing.find(req.movie_id);
          if (it == s.playing.end())
            return StopResp{ResultCode::NotPlaying, 0};
          auto pos = spa_.stop(it->second);
          s.playing.erase(it);
          return StopResp{ResultCode::Success, pos.value_or(0)};
        } else if constexpr (std::is_same_v<T, PauseReq>) {
          auto it = s.playing.find(req.movie_id);
          if (it == s.playing.end()) return PauseResp{ResultCode::NotPlaying};
          (void)spa_.pause(it->second);
          return PauseResp{ResultCode::Success};
        } else if constexpr (std::is_same_v<T, ResumeReq>) {
          auto it = s.playing.find(req.movie_id);
          if (it == s.playing.end()) return ResumeResp{ResultCode::NotPlaying};
          (void)spa_.resume(it->second);
          return ResumeResp{ResultCode::Success};
        }

        // ---- movie control: recording ----
        else if constexpr (std::is_same_v<T, RecordReq>) {
          auto device = eca_.status(req.equipment_id);
          if (!device.ok()) return RecordResp{ResultCode::NoSuchEquipment, 0};
          if (device.value().kind != equipment::Kind::Camera &&
              device.value().kind != equipment::Kind::Microphone)
            return RecordResp{ResultCode::NoSuchEquipment, 0};
          auto reserve = eca_.execute(req.equipment_id,
                                      equipment::Command::Reserve, s.user);
          if (!reserve.ok()) return RecordResp{ResultCode::EquipmentBusy, 0};
          (void)eca_.execute(req.equipment_id, equipment::Command::PowerOn,
                             s.user);
          MovieEntry entry;
          entry.title = req.title;
          entry.location_host = host_;
          entry.rights = s.user;
          entry.duration_frames = 0;
          for (const Attr& a : req.attrs)
            (void)entry.set_attribute(a.name, a.value);
          entry.title = req.title;
          auto id = dsa_.add(std::move(entry));
          if (!id.ok()) {
            (void)eca_.execute(req.equipment_id, equipment::Command::Release,
                               s.user);
            return RecordResp{ResultCode::DuplicateMovie, 0};
          }
          s.recording.emplace(id.value(), net_.now());
          add_selection(s, id.value());
          return RecordResp{ResultCode::Success, id.value()};
        } else if constexpr (std::is_same_v<T, RecordStopReq>) {
          auto it = s.recording.find(req.movie_id);
          if (it == s.recording.end())
            return RecordStopResp{ResultCode::NotPlaying, 0};
          auto movie = dsa_.read(req.movie_id);
          const double fps = movie.ok() ? movie.value().fps : 25.0;
          const double elapsed_s = (net_.now() - it->second).seconds();
          const auto frames =
              static_cast<std::uint64_t>(std::max(0.0, elapsed_s * fps));
          (void)dsa_.modify(req.movie_id, "duration", std::to_string(frames));
          s.recording.erase(it);
          return RecordStopResp{ResultCode::Success, frames};
        }

        // ---- equipment ----
        else if constexpr (std::is_same_v<T, EquipListReq>) {
          std::optional<equipment::Kind> kind;
          if (req.kind >= 0) kind = static_cast<equipment::Kind>(req.kind);
          EquipListResp resp;
          resp.result = ResultCode::Success;
          for (const equipment::Device& d : eca_.list(kind))
            resp.items.push_back(EquipItem{d.id, static_cast<int>(d.kind),
                                           d.name, d.powered, d.reserved_by});
          return resp;
        } else if constexpr (std::is_same_v<T, EquipControlReq>) {
          auto result = eca_.execute(
              req.equipment_id, static_cast<equipment::Command>(req.command),
              s.user, req.param, req.value);
          if (!result.ok()) {
            const int code = result.error().code;
            ResultCode rc = ResultCode::InternalError;
            if (code == equipment::kNoSuchDevice)
              rc = ResultCode::NoSuchEquipment;
            else if (code == equipment::kDeviceBusy ||
                     code == equipment::kNotReserved)
              rc = ResultCode::EquipmentBusy;
            else if (code == equipment::kBadParameter ||
                     code == equipment::kPoweredOff)
              rc = ResultCode::BadAttribute;
            return EquipControlResp{rc, false, 0, {}};
          }
          const equipment::CommandResult& r = result.value();
          return EquipControlResp{ResultCode::Success, r.powered,
                                  r.param_value, r.reserved_by};
        }

        // ---- anything else (responses, indications) is a protocol error ----
        else {
          return ErrorResp{ResultCode::ProtocolError,
                           std::string("unexpected PDU ") +
                               op_name(op_of(Pdu{req}))};
        }
      },
      request);
}

}  // namespace mcam::core
