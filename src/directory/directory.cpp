#include "directory/directory.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <set>

#include "common/strf.hpp"

namespace mcam::directory {

using common::Error;
using common::Result;
using common::Status;

const char* format_name(Format f) noexcept {
  switch (f) {
    case Format::RawRgb:
      return "raw-rgb";
    case Format::Colormap:
      return "colormap";
    case Format::Mjpeg:
      return "mjpeg";
    case Format::Mpeg1:
      return "mpeg1";
  }
  return "?";
}

std::optional<Format> format_from(const std::string& name) {
  if (name == "raw-rgb") return Format::RawRgb;
  if (name == "colormap") return Format::Colormap;
  if (name == "mjpeg") return Format::Mjpeg;
  if (name == "mpeg1") return Format::Mpeg1;
  return std::nullopt;
}

std::optional<std::string> MovieEntry::attribute(
    const std::string& name) const {
  if (name == "title") return title;
  if (name == "format") return format_name(format);
  if (name == "width") return std::to_string(width);
  if (name == "height") return std::to_string(height);
  if (name == "fps") return common::strf("%.3f", fps);
  if (name == "duration") return std::to_string(duration_frames);
  if (name == "location-host") return location_host;
  if (name == "location-path") return location_path;
  if (name == "rights") return rights;
  if (name == "size") return std::to_string(size_bytes);
  return std::nullopt;
}

namespace {

// The lowest accepted frame rate: attribute("fps") prints three decimals,
// so a lower rate would read back as a value the setter rejects. It also
// keeps the frame interval (1e9 / fps ns) inside the int64 clock.
constexpr double kMinFps = 0.001;
// The highest accepted frame rate: one frame per nanosecond. Above it the
// frame interval truncates to 0 ns, and a stream sender would emit every
// remaining frame of the movie in one step.
constexpr double kMaxFps = 1e9;

// The whole string as a T, or nullopt: no whitespace, no trailing
// characters and, for unsigned T, no sign.
template <typename T>
std::optional<T> parse_number(const std::string& text) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return v;
}

Error no_entry(std::uint64_t id) {
  return Error::make(kNoSuchEntry, "no entry " + std::to_string(id));
}

Error duplicate_title(const std::string& title) {
  return Error::make(kDuplicateTitle, "title already present: " + title);
}

}  // namespace

Status MovieEntry::set_attribute(const std::string& name,
                                 const std::string& value) {
  const auto bad_value = [&] {
    return Error::make(kBadAttribute,
                       "bad value '" + value + "' for attribute " + name);
  };
  if (name == "title") {
    title = value;
  } else if (name == "format") {
    auto f = format_from(value);
    if (!f) return Error::make(kBadAttribute, "unknown format " + value);
    format = *f;
  } else if (name == "width" || name == "height") {
    auto v = parse_number<int>(value);
    if (!v || *v <= 0) return bad_value();
    (name == "width" ? width : height) = *v;
  } else if (name == "fps") {
    auto v = parse_number<double>(value);
    if (!v || !std::isfinite(*v) || *v < kMinFps || *v > kMaxFps)
      return bad_value();
    fps = *v;
  } else if (name == "duration" || name == "size") {
    auto v = parse_number<std::uint64_t>(value);
    if (!v) return bad_value();
    (name == "duration" ? duration_frames : size_bytes) = *v;
  } else if (name == "location-host") {
    location_host = value;
  } else if (name == "location-path") {
    location_path = value;
  } else if (name == "rights") {
    rights = value;
  } else {
    return Error::make(kBadAttribute, "unknown attribute " + name);
  }
  return Status{};
}

std::vector<std::pair<std::string, std::string>> MovieEntry::attributes()
    const {
  static const char* kNames[] = {"title",         "format",        "width",
                                 "height",        "fps",           "duration",
                                 "location-host", "location-path", "rights",
                                 "size"};
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(std::size(kNames));
  for (const char* name : kNames) out.emplace_back(name, *attribute(name));
  return out;
}

// ---------------------------------------------------------------------------
// Filter

Filter Filter::present(std::string attr) {
  Filter f;
  f.op_ = Op::Present;
  f.attr_ = std::move(attr);
  return f;
}
Filter Filter::equal(std::string attr, std::string value) {
  Filter f;
  f.op_ = Op::Equal;
  f.attr_ = std::move(attr);
  f.value_ = std::move(value);
  return f;
}
Filter Filter::substring(std::string attr, std::string needle) {
  Filter f;
  f.op_ = Op::Substring;
  f.attr_ = std::move(attr);
  f.value_ = std::move(needle);
  return f;
}
Filter Filter::all() { return Filter{}; }
Filter Filter::and_(std::vector<Filter> fs) {
  Filter f;
  f.op_ = Op::And;
  f.children_ = std::move(fs);
  return f;
}
Filter Filter::or_(std::vector<Filter> fs) {
  Filter f;
  f.op_ = Op::Or;
  f.children_ = std::move(fs);
  return f;
}
Filter Filter::not_(Filter inner) {
  Filter f;
  f.op_ = Op::Not;
  f.children_.push_back(std::move(inner));
  return f;
}

bool Filter::matches(const MovieEntry& entry) const {
  switch (op_) {
    case Op::All:
      return true;
    case Op::Present:
      return entry.attribute(attr_).has_value();
    case Op::Equal: {
      auto v = entry.attribute(attr_);
      return v && *v == value_;
    }
    case Op::Substring: {
      auto v = entry.attribute(attr_);
      return v && v->find(value_) != std::string::npos;
    }
    case Op::And:
      return std::all_of(children_.begin(), children_.end(),
                         [&](const Filter& f) { return f.matches(entry); });
    case Op::Or:
      return std::any_of(children_.begin(), children_.end(),
                         [&](const Filter& f) { return f.matches(entry); });
    case Op::Not:
      return !children_.front().matches(entry);
  }
  return false;
}

bool Filter::operator==(const Filter& other) const {
  return op_ == other.op_ && attr_ == other.attr_ && value_ == other.value_ &&
         children_ == other.children_;
}

std::string Filter::to_string() const {
  switch (op_) {
    case Op::All:
      return "(*)";
    case Op::Present:
      return "(" + attr_ + "=*)";
    case Op::Equal:
      return "(" + attr_ + "=" + value_ + ")";
    case Op::Substring:
      return "(" + attr_ + "~=" + value_ + ")";
    case Op::And:
    case Op::Or: {
      std::string s = op_ == Op::And ? "(&" : "(|";
      for (const Filter& f : children_) s += f.to_string();
      return s + ")";
    }
    case Op::Not:
      return "(!" + children_.front().to_string() + ")";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Dsa

Dsa::Dsa(std::string domain) : domain_(std::move(domain)) {}

const MovieEntry* Dsa::titled(const std::string& title) const {
  auto hit = by_title_.find(title);
  return hit == by_title_.end() ? nullptr : &entries_.at(hit->second);
}

Status Dsa::retitle(Entries::iterator it, const std::string& title) {
  if (title == it->second.title) return Status{};
  if (!by_title_.try_emplace(title, it->first).second)
    return duplicate_title(title);
  by_title_.erase(it->second.title);
  it->second.title = title;
  return Status{};
}

Result<std::uint64_t> Dsa::add(MovieEntry entry) {
  if (!by_title_.try_emplace(entry.title, next_id_).second)
    return duplicate_title(entry.title);
  entry.id = next_id_++;
  const std::uint64_t id = entry.id;
  entries_.emplace(id, std::move(entry));
  return id;
}

Status Dsa::remove(std::uint64_t id) {
  auto it = entries_.find(id);
  if (it == entries_.end()) return no_entry(id);
  by_title_.erase(it->second.title);
  entries_.erase(it);
  return Status{};
}

Result<MovieEntry> Dsa::read(std::uint64_t id) const {
  auto it = entries_.find(id);
  if (it == entries_.end()) return no_entry(id);
  return it->second;
}

Result<MovieEntry> Dsa::find_by_title(const std::string& title) const {
  if (const MovieEntry* entry = titled(title)) return *entry;
  return Error::make(kNoSuchEntry, "no movie titled '" + title + "'");
}

Status Dsa::modify(std::uint64_t id, const std::string& attr,
                   const std::string& value) {
  auto it = entries_.find(id);
  if (it == entries_.end()) return no_entry(id);
  if (attr == "title") return retitle(it, value);
  return it->second.set_attribute(attr, value);
}

Status Dsa::update(MovieEntry entry) {
  auto it = entries_.find(entry.id);
  if (it == entries_.end()) return no_entry(entry.id);
  if (auto st = retitle(it, entry.title); !st.ok()) return st;
  it->second = std::move(entry);
  return Status{};
}

std::vector<MovieEntry> Dsa::search(const Filter& filter) const {
  std::vector<MovieEntry> out;
  if (filter.op() == Filter::Op::Equal && filter.attr() == "title") {
    if (const MovieEntry* entry = titled(filter.value()))
      out.push_back(*entry);
    return out;
  }
  for (const auto& [id, entry] : entries_)
    if (filter.matches(entry)) out.push_back(entry);
  return out;
}

std::vector<MovieEntry> Dsa::search_chained(const Filter& filter,
                                            int hop_limit) const {
  std::vector<MovieEntry> out;
  std::set<std::pair<std::string, std::uint64_t>> seen;
  std::set<const Dsa*> visited;
  // Breadth-first over the DSA graph.
  std::vector<const Dsa*> frontier{this};
  visited.insert(this);
  for (int hop = 0; hop <= hop_limit && !frontier.empty(); ++hop) {
    std::vector<const Dsa*> next;
    for (const Dsa* dsa : frontier) {
      for (MovieEntry entry : dsa->search(filter)) {
        if (seen.emplace(dsa->domain_, entry.id).second)
          out.push_back(std::move(entry));
      }
      for (Dsa* peer : dsa->peers_)
        if (visited.insert(peer).second) next.push_back(peer);
    }
    frontier = std::move(next);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Dua

Result<MovieEntry> Dua::lookup(const std::string& title) const {
  auto local = home_.find_by_title(title);
  if (local.ok()) return local;
  auto results = home_.search_chained(Filter::equal("title", title));
  if (results.empty())
    return Error::make(kNoSuchEntry, "no movie titled '" + title + "'");
  return results.front();
}

std::vector<MovieEntry> Dua::search(const Filter& filter, bool chained) const {
  return chained ? home_.search_chained(filter) : home_.search(filter);
}

}  // namespace mcam::directory
