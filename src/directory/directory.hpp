// Movie directory service — the Directory System of Fig. 1.
//
// "The movie directory is used as a repository for movie information, such
// as digital image format and storage location" (§2). The paper backs it
// with X.500 DSAs; we implement the same service semantics in-process
// (DESIGN.md §2): typed movie entries with a generic attribute interface,
// X.500-style filters (presence/equality/substring with and/or/not), and
// chained operation between DSAs (a query not answerable locally is
// forwarded to peer DSAs, hop-limited).
//
// Titles are unique within one DSA, so each DSA keeps a title index beside
// its id-ordered entries: title lookup, the duplicate-title check and
// searches for one exact title cost the same at any catalogue size. Every
// other filter scans the entries in id order.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "common/result.hpp"

namespace mcam::directory {

/// Digital image formats of the XMovie era.
enum class Format { RawRgb, Colormap, Mjpeg, Mpeg1 };

[[nodiscard]] const char* format_name(Format f) noexcept;
[[nodiscard]] std::optional<Format> format_from(const std::string& name);

/// One directory entry. Fixed schema plus the generic attribute view used
/// by the MCAM AttributeQuery/AttributeModify operations.
struct MovieEntry {
  std::uint64_t id = 0;
  std::string title;
  Format format = Format::Mjpeg;
  int width = 320;
  int height = 240;
  double fps = 25.0;
  std::uint64_t duration_frames = 0;
  std::string location_host;  // storage location (server host)
  std::string location_path;
  std::string rights = "public";
  std::uint64_t size_bytes = 0;

  /// Generic attribute access. Known names: title, format, width, height,
  /// fps, duration, location-host, location-path, rights, size.
  [[nodiscard]] std::optional<std::string> attribute(
      const std::string& name) const;
  /// Parses `value` (it arrives in MCAM PDUs) and sets the attribute, or
  /// fails with kBadAttribute and leaves the entry unchanged. Numbers are
  /// plain decimal, with nothing before or after: width and height are
  /// positive, duration and size unsigned, and fps a rate from 0.001 (the
  /// precision attribute("fps") prints) to 1e9 (a 1 ns frame interval).
  common::Status set_attribute(const std::string& name,
                               const std::string& value);
  /// All attributes as (name, value) pairs, stable order.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> attributes()
      const;
};

/// X.500-style search filter.
class Filter {
 public:
  static Filter present(std::string attr);
  static Filter equal(std::string attr, std::string value);
  static Filter substring(std::string attr, std::string needle);
  static Filter all();  // matches everything
  static Filter and_(std::vector<Filter> fs);
  static Filter or_(std::vector<Filter> fs);
  static Filter not_(Filter f);

  [[nodiscard]] bool matches(const MovieEntry& entry) const;
  [[nodiscard]] std::string to_string() const;

  /// Structural introspection (used by the MCAM wire codec, which carries
  /// filters inside MovieSearch PDUs).
  enum class Op { Present, Equal, Substring, All, And, Or, Not };
  [[nodiscard]] Op op() const noexcept { return op_; }
  [[nodiscard]] const std::string& attr() const noexcept { return attr_; }
  [[nodiscard]] const std::string& value() const noexcept { return value_; }
  [[nodiscard]] const std::vector<Filter>& children() const noexcept {
    return children_;
  }

  bool operator==(const Filter& other) const;

 private:
  Op op_ = Op::All;
  std::string attr_;
  std::string value_;
  std::vector<Filter> children_;
};

enum DirectoryError : int {
  kNoSuchEntry = 4001,
  kDuplicateTitle = 4002,
  kBadAttribute = 4003,
  kAccessDenied = 4004,
};

/// Directory System Agent: one per administrative domain (server host).
/// Peers form the distributed directory; search_chained consults them when
/// the local base has no match.
///
/// Invariant: no two entries share a title. add, modify and update reject a
/// title another entry holds with kDuplicateTitle; setting an entry's title
/// to its current title succeeds. The title index (title → id) follows
/// every add, remove, modify and update. find_by_title, the duplicate check
/// and a search whose top-level filter is Filter::equal("title", ...) read
/// the index; every other search scans the entries in id order.
class Dsa {
 public:
  explicit Dsa(std::string domain);

  [[nodiscard]] const std::string& domain() const noexcept { return domain_; }

  /// Add an entry (id assigned); fails if another entry has its title.
  common::Result<std::uint64_t> add(MovieEntry entry);
  common::Status remove(std::uint64_t id);
  [[nodiscard]] common::Result<MovieEntry> read(std::uint64_t id) const;
  /// Index lookup.
  common::Result<MovieEntry> find_by_title(const std::string& title) const;
  /// Set one attribute (MovieEntry::set_attribute); a title change must not
  /// collide with another entry's title.
  common::Status modify(std::uint64_t id, const std::string& attr,
                        const std::string& value);
  /// Replace the entry whose id is `entry.id` with `entry` in one step, so
  /// several attribute changes land together or not at all. Fails with
  /// kNoSuchEntry, or kDuplicateTitle if another entry has the title.
  common::Status update(MovieEntry entry);

  /// Matches in id order (at most one for an exact-title filter).
  [[nodiscard]] std::vector<MovieEntry> search(const Filter& filter) const;
  /// Chained search: local base plus peer DSAs, breadth-first, hop-limited,
  /// duplicate-free (by (domain, id)).
  [[nodiscard]] std::vector<MovieEntry> search_chained(const Filter& filter,
                                                       int hop_limit = 3) const;

  void add_peer(Dsa& peer) { peers_.push_back(&peer); }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

 private:
  using Entries = std::map<std::uint64_t, MovieEntry>;

  [[nodiscard]] const MovieEntry* titled(const std::string& title) const;
  common::Status retitle(Entries::iterator it, const std::string& title);

  std::string domain_;
  std::uint64_t next_id_ = 1;
  Entries entries_;
  std::unordered_map<std::string, std::uint64_t> by_title_;
  std::vector<Dsa*> peers_;
};

/// Directory User Agent: the client-side facade (one per MCAM entity).
class Dua {
 public:
  explicit Dua(Dsa& home) : home_(home) {}

  common::Result<MovieEntry> lookup(const std::string& title) const;
  [[nodiscard]] std::vector<MovieEntry> search(const Filter& filter,
                                               bool chained = true) const;

 private:
  Dsa& home_;
};

}  // namespace mcam::directory
