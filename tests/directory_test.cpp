// Movie directory tests: entry schema, generic attributes, filter algebra
// (with a property check), DSA operations, the title index (checked against
// a scanning reference model) and chained distributed search.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "directory/directory.hpp"

namespace mcam::directory {
namespace {

using common::Status;

MovieEntry sample(const std::string& title, Format fmt = Format::Mjpeg,
                  const std::string& rights = "public") {
  MovieEntry e;
  e.title = title;
  e.format = fmt;
  e.width = 320;
  e.height = 240;
  e.fps = 25.0;
  e.duration_frames = 1500;
  e.location_host = "ksr1";
  e.location_path = "/movies/" + title;
  e.rights = rights;
  e.size_bytes = 12'000'000;
  return e;
}

TEST(MovieEntry, AttributeRoundTrip) {
  MovieEntry e = sample("casablanca");
  EXPECT_EQ(*e.attribute("title"), "casablanca");
  EXPECT_EQ(*e.attribute("format"), "mjpeg");
  EXPECT_EQ(*e.attribute("width"), "320");
  EXPECT_EQ(*e.attribute("duration"), "1500");
  EXPECT_FALSE(e.attribute("nonsense").has_value());

  ASSERT_TRUE(e.set_attribute("format", "mpeg1").ok());
  EXPECT_EQ(e.format, Format::Mpeg1);
  ASSERT_TRUE(e.set_attribute("width", "640").ok());
  EXPECT_EQ(e.width, 640);
  EXPECT_FALSE(e.set_attribute("format", "divx").ok());
  EXPECT_FALSE(e.set_attribute("width", "not-a-number").ok());
  EXPECT_FALSE(e.set_attribute("nonsense", "x").ok());

  // Values arrive from the wire: the whole string must be a number in range,
  // and a rejected value leaves the entry as it was.
  ASSERT_TRUE(e.set_attribute("fps", "29.97").ok());
  EXPECT_DOUBLE_EQ(e.fps, 29.97);
  ASSERT_TRUE(e.set_attribute("size", "18446744073709551615").ok());
  EXPECT_EQ(e.size_bytes, 18446744073709551615ull);
  const std::pair<const char*, const char*> rejected[] = {
      {"width", "640x"},     {"width", " 12"},       {"width", "+12"},
      {"width", "0"},        {"width", ""},          {"height", "-240"},
      {"height", "99999999999"},
      {"size", "-1"},        {"size", "18446744073709551616"},
      {"duration", "-5"},    {"duration", "5 "},
      {"fps", "0"},          {"fps", "nan"},         {"fps", "inf"},
      {"fps", "-25"},        {"fps", "0.0001"},      {"fps", "25fps"},
      {"fps", "2e9"}};
  for (const auto& [name, value] : rejected) {
    const auto before = e.attributes();
    const Status st = e.set_attribute(name, value);
    ASSERT_FALSE(st.ok()) << name << "=" << value;
    EXPECT_EQ(st.error().code, kBadAttribute);
    EXPECT_EQ(e.attributes(), before) << name << "=" << value;
  }
  ASSERT_TRUE(e.set_attribute("fps", "1000000000").ok());  // 1 ns per frame
  ASSERT_TRUE(e.set_attribute("fps", "0.001").ok());
  EXPECT_EQ(*e.attribute("fps"), "0.001");
}

TEST(MovieEntry, AttributesListsAllTen) {
  const auto attrs = sample("x").attributes();
  EXPECT_EQ(attrs.size(), 10u);
  EXPECT_EQ(attrs.front().first, "title");
}

TEST(Formats, NamesRoundTrip) {
  for (Format f : {Format::RawRgb, Format::Colormap, Format::Mjpeg,
                   Format::Mpeg1}) {
    EXPECT_EQ(format_from(format_name(f)), f);
  }
  EXPECT_FALSE(format_from("vhs").has_value());
}

TEST(Filter, BasicOperators) {
  const MovieEntry e = sample("the third man", Format::Mjpeg, "alice");
  EXPECT_TRUE(Filter::all().matches(e));
  EXPECT_TRUE(Filter::present("title").matches(e));
  EXPECT_FALSE(Filter::present("bogus").matches(e));
  EXPECT_TRUE(Filter::equal("format", "mjpeg").matches(e));
  EXPECT_FALSE(Filter::equal("format", "mpeg1").matches(e));
  EXPECT_TRUE(Filter::substring("title", "third").matches(e));
  EXPECT_FALSE(Filter::substring("title", "fourth").matches(e));
  EXPECT_TRUE(Filter::and_({Filter::equal("rights", "alice"),
                            Filter::substring("title", "man")})
                  .matches(e));
  EXPECT_TRUE(Filter::or_({Filter::equal("format", "mpeg1"),
                           Filter::equal("format", "mjpeg")})
                  .matches(e));
  EXPECT_FALSE(Filter::not_(Filter::all()).matches(e));
}

TEST(Filter, DeMorganProperty) {
  // !(A && B) == !A || !B over random entries.
  common::Rng rng(31);
  for (int i = 0; i < 200; ++i) {
    MovieEntry e = sample("m" + std::to_string(rng.below(10)),
                          static_cast<Format>(rng.below(4)),
                          rng.chance(0.5) ? "public" : "bob");
    e.width = static_cast<int>(160 + rng.below(4) * 160);
    const Filter a = Filter::equal("rights", "public");
    const Filter b = Filter::substring("title", "m1");
    const bool lhs = Filter::not_(Filter::and_({a, b})).matches(e);
    const bool rhs =
        Filter::or_({Filter::not_(a), Filter::not_(b)}).matches(e);
    ASSERT_EQ(lhs, rhs);
  }
}

TEST(Filter, ToStringIsLdapLike) {
  const Filter f = Filter::and_(
      {Filter::equal("format", "mjpeg"), Filter::not_(Filter::present("x"))});
  EXPECT_EQ(f.to_string(), "(&(format=mjpeg)(!(x=*)))");
}

TEST(Dsa, AddReadModifyRemove) {
  Dsa dsa("ksr1");
  auto id = dsa.add(sample("casablanca"));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(dsa.size(), 1u);

  auto read = dsa.read(id.value());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().title, "casablanca");
  EXPECT_EQ(read.value().id, id.value());

  ASSERT_TRUE(dsa.modify(id.value(), "fps", "30").ok());
  EXPECT_DOUBLE_EQ(dsa.read(id.value()).value().fps, 30.0);
  EXPECT_FALSE(dsa.modify(id.value(), "bogus", "1").ok());
  EXPECT_FALSE(dsa.modify(9999, "fps", "30").ok());

  ASSERT_TRUE(dsa.remove(id.value()).ok());
  EXPECT_FALSE(dsa.read(id.value()).ok());
  EXPECT_FALSE(dsa.remove(id.value()).ok());
}

TEST(Dsa, DuplicateTitlesRejected) {
  Dsa dsa("ksr1");
  ASSERT_TRUE(dsa.add(sample("unique")).ok());
  auto dup = dsa.add(sample("unique"));
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.error().code, kDuplicateTitle);

  // Renames keep titles unique too, by modify and by update.
  const std::uint64_t b = dsa.add(sample("b")).value();
  const Status rename = dsa.modify(b, "title", "unique");
  ASSERT_FALSE(rename.ok());
  EXPECT_EQ(rename.error().code, kDuplicateTitle);
  MovieEntry renamed = dsa.read(b).value();
  renamed.title = "unique";
  renamed.location_path = "/elsewhere";
  const Status update = dsa.update(renamed);
  ASSERT_FALSE(update.ok());
  EXPECT_EQ(update.error().code, kDuplicateTitle);
  EXPECT_EQ(dsa.read(b).value().title, "b");
  EXPECT_EQ(dsa.read(b).value().location_path, "/movies/b");
  EXPECT_EQ(dsa.search(Filter::equal("title", "unique")).size(), 1u);
  EXPECT_EQ(dsa.search(Filter::equal("title", "b")).size(), 1u);

  // Renaming an entry to its own title is not a collision; a free title
  // moves the entry and frees the old one.
  EXPECT_TRUE(dsa.modify(b, "title", "b").ok());
  ASSERT_TRUE(dsa.modify(b, "title", "c").ok());
  EXPECT_EQ(dsa.find_by_title("c").value().id, b);
  EXPECT_FALSE(dsa.find_by_title("b").ok());
  EXPECT_TRUE(dsa.add(sample("b")).ok());
}

TEST(Dsa, SearchWithFilters) {
  Dsa dsa("ksr1");
  (void)dsa.add(sample("news-1994-06", Format::Mjpeg));
  (void)dsa.add(sample("news-1994-07", Format::Mjpeg));
  (void)dsa.add(sample("lecture-db", Format::Mpeg1, "alice"));

  EXPECT_EQ(dsa.search(Filter::all()).size(), 3u);
  EXPECT_EQ(dsa.search(Filter::substring("title", "news")).size(), 2u);
  EXPECT_EQ(dsa.search(Filter::equal("format", "mpeg1")).size(), 1u);
  EXPECT_EQ(dsa.search(Filter::and_({Filter::substring("title", "news"),
                                     Filter::equal("format", "mpeg1")}))
                .size(),
            0u);
}

TEST(Dsa, ChainedSearchAcrossPeers) {
  Dsa a("hostA"), b("hostB"), c("hostC");
  a.add_peer(b);
  b.add_peer(c);
  b.add_peer(a);  // cycle must not loop forever
  c.add_peer(a);
  (void)a.add(sample("only-on-a"));
  (void)b.add(sample("only-on-b"));
  (void)c.add(sample("only-on-c"));

  auto everywhere = a.search_chained(Filter::substring("title", "only-on"));
  EXPECT_EQ(everywhere.size(), 3u);

  // Hop limit 0: local only.
  EXPECT_EQ(a.search_chained(Filter::all(), 0).size(), 1u);
  // Hop limit 1: a + direct peer b.
  EXPECT_EQ(a.search_chained(Filter::all(), 1).size(), 2u);
}

// Reference model of one DSA: its entries in id order, every query a scan.
struct ScanModel {
  std::vector<MovieEntry> entries;
  std::uint64_t next_id = 1;

  MovieEntry* find(std::uint64_t id) {
    auto it = std::find_if(entries.begin(), entries.end(),
                           [&](const MovieEntry& e) { return e.id == id; });
    return it == entries.end() ? nullptr : &*it;
  }
  [[nodiscard]] bool taken(const std::string& title,
                           std::uint64_t except) const {
    return std::any_of(entries.begin(), entries.end(), [&](const auto& e) {
      return e.title == title && e.id != except;
    });
  }
  [[nodiscard]] std::vector<MovieEntry> matches(const Filter& f) const {
    std::vector<MovieEntry> out;
    for (const MovieEntry& e : entries)
      if (f.matches(e)) out.push_back(e);
    return out;
  }
};

using Snapshot = std::vector<std::pair<std::uint64_t,
                                       std::vector<std::pair<std::string,
                                                             std::string>>>>;

Snapshot snapshot(const std::vector<MovieEntry>& entries) {
  Snapshot out;
  for (const MovieEntry& e : entries) out.emplace_back(e.id, e.attributes());
  return out;
}

// The model's status for a title change of entry `id` to `title`.
int expected_retitle(ScanModel& m, std::uint64_t id, const std::string& title) {
  if (m.find(id) == nullptr) return kNoSuchEntry;
  return m.taken(title, id) ? kDuplicateTitle : 0;
}

int code(const Status& st) { return st.ok() ? 0 : st.error().code; }

TEST(Dsa, TitleIndexMatchesScanModel) {
  // Random add/remove/modify/update on two peered DSAs, with a small title
  // pool so that renames and duplicate titles are frequent. After every step
  // the indexed answers, the scan path (the same equality under an and_)
  // and the chained search must equal the model's scans.
  const std::vector<std::string> titles = {"t0", "t1", "t2", "t3", "t4", "t5",
                                           "t6", "t7", "t8", "t9"};
  common::Rng rng(1994);
  Dsa a("hostA"), b("hostB");
  a.add_peer(b);
  Dsa* dsas[] = {&a, &b};
  ScanModel models[2];
  for (int step = 0; step < 2000; ++step) {
    const std::size_t which = rng.below(2);
    Dsa& dsa = *dsas[which];
    ScanModel& m = models[which];
    const std::string& title = titles[rng.below(titles.size())];
    const std::uint64_t id = 1 + rng.below(m.next_id + 1);  // may not exist
    switch (rng.below(6)) {
      case 0:
      case 1: {  // add
        auto got = dsa.add(sample(title));
        ASSERT_EQ(got.ok(), !m.taken(title, 0)) << "step " << step;
        if (!got.ok()) {
          EXPECT_EQ(got.error().code, kDuplicateTitle);
          break;
        }
        ASSERT_EQ(got.value(), m.next_id);
        MovieEntry e = sample(title);
        e.id = m.next_id++;
        m.entries.push_back(e);
        break;
      }
      case 2: {  // remove
        const Status st = dsa.remove(id);
        ASSERT_EQ(code(st), m.find(id) ? 0 : kNoSuchEntry) << "step " << step;
        std::erase_if(m.entries,
                      [&](const MovieEntry& e) { return e.id == id; });
        break;
      }
      case 3: {  // rename, possibly onto a taken title or its own
        const int want = expected_retitle(m, id, title);
        ASSERT_EQ(code(dsa.modify(id, "title", title)), want)
            << "step " << step;
        if (want == 0) m.find(id)->title = title;
        break;
      }
      case 4: {  // modify a non-title attribute, sometimes with a bad value
        const bool bad = rng.chance(0.3);
        const std::string attr = bad ? "width" : "location-path";
        const std::string value =
            bad ? "wide" : "/p/" + std::to_string(step);
        const Status st = dsa.modify(id, attr, value);
        MovieEntry* e = m.find(id);
        ASSERT_EQ(code(st), !e ? kNoSuchEntry : bad ? kBadAttribute : 0)
            << "step " << step;
        if (e && !bad) e->location_path = value;
        break;
      }
      default: {  // update: a new title and path in one step
        MovieEntry e = m.find(id) ? *m.find(id) : sample("ghost");
        e.id = id;
        e.title = title;
        e.location_path = "/u/" + std::to_string(step);
        const int want = expected_retitle(m, id, title);
        ASSERT_EQ(code(dsa.update(e)), want) << "step " << step;
        if (want == 0) *m.find(id) = e;
        break;
      }
    }

    for (std::size_t d = 0; d < 2; ++d) {
      ASSERT_EQ(snapshot(dsas[d]->search(Filter::all())),
                snapshot(models[d].entries))
          << "step " << step;
      for (const std::string& t : titles) {
        const Filter eq = Filter::equal("title", t);
        const Snapshot want = snapshot(models[d].matches(eq));
        ASSERT_EQ(snapshot(dsas[d]->search(eq)), want) << "step " << step;
        ASSERT_EQ(snapshot(dsas[d]->search(Filter::and_({eq}))), want)
            << "step " << step;
        auto found = dsas[d]->find_by_title(t);
        ASSERT_EQ(found.ok(), !want.empty()) << "step " << step;
        if (found.ok()) {
          ASSERT_EQ(snapshot({found.value()}), want) << "step " << step;
        }
      }
    }
    for (const std::string& t : titles) {
      const Filter eq = Filter::equal("title", t);
      Snapshot want = snapshot(models[0].matches(eq));
      for (auto& hit : snapshot(models[1].matches(eq))) want.push_back(hit);
      ASSERT_EQ(snapshot(a.search_chained(eq)), want) << "step " << step;
    }
  }
}

TEST(Dua, LookupFallsBackToChaining) {
  Dsa home("client-domain"), remote("server-domain");
  home.add_peer(remote);
  (void)remote.add(sample("remote-movie"));
  Dua dua(home);

  auto found = dua.lookup("remote-movie");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value().title, "remote-movie");
  EXPECT_FALSE(dua.lookup("nowhere").ok());

  EXPECT_EQ(dua.search(Filter::all()).size(), 1u);
  EXPECT_EQ(dua.search(Filter::all(), /*chained=*/false).size(), 0u);
}

}  // namespace
}  // namespace mcam::directory
