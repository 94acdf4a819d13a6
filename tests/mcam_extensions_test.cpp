// Tests for the MCAM protocol extensions: filter codec + MovieSearch over
// the wire, QoS-carrying PlayReq (§6 outlook), and PositionInd push
// notifications during playback.
#include <gtest/gtest.h>

#include "asn1/ber.hpp"
#include "common/rng.hpp"
#include "mcam/testbed.hpp"

namespace mcam::core {
namespace {

using common::SimTime;
using directory::Filter;

// ---------------------------------------------------------------------------
// Filter wire codec

Filter random_filter(common::Rng& rng, int depth) {
  const auto name = [&] {
    std::string s;
    for (std::size_t i = 0, n = 1 + rng.below(8); i < n; ++i)
      s.push_back(static_cast<char>('a' + rng.below(26)));
    return s;
  };
  const int choice = depth <= 0 ? static_cast<int>(rng.below(4))
                                : static_cast<int>(rng.below(7));
  switch (choice) {
    case 0:
      return Filter::all();
    case 1:
      return Filter::present(name());
    case 2:
      return Filter::equal(name(), name());
    case 3:
      return Filter::substring(name(), name());
    case 4:
      return Filter::not_(random_filter(rng, depth - 1));
    default: {
      std::vector<Filter> kids;
      for (std::size_t i = 0, n = rng.below(4); i < n; ++i)
        kids.push_back(random_filter(rng, depth - 1));
      return choice == 5 ? Filter::and_(std::move(kids))
                         : Filter::or_(std::move(kids));
    }
  }
}

/// The filter as a MovieSearchReq carries it, decoded by the direct reader
/// and by the tree path (pdu_from_value over asn1::decode); the two must
/// agree, so the tree's result is returned once they do.
common::Result<Filter> round_trip(const Filter& f) {
  const Bytes wire = encode(Pdu{MovieSearchReq{f, false}});
  const auto direct = decode(wire);
  const auto tree = asn1::decode(wire);
  EXPECT_TRUE(tree.ok()) << f.to_string();
  if (!tree.ok()) return tree.error();
  const auto oracle = pdu_from_value(tree.value());
  EXPECT_EQ(direct.ok(), oracle.ok()) << f.to_string();
  if (!oracle.ok()) return oracle.error();
  if (direct.ok()) {
    EXPECT_TRUE(std::get<MovieSearchReq>(direct.value()) ==
                std::get<MovieSearchReq>(oracle.value()));
  }
  return std::get<MovieSearchReq>(oracle.value()).filter;
}

/// A MovieSearchReq whose filter field is `filter`: both decoders must
/// reject it.
void expect_rejected(const asn1::Value& filter) {
  const Bytes wire = asn1::encode(asn1::Value::application(
      static_cast<std::uint32_t>(Op::MovieSearchReq),
      {filter, asn1::Value::boolean(false)}));
  EXPECT_FALSE(decode(wire).ok()) << filter.to_string();
  EXPECT_FALSE(pdu_from_value(asn1::decode(wire).value()).ok())
      << filter.to_string();
}

TEST(FilterCodec, BasicRoundTrips) {
  const Filter filters[] = {
      Filter::all(),
      Filter::present("title"),
      Filter::equal("format", "mjpeg"),
      Filter::substring("title", "news"),
      Filter::not_(Filter::equal("rights", "public")),
      Filter::and_({Filter::equal("format", "mpeg1"),
                    Filter::or_({Filter::substring("title", "a"),
                                 Filter::present("fps")})}),
  };
  for (const Filter& f : filters) {
    auto decoded = round_trip(f);
    ASSERT_TRUE(decoded.ok()) << f.to_string();
    EXPECT_EQ(decoded.value(), f) << f.to_string();
  }
}

class FilterCodecProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FilterCodecProperty, RandomFiltersRoundTripAndMatchIdentically) {
  common::Rng rng(GetParam());
  directory::MovieEntry probe;
  probe.title = "abcnews";
  probe.rights = "public";
  for (int i = 0; i < 150; ++i) {
    const Filter f = random_filter(rng, 4);
    auto decoded = round_trip(f);
    ASSERT_TRUE(decoded.ok()) << f.to_string();
    EXPECT_EQ(decoded.value(), f);
    // Semantic equivalence, not just structural.
    EXPECT_EQ(decoded.value().matches(probe), f.matches(probe));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FilterCodecProperty,
                         ::testing::Values(11, 22, 33, 44));

TEST(FilterCodec, RejectsMalformedNodes) {
  expect_rejected(asn1::Value::integer(5));
  expect_rejected(asn1::Value::context(9, asn1::Value::null()));
  // Depth bomb: 40 nested nots, within the BER depth bound but past the
  // filter's.
  Filter f = Filter::all();
  for (int i = 0; i < 40; ++i) f = Filter::not_(f);
  EXPECT_FALSE(round_trip(f).ok());
}

TEST(McamPdusExt, SearchPdusRoundTrip) {
  MovieSearchReq req{Filter::and_({Filter::substring("title", "news"),
                                   Filter::equal("format", "mjpeg")}),
                     false};
  auto decoded = decode(encode(Pdu{req}));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(std::get<MovieSearchReq>(decoded.value()) == req);

  MovieSearchResp resp;
  resp.result = ResultCode::Success;
  resp.hits.push_back(SearchHit{7, {{"title", "x"}, {"fps", "25"}}});
  resp.hits.push_back(SearchHit{9, {}});
  auto decoded2 = decode(encode(Pdu{resp}));
  ASSERT_TRUE(decoded2.ok());
  EXPECT_TRUE(std::get<MovieSearchResp>(decoded2.value()) == resp);
}

TEST(McamPdusExt, PlayReqQosOptionalFields) {
  // Absent: wire identical to the pre-extension encoding (backwards compat).
  PlayReq plain{1, 0, "host", 7000, 0, 0};
  auto decoded = decode(encode(Pdu{plain}));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(std::get<PlayReq>(decoded.value()) == plain);

  PlayReq with_qos{1, 0, "host", 7000, 150, 20};
  auto decoded2 = decode(encode(Pdu{with_qos}));
  ASSERT_TRUE(decoded2.ok());
  const auto& req = std::get<PlayReq>(decoded2.value());
  EXPECT_EQ(req.qos_max_delay_ms, 150u);
  EXPECT_EQ(req.qos_max_jitter_ms, 20u);
  EXPECT_GT(encode(Pdu{with_qos}).size(), encode(Pdu{plain}).size());
}

// ---------------------------------------------------------------------------
// End-to-end: search, QoS admission, notifications

directory::MovieEntry preload(Testbed& bed, const std::string& title,
                              directory::Format fmt, const std::string& rights,
                              std::uint64_t frames = 50) {
  directory::MovieEntry e;
  e.title = title;
  e.format = fmt;
  e.rights = rights;
  e.duration_frames = frames;
  e.location_host = bed.config().server_host;
  auto id = bed.server().directory().add(e);
  EXPECT_TRUE(id.ok());
  e.id = id.value();
  return e;
}

TEST(McamSearch, FilterSearchOverProtocol) {
  Testbed bed(Testbed::Config{});
  preload(bed, "news-06", directory::Format::Mjpeg, "public");
  preload(bed, "news-07", directory::Format::Mpeg1, "public");
  preload(bed, "home-movie", directory::Format::Mjpeg, "bob");

  McamClient alice = bed.client(0);
  ASSERT_TRUE(alice.associate("alice").ok());

  auto news = alice.search_movies(Filter::substring("title", "news"));
  ASSERT_TRUE(news.ok()) << news.error().message;
  EXPECT_EQ(news.value().hits.size(), 2u);

  auto mjpeg = alice.search_movies(Filter::equal("format", "mjpeg"));
  ASSERT_TRUE(mjpeg.ok());
  // home-movie is bob's: invisible to alice.
  ASSERT_EQ(mjpeg.value().hits.size(), 1u);
  EXPECT_EQ(mjpeg.value().hits[0].attrs[0].value, "news-06");

  auto everything = alice.search_movies(Filter::all());
  ASSERT_TRUE(everything.ok());
  EXPECT_EQ(everything.value().hits.size(), 2u);
}

TEST(McamSearch, ChainedSearchReachesPeerDsa) {
  Testbed bed(Testbed::Config{});
  directory::Dsa archive("archive");
  bed.server().directory().add_peer(archive);
  directory::MovieEntry remote;
  remote.title = "archived-news";
  remote.duration_frames = 10;
  remote.location_host = "archive";
  (void)archive.add(remote);

  McamClient client = bed.client(0);
  ASSERT_TRUE(client.associate("alice").ok());
  auto chained = client.search_movies(Filter::substring("title", "archived"));
  ASSERT_TRUE(chained.ok());
  EXPECT_EQ(chained.value().hits.size(), 1u);
  auto local_only = client.search_movies(
      Filter::substring("title", "archived"), /*chained=*/false);
  ASSERT_TRUE(local_only.ok());
  EXPECT_EQ(local_only.value().hits.size(), 0u);
}

TEST(McamQos, UnreasonableBoundsRejected) {
  Testbed bed(Testbed::Config{});
  const auto movie = preload(bed, "m", directory::Format::Mjpeg, "public");
  McamClient client = bed.client(0);
  ASSERT_TRUE(client.associate("alice").ok());
  ASSERT_TRUE(client.select_movie("m").ok());

  auto bad = client.play(movie.id, bed.client_host(0), 7000, 0,
                         /*max_delay_ms=*/50'000);
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad.value().result, ResultCode::BadAttribute);

  auto good = client.play(movie.id, bed.client_host(0), 7000, 0,
                          /*max_delay_ms=*/200, /*max_jitter_ms=*/30);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value().result, ResultCode::Success);
}

TEST(McamNotifications, PositionIndPushedDuringPlayback) {
  Testbed bed(Testbed::Config{});
  const auto movie =
      preload(bed, "long", directory::Format::Mjpeg, "public", 200);
  McamClient client = bed.client(0);
  ASSERT_TRUE(client.associate("alice").ok());
  ASSERT_TRUE(client.select_movie("long").ok());
  bed.make_sua(0, 7000);
  ASSERT_TRUE(client.play(movie.id, bed.client_host(0), 7000).ok());

  // 3 seconds of stream time at 25 fps ⇒ 75 frames; reports coalesce to the
  // latest position per movie, so at least one arrives with frame ≥ 50.
  bed.advance_streams(SimTime::from_s(3));
  const std::size_t got = client.poll_notifications();
  EXPECT_GE(got, 1u);
  ASSERT_FALSE(client.notifications().empty());
  EXPECT_EQ(client.notifications().front().movie_id, movie.id);
  EXPECT_GE(client.notifications().back().frame, 50u);

  // Ordinary calls still work with notifications interleaved.
  bed.advance_streams(SimTime::from_s(1));
  auto q = client.query_attributes(movie.id, {"title"});
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().attrs[0].value, "long");

  (void)client.stop(movie.id);
  client.clear_notifications();
  bed.advance_streams(SimTime::from_s(1));
  EXPECT_EQ(client.poll_notifications(), 0u);  // stopped: no more reports
}

}  // namespace
}  // namespace mcam::core
