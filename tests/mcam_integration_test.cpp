// End-to-end MCAM tests over the full Fig. 2 configuration: association,
// movie access/management/control, equipment control, CM streams, release —
// on both control stacks, with and without transport loss, with multiple
// clients and connections.
#include <gtest/gtest.h>

#include "mcam/testbed.hpp"

namespace mcam::core {
namespace {

using common::SimTime;

directory::MovieEntry preload_movie(Testbed& bed, const std::string& title,
                                    std::uint64_t frames = 100,
                                    double fps = 25.0) {
  directory::MovieEntry e;
  e.title = title;
  e.fps = fps;
  e.duration_frames = frames;
  e.location_host = bed.config().server_host;
  e.size_bytes = frames * 4000;
  e.rights = "public";
  auto id = bed.server().directory().add(e);
  EXPECT_TRUE(id.ok());
  e.id = id.value();
  return e;
}

class StackParamTest : public ::testing::TestWithParam<StackKind> {};

TEST_P(StackParamTest, AssociateQueryPlayRelease) {
  Testbed::Config cfg;
  cfg.stack = GetParam();
  Testbed bed(cfg);
  preload_movie(bed, "casablanca", 50);

  McamClient client = bed.client(0);
  auto assoc = client.associate("alice");
  ASSERT_TRUE(assoc.ok()) << assoc.error().message;
  EXPECT_EQ(bed.server().active_sessions(), 1u);

  // Select resolves through the movie directory.
  auto select = client.select_movie("casablanca");
  ASSERT_TRUE(select.ok()) << select.error().message;
  EXPECT_EQ(select.value().result, ResultCode::Success);
  const std::uint64_t movie = select.value().movie_id;

  // Attribute query (management).
  auto attrs = client.query_attributes(movie, {"fps", "duration", "format"});
  ASSERT_TRUE(attrs.ok());
  ASSERT_EQ(attrs.value().attrs.size(), 3u);
  EXPECT_EQ(attrs.value().attrs[1].value, "50");

  // Play: frames arrive on the client's SUA via MTP.
  mtp::StreamUserAgent& sua = bed.make_sua(0, 7000);
  auto play = client.play(movie, bed.client_host(0), 7000);
  ASSERT_TRUE(play.ok()) << play.error().message;
  EXPECT_EQ(play.value().result, ResultCode::Success);
  bed.advance_streams(SimTime::from_s(2.5));
  EXPECT_EQ(sua.stats().frames_complete, 50u);

  auto stop = client.stop(movie);
  ASSERT_TRUE(stop.ok());
  EXPECT_EQ(stop.value().position, 50u);

  auto release = client.release();
  ASSERT_TRUE(release.ok()) << release.error().message;
  EXPECT_EQ(bed.server().active_sessions(), 0u);
}

TEST_P(StackParamTest, CreateModifyDeleteLifecycle) {
  Testbed::Config cfg;
  cfg.stack = GetParam();
  Testbed bed(cfg);
  McamClient client = bed.client(0);
  ASSERT_TRUE(client.associate("bob").ok());

  auto created = client.create_movie(
      "home-video", {{"fps", "30"}, {"duration", "200"}, {"format", "mjpeg"}});
  ASSERT_TRUE(created.ok()) << created.error().message;
  EXPECT_EQ(created.value().result, ResultCode::Success);
  const std::uint64_t movie = created.value().movie_id;

  // Creator owns it: rights attribute says "bob".
  auto rights = client.query_attributes(movie, {"rights"});
  ASSERT_TRUE(rights.ok());
  EXPECT_EQ(rights.value().attrs[0].value, "bob");

  // Duplicate title refused.
  auto dup = client.create_movie("home-video");
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(dup.value().result, ResultCode::DuplicateMovie);

  // Modify and verify.
  ASSERT_TRUE(client.modify_attributes(movie, {{"rights", "public"}}).ok());
  rights = client.query_attributes(movie, {"rights"});
  EXPECT_EQ(rights.value().attrs[0].value, "public");

  // A modify is all or nothing: one bad attribute, or a rename onto another
  // movie's title, leaves every attribute of the request unapplied.
  ASSERT_TRUE(
      client.modify_attributes(movie, {{"location-path", "/old"}}).ok());
  auto partial = client.modify_attributes(
      movie, {{"location-path", "/new"}, {"width", "bogus"}});
  ASSERT_TRUE(partial.ok());
  EXPECT_EQ(partial.value().result, ResultCode::BadAttribute);
  ASSERT_TRUE(client.create_movie("other-video").ok());
  auto clash = client.modify_attributes(
      movie, {{"location-path", "/new"}, {"title", "other-video"}});
  ASSERT_TRUE(clash.ok());
  EXPECT_EQ(clash.value().result, ResultCode::DuplicateMovie);
  auto kept = client.query_attributes(movie, {"title", "location-path"});
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept.value().attrs[0].value, "home-video");
  EXPECT_EQ(kept.value().attrs[1].value, "/old");

  auto deleted = client.delete_movie(movie);
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(deleted.value().result, ResultCode::Success);
  auto gone = client.select_movie("home-video");
  ASSERT_TRUE(gone.ok());
  EXPECT_EQ(gone.value().result, ResultCode::NoSuchMovie);
}

INSTANTIATE_TEST_SUITE_P(BothStacks, StackParamTest,
                         ::testing::Values(StackKind::EstelleGenerated,
                                           StackKind::IsodeHandCoded),
                         [](const auto& info) {
                           return info.param == StackKind::EstelleGenerated
                                      ? "EstelleGenerated"
                                      : "IsodeHandCoded";
                         });

TEST(McamIntegration, PauseResumePositioning) {
  Testbed bed(Testbed::Config{});
  preload_movie(bed, "long-movie", 250);
  McamClient client = bed.client(0);
  ASSERT_TRUE(client.associate("alice").ok());
  const auto movie = client.select_movie("long-movie").value().movie_id;

  mtp::StreamUserAgent& sua = bed.make_sua(0, 7000);
  ASSERT_TRUE(client.play(movie, bed.client_host(0), 7000).ok());
  bed.advance_streams(SimTime::from_s(1));  // ~25 frames at 25fps
  const auto before_pause = sua.stats().frames_complete;
  EXPECT_GT(before_pause, 10u);
  EXPECT_LT(before_pause, 50u);

  ASSERT_TRUE(client.pause(movie).ok());
  bed.advance_streams(SimTime::from_s(1));
  // Emission stopped; at most in-flight frames drain after the pause.
  const auto during_pause = sua.stats().frames_complete;
  EXPECT_LE(during_pause, before_pause + 2);
  bed.advance_streams(SimTime::from_s(1));
  EXPECT_EQ(sua.stats().frames_complete, during_pause);

  ASSERT_TRUE(client.resume(movie).ok());
  bed.advance_streams(SimTime::from_s(1));
  EXPECT_GT(sua.stats().frames_complete, before_pause);

  auto stop = client.stop(movie);
  ASSERT_TRUE(stop.ok());
  EXPECT_GT(stop.value().position, before_pause);
  EXPECT_LT(stop.value().position, 250u);
}

TEST(McamIntegration, PlayFromStartFrame) {
  Testbed bed(Testbed::Config{});
  preload_movie(bed, "movie", 40);
  McamClient client = bed.client(0);
  ASSERT_TRUE(client.associate("alice").ok());
  const auto movie = client.select_movie("movie").value().movie_id;
  mtp::StreamUserAgent& sua = bed.make_sua(0, 7000);
  std::vector<std::uint32_t> frames;
  sua.set_sink([&](std::uint32_t f, const common::Bytes&, bool) {
    frames.push_back(f);
  });
  ASSERT_TRUE(client.play(movie, bed.client_host(0), 7000, 30).ok());
  bed.advance_streams(SimTime::from_s(1));
  ASSERT_EQ(frames.size(), 10u);
  EXPECT_EQ(frames.front(), 30u);
}

TEST(McamIntegration, AccessControlEnforced) {
  Testbed::Config cfg;
  cfg.clients = 2;
  Testbed bed(cfg);
  McamClient alice = bed.client(0);
  McamClient bob = bed.client(1);
  ASSERT_TRUE(alice.associate("alice").ok());
  ASSERT_TRUE(bob.associate("bob").ok());

  const auto movie =
      alice.create_movie("private-video", {{"duration", "10"}})
          .value()
          .movie_id;

  // Bob cannot select, modify or delete alice's movie.
  EXPECT_EQ(bob.select_movie("private-video").value().result,
            ResultCode::AccessDenied);
  EXPECT_EQ(bob.modify_attributes(movie, {{"rights", "bob"}}).value().result,
            ResultCode::AccessDenied);
  EXPECT_EQ(bob.delete_movie(movie).value().result, ResultCode::AccessDenied);

  // Alice opens it up; now bob can select it.
  ASSERT_TRUE(alice.modify_attributes(movie, {{"rights", "public"}}).ok());
  EXPECT_EQ(bob.select_movie("private-video").value().result,
            ResultCode::Success);
}

TEST(McamIntegration, ProtocolErrorsSurfaceCleanly) {
  Testbed bed(Testbed::Config{});
  McamClient client = bed.client(0);
  ASSERT_TRUE(client.associate("alice").ok());

  // Play without select.
  auto play = client.play(1, "client1", 7000);
  ASSERT_TRUE(play.ok());
  EXPECT_EQ(play.value().result, ResultCode::NotSelected);
  // Stop without play.
  EXPECT_EQ(client.stop(1).value().result, ResultCode::NotPlaying);
  // Query of unknown movie.
  EXPECT_EQ(client.query_attributes(12345).value().result,
            ResultCode::NoSuchMovie);
  // Select of unknown title.
  EXPECT_EQ(client.select_movie("ghost").value().result,
            ResultCode::NoSuchMovie);
}

TEST(McamIntegration, SearchResultsOfSixtyFourKiBAndMoreArrive) {
  // 1000 hits with ~70-character titles make a MovieSearchResp of well over
  // 64 KiB, so its SSDU takes the session layer's long length form.
  Testbed bed(Testbed::Config{});
  constexpr int kMovies = 1000;
  for (int i = 0; i < kMovies; ++i) {
    std::string title = "movie " + std::to_string(i) + " ";
    title.resize(70, 'x');
    preload_movie(bed, title);
  }
  McamClient client = bed.client(0);
  ASSERT_TRUE(client.associate("alice").ok());
  auto found = client.search_movies(directory::Filter::all());
  ASSERT_TRUE(found.ok()) << found.error().message;
  EXPECT_EQ(found.value().result, ResultCode::Success);
  ASSERT_EQ(found.value().hits.size(), static_cast<std::size_t>(kMovies));
  EXPECT_GT(encode(Pdu{found.value()}).size(), 0xFFFFu);
}

TEST(McamIntegration, EquipmentControlOverProtocol) {
  Testbed bed(Testbed::Config{});
  auto& eca = bed.server().eca();
  const auto cam = eca.register_device(equipment::Kind::Camera, "cam",
                                       {{"brightness", 50}});
  eca.register_device(equipment::Kind::Speaker, "spk", {{"volume", 30}});

  McamClient client = bed.client(0);
  ASSERT_TRUE(client.associate("alice").ok());

  auto list = client.list_equipment();
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list.value().items.size(), 2u);
  auto cameras = client.list_equipment(
      static_cast<int>(equipment::Kind::Camera));
  ASSERT_TRUE(cameras.ok());
  ASSERT_EQ(cameras.value().items.size(), 1u);
  EXPECT_EQ(cameras.value().items[0].name, "cam");

  using equipment::Command;
  auto on = client.control_equipment(cam,
                                     static_cast<int>(Command::PowerOn));
  ASSERT_TRUE(on.ok());
  EXPECT_TRUE(on.value().powered);
  auto set = client.control_equipment(
      cam, static_cast<int>(Command::SetParam), "brightness", 80);
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set.value().value, 80);
  auto bad = client.control_equipment(
      999, static_cast<int>(Command::PowerOn));
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad.value().result, ResultCode::NoSuchEquipment);
}

TEST(McamIntegration, RecordingFromCamera) {
  Testbed bed(Testbed::Config{});
  const auto cam = bed.server().eca().register_device(
      equipment::Kind::Camera, "cam", {});
  McamClient client = bed.client(0);
  ASSERT_TRUE(client.associate("alice").ok());

  auto rec = client.record("my-recording", cam, {{"fps", "25"}});
  ASSERT_TRUE(rec.ok()) << rec.error().message;
  ASSERT_EQ(rec.value().result, ResultCode::Success);
  const auto movie = rec.value().movie_id;
  // Camera is reserved + powered while recording.
  EXPECT_EQ(bed.server().eca().status(cam).value().reserved_by, "alice");
  EXPECT_TRUE(bed.server().eca().status(cam).value().powered);

  // Record 2 seconds of simulated time ⇒ ~50 frames at 25 fps.
  bed.advance_streams(SimTime::from_s(2));
  auto stopped = client.record_stop(movie);
  ASSERT_TRUE(stopped.ok());
  EXPECT_NEAR(static_cast<double>(stopped.value().frames), 50.0, 2.0);

  auto dur = client.query_attributes(movie, {"duration"});
  ASSERT_TRUE(dur.ok());
  EXPECT_EQ(dur.value().attrs[0].value,
            std::to_string(stopped.value().frames));
}

TEST(McamIntegration, SelectionFollowsSelectCreateRecordAndDelete) {
  // Play admits only a movie its association has selected. MovieSelect,
  // MovieCreate and Record select; MovieDelete unselects.
  Testbed bed(Testbed::Config{});
  const auto cam = bed.server().eca().register_device(
      equipment::Kind::Camera, "cam", {});
  const std::uint64_t listed = preload_movie(bed, "metropolis").id;
  McamClient client = bed.client(0);
  ASSERT_TRUE(client.associate("alice").ok());
  bed.make_sua(0, 7000);
  const auto play = [&](std::uint64_t movie) {
    return client.play(movie, bed.client_host(0), 7000).value().result;
  };

  // Selected twice, the movie is held once: one delete unselects it. A
  // second entry would pass the selection check and fail on the directory
  // read with NoSuchMovie instead.
  EXPECT_EQ(client.select_movie("metropolis").value().movie_id, listed);
  EXPECT_EQ(client.select_movie("metropolis").value().movie_id, listed);
  EXPECT_EQ(client.delete_movie(listed).value().result, ResultCode::Success);
  EXPECT_EQ(play(listed), ResultCode::NotSelected);

  // MovieCreate selects the new movie; MovieDelete unselects it.
  const std::uint64_t created =
      client.create_movie("nosferatu", {{"duration", "50"}}).value().movie_id;
  EXPECT_EQ(play(created), ResultCode::Success);
  EXPECT_EQ(client.stop(created).value().result, ResultCode::Success);
  EXPECT_EQ(client.delete_movie(created).value().result, ResultCode::Success);
  EXPECT_EQ(play(created), ResultCode::NotSelected);

  // Record selects the movie it creates.
  auto rec = client.record("take-1", cam, {});
  ASSERT_TRUE(rec.ok());
  ASSERT_EQ(rec.value().result, ResultCode::Success);
  EXPECT_EQ(play(rec.value().movie_id), ResultCode::Success);

  // An id the association never selected.
  EXPECT_EQ(play(created + 100), ResultCode::NotSelected);
}

TEST(McamIntegration, TwoClientsThreeConnectionsFig2) {
  // The Fig. 2 shape: multiple clients, multiple server entities.
  Testbed::Config cfg;
  cfg.clients = 2;
  cfg.connections_per_client = 2;
  Testbed bed(cfg);
  preload_movie(bed, "shared-movie", 30);

  std::vector<McamClient> clients;
  for (int c = 0; c < 2; ++c)
    for (int k = 0; k < 2; ++k) clients.push_back(bed.client(c, k));

  for (std::size_t i = 0; i < clients.size(); ++i) {
    auto assoc = clients[i].associate("user" + std::to_string(i));
    ASSERT_TRUE(assoc.ok()) << i << ": " << assoc.error().message;
  }
  EXPECT_EQ(bed.server().active_sessions(), 4u);

  // All four sessions select and query the same movie independently.
  for (auto& client : clients) {
    auto sel = client.select_movie("shared-movie");
    ASSERT_TRUE(sel.ok());
    EXPECT_EQ(sel.value().result, ResultCode::Success);
  }

  // Releasing one association leaves the others untouched.
  ASSERT_TRUE(clients[0].release().ok());
  EXPECT_EQ(bed.server().active_sessions(), 3u);
  auto still = clients[3].query_attributes(1, {"title"});
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(still.value().attrs[0].value, "shared-movie");
}

TEST(McamIntegration, ControlSurvivesTransportLoss) {
  Testbed::Config cfg;
  cfg.control_loss = 0.15;  // only meaningful on the Estelle stack
  Testbed bed(cfg);
  preload_movie(bed, "movie-x", 10);
  McamClient client = bed.client(0);
  ASSERT_TRUE(client.associate("alice").ok());
  for (int i = 0; i < 10; ++i) {
    auto sel = client.select_movie("movie-x");
    ASSERT_TRUE(sel.ok()) << "iteration " << i << ": " << sel.error().message;
    EXPECT_EQ(sel.value().result, ResultCode::Success);
  }
  // ARQ had to work for this to pass.
  EXPECT_GT(bed.connection(0).client_stack.transport->retransmissions() +
                bed.connection(0).server_stack.transport->retransmissions(),
            0u);
}

TEST(McamIntegration, StreamAndControlAreSeparateStacks) {
  // Table 1's architectural point: stream impairments must not disturb the
  // control connection.
  Testbed bed(Testbed::Config{});
  net::Impairments lossy;
  lossy.latency = SimTime::from_ms(2);
  lossy.loss = 0.3;
  bed.network().set_link(bed.config().server_host, bed.client_host(0), lossy);

  preload_movie(bed, "noisy-movie", 100);
  McamClient client = bed.client(0);
  ASSERT_TRUE(client.associate("alice").ok());
  const auto movie = client.select_movie("noisy-movie").value().movie_id;
  mtp::StreamUserAgent& sua = bed.make_sua(0, 7000);
  ASSERT_TRUE(client.play(movie, bed.client_host(0), 7000).ok());
  bed.advance_streams(SimTime::from_s(5));

  // Stream suffered (lossy link), control still works perfectly.
  EXPECT_LT(sua.stats().packet_delivery_ratio(), 0.9);
  auto q = client.query_attributes(movie, {"title"});
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().attrs[0].value, "noisy-movie");
}

}  // namespace
}  // namespace mcam::core
