// Allocation budget of the MCAM request path.
//
// An SDU crosses the stack in one buffer: the MCA and ACSE move it, the
// presentation and session entities prepend their headers in place, the
// transport entity keeps it for go-back-N and sends one copy per DT, and the
// receiving side strips every header in place. Interaction points queue on
// rings that keep their storage. This binary counts every operator new and
// holds a warmed Fig. 2 testbed (2 x 15 connections, ACSE on, Sequential)
// to a per-request budget, counted inside the executor runs of a fixed
// request mix. The budget is the deterministic count this code reaches; an
// allocation added anywhere on the path (stack, runtime or server) fails
// it. Building an interaction point or a transport entity allocates
// nothing for its queues.
//
// Only public API is used, so the same file builds against older versions
// of the library for comparison.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <variant>
#include <vector>

#include "mcam/pdus.hpp"
#include "mcam/testbed.hpp"
#include "osi/transport.hpp"

namespace {
std::atomic<unsigned long long> g_allocs{0};
}

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mcam {
namespace {

using core::Pdu;
using estelle::Interaction;
using estelle::InteractionPoint;

/// Allocations per request inside the executor runs, at most: the count
/// the stack reaches on this mix when no layer copies the SDU above TP.
constexpr double kRequestBudget = 11.92;
/// Allocations of building one TransportModule: its two interaction points
/// and its transitions. Its four queues (two inboxes, the send queue and
/// the retransmission queue) add none.
constexpr unsigned long long kTransportModuleAllocs = 9;

unsigned long long allocs() {
  return g_allocs.load(std::memory_order_relaxed);
}

constexpr int kMovies = 50;

std::string title_of(int m) { return "movie-" + std::to_string(m); }

/// The request connection `conn` issues in round `round`: a select, an
/// attribute query and a title search, in turn.
Pdu request(int round, int conn, const std::vector<std::uint64_t>& ids) {
  const int movie = (round * 7 + conn) % kMovies;
  switch ((round + conn) % 3) {
    case 0:
      return core::MovieSelectReq{title_of(movie)};
    case 1:
      return core::AttrQueryReq{ids[static_cast<std::size_t>(movie)], {}};
    default:
      return core::MovieSearchReq{
          directory::Filter::equal("title", title_of(movie)), false};
  }
}

void send(InteractionPoint& ip, const Pdu& pdu) {
  ip.output(Interaction(static_cast<int>(core::op_of(pdu)), core::encode(pdu)));
}

TEST(AllocBudget, RequestPathStaysWithinItsBudget) {
  core::Testbed::Config cfg;
  cfg.clients = 2;
  cfg.connections_per_client = 15;
  cfg.use_acse = true;
  core::Testbed bed(cfg);
  std::vector<std::uint64_t> ids;
  for (int m = 0; m < kMovies; ++m) {
    directory::MovieEntry e;
    e.title = title_of(m);
    e.duration_frames = 1000 + static_cast<std::uint64_t>(m);
    auto id = bed.server().directory().add(e);
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  std::vector<InteractionPoint*> apps;
  for (int c = 0; c < cfg.clients; ++c)
    for (int k = 0; k < cfg.connections_per_client; ++k)
      apps.push_back(&bed.connection(c, k).app->mca());

  for (std::size_t i = 0; i < apps.size(); ++i)
    send(*apps[i], core::AssociateReq{"user" + std::to_string(i), 1});
  ASSERT_EQ(bed.executor().run().reason, estelle::StopReason::Quiescent);
  for (InteractionPoint* ip : apps) {
    ASSERT_EQ(ip->queue_length(), 1u);
    auto resp = core::decode(ip->pop().payload);
    ASSERT_TRUE(resp.ok());
    ASSERT_EQ(std::get<core::AssociateResp>(resp.value()).result,
              core::ResultCode::Success);
  }

  // Warm-up rounds let every queue and scratch buffer reach its size; the
  // measured rounds then count only what each request costs.
  constexpr int kWarmRounds = 3;
  constexpr int kRounds = 12;
  unsigned long long counted = 0;
  for (int round = 0; round < kWarmRounds + kRounds; ++round) {
    for (std::size_t i = 0; i < apps.size(); ++i)
      send(*apps[i], request(round, static_cast<int>(i), ids));
    const unsigned long long before = allocs();
    const estelle::RunReport r = bed.executor().run();
    const unsigned long long during = allocs() - before;
    ASSERT_EQ(r.reason, estelle::StopReason::Quiescent);
    if (round >= kWarmRounds) counted += during;
    for (InteractionPoint* ip : apps) {
      ASSERT_EQ(ip->queue_length(), 1u) << "round " << round;
      auto resp = core::decode(ip->pop().payload);
      ASSERT_TRUE(resp.ok());
      ASSERT_FALSE(std::holds_alternative<core::ErrorResp>(resp.value()))
          << "round " << round;
    }
  }
  const double per_request =
      static_cast<double>(counted) /
      static_cast<double>(kRounds * static_cast<int>(apps.size()));
  std::printf("allocations per request inside the runs: %.2f\n", per_request);
  RecordProperty("allocs_per_request", std::to_string(per_request));
  EXPECT_LE(per_request, kRequestBudget);
}

TEST(AllocBudget, QueuesAllocateNothingWhenBuilt) {
  estelle::Module host("host", estelle::Attribute::Process);
  unsigned long long before = allocs();
  {
    InteractionPoint ip(host, "U");
    EXPECT_EQ(allocs() - before, 0u)
        << "building an interaction point allocated";
  }
  before = allocs();
  {
    osi::TransportModule tp("tp");
    const unsigned long long built = allocs() - before;
    std::printf("allocations building a TransportModule: %llu\n", built);
    EXPECT_LE(built, kTransportModuleAllocs);
  }
}

}  // namespace
}  // namespace mcam
