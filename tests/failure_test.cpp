// Failure injection across the stack: transport teardown mid-session, abort
// cascades, severed channels, malformed peer PDUs, and recovery by
// re-association — the paths a production deployment would actually hit.
// The DistSessionFailure suite at the bottom covers the distributed-round
// session layer: a peer that is gone for good must exhaust the retry budget
// into a structured abort (never a hang), and a peer resuming with the
// wrong specification fingerprint must be refused.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "asn1/ber.hpp"
#include "asn1/value.hpp"
#include "estelle/executor.hpp"
#include "estelle/module.hpp"
#include "estelle/transport/dist_runner.hpp"
#include "estelle/transport/socket_transport.hpp"
#include "estelle/transport/transport.hpp"
#include "mcam/testbed.hpp"

// fork() and ThreadSanitizer do not mix; the thread-based cases cover the
// protocol under TSan, the fork case covers real process death.
#if defined(__SANITIZE_THREAD__)
#define MCAM_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MCAM_TSAN_BUILD 1
#endif
#endif

namespace mcam::core {
namespace {

using common::SimTime;
using estelle::Interaction;

directory::MovieEntry preload(Testbed& bed, const std::string& title,
                              std::uint64_t frames = 20) {
  directory::MovieEntry e;
  e.title = title;
  e.duration_frames = frames;
  e.location_host = bed.config().server_host;
  auto id = bed.server().directory().add(e);
  EXPECT_TRUE(id.ok());
  e.id = id.value();
  return e;
}

TEST(FailureInjection, TransportDisconnectAbortsAssociation) {
  Testbed bed(Testbed::Config{});
  preload(bed, "movie");
  McamClient client = bed.client(0);
  ASSERT_TRUE(client.associate("alice").ok());
  EXPECT_EQ(bed.server().active_sessions(), 1u);

  // Yank the transport connection out from under the session (operator
  // closes the connection / network manager kills it).
  bed.connection(0).client_stack.transport->upper().deliver(
      Interaction(osi::kTDisReq));
  bed.executor().run();

  // The abort cascaded: server released the association.
  EXPECT_EQ(bed.server().active_sessions(), 0u);
  // The client MCA fell back to closed and surfaced an error to the app
  // (either queued as ErrorResp or the next call fails cleanly).
  auto r = client.select_movie("movie");
  EXPECT_FALSE(r.ok());
}

TEST(FailureInjection, SeveredChannelMeansNoResponseNotHang) {
  Testbed bed(Testbed::Config{});
  preload(bed, "movie");
  McamClient client = bed.client(0);
  ASSERT_TRUE(client.associate("alice").ok());

  // Cut the wire completely: 100% loss in both directions (a dead link,
  // not a torn-down channel — the modules keep trying).
  common::Rng& rng = bed.rng();
  bed.connection(0).client_stack.transport->net().set_loss(1.0, &rng);
  bed.connection(0).server_stack.transport->net().set_loss(1.0, &rng);

  auto r = client.select_movie("movie");
  ASSERT_FALSE(r.ok());
  // The facade reports quiescence (after ARQ gave up), never a hang.
  EXPECT_EQ(r.error().code, kNoResponse);
}

TEST(FailureInjection, ServerAbortReleasesStreams) {
  Testbed bed(Testbed::Config{});
  const auto movie = preload(bed, "movie", 500);
  McamClient client = bed.client(0);
  ASSERT_TRUE(client.associate("alice").ok());
  ASSERT_TRUE(client.select_movie("movie").ok());
  bed.make_sua(0, 7000);
  ASSERT_TRUE(client.play(movie.id, bed.client_host(0), 7000).ok());
  EXPECT_EQ(bed.server().spa().active_streams(), 1u);

  bed.connection(0).client_stack.transport->upper().deliver(
      Interaction(osi::kTDisReq));
  bed.executor().run();

  // Association teardown stopped the CM stream too (no orphan senders).
  EXPECT_EQ(bed.server().spa().active_streams(), 0u);
}

TEST(FailureInjection, MalformedPduFromAppYieldsProtocolError) {
  Testbed bed(Testbed::Config{});
  McamClient client = bed.client(0);
  ASSERT_TRUE(client.associate("alice").ok());

  // Inject garbage bytes as if they were a request PDU.
  auto& app = *bed.connection(0).app;
  app.mca().output(Interaction(static_cast<int>(Op::AttrQueryReq),
                               common::to_bytes("not ber at all")));
  bed.executor().run_until([&] { return app.mca().has_input(); });
  ASSERT_TRUE(app.mca().has_input());
  auto response = decode(app.mca().pop().payload);
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(std::holds_alternative<ErrorResp>(response.value()));
  EXPECT_EQ(std::get<ErrorResp>(response.value()).result,
            ResultCode::ProtocolError);

  // The association survives a malformed request.
  auto q = client.query_attributes(1);
  (void)q;  // may be NoSuchMovie — the point is we got *an* answer
  EXPECT_EQ(bed.server().active_sessions(), 1u);
}

TEST(FailureInjection, HostilePduDiagnosticIsOneLine) {
  Testbed bed(Testbed::Config{});
  McamClient client = bed.client(0);
  ASSERT_TRUE(client.associate("alice").ok());

  // An AttrQueryReq whose movie id is a string carrying CR LF and quotes.
  // The decode error quotes the string, and the server MCA echoes that
  // error to the client as the ErrorResp diagnostic.
  const common::Bytes hostile = asn1::encode(asn1::Value::application(
      static_cast<std::uint32_t>(Op::AttrQueryReq),
      {asn1::Value::ia5string("1\r\nX-Injected: \"yes\""),
       asn1::Value::sequence({})}));
  auto& app = *bed.connection(0).app;
  app.mca().output(Interaction(static_cast<int>(Op::AttrQueryReq), hostile));
  bed.executor().run_until([&] { return app.mca().has_input(); });
  ASSERT_TRUE(app.mca().has_input());
  auto response = decode(app.mca().pop().payload);
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(std::holds_alternative<ErrorResp>(response.value()));
  const std::string& diagnostic =
      std::get<ErrorResp>(response.value()).diagnostic;
  EXPECT_NE(diagnostic.find(R"("1\x0d\x0aX-Injected: \"yes\"")"),
            std::string::npos)
      << diagnostic;
  for (const char c : diagnostic)
    ASSERT_TRUE(c >= 0x20 && c <= 0x7e) << "not one printable line: "
                                        << diagnostic;
}

TEST(FailureInjection, ReassociationAfterAbortWorks) {
  Testbed bed(Testbed::Config{});
  preload(bed, "movie");
  McamClient client = bed.client(0);
  ASSERT_TRUE(client.associate("alice").ok());

  client.abort();
  EXPECT_EQ(bed.server().active_sessions(), 0u);

  // A fresh associate over the same (re-established) stack succeeds: the
  // transport reconnects, the session/presentation machines restart.
  auto again = client.associate("alice");
  ASSERT_TRUE(again.ok()) << again.error().message;
  EXPECT_EQ(bed.server().active_sessions(), 1u);
  auto sel = client.select_movie("movie");
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel.value().result, ResultCode::Success);
}

TEST(FailureInjection, ExtremeLossStillConverges) {
  Testbed::Config cfg;
  cfg.control_loss = 0.4;  // brutal channel
  Testbed bed(cfg);
  preload(bed, "movie");
  McamClient client = bed.client(0);
  auto assoc = client.associate("alice");
  ASSERT_TRUE(assoc.ok()) << assoc.error().message;
  auto sel = client.select_movie("movie");
  ASSERT_TRUE(sel.ok()) << sel.error().message;
  EXPECT_EQ(sel.value().result, ResultCode::Success);
  EXPECT_GE(bed.connection(0).client_stack.transport->retransmissions() +
                bed.connection(0).server_stack.transport->retransmissions(),
            3u);
}

TEST(FailureInjection, StreamToUnboundPortIsLostSilently) {
  // Client asks the server to stream to a port nobody listens on: control
  // plane succeeds, packets are dropped by the network, no crash anywhere.
  Testbed bed(Testbed::Config{});
  const auto movie = preload(bed, "movie", 30);
  McamClient client = bed.client(0);
  ASSERT_TRUE(client.associate("alice").ok());
  ASSERT_TRUE(client.select_movie("movie").ok());
  auto play = client.play(movie.id, bed.client_host(0), 9999);  // no SUA
  ASSERT_TRUE(play.ok());
  EXPECT_EQ(play.value().result, ResultCode::Success);
  bed.advance_streams(SimTime::from_s(2));
  EXPECT_GT(bed.network().stats().dropped, 0u);
  auto stop = client.stop(movie.id);
  ASSERT_TRUE(stop.ok());
  EXPECT_EQ(stop.value().position, 30u);
}

TEST(FailureInjection, IsodeStackAbortPath) {
  Testbed::Config cfg;
  cfg.stack = StackKind::IsodeHandCoded;
  Testbed bed(cfg);
  McamClient client = bed.client(0);
  ASSERT_TRUE(client.associate("alice").ok());
  // Abort at the ISODE library level.
  bed.connection(0).client_iface->entity().p_abort_request();
  bed.executor().run();
  EXPECT_EQ(bed.server().active_sessions(), 0u);
}

}  // namespace
}  // namespace mcam::core

// ---------------------------------------------------------------------------
// Distributed-round session layer: recovery that must NOT succeed

namespace mcam::estelle {
namespace {

using common::SimTime;

/// Minimal two-shard producer->consumer world (shard 0 streams tokens into
/// shard 1), enough cross-node traffic to be mid-run when the fault lands.
struct SessionPipeWorld {
  Specification spec{"session_pipe"};
  std::shared_ptr<int> sent = std::make_shared<int>(0);

  explicit SessionPipeWorld(int budget) {
    auto& psys =
        spec.root().create_child<Module>("p", Attribute::SystemProcess);
    auto& csys =
        spec.root().create_child<Module>("c", Attribute::SystemProcess);
    auto& prod = psys.create_child<Module>("prod", Attribute::Process);
    auto& cons = csys.create_child<Module>("cons", Attribute::Process);
    connect(prod.ip("out"), cons.ip("in"));
    InteractionPoint* out = &prod.ip("out");
    prod.trans("send")
        .cost(SimTime::from_us(3))
        .provided([sent = sent, budget](Module&, const Interaction*) {
          return *sent < budget;
        })
        .action([sent = sent, out](Module& m, const Interaction*) {
          ++*sent;
          out->output(Interaction(1, *sent));
          m.set_state(m.state() + 1);
        });
    cons.trans("recv")
        .when(cons.ip("in"))
        .cost(SimTime::from_us(2))
        .action([](Module& m, const Interaction*) {
          m.set_state(m.state() + 1);
        });
    spec.initialize();
  }
};

std::string session_temp_dir() {
  char tmpl[] = "/tmp/mcam_session_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir == nullptr ? std::string() : std::string(dir);
}

TEST(DistSessionFailure, RetryBudgetExhaustedIsStructuredAbortWithinGate) {
#ifdef MCAM_TSAN_BUILD
  GTEST_SKIP() << "fork-based peer-death test is covered outside TSan";
#else
  // A SIGKILLed peer with the session layer ON: the survivor burns its
  // reconnect budget waiting for a peer that will never come back, then
  // surfaces the same structured StopReason::Aborted the pre-session
  // transport did — well inside gate_timeout_ms, never a hang.
  const std::string dir = session_temp_dir();
  ASSERT_FALSE(dir.empty());
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    SessionPipeWorld world(1000);
    auto mesh = StreamSocketTransport::unix_mesh(1, 2, dir);
    if (!mesh.ok()) ::_exit(2);
    DistOptions opts;
    opts.node = 1;
    opts.nodes = 2;
    opts.transport =
        std::shared_ptr<MailboxTransport>(std::move(mesh.value()));
    ExecutorConfig cfg;
    cfg.kind = ExecutorKind::Distributed;
    cfg.backend_options = std::move(opts);
    auto executor = make_executor(world.spec, cfg);
    int polls = 0;
    RunOptions run;
    run.stop.push_back(StopCondition::when([&polls] {
      if (++polls >= 6) ::raise(SIGKILL);  // no Bye, no close — a real crash
      return false;
    }));
    (void)executor->run(run);
    ::_exit(3);  // survived the kill — unreachable
  }

  SessionPipeWorld world(1000);
  auto mesh = StreamSocketTransport::unix_mesh(0, 2, dir);
  ASSERT_TRUE(mesh.ok()) << mesh.error().message;
  DistOptions opts;
  opts.node = 0;
  opts.nodes = 2;
  opts.transport = std::shared_ptr<MailboxTransport>(std::move(mesh.value()));
  opts.reconnect_max_attempts = 3;  // a real budget, sized for test speed
  opts.backoff_initial_ms = 10;
  opts.backoff_cap_ms = 40;
  opts.resend_timeout_ms = 100;
  opts.heartbeat_interval_ms = 50;
  opts.gate_timeout_ms = 15000;
  ExecutorConfig cfg;
  cfg.kind = ExecutorKind::Distributed;
  cfg.backend_options = std::move(opts);
  auto executor = make_executor(world.spec, cfg);
  const auto start = std::chrono::steady_clock::now();
  const RunReport r = executor->run();
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  EXPECT_EQ(r.reason, StopReason::Aborted);
  EXPECT_FALSE(r.error.empty());
  // The budget, not the gate timeout, bounded the wait: the abort must land
  // comfortably inside gate_timeout_ms.
  EXPECT_LT(elapsed_ms, 15000);
  EXPECT_GT(r.transport.reconnect_attempts + r.transport.heartbeats, 0u)
      << "the session layer never engaged";

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFSIGNALED(status));
  if (WIFSIGNALED(status)) EXPECT_EQ(WTERMSIG(status), SIGKILL);
  std::filesystem::remove_all(dir);
#endif
}

TEST(DistSessionFailure, MismatchedFingerprintResumeIsRefused) {
  // Transport-level: both sides enable the session layer but carry different
  // specification fingerprints. After a mid-run sever, the HelloResume
  // handshake must refuse the resume on both sides — kClosed with a reason
  // naming the fingerprint, not a silent re-adoption of a divergent peer.
  const std::string dir = session_temp_dir();
  ASSERT_FALSE(dir.empty());
  std::vector<MailboxTransport::RecvOutcome> outcome(
      2, MailboxTransport::RecvOutcome::kIdle);
  std::vector<std::string> errors(2);
  std::vector<std::string> mesh_errors(2);
  std::vector<std::thread> threads;
  for (int node = 0; node < 2; ++node)
    threads.emplace_back([&, node] {
      auto mesh = StreamSocketTransport::unix_mesh(node, 2, dir);
      if (!mesh.ok()) {
        mesh_errors[static_cast<std::size_t>(node)] = mesh.error().message;
        return;
      }
      auto transport = std::move(mesh.value());
      MailboxTransport::SessionOptions so;
      so.reconnect_max_attempts = 4;
      so.backoff_initial_ms = 5;
      so.backoff_cap_ms = 40;
      so.resend_timeout_ms = 200;
      so.fingerprint = node == 0 ? 0xA11CEu : 0xB0Bu;  // divergent specs
      transport->configure_session(so);
      if (node == 0) (void)transport->sever(1);  // mid-run connection loss
      Frame f;
      int from = 0;
      std::string err;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      auto rc = MailboxTransport::RecvOutcome::kIdle;
      while (std::chrono::steady_clock::now() < deadline) {
        rc = transport->recv(&from, &f, 100, &err);
        if (rc == MailboxTransport::RecvOutcome::kClosed) break;
      }
      outcome[static_cast<std::size_t>(node)] = rc;
      errors[static_cast<std::size_t>(node)] = err;
    });
  for (std::thread& t : threads) t.join();
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(mesh_errors[0].empty()) << mesh_errors[0];
  ASSERT_TRUE(mesh_errors[1].empty()) << mesh_errors[1];
  for (int node = 0; node < 2; ++node) {
    SCOPED_TRACE("node " + std::to_string(node));
    EXPECT_EQ(outcome[static_cast<std::size_t>(node)],
              MailboxTransport::RecvOutcome::kClosed)
        << "the divergent peer was not refused";
    EXPECT_NE(errors[static_cast<std::size_t>(node)].find("fingerprint"),
              std::string::npos)
        << errors[static_cast<std::size_t>(node)];
  }
}

TEST(DistSessionFailure, MatchedFingerprintSurvivesTheSameSever) {
  // The refusal control: identical fingerprints, identical sever — the link
  // must recover and a post-sever frame must arrive intact.
  const std::string dir = session_temp_dir();
  ASSERT_FALSE(dir.empty());
  std::vector<std::string> mesh_errors(2);
  std::string recv_error;
  std::atomic<bool> delivered{false};
  std::atomic<std::uint64_t> reconnects{0};
  std::vector<std::thread> threads;
  for (int node = 0; node < 2; ++node)
    threads.emplace_back([&, node] {
      auto mesh = StreamSocketTransport::unix_mesh(node, 2, dir);
      if (!mesh.ok()) {
        mesh_errors[static_cast<std::size_t>(node)] = mesh.error().message;
        return;
      }
      auto transport = std::move(mesh.value());
      MailboxTransport::SessionOptions so;
      so.reconnect_max_attempts = 4;
      so.backoff_initial_ms = 5;
      so.backoff_cap_ms = 40;
      so.resend_timeout_ms = 200;
      so.fingerprint = 0xFEEDu;  // both sides agree
      transport->configure_session(so);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      if (node == 0) {
        (void)transport->sever(1);
        // The frame is queued while the link is down; the session layer must
        // carry it across the recovered stream.
        Frame f;
        f.type = FrameType::RoundDone;
        f.node = 0;
        f.round = 7;
        while (!transport->send(1, f).ok() &&
               std::chrono::steady_clock::now() < deadline) {
          Frame in;
          int from = 0;
          std::string err;
          (void)transport->recv(&from, &in, 10, &err);
        }
        transport->flush();
        // Pump until the peer has taken delivery: the pump drives the
        // accept/resume machinery on this side.
        Frame in;
        int from = 0;
        std::string err;
        while (std::chrono::steady_clock::now() < deadline && !delivered)
          (void)transport->recv(&from, &in, 10, &err);
        reconnects += transport->stats().reconnects;
      } else {
        Frame f;
        int from = 0;
        std::string err;
        while (std::chrono::steady_clock::now() < deadline) {
          const auto rc = transport->recv(&from, &f, 50, &err);
          if (rc == MailboxTransport::RecvOutcome::kFrame &&
              f.type == FrameType::RoundDone && f.round == 7) {
            delivered = true;
            break;
          }
          if (rc == MailboxTransport::RecvOutcome::kClosed) {
            recv_error = err;
            break;
          }
        }
        reconnects += transport->stats().reconnects;
      }
    });
  for (std::thread& t : threads) t.join();
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(mesh_errors[0].empty()) << mesh_errors[0];
  ASSERT_TRUE(mesh_errors[1].empty()) << mesh_errors[1];
  EXPECT_TRUE(delivered) << "post-sever frame never arrived: " << recv_error;
  EXPECT_GT(reconnects, 0u) << "delivery happened without a recovery";
}

}  // namespace
}  // namespace mcam::estelle
