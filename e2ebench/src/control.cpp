// control_seq / control_free: the closed-loop control plane.
//
// Each of the 2 x 15 connections keeps exactly one MCAM request outstanding.
// The driver writes a request into the connection's application channel,
// pumps run_until(any application inbox has input) as McamClient does, pops
// every response that arrived, checks it and issues that connection's next
// request. Latency is wall time from the write to the pop.
#include <cstdio>
#include <memory>
#include <optional>

#include "bench.hpp"

namespace e2e {

namespace core = mcam::core;
namespace estelle = mcam::estelle;

namespace {

estelle::ExecutorConfig runtime_of(bool free_running, const Shape& s) {
  estelle::ExecutorConfig rt;
  if (free_running) {
    rt.kind = estelle::ExecutorKind::FreeRunning;
    rt.threads = s.clients + 1;  // one worker per shard, never narrower
  }
  return rt;
}

/// The timed set-up: construct the testbed, preload the catalogue and
/// associate every connection. Null (with *why) on failure.
std::unique_ptr<core::Testbed> set_up(const Options& opt, bool free_running,
                                      Catalogue& cat, std::string* why) {
  core::Testbed::Config cfg = testbed_config(opt.shape, opt.seed);
  cfg.runtime = runtime_of(free_running, opt.shape);
  auto bed = std::make_unique<core::Testbed>(cfg);
  if (!cat.preload(bed->server().directory())) {
    *why = "catalogue preload";
    return nullptr;
  }
  const auto ips = app_channels(*bed);
  for (std::size_t i = 0; i < ips.size(); ++i)
    send(*ips[i], associate_request(static_cast<int>(i)));
  const auto r = bed->executor().run();
  if (r.reason != estelle::StopReason::Quiescent) {
    *why = "association run did not reach quiescence";
    return nullptr;
  }
  for (auto* ip : ips) {
    if (ip->queue_length() != 1) {
      *why = "association: expected one AssociateResp per connection";
      return nullptr;
    }
    auto resp = core::decode(ip->pop().payload);
    if (!resp.ok() ||
        !std::holds_alternative<core::AssociateResp>(resp.value()) ||
        std::get<core::AssociateResp>(resp.value()).result !=
            core::ResultCode::Success) {
      *why = "association refused";
      return nullptr;
    }
  }
  return bed;
}

/// One testbed's closed loop.
class ClosedLoop {
 public:
  ClosedLoop(core::Testbed& bed, const Catalogue& cat, const Options& opt)
      : bed_(bed), cat_(cat), window_seconds_(opt.shape.window_seconds),
        shadow_(make_shadow(Mix::Kind::Control, cat, opt.shape,
                            equipment_of(bed.server()))) {
    const auto ips = app_channels(bed);
    for (std::size_t i = 0; i < ips.size(); ++i)
      conns_.push_back(Conn{ips[i],
                            Mix(Mix::Kind::Control, cat, opt.shape, opt.seed,
                                static_cast<int>(i)),
                            {}, {}, false, false, 0});
  }

  struct Phase {
    int per_conn = 0;      // > 0: each connection issues exactly this many
    double seconds = 0;    // otherwise: issue until this much time passed
    std::vector<estelle::RunObserver*> observers;
    StreamSample* sample = nullptr;
    CpuRotor* rotor = nullptr;  // timed phases: next CPU per window

    std::uint64_t issued = 0, completed = 0, failed = 0;
    RunTotals runs;
    double sim_us = 0;
    estelle::FreeRunningStats free{};  // delta over the phase
    double app_ns = 0;                 // driver time outside run_until
    Windows windows;                   // timed phases only
    std::vector<float> window_lat_us;
    std::string error;  // first failure

    [[nodiscard]] double rps() const { return windows.rate(); }
  };

  void run(Phase& ph) {
    const auto t_start = Clock::now();
    const auto deadline =
        t_start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(ph.seconds));
    const double base_sim = bed_.executor().now().micros();
    const estelle::FreeRunningStats base_free = last_free_;
    for (auto& c : conns_) c.issued = 0;
    if (ph.rotor != nullptr) ph.rotor->next();
    const auto may_issue = [&](const Conn& c, Clock::time_point now) {
      return ph.per_conn > 0 ? c.issued < ph.per_conn : now < deadline;
    };
    for (std::size_t i = 0; i < conns_.size(); ++i) issue(i, ph);

    estelle::RunOptions opts;
    opts.stop.push_back(estelle::StopCondition::when([this] {
      for (const auto& c : conns_)
        if (c.ip->has_input()) return true;
      return false;
    }));
    opts.observers = ph.observers;

    auto window_start = t_start;
    std::uint64_t window_done = 0;
    auto app_from = Clock::now();
    std::size_t busy = conns_.size();
    while (busy > 0) {
      const auto t0 = Clock::now();
      ph.app_ns += ns_between(app_from, t0);
      const estelle::RunReport r = bed_.executor().run(opts);
      const auto t1 = Clock::now();
      app_from = t1;
      ph.runs.add(r, ns_between(t0, t1));
      last_free_ = r.free_running;

      bool got = false;
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        Conn& c = conns_[i];
        while (c.ip->has_input()) {
          got = true;
          const estelle::Interaction msg = c.ip->pop();
          if (!c.busy) {
            fail(ph, "unsolicited response on connection " +
                         std::to_string(i));
            continue;
          }
          c.busy = false;
          --busy;
          ++ph.completed;
          ++window_done;
          if (ph.per_conn == 0 && c.timed)
            ph.window_lat_us.push_back(
                static_cast<float>(ns_between(c.sent, t1) / 1e3));
          auto resp = core::decode(msg.payload);
          const std::string why =
              resp.ok() ? check_response(c.rq, resp.value(), cat_, shadow_,
                                         static_cast<int>(i))
                        : "undecodable reply: " + resp.error().message;
          if (!why.empty()) fail(ph, why);
          if (ph.sample != nullptr) ph.sample->take(c.rq, msg.payload);
          if (may_issue(c, t1)) {
            issue(i, ph);
            ++busy;
          }
        }
      }
      if (!got) {
        fail(ph, "no reply (world quiescent) for " + std::to_string(busy) +
                     " outstanding requests");
        ph.failed += busy - 1;
        break;
      }
      if (ph.per_conn == 0 && t1 < deadline &&
          t1 - window_start >= std::chrono::duration<double>(window_seconds_)) {
        ph.windows.close(static_cast<double>(window_done),
                         ns_between(window_start, t1) / 1e9, ph.window_lat_us);
        // Requests in flight now straddle the window close and the CPU
        // move; they count in the next window's rate but not its latencies.
        for (auto& c : conns_) c.timed = false;
        if (ph.rotor != nullptr) ph.rotor->next();
        window_start = Clock::now();
        window_done = 0;
      }
    }
    ph.sim_us = bed_.executor().now().micros() - base_sim;
    ph.free.parks = last_free_.parks - base_free.parks;
    ph.free.wakes = last_free_.wakes - base_free.wakes;
    ph.free.fallback_rounds =
        last_free_.fallback_rounds - base_free.fallback_rounds;
  }

 private:
  struct Conn {
    estelle::InteractionPoint* ip;
    Mix mix;
    Request rq;
    Clock::time_point sent;
    bool busy;
    bool timed;  // its latency is recorded
    int issued;
  };

  void issue(std::size_t i, Phase& ph) {
    Conn& c = conns_[i];
    c.rq = c.mix.next();
    send(*c.ip, c.rq);
    c.sent = Clock::now();
    c.busy = true;
    c.timed = true;
    ++c.issued;
    ++ph.issued;
  }

  static void fail(Phase& ph, const std::string& why) {
    ++ph.failed;
    if (ph.error.empty()) ph.error = why;
  }

  core::Testbed& bed_;
  const Catalogue& cat_;
  double window_seconds_;
  Shadow shadow_;
  std::vector<Conn> conns_;
  estelle::FreeRunningStats last_free_{};
};

void account(Outcome& oc, const ClosedLoop::Phase& ph, const char* what) {
  oc.attempted += ph.issued;
  oc.failed += ph.failed;
  if (!ph.error.empty())
    oc.violations.push_back(std::string(what) + ": " + ph.error);
}

void report_runtime(const ClosedLoop::Phase& ph, Report& out) {
  const double req = static_cast<double>(ph.completed);
  const double rounds = static_cast<double>(ph.runs.steps);
  out.set("estelle.run_us_per_req", ph.runs.run_ns / 1e3 / req, "us");
  out.set("estelle.runs_per_req", static_cast<double>(ph.runs.runs) / req,
          "count");
  out.set("estelle.rounds_per_req", rounds / req, "count");
  out.set("estelle.fired_per_req", static_cast<double>(ph.runs.fired) / req,
          "count");
  out.set("estelle.guards_per_round",
          static_cast<double>(ph.runs.guards) / rounds, "count");
  out.set("estelle.candidates_per_round",
          static_cast<double>(ph.runs.candidates) / rounds, "count");
  out.set("estelle.alloc_rounds_per_round",
          static_cast<double>(ph.runs.alloc_rounds) / rounds, "ratio");
  out.set("estelle.sim_us_per_req", ph.sim_us / req, "us");
  out.set("estelle.free.parks_per_round",
          static_cast<double>(ph.free.parks) / rounds, "count");
  out.set("estelle.free.wakes_per_round",
          static_cast<double>(ph.free.wakes) / rounds, "count");
  out.set("estelle.free.fallback_rounds",
          static_cast<double>(ph.free.fallback_rounds), "count");
  // No wire: the whole process is one node, so a round costs run wall time
  // over rounds and every frame counter is zero.
  out.set("transport.round_us", ph.runs.run_ns / 1e3 / rounds, "us",
          "single node: run wall time / rounds");
  for (const char* name :
       {"transport.frames_per_req", "transport.syscalls_per_round",
        "transport.parallel_rounds", "transport.overlap_polls_per_round",
        "transport.null_rounds", "transport.heartbeats", "transport.replayed",
        "transport.reconnects", "transport.handshake_retries"})
    out.set(name, 0, "count");
  out.set("transport.bytes_per_req", 0, "bytes");
  out.set("transport.batched_share", 0, "ratio");
}

}  // namespace

Outcome run_control(bool free_running, const Options& opt, Report& out) {
  const Shape& s = opt.shape;
  Catalogue cat(opt.seed, s.catalogue, s.conns(), opt.inject_fault);
  Outcome oc;
  oc.attempted += static_cast<std::uint64_t>(s.conns()) *
                  static_cast<std::uint64_t>(s.setups);  // associations
  const auto violation = [&](const std::string& why) {
    oc.violations.push_back(why);
  };

  // The fixed-work check phase: every connection issues verify_requests.
  // Sequential repeats its fired/rounds/virtual time exactly; FreeRunning
  // must match Sequential's fired and rounds on identical inputs.
  struct Counts {
    std::uint64_t fired = 0, rounds = 0;
    double sim_us = 0;
  };
  const auto counts_of = [](const ClosedLoop::Phase& ph) {
    return Counts{ph.runs.fired, ph.runs.steps, ph.sim_us};
  };
  std::optional<Counts> reference;
  if (free_running) {
    std::string why;
    auto bed = set_up(opt, false, cat, &why);
    if (!bed) {
      violation("Sequential reference set-up: " + why);
      return oc;
    }
    ClosedLoop loop(*bed, cat, opt);
    ClosedLoop::Phase ph;
    ph.per_conn = s.verify_requests;
    loop.run(ph);
    account(oc, ph, "Sequential reference");
    reference = counts_of(ph);
  }

  // Sequential runs on the driver thread alone, which visits every CPU in
  // turn; FreeRunning's workers would inherit a pin, so it stays unpinned.
  CpuRotor cpus;
  CpuRotor* const rotor = free_running ? nullptr : &cpus;

  std::vector<double> setup_s;
  std::unique_ptr<core::Testbed> bed;
  std::unique_ptr<ClosedLoop> loop;
  StreamSample sample;
  for (int i = 0; i < s.setups; ++i) {
    loop.reset();
    bed.reset();  // tear down first: never more threads than one testbed's
    std::string why;
    if (rotor != nullptr) rotor->next();
    const auto t0 = Clock::now();
    bed = set_up(opt, free_running, cat, &why);
    setup_s.push_back(ns_between(t0, Clock::now()) / 1e9);
    if (!bed) {
      violation("set-up: " + why);
      return oc;
    }
    loop = std::make_unique<ClosedLoop>(*bed, cat, opt);
    ClosedLoop::Phase ph;
    ph.per_conn = s.verify_requests;
    if (i == s.setups - 1) ph.sample = &sample;
    loop->run(ph);
    account(oc, ph, "check phase");
    const Counts got = counts_of(ph);
    if (!reference) reference = got;
    const bool same = got.fired == reference->fired &&
                      got.rounds == reference->rounds &&
                      (free_running || got.sim_us == reference->sim_us);
    if (!same)
      violation("check phase diverged: fired " + std::to_string(got.fired) +
                " rounds " + std::to_string(got.rounds) + " vs reference " +
                std::to_string(reference->fired) + "/" +
                std::to_string(reference->rounds));
    if (ph.free.fallback_rounds != 0)
      violation("FreeRunning served " +
                std::to_string(ph.free.fallback_rounds) +
                " rounds on the epoch fallback");
  }
  std::printf("check phase: %d set-ups x %d connections x %d requests, "
              "fired %llu rounds %llu sim %.1f us each\n",
              s.setups, s.conns(), s.verify_requests,
              static_cast<unsigned long long>(reference->fired),
              static_cast<unsigned long long>(reference->rounds),
              reference->sim_us);

  {
    ClosedLoop::Phase warm;
    warm.seconds = opt.warmup;
    warm.rotor = rotor;
    loop->run(warm);
    account(oc, warm, "warm-up");
  }

  const auto guard_fallback = [&](const ClosedLoop::Phase& ph) {
    if (free_running && ph.free.fallback_rounds != 0)
      violation("FreeRunning served " +
                std::to_string(ph.free.fallback_rounds) +
                " rounds on the epoch fallback");
  };

  if (!opt.trace) {
    ClosedLoop::Phase ph;
    ph.seconds = opt.seconds;
    ph.rotor = rotor;
    loop->run(ph);
    account(oc, ph, "measured phase");
    guard_fallback(ph);
    ph.windows.report(out, "windows");
    if (ph.windows.rps.empty() ||
        ph.windows.min_beyond_p99 < static_cast<std::size_t>(s.min_beyond_p99))
      violation("latency_p99_ms needs >= 10 samples beyond it in every "
                "window");
    out.set("setup_s", median(setup_s), "s",
            "median of " + std::to_string(setup_s.size()) + " set-ups");
    return oc;
  }

  // Traced run: an untraced half, then a traced half of equal length.
  ClosedLoop::Phase plain;
  plain.seconds = opt.seconds / 2;
  plain.rotor = rotor;
  loop->run(plain);
  account(oc, plain, "untraced half");
  guard_fallback(plain);

  LayerTracer tracer(*bed, !free_running);
  ClosedLoop::Phase traced;
  traced.seconds = opt.seconds / 2;
  traced.rotor = rotor;
  traced.observers.push_back(&tracer);
  loop->run(traced);
  account(oc, traced, "traced half");
  guard_fallback(traced);

  out.set("trace.untraced_requests_per_s", plain.rps(), "1/s");
  out.set("trace.traced_requests_per_s", traced.rps(), "1/s");
  out.set("trace.overhead_pct",
          100.0 * (plain.rps() - traced.rps()) / plain.rps(), "%");
  report_runtime(traced, out);

  if (!free_running) {
    report_layers(tracer, traced.app_ns, traced.completed, out);
  } else {
    // Gaps between announcements mean nothing under real threads: charge
    // layer time on a Sequential replay of the same inputs.
    loop.reset();
    bed.reset();
    std::string why;
    auto seq = set_up(opt, false, cat, &why);
    if (!seq) {
      violation("Sequential profile set-up: " + why);
      return oc;
    }
    ClosedLoop seq_loop(*seq, cat, opt);
    LayerTracer seq_tracer(*seq, true);
    ClosedLoop::Phase ph;
    ph.per_conn = s.profile_requests;
    ph.observers.push_back(&seq_tracer);
    seq_loop.run(ph);
    account(oc, ph, "Sequential profile");
    report_layers(seq_tracer, ph.app_ns, ph.completed, out);
  }
  replay_layers(sample, cat, s.conns_per_client, opt.seed, out);
  return oc;
}

}  // namespace e2e
