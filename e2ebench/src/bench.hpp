// Shared vocabulary of the end-to-end MCAM benchmark (see ../README.md).
//
// The benchmark drives the Fig. 2 testbed only through the library's public
// API: Testbed, Executor::run/run_until, InteractionPoint, the MCAM codec,
// the directory DSA, McamServerCore and the transport frame codec. Every
// per-layer number is taken from outside, by timing calls into a layer or by
// reading the counters a RunReport publishes.
#pragma once

#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "estelle/executor.hpp"
#include "mcam/pdus.hpp"
#include "mcam/testbed.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;
using mcam::core::Op;
using mcam::core::Pdu;

inline double ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Size of a workload. `full()` is what the benchmark measures; `smoke()` is
/// the tiny configuration the benchmark's own smoke test runs.
struct Shape {
  int clients = 2;
  int conns_per_client = 15;
  int catalogue = 2000;
  int verify_requests = 40;   // per connection, fixed-work check phase
  int setups = 11;            // set-ups per run (setup_s is their median)
  int profile_requests = 200; // per connection, Sequential layer profile
  int batch_deletes = 50;     // dist_batch: reserved movies per connection
  double window_seconds = 0.5;  // closed-loop measurement window
  int min_beyond_p99 = 10;    // samples each window needs beyond its p99

  [[nodiscard]] int conns() const { return clients * conns_per_client; }
  /// dist_batch requests per connection after its AssociateReq.
  [[nodiscard]] int batch_requests() const { return 4 * batch_deletes; }

  static Shape full() { return Shape{}; }
  static Shape smoke() {
    return Shape{.clients = 2, .conns_per_client = 2, .catalogue = 60,
                 .verify_requests = 6, .setups = 2, .profile_requests = 10,
                 .batch_deletes = 5, .window_seconds = 0.2,
                 .min_beyond_p99 = 0};
  }
};

/// Expected directory view of one catalogue movie.
struct Movie {
  std::uint64_t id = 0;
  std::string title;
  std::vector<std::pair<std::string, std::string>> attrs;  // server order
  int owner = 0;  // the one connection allowed to write it
};

/// The fixed catalogue every workload preloads, generated from the seed.
class Catalogue {
 public:
  /// `corrupt` falsifies every expected format attribute (the smoke test's
  /// proof that a wrong reply fails the run).
  Catalogue(std::uint64_t seed, int size, int conns, bool corrupt = false);

  /// Add every movie to `dsa` (a fresh one). Records the assigned ids on
  /// first use and insists later preloads assign the same ids.
  bool preload(mcam::directory::Dsa& dsa);

  [[nodiscard]] const std::vector<Movie>& movies() const { return movies_; }
  [[nodiscard]] const std::vector<mcam::directory::MovieEntry>& entries()
      const {
    return entries_;
  }
  [[nodiscard]] const std::string& tag() const { return tag_; }

 private:
  std::string tag_;  // seed-derived title prefix
  std::vector<mcam::directory::MovieEntry> entries_;
  std::vector<Movie> movies_;
};

/// One request of the load and what its response must show.
struct Request {
  Pdu pdu;
  Op expect = Op::ErrorResp;
  int movie = -1;        // catalogue index targeted, -1 for none
  std::string path;      // AttrModify: the new location-path
  bool full_attrs = true;  // AttrQuery: all attributes or a named subset
};

/// The benchmark's own model of the server state, used to check responses.
struct Shadow {
  std::vector<std::string> path;  // current location-path per movie
  /// The one connection that may rewrite a movie's location-path, or -1 when
  /// the workload never writes it; other connections cannot know its value.
  std::vector<int> writer;
  std::vector<mcam::core::EquipItem> equipment;
  std::set<std::uint64_t> created;  // MovieCreate ids seen (must be fresh)
};

/// Request generators. `control` is the read-mostly closed-loop mix,
/// `batch` the write-heavy pipelined mix of dist_batch.
class Mix {
 public:
  enum class Kind { Control, Batch };
  Mix(Kind kind, const Catalogue& cat, const Shape& shape, std::uint64_t seed,
      int conn);
  Request next();

 private:
  Kind kind_;
  const Catalogue& cat_;
  const Shape& shape_;
  int conn_;
  mcam::common::Rng rng_;
  std::vector<int> own_;  // movies this connection may write
  std::uint64_t n_ = 0;
};

/// Fresh model of a just-preloaded server for a workload of `kind`.
Shadow make_shadow(Mix::Kind kind, const Catalogue& cat, const Shape& shape,
                   const std::vector<mcam::core::EquipItem>& equipment);
/// The server's equipment as EquipListResp reports it (it never changes:
/// no workload sends EquipControl).
std::vector<mcam::core::EquipItem> equipment_of(
    mcam::core::McamServerCore& server);

/// Check `resp` against `rq` for connection `conn`; updates `shadow` on a
/// successful write. Returns an empty string when correct, else why not.
std::string check_response(const Request& rq, const Pdu& resp,
                           const Catalogue& cat, Shadow& shadow, int conn);

/// AssociateReq for connection `conn`.
Request associate_request(int conn);

/// The Fig. 2 testbed of `s`: Estelle-generated stack with ACSE, Sequential
/// unless the caller sets `runtime`.
mcam::core::Testbed::Config testbed_config(const Shape& s, std::uint64_t seed);
/// Every connection's application channel, in connection order.
std::vector<mcam::estelle::InteractionPoint*> app_channels(
    mcam::core::Testbed& bed);
/// Write `rq` into an application channel, as McamClient does.
void send(mcam::estelle::InteractionPoint& ip, const Request& rq);

// ---------------------------------------------------------------------------
// Per-run runtime counters.

struct RunTotals {
  std::uint64_t runs = 0;
  std::uint64_t steps = 0;
  std::uint64_t fired = 0;
  std::uint64_t guards = 0;
  std::uint64_t candidates = 0;
  std::uint64_t alloc_rounds = 0;
  double run_ns = 0;  // wall time inside run()/run_until()

  void add(const mcam::estelle::RunReport& r, double ns) {
    ++runs;
    steps += r.steps;
    fired += r.fired;
    guards += r.guards_examined;
    candidates += r.candidates_considered;
    alloc_rounds += r.rounds_with_allocation;
    run_ns += ns;
  }
};

/// Module kinds the layer metrics are grouped by.
enum LayerKind { kApp, kMca, kAcse, kPres, kSess, kTp, kSmca, kOther,
                 kLayerKinds };
const char* layer_name(int kind);

/// Observer attributing firings (and, under Sequential, wall time) to module
/// kinds: each gap between consecutive on_fire announcements is charged to
/// the module that fired first, the tail of a run to the last one.
class LayerTracer final : public mcam::estelle::RunObserver {
 public:
  LayerTracer(mcam::core::Testbed& bed, bool time_gaps);
  void on_run_begin(mcam::estelle::Executor&) override { last_ = -1; }
  void on_fire(const mcam::estelle::Module& m,
               const mcam::estelle::Transition&,
               mcam::common::SimTime) override;
  void on_run_end(mcam::estelle::Executor&,
                  const mcam::estelle::RunReport&) override;

  std::uint64_t fired[kLayerKinds] = {};
  double self_ns[kLayerKinds] = {};

 private:
  std::unordered_map<const mcam::estelle::Module*, int> kind_;
  bool time_gaps_;
  int last_ = -1;
  Clock::time_point last_at_{};
};

/// Ordered metric collection: every metric is printed as a line
/// `name value unit [note]`; the final JSON carries the selected names.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           const std::string& note = {});
  [[nodiscard]] bool has(const std::string& name) const;
  /// Names of metrics set to NaN or infinity (a broken denominator).
  [[nodiscard]] std::vector<std::string> non_finite() const;
  [[nodiscard]] double get(const std::string& name) const;
  [[nodiscard]] const std::string& unit(const std::string& name) const;
  void print_lines() const;

 private:
  struct Entry {
    std::string name;
    double value = 0;
    std::string unit;
    std::string note;
  };
  std::vector<Entry> entries_;
};

/// Latencies in buckets 1/128 of an octave wide (0.8% apart), stored
/// sparsely: its size follows the spread of the latencies, not their count.
class LatencyHistogram {
 public:
  LatencyHistogram() = default;
  explicit LatencyHistogram(const std::vector<float>& lat_us);
  void merge(const LatencyHistogram& other);
  /// Nearest-rank percentile in us, placed linearly inside its bucket; 0
  /// when empty.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] std::uint64_t count() const { return count_; }

 private:
  std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets_;  // sorted
  std::uint64_t count_ = 0;
};

/// requests_per_s and the latency percentiles are taken per measurement
/// window (0.5 s of a closed loop, one dist_batch batch) and reported for
/// the fast decile of windows: requests_per_s is the 90th percentile of the
/// window rates, and the latency percentiles are those of every latency in
/// the tenth of windows with the highest rates. A shared host slows the
/// program in stretches of seconds to minutes and never speeds it up, so the
/// fast decile tracks the program rather than its neighbours.
struct Windows {
  std::vector<double> rps;
  std::vector<LatencyHistogram> latency;  // one per window
  std::size_t samples = 0;
  std::size_t min_beyond_p99 = 0;  // fewest samples beyond any window's p99

  /// Close a window that completed `requests` in `seconds` with latencies
  /// `lat_us` (consumed).
  void close(double requests, double seconds, std::vector<float>& lat_us);
  /// The fast-decile window rate (0 without windows).
  [[nodiscard]] double rate() const;
  /// Set requests_per_s, latency_p50_ms and latency_p99_ms; `windows`
  /// names what a window is, in the plural.
  void report(Report& out, const char* windows) const;
};

/// Moves the calling thread round-robin over the CPUs the process may use,
/// one CPU per measurement window; threads it starts afterwards inherit the
/// CPU. On a shared host each vCPU is slowed by its own neighbours, in
/// stretches that can outlast a run, so a run pinned to one vCPU measures
/// that vCPU's neighbours; visiting every vCPU leaves the fast decile of
/// windows a quiet one to find.
class CpuRotor {
 public:
  CpuRotor();
  /// Pin the calling thread to the next CPU; false when the host refuses.
  bool next();
  [[nodiscard]] std::size_t cpus() const { return cpus_.size(); }

 private:
  std::vector<int> cpus_;
  std::size_t at_ = 0;
};

/// What a workload run hands back besides its metrics.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;  // correctness / silent-path guards
};

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10;
  double warmup = 0;  // seconds of load before measuring
  bool trace = false;
  bool inject_fault = false;  // expect wrong attributes: the check must trip
  Shape shape;
  std::string sockdir = ".e2e_sock";
};

/// A request/response sample of the workload's own stream, replayed by the
/// per-layer codec, directory and server timings.
struct StreamSample {
  std::vector<Pdu> requests;
  std::vector<mcam::common::Bytes> responses;  // encoded, as received
  std::vector<int> keys;  // catalogue indices the requests touched
  void take(const Request& rq, const mcam::common::Bytes& response) {
    if (requests.size() >= kMax) return;
    requests.push_back(rq.pdu);
    responses.push_back(response);
    if (rq.movie >= 0) keys.push_back(rq.movie);
  }
  static constexpr std::size_t kMax = 4096;
};

/// Codec, directory, server and frame timings over a stream sample.
/// `batch_entries` sizes the TransferBatch the frame codec is timed on.
void replay_layers(const StreamSample& sample, const Catalogue& cat,
                   int batch_entries, std::uint64_t seed, Report& out);

/// Put the per-module-kind metrics of a tracer into `out`.
void report_layers(const LayerTracer& t, double app_ns, std::uint64_t requests,
                   Report& out);

Outcome run_control(bool free_running, const Options& opt, Report& out);
Outcome run_dist_batch(const Options& opt, Report& out);

double median(std::vector<double> v);
/// Linearly interpolated quantile `q` in [0, 1] of `v`; 0 when empty.
double quantile(std::vector<double> v, double q);
/// " (min X, max Y)" of a sample, for the human-readable metric notes.
std::string spread_note(const std::vector<double>& v);

}  // namespace e2e
