// mcam_e2e — the end-to-end MCAM benchmark driver.
//
//   mcam_e2e --workload control_seq|control_free|dist_batch --seed N
//            --seconds S --trace 0|1 [--sockdir DIR] [--smoke]
//
// Prints host facts and every metric as `name value unit [note]`, then, as
// the last line, one JSON object {correct, attempted, failed, metrics}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits 1 when a response is wrong or missing, or a silent-path guard trips.
#include <sys/resource.h>
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.hpp"

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (the smoke test checks it). The FreeRunning
// counters (estelle.free.*) are printed as lines only: control_free, the one
// workload that moves them, is not among the gated workloads.
const MetricSpec kEndToEnd[] = {
    {"requests_per_s", "1/s"}, {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},  {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

const MetricSpec kPerLayer[] = {
    {"estelle.run_us_per_req", "us"},
    {"estelle.runs_per_req", "count"},
    {"estelle.rounds_per_req", "count"},
    {"estelle.fired_per_req", "count"},
    {"estelle.guards_per_round", "count"},
    {"estelle.candidates_per_round", "count"},
    {"estelle.alloc_rounds_per_round", "ratio"},
    {"estelle.sim_us_per_req", "us"},
    {"layer.app.self_us_per_req", "us"},
    {"layer.mca.fired_per_req", "count"},
    {"layer.mca.self_us_per_req", "us"},
    {"layer.acse.fired_per_req", "count"},
    {"layer.acse.self_us_per_req", "us"},
    {"layer.pres.fired_per_req", "count"},
    {"layer.pres.self_us_per_req", "us"},
    {"layer.sess.fired_per_req", "count"},
    {"layer.sess.self_us_per_req", "us"},
    {"layer.tp.fired_per_req", "count"},
    {"layer.tp.self_us_per_req", "us"},
    {"layer.smca.fired_per_req", "count"},
    {"layer.smca.self_us_per_req", "us"},
    {"mcam.encode_us", "us"},
    {"mcam.decode_us", "us"},
    {"mcam.pdu_bytes", "bytes"},
    {"asn1.decode_ns_per_byte", "ns/byte"},
    {"directory.find_by_title_us", "us"},
    {"directory.read_us", "us"},
    {"directory.modify_us", "us"},
    {"directory.search_us", "us"},
    {"directory.add_us", "us"},
    {"server.handle_us", "us"},
    {"transport.round_us", "us"},
    {"transport.frames_per_req", "count"},
    {"transport.bytes_per_req", "bytes"},
    {"transport.syscalls_per_round", "count"},
    {"transport.batched_share", "ratio"},
    {"transport.parallel_rounds", "count"},
    {"transport.overlap_polls_per_round", "count"},
    {"transport.null_rounds", "count"},
    {"transport.heartbeats", "count"},
    {"transport.replayed", "count"},
    {"transport.reconnects", "count"},
    {"transport.handshake_retries", "count"},
    {"frame.encode_ns", "ns"},
    {"frame.decode_ns", "ns"},
    {"trace.overhead_pct", "%"},
};

std::string json_number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

int usage() {
  std::fprintf(stderr,
               "usage: mcam_e2e --workload control_seq|control_free|"
               "dist_batch --seed N --seconds S --trace 0|1 [--sockdir DIR] "
               "[--smoke]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options opt;
  std::string workload;
  opt.shape = e2e::Shape::full();
  for (int i = 1; i < argc; ++i) {
    const auto want = [&](const char* flag) {
      return std::strcmp(argv[i], flag) == 0 && i + 1 < argc;
    };
    if (want("--workload")) workload = argv[++i];
    else if (want("--seed")) opt.seed = std::strtoull(argv[++i], nullptr, 10);
    else if (want("--seconds")) opt.seconds = std::atof(argv[++i]);
    else if (want("--trace")) opt.trace = std::atoi(argv[++i]) != 0;
    else if (want("--sockdir")) opt.sockdir = argv[++i];
    else if (std::strcmp(argv[i], "--smoke") == 0) opt.shape = e2e::Shape::smoke();
    else if (std::strcmp(argv[i], "--inject-fault") == 0) opt.inject_fault = true;
    else return usage();
  }
  if (opt.seconds <= 0) return usage();
  // The multi-threaded runtimes settle into their steady state only after a
  // few seconds of this load on a shared host; measure that state.
  const bool smoke = opt.shape.catalogue != e2e::Shape::full().catalogue;
  opt.warmup = smoke ? 0.1 : workload == "control_seq" ? 0.5 : 2.5;

  std::printf("# mcam e2ebench workload=%s seed=%llu seconds=%g trace=%d%s\n",
              workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, smoke ? " (smoke)" : "");
  std::printf("# host nproc=%ld hardware_concurrency=%u compiler=\"%s\" "
              "build=%s\n",
              ::sysconf(_SC_NPROCESSORS_ONLN),
              std::thread::hardware_concurrency(), E2E_COMPILER,
              E2E_BUILD_TYPE);
  std::printf("# shape: %d client hosts x %d connections, %d-movie catalogue, "
              "ACSE on, Estelle-generated stack\n",
              opt.shape.clients, opt.shape.conns_per_client,
              opt.shape.catalogue);
  if (workload == "dist_batch")
    std::printf("# dist_batch: 2 nodes as threads of one process, pinned to "
                "one CPU per batch, over Unix-domain sockets on one host, not "
                "a real link; compare across hosts with care\n");

  e2e::Report report;
  e2e::Outcome outcome;
  if (workload == "control_seq") outcome = e2e::run_control(false, opt, report);
  else if (workload == "control_free")
    outcome = e2e::run_control(true, opt, report);
  else if (workload == "dist_batch") {
    outcome = e2e::run_dist_batch(opt, report);
    std::error_code ec;
    std::filesystem::remove_all(opt.sockdir, ec);  // the mesh's socket files
  } else {
    return usage();
  }

  if (!opt.trace) {
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    report.set("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0,
               "MB");
  }
  report.set("failed_ratio",
             outcome.attempted == 0
                 ? 1.0
                 : static_cast<double>(outcome.failed) /
                       static_cast<double>(outcome.attempted),
             "ratio",
             std::to_string(outcome.failed) + " of " +
                 std::to_string(outcome.attempted));
  report.print_lines();
  for (const std::string& name : report.non_finite())
    outcome.violations.push_back("metric " + name + " is not finite");
  for (const std::string& v : outcome.violations)
    std::printf("VIOLATION: %s\n", v.c_str());

  const bool correct = outcome.violations.empty() && outcome.failed == 0 &&
                       outcome.attempted > 0;
  std::string metrics;
  bool complete = true;
  const auto emit = [&](const MetricSpec& m) {
    if (!report.has(m.name) || report.unit(m.name) != m.unit ||
        !std::isfinite(report.get(m.name))) {
      if (correct)  // a failed run may stop before measuring everything
        std::fprintf(stderr, "internal: metric %s missing or mis-unit\n",
                     m.name);
      complete = false;
      return;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(m.name) + ": {\"value\": " +
               json_number(report.get(m.name)) +
               ", \"unit\": " + json_string(m.unit) + "}";
  };
  if (opt.trace)
    for (const auto& m : kPerLayer) emit(m);
  else
    for (const auto& m : kEndToEnd) emit(m);
  if (correct && !complete) return 2;

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(
                  outcome.attempted, 1)),
              static_cast<unsigned long long>(
                  correct ? 0 : std::max<std::uint64_t>(outcome.failed, 1)),
              metrics.c_str());
  return correct ? 0 : 1;
}
