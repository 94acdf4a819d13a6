#include "estelle/metrics.hpp"

#include <algorithm>

#include "common/strf.hpp"
#include "estelle/module.hpp"

namespace mcam::estelle {

namespace {

std::size_t bucket_of(common::SimTime gap) noexcept {
  const std::int64_t us = gap.ns / 1000;
  std::size_t b = 0;
  for (std::int64_t v = us; v > 1 && b + 1 < MetricsObserver::kHistogramBuckets;
       v >>= 1)
    ++b;
  return b;
}

}  // namespace

void MetricsObserver::on_fire(const Module& module, const Transition&,
                              common::SimTime now) {
  PerModule& m = modules_[module.instance_id()];
  if (m.fired == 0) m.path = module.path();
  if (m.fired > 0) {
    const common::SimTime gap = now - m.last_fire;
    ++histogram_[bucket_of(gap)];
    m.gap_sum += gap;
    ++m.gaps;
  }
  m.last_fire = now;
  ++m.fired;
  ++fired_;
}

void MetricsObserver::on_report(Executor&, RunReport& report) {
  report.module_metrics = module_metrics();
  report.firing_gap_histogram = histogram_;
  // The scheduler fills the per-run hot-path counters before observers see
  // the report; retain them so a persistent observer carries the cumulative
  // picture across the many short runs a client facade pumps.
  guards_examined_ += report.guards_examined;
  candidates_considered_ += report.candidates_considered;
  rounds_with_allocation_ += report.rounds_with_allocation;
  if (report.transport.frames_sent != 0 ||
      report.transport.frames_received != 0 ||
      report.transport.handshake_retries != 0)
    transport_ = report.transport;
}

std::uint64_t MetricsObserver::fired_by(const std::string& module_path) const {
  for (const auto& [id, m] : modules_)
    if (m.path == module_path) return m.fired;
  return 0;
}

std::vector<ModuleFiringMetrics> MetricsObserver::module_metrics() const {
  std::vector<ModuleFiringMetrics> out;
  out.reserve(modules_.size());
  for (const auto& [id, m] : modules_) {
    ModuleFiringMetrics metrics;
    metrics.module_path = m.path;
    metrics.fired = m.fired;
    if (m.gaps > 0)
      metrics.mean_gap =
          common::SimTime{m.gap_sum.ns / static_cast<std::int64_t>(m.gaps)};
    out.push_back(std::move(metrics));
  }
  std::sort(out.begin(), out.end(),
            [](const ModuleFiringMetrics& a, const ModuleFiringMetrics& b) {
              return a.fired != b.fired ? a.fired > b.fired
                                        : a.module_path < b.module_path;
            });
  return out;
}

std::string MetricsObserver::to_string(std::size_t top) const {
  std::string out =
      common::strf("metrics: %llu firings across %zu modules\n",
                   static_cast<unsigned long long>(fired_), modules_.size());
  const std::vector<ModuleFiringMetrics> rows = module_metrics();
  for (std::size_t i = 0; i < rows.size() && i < top; ++i)
    out += common::strf("  %-48s %8llu fired  mean gap %10.3f us\n",
                        rows[i].module_path.c_str(),
                        static_cast<unsigned long long>(rows[i].fired),
                        rows[i].mean_gap.micros());
  if (rows.size() > top)
    out += common::strf("  ... %zu more modules\n", rows.size() - top);
  out += common::strf(
      "  hot path: %llu guards examined (%.2f per firing), %llu candidates, "
      "%llu allocating rounds\n",
      static_cast<unsigned long long>(guards_examined_), guards_per_firing(),
      static_cast<unsigned long long>(candidates_considered_),
      static_cast<unsigned long long>(rounds_with_allocation_));
  if (transport_.frames_sent != 0 || transport_.frames_received != 0 ||
      transport_.handshake_retries != 0) {
    out += common::strf(
        "  transport: %llu frames out / %llu in, %llu bytes out / %llu in\n",
        static_cast<unsigned long long>(transport_.frames_sent),
        static_cast<unsigned long long>(transport_.frames_received),
        static_cast<unsigned long long>(transport_.bytes_sent),
        static_cast<unsigned long long>(transport_.bytes_received));
    out += common::strf(
        "    null rounds serviced %llu, handshake retries %llu, send-queue "
        "high water %llu\n",
        static_cast<unsigned long long>(transport_.null_rounds_serviced),
        static_cast<unsigned long long>(transport_.handshake_retries),
        static_cast<unsigned long long>(transport_.send_queue_high_water));
    out += common::strf(
        "    batching: %llu syscalls, %llu transfers batched, largest write "
        "%llu bytes, encode-buffer reuses %llu\n",
        static_cast<unsigned long long>(transport_.syscalls),
        static_cast<unsigned long long>(transport_.frames_batched),
        static_cast<unsigned long long>(transport_.bytes_per_write),
        static_cast<unsigned long long>(transport_.encode_pool_reuse));
    if (transport_.reconnects != 0 || transport_.reconnect_attempts != 0 ||
        transport_.frames_replayed != 0 ||
        transport_.dup_frames_dropped != 0 || transport_.heartbeats != 0 ||
        transport_.faults_injected != 0)
      out += common::strf(
          "    session: %llu reconnects (%llu attempts), %llu frames "
          "replayed, %llu duplicates dropped, %llu heartbeats, %llu faults "
          "injected\n",
          static_cast<unsigned long long>(transport_.reconnects),
          static_cast<unsigned long long>(transport_.reconnect_attempts),
          static_cast<unsigned long long>(transport_.frames_replayed),
          static_cast<unsigned long long>(transport_.dup_frames_dropped),
          static_cast<unsigned long long>(transport_.heartbeats),
          static_cast<unsigned long long>(transport_.faults_injected));
  }
  out += "  firing-gap histogram (us, log2 buckets):\n";
  for (std::size_t b = 0; b < histogram_.size(); ++b) {
    if (histogram_[b] == 0) continue;
    out += common::strf("    [%8lld, %8lld) %8llu\n",
                        static_cast<long long>(b == 0 ? 0 : (1ll << b)),
                        static_cast<long long>(1ll << (b + 1)),
                        static_cast<unsigned long long>(histogram_[b]));
  }
  return out;
}

void MetricsObserver::clear() {
  modules_.clear();
  std::fill(histogram_.begin(), histogram_.end(), 0);
  fired_ = 0;
  guards_examined_ = 0;
  candidates_considered_ = 0;
  rounds_with_allocation_ = 0;
  transport_ = TransportStats{};
}

}  // namespace mcam::estelle
