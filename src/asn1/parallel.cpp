#include "asn1/parallel.hpp"

#include <algorithm>
#include <thread>
#include <vector>

#include "asn1/ber.hpp"
#include "asn1/direct.hpp"

namespace mcam::asn1 {

namespace {

double node_work_ns(const Value& v, const ParallelEncodeModel& m) {
  double work = m.per_node_ns + m.per_byte_ns * v.content().size();
  for (const Value& c : v.children()) work += node_work_ns(c, m);
  return work;
}

}  // namespace

double sequential_work_ns(const Value& v, const ParallelEncodeModel& m) {
  return node_work_ns(v, m);
}

common::Bytes encode_parallel(const Value& v, int workers) {
  if (workers <= 1 || !v.constructed() || v.children().size() < 2)
    return encode(v);

  const auto& children = v.children();
  const std::size_t n = children.size();
  const std::size_t nworkers =
      std::min<std::size_t>(static_cast<std::size_t>(workers), n);

  // Each worker encodes a contiguous slice of children into its own buffer.
  std::vector<common::Bytes> slices(nworkers);
  std::vector<std::thread> threads;
  threads.reserve(nworkers);
  for (std::size_t w = 0; w < nworkers; ++w) {
    const std::size_t lo = n * w / nworkers;
    const std::size_t hi = n * (w + 1) / nworkers;
    threads.emplace_back([&children, &slices, w, lo, hi] {
      for (std::size_t i = lo; i < hi; ++i)
        encode_to(children[i], slices[w]);
    });
  }
  for (auto& t : threads) t.join();

  // Merge: emit the outer header, then splice the pre-encoded slices. The
  // header needs the total content length, which we get from the slices.
  std::size_t content_len = 0;
  for (const auto& s : slices) content_len += s.size();

  common::Bytes out;
  out.reserve(Writer::tlv_len(v.tag(), content_len));
  Writer(out).header(v.tag_class(), true, v.tag(), content_len);
  for (const auto& s : slices) out.insert(out.end(), s.begin(), s.end());
  return out;
}

common::SimTime ParallelEncodeModel::encode_time(const Value& v,
                                                 int workers) const {
  const double total = node_work_ns(v, *this);
  if (workers <= 1 || !v.constructed() || v.children().size() < 2)
    return common::SimTime::from_ns(static_cast<std::int64_t>(total));

  const auto& children = v.children();
  const std::size_t n = children.size();
  const std::size_t nworkers =
      std::min<std::size_t>(static_cast<std::size_t>(workers), n);

  // Same slicing as encode_parallel(): critical path is the slowest slice.
  double critical = 0.0;
  for (std::size_t w = 0; w < nworkers; ++w) {
    const std::size_t lo = n * w / nworkers;
    const std::size_t hi = n * (w + 1) / nworkers;
    double slice = 0.0;
    for (std::size_t i = lo; i < hi; ++i) slice += node_work_ns(children[i], *this);
    critical = std::max(critical, slice);
  }
  // Dispatch is serial on the coordinating thread; joins are serial too.
  const double overhead =
      dispatch_ns * static_cast<double>(nworkers) +
      join_ns * static_cast<double>(nworkers) +
      per_node_ns /* outer header emission */;
  return common::SimTime::from_ns(
      static_cast<std::int64_t>(critical + overhead));
}

}  // namespace mcam::asn1
