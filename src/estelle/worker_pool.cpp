#include "estelle/worker_pool.hpp"

#include <algorithm>

namespace mcam::estelle {

bool WorkerPool::TaskQueue::push_back(Task t) {
  // Once anything spilled, later pushes must spill too or FIFO order breaks.
  if (spill.size() - spill_head > 0 || count == ring.size()) {
    spill.push_back(std::move(t));
    return true;
  }
  ring[(head + count) % ring.size()] = std::move(t);
  ++count;
  return false;
}

WorkerPool::Task WorkerPool::TaskQueue::pop_front() {
  if (count > 0) {
    Task t = std::move(ring[head]);
    head = (head + 1) % ring.size();
    --count;
    return t;
  }
  Task t = std::move(spill[spill_head++]);
  if (spill_head == spill.size()) {
    // Keep the capacity (high-water sizing); drop the dead prefix.
    spill.clear();
    spill_head = 0;
  }
  return t;
}

WorkerPool::Task WorkerPool::TaskQueue::pop_back() {
  if (spill.size() - spill_head > 0) {
    Task t = std::move(spill.back());
    spill.pop_back();
    if (spill_head == spill.size()) {
      spill.clear();
      spill_head = 0;
    }
    return t;
  }
  Task t = std::move(ring[(head + count - 1) % ring.size()]);
  --count;
  return t;
}

WorkerPool::WorkerPool(int workers) {
  const int n = std::max(1, workers);
  queues_.resize(static_cast<std::size_t>(n));
  for (auto& q : queues_) q.ring.resize(kRingSlots);
  stats_.resize(static_cast<std::size_t>(n) + 1);  // + helping coordinator
  threads_.reserve(static_cast<std::size_t>(n));
  for (int w = 0; w < n; ++w)
    threads_.emplace_back([this, w] { worker_main(w); });
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::submit(int worker, Task task) {
  const auto slot = static_cast<std::size_t>(worker % worker_count());
  std::lock_guard<std::mutex> lock(mu_);
  if (queues_[slot].push_back(std::move(task))) ++spills_;
}

std::size_t WorkerPool::launch_locked() {
  std::size_t queued = 0;
  for (const auto& q : queues_) queued += q.size();
  if (queued == 0) return 0;  // don't wake anyone for an empty release
  outstanding_ += queued;
  ++epoch_;
  ++epochs_run_;
  work_cv_.notify_all();
  return queued;
}

std::size_t WorkerPool::launch() {
  std::lock_guard<std::mutex> lock(mu_);
  return launch_locked();
}

void WorkerPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return outstanding_ == 0; });
}

std::size_t WorkerPool::run_epoch_helping() {
  std::unique_lock<std::mutex> lock(mu_);
  const std::size_t queued = launch_locked();
  if (queued == 0) return 0;
  // Participate instead of parking: drain as the pseudo-worker, then wait
  // only for the in-flight remainder.
  drain_queues(queues_.size(), lock);
  done_cv_.wait(lock, [&] { return outstanding_ == 0; });
  return queued;
}

std::uint64_t WorkerPool::epochs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epochs_run_;
}

std::size_t WorkerPool::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t queued = 0;
  for (const auto& q : queues_) queued += q.size();
  return queued;
}

std::uint64_t WorkerPool::spills() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spills_;
}

std::vector<WorkerPool::WorkerStats> WorkerPool::worker_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void WorkerPool::drain_queues(std::size_t self,
                              std::unique_lock<std::mutex>& lock) {
  while (outstanding_ > 0) {
    Task task;
    bool stolen = false;
    if (self < queues_.size() && !queues_[self].empty()) {
      task = queues_[self].pop_front();
    } else {
      // Steal from the back of the fullest victim queue; if every queue is
      // empty the remaining released tasks are in flight on other workers.
      std::size_t victim = self;
      std::size_t best = 0;
      for (std::size_t v = 0; v < queues_.size(); ++v) {
        if (v != self && queues_[v].size() > best) {
          best = queues_[v].size();
          victim = v;
        }
      }
      if (victim == self) return;
      task = queues_[victim].pop_back();
      stolen = true;
    }
    lock.unlock();
    try {
      task(static_cast<int>(self));
    } catch (...) {
      // On a worker thread this still terminates (the task contract), but a
      // task drained by the HELPING COORDINATOR propagates into the caller
      // — restore the accounting first, or the pool would count the task
      // outstanding forever and every later epoch/wait_idle would hang.
      task = nullptr;
      lock.lock();
      ++stats_[self].executed;
      if (stolen) ++stats_[self].stolen;
      if (--outstanding_ == 0) done_cv_.notify_all();
      throw;
    }
    task = nullptr;  // destroy captures outside the completion edge
    lock.lock();
    ++stats_[self].executed;
    if (stolen) ++stats_[self].stolen;
    if (--outstanding_ == 0) done_cv_.notify_all();
  }
}

void WorkerPool::worker_main(int w) {
  const auto self = static_cast<std::size_t>(w);
  std::unique_lock<std::mutex> lock(mu_);
  std::uint64_t seen_epoch = 0;
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || epoch_ != seen_epoch; });
    if (stop_) return;
    seen_epoch = epoch_;
    drain_queues(self, lock);
  }
}

}  // namespace mcam::estelle
