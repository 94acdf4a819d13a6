#include "estelle/worker_pool.hpp"

#include <algorithm>

namespace mcam::estelle {

WorkerPool::WorkerPool(int workers) {
  const int n = std::max(0, workers);
  threads_.reserve(static_cast<std::size_t>(n));
  for (int w = 0; w < n; ++w)
    threads_.emplace_back([this, w] { worker_main(w); });
}

WorkerPool::~WorkerPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return running_ == 0; });
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::launch(Task task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return running_ == 0; });
    task_ = std::move(task);
    running_ = worker_count();
    ++epoch_;
  }
  work_cv_.notify_all();
}

void WorkerPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return running_ == 0; });
}

std::uint64_t WorkerPool::epochs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

void WorkerPool::worker_main(int w) {
  std::unique_lock<std::mutex> lock(mu_);
  std::uint64_t seen_epoch = 0;
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || epoch_ != seen_epoch; });
    if (stop_) return;
    seen_epoch = epoch_;
    lock.unlock();
    // task_ is not reassigned before every worker of this epoch is done
    // (launch waits for running_ == 0), so reading it unlocked is safe.
    task_(w);
    lock.lock();
    if (--running_ == 0) done_cv_.notify_all();
  }
}

}  // namespace mcam::estelle
