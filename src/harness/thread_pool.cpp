#include "harness/thread_pool.hpp"

namespace pcm::harness {

int ThreadPool::resolve_jobs(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int jobs) : jobs_(resolve_jobs(jobs)) {
  workers_.reserve(static_cast<std::size_t>(jobs_ - 1));
  for (int i = 1; i < jobs_; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::drain_batch() {
  while (true) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch_size_) break;
    try {
      (*body_)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!error_ || i < error_index_) {
        error_ = std::current_exception();
        error_index_ = i;
      }
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_start_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
    }
    drain_batch();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --running_;
    }
    cv_done_.notify_one();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  std::exception_ptr err;
  if (workers_.empty() || n == 1) {
    // Inline: the first exception in index order is the lowest index's.
    for (std::size_t i = 0; i < n; ++i) {
      try {
        body(i);
      } catch (...) {
        if (!err) err = std::current_exception();
      }
    }
    if (err) std::rethrow_exception(err);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    body_ = &body;
    batch_size_ = n;
    next_.store(0, std::memory_order_relaxed);
    running_ = workers_.size();
    error_ = nullptr;
    ++generation_;
  }
  cv_start_.notify_all();
  drain_batch();  // the caller is a worker too
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [&] { return running_ == 0; });
    body_ = nullptr;
    err = std::move(error_);
    error_ = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

}  // namespace pcm::harness
