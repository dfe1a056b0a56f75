// Small fixed-size thread pool for the experiment harness.
//
// The only primitive is a blocking parallel_for over an index range: the
// pattern every bench needs (fan a fixed set of independent simulations
// out across cores, write results into per-index slots).  Results are
// deterministic by construction — workers race only for *which* index
// they claim, never for where a result lands — so `jobs = N` output is
// bit-identical to `jobs = 1` (cf. SST-style component-parallel
// simulation, where replications are the embarrassingly parallel axis).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pcm::harness {

class ThreadPool {
 public:
  /// `jobs` <= 0 selects one job per hardware thread.  A pool with one
  /// job spawns no threads and runs everything inline on the caller.
  explicit ThreadPool(int jobs = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int jobs() const { return jobs_; }

  /// Runs body(i) for every i in [0, n), distributing indices across the
  /// pool (the calling thread participates).  Blocks until all indices
  /// finished.  A throwing body does not stop the batch: every index runs,
  /// then the exception of the lowest throwing index is rethrown, so the
  /// outcome does not depend on `jobs` or on thread timing.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  /// Resolves the `jobs` option: positive values pass through, <= 0 means
  /// one per hardware thread (at least 1).
  static int resolve_jobs(int requested);

 private:
  void worker_loop();
  void drain_batch();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::size_t batch_size_ = 0;
  std::atomic<std::size_t> next_{0};
  std::size_t running_ = 0;      ///< workers still inside the current batch
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::exception_ptr error_;  ///< the lowest throwing index's exception
  std::size_t error_index_ = 0;
  int jobs_ = 1;
};

}  // namespace pcm::harness
