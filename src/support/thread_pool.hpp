// Fixed-size worker pool for data-parallel fan-out.
//
// Built for the trusted server's sharded deploy pipeline: the owner thread
// calls ParallelFor, the pool's workers pull indices off a shared counter,
// and the call returns only when every index has been processed — a full
// barrier, so the caller may touch the workers' results without further
// synchronization (the condition-variable handshake publishes them).
//
// The caller deliberately does NOT execute indices when workers exist,
// so which thread runs an index depends on the pool size alone, never on
// OS scheduling.  Thread checks inside a job then hold for every index:
// the network's debug check that sends come from the simulation thread
// (server shard workers must hand their pushes back to the caller) fails
// on every misplaced send, not only on the ones the workers happened to
// grab.
//
// A pool of size 0 (or a single-index job) degrades to a plain loop on the
// calling thread; the single-shard server uses that to keep its
// synchronous path free of any threading overhead.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dacm::support {

class ThreadPool {
 public:
  /// Spawns `threads` workers (0 is valid: everything runs inline).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs fn(0) .. fn(count - 1) on the workers (inline on the caller
  /// only when the pool is empty or count is 1); returns when all have
  /// completed.  Not reentrant: one ParallelFor at a time per pool.
  void ParallelFor(std::size_t count, const std::function<void(std::size_t)>& fn);

  std::size_t size() const { return workers_.size(); }

 private:
  void WorkerLoop();
  /// Pulls indices until the current job is drained; returns the number
  /// this thread completed.
  std::size_t RunIndices();

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;
  std::vector<std::thread> workers_;

  // Job state, all guarded by mutex_.
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t job_count_ = 0;
  std::size_t next_index_ = 0;
  std::size_t completed_ = 0;
  std::uint64_t generation_ = 0;
  bool shutdown_ = false;
};

}  // namespace dacm::support
