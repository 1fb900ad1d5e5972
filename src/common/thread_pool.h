#ifndef NONSERIAL_COMMON_THREAD_POOL_H_
#define NONSERIAL_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace nonserial {

/// A small fixed-size worker pool. Two usage styles:
///
///  - Submit(fn): fire-and-forget; the destructor drains the queue.
///  - ParallelFor(n, fn): runs fn(0..n-1), blocking until all complete. The
///    calling thread participates in the work, so ParallelFor makes progress
///    (and degrades to a plain loop) even when every worker is busy or the
///    pool has no threads — it can never deadlock on pool starvation.
///
/// The class recognizers share one process-wide pool (Shared()) sized to
/// the hardware; the simulation drivers create their own client threads
/// instead (clients block on protocol waits, which would starve a shared
/// pool).
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(threads_.size()); }

  /// Enqueues a task for asynchronous execution.
  void Submit(std::function<void()> fn);

  /// Runs fn(i) for every i in [0, n), returning when all calls finished.
  /// Indices are distributed dynamically (atomic grab), so uneven per-index
  /// costs balance across workers.
  void ParallelFor(int n, const std::function<void(int)>& fn);

  /// Process-wide pool for recognizer work: min(hardware, 8) threads.
  static ThreadPool& Shared();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace nonserial

#endif  // NONSERIAL_COMMON_THREAD_POOL_H_
