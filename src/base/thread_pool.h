// Fixed-size worker pool modelled on Blink's raster worker threads.
//
// The renderer submits raster tasks here; PERCIVAL's classifier runs inside
// these workers, which is how the paper achieves per-image parallel
// classification ("multiple raster threads each rasterizing different raster
// tasks in parallel", §3.3).
//
// The same class backs the inference pool (nn/gemm.h), whose ParallelFor is
// a fork-join on the forward's critical path: one call per large layer. It
// is built to cost little when called back to back. A call publishes one
// job in a slot the pool owns (no allocation, no queue push per helper);
// workers that just ran a share poll for the next job for kSpinWindow before
// they park, and the caller polls for its helpers for the same window
// before it blocks. A worker that has only run Submit() tasks never polls,
// so a Submit-only pool (the renderer's raster pool) sleeps when idle.
#ifndef PERCIVAL_SRC_BASE_THREAD_POOL_H_
#define PERCIVAL_SRC_BASE_THREAD_POOL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/base/function_ref.h"

namespace percival {

class ThreadPool {
 public:
  // How long a worker that finished a ParallelFor share keeps polling for
  // the next one before it parks, and how long a ParallelFor caller polls
  // for its helpers' iterations before it blocks. It spans the gap between
  // consecutive layers of a forward, so helpers stay hot through a whole
  // forward and park between forwards. A parked helper costs ~20 µs to
  // wake, which is what the window saves per fan-out.
  static constexpr std::chrono::microseconds kSpinWindow{30};

  // Creates `num_threads` workers (must be >= 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task. Tasks may be submitted from any thread, including from
  // inside another task.
  void Submit(std::function<void()> task);

  // Blocks until all submitted tasks (including nested submissions) have run.
  void Wait();

  int num_threads() const { return static_cast<int>(workers_.size()); }

  // True when called from one of this pool's worker threads. Kernels use it
  // to fall back to serial execution instead of fanning out from inside a
  // worker (a nested blocking ParallelFor could otherwise stall the pool).
  bool IsWorkerThread() const;

  // Runs `fn(i)` for i in [0, count) and waits. A pool of N is an N-way
  // fan-out: the calling thread plus up to N - 1 workers, further capped at
  // `max_threads` when it is positive. Iterations are claimed one at a
  // time, so a helper that arrives late finds fewer left. The caller waits
  // only for iterations a helper has already claimed, never for a helper to
  // show up, so fanning out while holding a lock the workers block on cannot
  // deadlock. Runs inline on the caller when called from a worker thread,
  // and while another thread's ParallelFor on this pool is in flight (the
  // pool holds one job at a time), so concurrent callers are safe.
  void ParallelFor(int count, FunctionRef<void(int)> fn, int max_threads = 0);

 private:
  void WorkerLoop();
  // Pops and runs one queued task; false when the queue is empty.
  bool RunQueuedTask();
  // Joins the published ParallelFor job if it has a helper slot and an
  // unclaimed iteration, and runs iterations until none are left; false
  // when there was nothing to join.
  bool HelpParallelFor();
  // True while the job has a helper slot and an unclaimed iteration: the
  // wake-up condition of a parked worker.
  bool ParallelForOpen() const;
  // Claims the next iteration of the job tagged `generation`.
  bool ClaimIteration(uint64_t generation, int count, int* index);
  void AwaitIterations(int count);

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::condition_variable iterations_done_;
  std::deque<std::function<void()>> queue_;
  int in_flight_ = 0;
  bool shutting_down_ = false;
  // queue_.size(), so a polling worker sees a Submit without the lock.
  std::atomic<int> queued_{0};
  // Workers waiting on work_available_. Changed under mutex_; read without
  // it by ParallelFor, which takes the lock to notify only when it is > 0.
  std::atomic<int> parked_{0};

  // The ParallelFor job slot. fork_word_ packs the job's generation (high
  // 32 bits), the helpers that joined (8 bits) and the next unclaimed
  // iteration (low 24 bits); every join and claim is a CAS on it, so a
  // worker still holding an earlier job's word can never claim from a later
  // job. The other fields are written by the slot's owner before it opens
  // the word.
  std::atomic<bool> fork_owned_{false};
  uint32_t fork_generation_ = 0;  // the owner's
  std::atomic<uint64_t> fork_word_;
  std::atomic<const FunctionRef<void(int)>*> fork_fn_{nullptr};
  std::atomic<int> fork_count_{0};
  std::atomic<int> fork_helpers_{0};  // helper slots: threads - 1
  std::atomic<int> fork_finished_{0};
  std::atomic<bool> fork_caller_blocked_{false};

  // Last, so every member the workers touch outlives them.
  std::vector<std::thread> workers_;
};

}  // namespace percival

#endif  // PERCIVAL_SRC_BASE_THREAD_POOL_H_
