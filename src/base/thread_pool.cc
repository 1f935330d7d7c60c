#include "src/base/thread_pool.h"

#include <algorithm>

#include "src/base/logging.h"

namespace percival {

namespace {

using Clock = std::chrono::steady_clock;

// Set for the lifetime of each worker thread; lets IsWorkerThread() answer
// without any synchronization.
thread_local const ThreadPool* tls_worker_pool = nullptr;

// fork_word_ layout (see thread_pool.h). A closed word has its next
// iteration at kNextMask, past any count, so nothing can be claimed.
constexpr uint64_t kNextMask = (uint64_t{1} << 24) - 1;
constexpr int kJoinedShift = 24;
constexpr uint64_t kJoinedMask = 0xff;
constexpr uint64_t kJoinedOne = uint64_t{1} << kJoinedShift;
constexpr uint64_t kGenerationMask = ~uint64_t{0} << 32;
constexpr int kMaxForkThreads = static_cast<int>(kJoinedMask) + 1;

int NextIteration(uint64_t word) { return static_cast<int>(word & kNextMask); }
int JoinedHelpers(uint64_t word) { return static_cast<int>((word >> kJoinedShift) & kJoinedMask); }

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) : fork_word_(kNextMask) {
  PCHECK_GE(num_threads, 1);
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  bool wake;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    PCHECK(!shutting_down_);
    queue_.push_back(std::move(task));
    queued_.store(static_cast<int>(queue_.size()), std::memory_order_relaxed);
    ++in_flight_;
    wake = parked_.load(std::memory_order_relaxed) > 0;
  }
  // A worker that is not parked is running a task or polling queued_; it
  // reaches this task without a wake-up.
  if (wake) {
    work_available_.notify_one();
  }
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

bool ThreadPool::IsWorkerThread() const { return tls_worker_pool == this; }

void ThreadPool::ParallelFor(int count, FunctionRef<void(int)> fn, int max_threads) {
  if (count <= 0) {
    return;
  }
  int threads = std::min({num_threads(), count, kMaxForkThreads});
  if (max_threads > 0) {
    threads = std::min(threads, max_threads);
  }
  // Run inline with nothing to fan out to; from inside a worker, where
  // every other worker may be blocked in a ParallelFor of its own; and
  // while another caller owns the job slot.
  if (threads <= 1 || IsWorkerThread() || fork_owned_.exchange(true, std::memory_order_acquire)) {
    for (int i = 0; i < count; ++i) {
      fn(i);
    }
    return;
  }
  PCHECK_LT(static_cast<uint64_t>(count), kNextMask);

  // Close the word under the new generation before rewriting the job
  // fields: a worker that read those fields with an older word then fails
  // its CAS instead of pairing the old word with the new count.
  const uint64_t generation = static_cast<uint64_t>(++fork_generation_) << 32;
  fork_word_.store(generation | kNextMask);
  fork_fn_.store(&fn, std::memory_order_release);
  fork_count_.store(count, std::memory_order_release);
  fork_helpers_.store(threads - 1, std::memory_order_release);
  fork_finished_.store(0, std::memory_order_relaxed);
  fork_word_.store(generation);  // open
  // Polling workers see the open word on their own. A parking worker bumps
  // parked_ before it checks for a job, so either it sees this job or this
  // load sees it; the lock orders the notify after its wait began.
  const int parked = parked_.load();
  if (parked > 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (int h = std::min(parked, threads - 1); h > 0; --h) {
      work_available_.notify_one();
    }
  }

  int ran = 0;
  int index;
  while (ClaimIteration(generation, count, &index)) {
    fn(index);
    ++ran;
  }
  if (fork_finished_.fetch_add(ran) + ran < count) {
    AwaitIterations(count);
  }
  fork_owned_.store(false, std::memory_order_release);
}

bool ThreadPool::ClaimIteration(uint64_t generation, int count, int* index) {
  uint64_t word = fork_word_.load(std::memory_order_relaxed);
  while ((word & kGenerationMask) == generation && NextIteration(word) < count) {
    if (fork_word_.compare_exchange_weak(word, word + 1, std::memory_order_acq_rel,
                                         std::memory_order_relaxed)) {
      *index = NextIteration(word);
      return true;
    }
  }
  return false;
}

bool ThreadPool::ParallelForOpen() const {
  const uint64_t word = fork_word_.load();
  return NextIteration(word) < fork_count_.load(std::memory_order_acquire) &&
         JoinedHelpers(word) < fork_helpers_.load(std::memory_order_acquire);
}

bool ThreadPool::HelpParallelFor() {
  // Join: take a helper slot and the next iteration in one CAS. The fields
  // are read with acquire, so a count from a newer job implies its closing
  // store is visible and the CAS on an older word fails.
  uint64_t word = fork_word_.load(std::memory_order_acquire);
  int count;
  do {
    count = fork_count_.load(std::memory_order_acquire);
    if (NextIteration(word) >= count ||
        JoinedHelpers(word) >= fork_helpers_.load(std::memory_order_acquire)) {
      return false;
    }
  } while (!fork_word_.compare_exchange_weak(word, word + kJoinedOne + 1,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire));
  // The job cannot finish while this helper holds an unrun iteration, so
  // its fields stay valid until the fork_finished_ add below.
  const FunctionRef<void(int)>& fn = *fork_fn_.load(std::memory_order_acquire);
  const uint64_t generation = word & kGenerationMask;
  int index = NextIteration(word);
  int ran = 0;
  do {
    fn(index);
    ++ran;
  } while (ClaimIteration(generation, count, &index));
  // Pairs with AwaitIterations: either the caller sees the last add or this
  // load sees the caller blocked. A stale true (a later job's caller) only
  // costs a spurious notify.
  if (fork_finished_.fetch_add(ran) + ran == count && fork_caller_blocked_.load()) {
    std::lock_guard<std::mutex> lock(mutex_);
    iterations_done_.notify_one();
  }
  return true;
}

void ThreadPool::AwaitIterations(int count) {
  const Clock::time_point spin_until = Clock::now() + kSpinWindow;
  while (fork_finished_.load(std::memory_order_acquire) < count) {
    if (Clock::now() >= spin_until) {
      std::unique_lock<std::mutex> lock(mutex_);
      fork_caller_blocked_.store(true);
      iterations_done_.wait(lock, [&] { return fork_finished_.load() >= count; });
      fork_caller_blocked_.store(false, std::memory_order_relaxed);
      return;
    }
    CpuRelax();
  }
}

bool ThreadPool::RunQueuedTask() {
  if (queued_.load(std::memory_order_relaxed) == 0) {
    return false;
  }
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.empty()) {
      return false;
    }
    task = std::move(queue_.front());
    queue_.pop_front();
    queued_.store(static_cast<int>(queue_.size()), std::memory_order_relaxed);
  }
  task();
  std::lock_guard<std::mutex> lock(mutex_);
  --in_flight_;
  if (in_flight_ == 0) {
    all_done_.notify_all();
  }
  return true;
}

void ThreadPool::WorkerLoop() {
  tls_worker_pool = this;
  // Polling starts only after a ParallelFor share, so a worker that only
  // runs Submit() tasks parks as soon as the queue is empty.
  Clock::time_point spin_until;
  for (;;) {
    if (HelpParallelFor()) {
      spin_until = Clock::now() + kSpinWindow;
      continue;
    }
    if (RunQueuedTask()) {
      continue;
    }
    if (Clock::now() < spin_until) {
      CpuRelax();
      continue;
    }
    std::unique_lock<std::mutex> lock(mutex_);
    parked_.fetch_add(1);
    work_available_.wait(
        lock, [this] { return shutting_down_ || !queue_.empty() || ParallelForOpen(); });
    parked_.fetch_sub(1, std::memory_order_relaxed);
    if (shutting_down_ && queue_.empty()) {
      return;  // Shutting down and drained.
    }
  }
}

}  // namespace percival
