#include "common/parallel.h"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace paintplace {
namespace {

/// Long-lived worker pool shared by concurrent callers. Each worker has its
/// own job slot: a caller claims its share of the idle workers, hands each one
/// part of its range, runs part 0 itself and waits for its own job only.
/// Workers park on their slot's condition variable between jobs; the pool is
/// created lazily on first use and torn down at process exit.
class Pool {
 public:
  explicit Pool(int workers) : total_workers_(workers) {
    PP_CHECK(workers >= 1);
    slots_ = std::make_unique<Slot[]>(static_cast<std::size_t>(workers - 1));
    idle_.reserve(static_cast<std::size_t>(workers - 1));
    threads_.reserve(static_cast<std::size_t>(workers - 1));
    for (int w = 0; w < workers - 1; ++w) {
      idle_.push_back(w);
      threads_.emplace_back([this, w] { worker_loop(w); });
    }
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    for (int w = 0; w < total_workers_ - 1; ++w) slot(w).cv.notify_one();
    for (auto& t : threads_) t.join();
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  int workers() const { return total_workers_; }

  void run(Index n, const std::function<void(Index, Index)>& fn) {
    if (n <= 0) return;
    // A nested parallel_for (a body that itself calls parallel_for) runs
    // inline: its caller already holds its share of the pool.
    if (in_parallel_region || total_workers_ == 1 || n == 1) {
      fn(0, n);
      return;
    }

    Job job;
    job.fn = &fn;
    job.n = n;
    thread_local std::vector<int> claimed;
    claimed.clear();
    {
      std::lock_guard<std::mutex> lock(mu_);
      active_callers_ += 1;
      // The caller counts as one of its share's threads. A lone caller asks
      // for min(n, W) parts: the partition the pool has always used.
      const Index share =
          std::min<Index>(n, (total_workers_ + active_callers_ - 1) / active_callers_);
      const Index parts = std::min<Index>(share, static_cast<Index>(idle_.size()) + 1);
      job.chunk = (n + parts - 1) / parts;
      // Trailing parts can be empty (n = 5 over 4 parts is 2+2+1+0); claim
      // workers only for the parts that hold indices.
      const Index helpers = (n + job.chunk - 1) / job.chunk - 1;
      // The most recently idle workers go first, so a caller tends to get
      // back the helpers it just released. Parts go out in worker order, so
      // a lone caller, which claims every worker, hands part p to the same
      // worker on every call, as the pool always has. Either way a range's
      // data tends to stay in one core's caches.
      for (Index h = 0; h < helpers; ++h) {
        claimed.push_back(idle_.back());
        idle_.pop_back();
      }
      std::sort(claimed.begin(), claimed.end());
      for (std::size_t h = 0; h < claimed.size(); ++h) {
        slot(claimed[h]).job = &job;
        slot(claimed[h]).part = static_cast<Index>(h) + 1;
      }
      job.pending = static_cast<int>(helpers);
    }
    for (int w : claimed) slot(w).cv.notify_one();

    // The calling thread runs part 0: the whole range when no worker was idle.
    std::exception_ptr local_error = nullptr;
    in_parallel_region = true;
    try {
      fn(0, job.chunk);
    } catch (...) {
      local_error = std::current_exception();
    }
    in_parallel_region = false;

    {
      std::unique_lock<std::mutex> lock(mu_);
      job.done.wait(lock, [&job] { return job.pending == 0; });
      active_callers_ -= 1;
    }
    if (local_error) std::rethrow_exception(local_error);
    if (job.error) std::rethrow_exception(job.error);
  }

  static thread_local bool in_parallel_region;

 private:
  /// One caller's parallel_for, on the caller's stack. fn, n and chunk are
  /// fixed before any worker sees the job; the rest is guarded by mu_.
  struct Job {
    const std::function<void(Index, Index)>* fn = nullptr;
    Index n = 0;
    Index chunk = 0;
    int pending = 0;                     ///< claimed workers still running
    std::exception_ptr error = nullptr;  ///< first exception from a worker
    std::condition_variable done;
  };

  /// A worker's job slot: the job and part it was handed; no job when idle.
  struct Slot {
    std::condition_variable cv;
    Job* job = nullptr;  // guarded by mu_
    Index part = 0;      // guarded by mu_
  };

  Slot& slot(int w) { return slots_[static_cast<std::size_t>(w)]; }

  void worker_loop(int w) {
    Slot& mine = slot(w);
    for (;;) {
      Job* job = nullptr;
      Index part = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        mine.cv.wait(lock, [&] { return shutdown_ || mine.job != nullptr; });
        if (mine.job == nullptr) return;  // shut down while idle
        job = mine.job;
        part = mine.part;
      }
      std::exception_ptr err = nullptr;
      in_parallel_region = true;
      try {
        const Index b = std::min(job->n, job->chunk * part);
        const Index e = std::min(job->n, b + job->chunk);
        (*job->fn)(b, e);
      } catch (...) {
        err = std::current_exception();
      }
      in_parallel_region = false;
      {
        // Idle again in the same critical section that completes the part,
        // so the caller this completion wakes finds the worker free.
        std::lock_guard<std::mutex> lock(mu_);
        mine.job = nullptr;
        idle_.push_back(w);
        // Moved, not copied: the caller alone then owns the exception it
        // rethrows, and no reference count is shared across threads.
        if (err && !job->error) job->error = std::move(err);
        // Notify under the lock: the job lives on its caller's stack and
        // may go away as soon as the caller sees pending == 0.
        if (--job->pending == 0) job->done.notify_one();
      }
    }
  }

  const int total_workers_;
  std::unique_ptr<Slot[]> slots_;  // one per pool thread
  std::mutex mu_;
  std::vector<int> idle_;   // guarded by mu_: workers with no job, last idle at the back
  int active_callers_ = 0;  // guarded by mu_: top-level calls in progress
  bool shutdown_ = false;   // guarded by mu_
  std::vector<std::thread> threads_;
};

thread_local bool Pool::in_parallel_region = false;

int g_requested_workers = 0;  // 0 = hardware default
std::unique_ptr<Pool>& pool_slot() {
  static std::unique_ptr<Pool> pool;
  return pool;
}
std::mutex g_pool_mu;

Pool& pool() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  auto& slot = pool_slot();
  if (!slot) {
    int hw = static_cast<int>(std::thread::hardware_concurrency());
    if (hw <= 0) hw = 4;
    const int workers = g_requested_workers > 0 ? g_requested_workers : hw;
    slot = std::make_unique<Pool>(workers);
  }
  return *slot;
}

}  // namespace

int parallel_workers() { return pool().workers(); }

void set_parallel_workers(int workers) {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  g_requested_workers = workers;
  pool_slot().reset();  // rebuilt lazily with the new count
}

void parallel_for(Index n, const std::function<void(Index, Index)>& fn) {
  pool().run(n, fn);
}

void parallel_for_each(Index n, const std::function<void(Index)>& fn) {
  parallel_for(n, [&fn](Index b, Index e) {
    for (Index i = b; i < e; ++i) fn(i);
  });
}

}  // namespace paintplace
