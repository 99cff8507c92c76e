#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <memory>

namespace olive {

namespace {
thread_local const ThreadPool* tl_current_pool = nullptr;
}  // namespace

int default_thread_count() {
  if (const char* env = std::getenv("OLIVE_THREADS")) {
    const int n = std::atoi(env);
    if (n >= 1) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int workers) { ensure_workers(std::max(0, workers)); }

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

int ThreadPool::workers() const {
  std::lock_guard lk(mutex_);
  return static_cast<int>(threads_.size());
}

void ThreadPool::ensure_workers(int n) {
  std::lock_guard lk(mutex_);
  while (static_cast<int>(threads_.size()) < n)
    threads_.emplace_back([this] { worker_loop(); });
}

bool ThreadPool::on_worker_thread() const { return tl_current_pool == this; }

void ThreadPool::enqueue(std::function<void()> task) {
  {
    std::lock_guard lk(mutex_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::worker_loop() {
  tl_current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lk(mutex_);
      work_cv_.wait(lk, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

namespace {

/// State of one parallel_for: an atomic index dispenser plus a completion
/// count.  Runner tasks enqueued on workers and the calling thread all pull
/// from `next` until it runs dry, so load balances dynamically ("work
/// stealing" at index granularity) while index -> result slots keep the
/// merge order fixed.
struct LoopState {
  int n = 0;
  const std::function<void(int)>* body = nullptr;
  std::atomic<int> next{0};
  std::atomic<int> completed{0};
  std::mutex mutex;
  std::condition_variable done_cv;
  std::exception_ptr error;
  int error_index = -1;

  void run_indices(const ThreadPool* /*pool*/) {
    for (;;) {
      const int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        (*body)(i);
      } catch (...) {
        std::lock_guard lk(mutex);
        // Keep the smallest failing index so which exception propagates
        // does not depend on thread scheduling.
        if (error_index < 0 || i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
      }
      if (completed.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        std::lock_guard lk(mutex);  // pair with the waiter's predicate check
        done_cv.notify_all();
      }
    }
  }
};

}  // namespace

void ThreadPool::parallel_for(int n, const std::function<void(int)>& body,
                              int max_threads) {
  if (n <= 0) return;
  const int helpers = std::min({workers(), n - 1, max_threads - 1});
  if (helpers <= 0 || on_worker_thread()) {
    // Serial / nested case: plain loop, exceptions propagate directly.
    for (int i = 0; i < n; ++i) body(i);
    return;
  }

  auto state = std::make_shared<LoopState>();
  state->n = n;
  state->body = &body;
  for (int h = 0; h < helpers; ++h)
    enqueue([state, this] { state->run_indices(this); });
  state->run_indices(this);  // the calling thread participates

  std::exception_ptr error;
  {
    std::unique_lock lk(state->mutex);
    state->done_cv.wait(lk, [&] {
      return state->completed.load(std::memory_order_acquire) == n;
    });
    // Take sole ownership of the exception: queued helper tasks still hold
    // `state` and may drop the last reference to it on a worker while the
    // caller is handling what it rethrows.
    error = std::move(state->error);
  }
  if (error) std::rethrow_exception(error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool* pool = new ThreadPool(0);  // leaked: outlives all users
  return *pool;
}

}  // namespace olive
