#include "common/thread_pool.h"

#include "obs/metrics.h"

namespace mrs {

namespace {

// Identifies the pool (and worker slot) owning the current thread, so
// Submit from inside a task can use the fast own-deque path.
thread_local WorkStealingPool* tls_pool = nullptr;
thread_local size_t tls_index = 0;

obs::Gauge* QueueDepthGauge() {
  static obs::Gauge* g =
      obs::Registry::Instance().GetGauge("mrs.pool.queue_depth");
  return g;
}

obs::Counter* StealCounter() {
  static obs::Counter* c =
      obs::Registry::Instance().GetCounter("mrs.pool.steals");
  return c;
}

}  // namespace

WorkStealingPool::WorkStealingPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  // Deques must all exist before any worker can steal.
  for (size_t i = 0; i < num_threads; ++i) {
    workers_[i]->thread = std::thread([this, i] { WorkerLoop(i); });
  }
}

WorkStealingPool::~WorkStealingPool() { Shutdown(); }

bool WorkStealingPool::Submit(Task task) {
  if (closed_.load(std::memory_order_acquire)) return false;
  size_t index = tls_pool == this
                     ? tls_index
                     : next_.fetch_add(1, std::memory_order_relaxed) %
                           workers_.size();
  Worker& w = *workers_[index];
  {
    MutexLock lock(w.mu);
    // Re-check under the deque lock: Shutdown drains every deque's
    // remaining tasks, but only those pushed before workers observe
    // closed_ with an empty queue.  Rejecting here keeps "returns false
    // after Shutdown" exact rather than racy.
    if (closed_.load(std::memory_order_acquire)) return false;
    w.deque.push_back(std::move(task));
  }
  queued_.fetch_add(1, std::memory_order_acq_rel);
  // The gauge tracks true outstanding work (queued + executing), not raw
  // deque occupancy: a claimed-but-running task — including one stolen
  // and in flight — must still register as load.
  size_t depth = outstanding_.fetch_add(1, std::memory_order_acq_rel) + 1;
  QueueDepthGauge()->Set(static_cast<double>(depth));
  {
    // Empty critical section: pairs with the waiter's predicate check so
    // a worker deciding to sleep cannot miss this submission.
    MutexLock lock(mu_);
  }
  cv_.NotifyOne();
  return true;
}

void WorkStealingPool::Shutdown() {
  {
    MutexLock lock(mu_);
    closed_.store(true, std::memory_order_release);
  }
  cv_.NotifyAll();
  for (const std::unique_ptr<Worker>& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

bool WorkStealingPool::TryPopOwn(size_t index, Task* out) {
  Worker& w = *workers_[index];
  MutexLock lock(w.mu);
  if (w.deque.empty()) return false;
  *out = std::move(w.deque.back());
  w.deque.pop_back();
  return true;
}

bool WorkStealingPool::TrySteal(size_t index, Task* out) {
  size_t n = workers_.size();
  for (size_t step = 1; step < n; ++step) {
    Worker& victim = *workers_[(index + step) % n];
    MutexLock lock(victim.mu);
    if (victim.deque.empty()) continue;
    *out = std::move(victim.deque.front());
    victim.deque.pop_front();
    steals_.fetch_add(1, std::memory_order_relaxed);
    StealCounter()->Inc();
    return true;
  }
  return false;
}

void WorkStealingPool::NoteClaimed() {
  size_t left = queued_.fetch_sub(1, std::memory_order_acq_rel) - 1;
  if (left == 0 && closed_.load(std::memory_order_acquire)) {
    // Let sleeping siblings re-evaluate their exit condition.
    { MutexLock lock(mu_); }
    cv_.NotifyAll();
  }
}

void WorkStealingPool::WorkerLoop(size_t index) {
  tls_pool = this;
  tls_index = index;
  for (;;) {
    Task task;
    if (TryPopOwn(index, &task) || TrySteal(index, &task)) {
      NoteClaimed();
      task();
      size_t left = outstanding_.fetch_sub(1, std::memory_order_acq_rel) - 1;
      QueueDepthGauge()->Set(static_cast<double>(left));
      continue;
    }
    MutexLock lock(mu_);
    while (queued_.load(std::memory_order_acquire) == 0 &&
           !closed_.load(std::memory_order_acquire)) {
      cv_.Wait(mu_);
    }
    if (closed_.load(std::memory_order_acquire) &&
        queued_.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

}  // namespace mrs
