#include "common/thread_pool.h"

#include "obs/metrics.h"

namespace mrs {

namespace {

obs::Gauge* QueueDepthGauge() {
  static obs::Gauge* g =
      obs::Registry::Instance().GetGauge("mrs.pool.queue_depth");
  return g;
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

bool ThreadPool::Submit(Task task) {
  {
    MutexLock lock(mu_);
    if (closed_) return false;
    queue_.push_back(std::move(task));
    QueueDepthGauge()->Set(static_cast<double>(++outstanding_));
  }
  cv_.NotifyOne();
  return true;
}

void ThreadPool::Shutdown() {
  {
    MutexLock lock(mu_);
    closed_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

size_t ThreadPool::OutstandingTasks() const {
  MutexLock lock(mu_);
  return outstanding_;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Task task;
    {
      MutexLock lock(mu_);
      while (queue_.empty() && !closed_) cv_.Wait(mu_);
      if (queue_.empty()) return;  // shut down, and every queued task ran
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    MutexLock lock(mu_);
    QueueDepthGauge()->Set(static_cast<double>(--outstanding_));
  }
}

}  // namespace mrs
