// A fixed set of worker threads taking tasks from one FIFO queue: the only
// parallel part of the thread runner (core/thread_runner.h), which submits
// each dataset's tasks to it at once, and the only task pool in the runtime
// (the HTTP server gives each connection its own thread instead, because
// its handlers block).
//
// The runner's tasks form a flat batch from one submitter, so one shared
// queue balances them: an idle worker takes the oldest queued task, and a
// worker pinned in a long task holds up none of the tasks behind it.
//
// Observability: the pool maintains the "mrs.pool.queue_depth" gauge in the
// process registry: tasks submitted but not yet finished, so a task a
// worker is running still counts.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace mrs {

class ThreadPool {
 public:
  using Task = std::function<void()>;

  /// Spawns `num_threads` workers (0 is clamped to 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Queue a task; returns false after Shutdown().  Tasks must not throw
  /// (wrap and convert to Status at a higher layer, as the local runner
  /// does).
  bool Submit(Task task);

  /// Stop accepting work, run everything already queued, join all
  /// workers.  Idempotent; safe to call from any non-worker thread.
  void Shutdown();

  /// Tasks submitted but not yet finished (queued + running): what the
  /// "mrs.pool.queue_depth" gauge reports.
  size_t OutstandingTasks() const;

 private:
  void WorkerLoop();

  mutable Mutex mu_;
  CondVar cv_;  // a task was queued, or the pool shut down
  std::deque<Task> queue_ MRS_GUARDED_BY(mu_);
  size_t outstanding_ MRS_GUARDED_BY(mu_) = 0;
  bool closed_ MRS_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

// The pool's former name, which the benchmark's pool probe still uses.
using WorkStealingPool = ThreadPool;

}  // namespace mrs
