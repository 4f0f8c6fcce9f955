// Work-stealing worker pool: the only parallel part of mrs::ThreadRunner,
// which submits each dataset's tasks to it at once, and the only task pool
// in the runtime (the HTTP server gives each connection its own thread
// instead, because its handlers block).
//
// The pool keeps one deque per worker: a worker pops its own deque from the
// back (LIFO, cache-warm) and, when empty, steals from the front of a
// sibling's deque (FIFO, oldest-first — the classic Blumofe/Leiserson
// discipline).  External submitters distribute round-robin; submissions
// from inside a worker go to that worker's own deque.  Stealing keeps
// all workers busy under skewed task costs (one giant map split next to
// many tiny ones) without any central dispatcher lock on the hot path.
//
// Observability: the pool maintains the "mrs.pool.queue_depth" gauge
// (true outstanding tasks: submitted but not yet finished, so a task a
// worker is executing — or one stolen and in flight — still counts) and
// the "mrs.pool.steals" counter in the process registry, plus
// per-instance accessors for tests.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace mrs {

class WorkStealingPool {
 public:
  using Task = std::function<void()>;

  /// Spawns `num_threads` workers (0 is clamped to 1).
  explicit WorkStealingPool(size_t num_threads);
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  /// Enqueue a task; returns false after Shutdown().  Called from a worker
  /// of this pool, the task lands on that worker's own deque; otherwise it
  /// is distributed round-robin.  Tasks must not throw (wrap and convert
  /// to Status at a higher layer — see ThreadRunner).
  bool Submit(Task task);

  /// Stop accepting work, run everything already queued, join all
  /// workers.  Idempotent; safe to call from any non-worker thread.
  void Shutdown();

  size_t num_threads() const { return workers_.size(); }

  /// Tasks queued but not yet claimed by a worker (approximate).
  size_t QueueDepth() const {
    return queued_.load(std::memory_order_relaxed);
  }

  /// Tasks submitted but not yet finished (queued + executing).  This is
  /// what the "mrs.pool.queue_depth" gauge reports: claiming a task (own
  /// pop or steal) must not make it disappear from the depth signal.
  size_t OutstandingTasks() const {
    return outstanding_.load(std::memory_order_relaxed);
  }

  /// Number of times a worker claimed a task from a sibling's deque.
  int64_t steal_count() const {
    return steals_.load(std::memory_order_relaxed);
  }

 private:
  struct Worker {
    Mutex mu;
    std::deque<Task> deque MRS_GUARDED_BY(mu);
    std::thread thread;
  };

  void WorkerLoop(size_t index);
  bool TryPopOwn(size_t index, Task* out);
  bool TrySteal(size_t index, Task* out);
  /// Bookkeeping after a task leaves a deque; wakes exiting sleepers.
  void NoteClaimed();

  std::vector<std::unique_ptr<Worker>> workers_;

  Mutex mu_;  // sleep/wake only; never held while running tasks
  CondVar cv_;

  std::atomic<size_t> queued_{0};
  std::atomic<size_t> outstanding_{0};  // submitted, not yet finished
  std::atomic<size_t> next_{0};  // round-robin cursor for external submits
  std::atomic<int64_t> steals_{0};
  std::atomic<bool> closed_{false};
};

}  // namespace mrs
