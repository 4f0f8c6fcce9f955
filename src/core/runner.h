// Runner: an execution implementation behind the Job facade.
//
// Mrs "defines several different implementations which define the run-time
// behavior of a program" (paper §IV-A): master/slave, serial, mock
// parallel, and bypass.  One local runner lives in core: SerialRunner,
// which is serial, mock parallel given a tmpdir, and the thread runner
// given a pool (ThreadRunner); all three run one stage loop.  The
// master/slave runner lives in rt (it needs the RPC stack); bypass skips
// the Job machinery entirely.
//
// Mock parallel vs thread: mock parallel keeps the master/slave task
// decomposition and data movement (intermediate rows go through spill
// files)
// but runs one task at a time on one thread, in a seeded *shuffled* order
// — it simulates out-of-order scheduling for debugging without any real
// concurrency.  The thread runner is true shared-memory parallelism:
// tasks genuinely race on a pool of worker threads, so it exercises the
// thread-safety of program callbacks, which mock parallel cannot.
//
// Every runner turns an exception escaping user code into a failed task
// (CatchUserExceptions in core/task.h).  The local runners re-run a task
// an earlier Wait left failed, so their Wait returns OK only for a
// complete dataset.
#pragma once

#include <memory>
#include <string>

#include "common/status.h"
#include "core/dataset.h"
#include "core/task.h"

namespace mrs {

class Runner {
 public:
  virtual ~Runner() = default;

  /// Hand a newly created computing dataset to the runner.  Pipelining
  /// runners (master/slave) begin executing immediately; lazy runners
  /// (serial, mock parallel) defer to Wait.
  virtual void Submit(const DataSetPtr& dataset) = 0;

  /// Block until every task of `dataset` is complete.
  virtual Status Wait(const DataSetPtr& dataset) = 0;

  /// Fetcher able to resolve this runner's bucket URLs (for Collect).
  virtual UrlFetcher fetcher() = 0;

  /// Collect could not fetch `url`, a bucket of a dataset that Wait
  /// reported complete.  A runner that can re-derive the bucket from its
  /// lineage schedules that and returns true; Collect then waits for the
  /// dataset again and re-reads the bucket.  Local runners cannot lose a
  /// bucket to a dead host, so the default declines.
  virtual bool RecoverLostUrl(const std::string& /*url*/) { return false; }

  /// Implementation name ("serial", "mockparallel", "masterslave").
  virtual std::string name() const = 0;

  /// Called when the program is done with a dataset; runners release its
  /// records and spill files.
  virtual void Discard(const DataSetPtr& dataset) { dataset->Discard(); }
};

}  // namespace mrs
