// The Mrs master: the network shell around the scheduler.
//
// Starting a job "requires merely starting one copy of the program as a
// master and any number of other copies of the program as slaves" (paper
// §IV).  The master serves XML-RPC on one TCP port; slaves sign in knowing
// only host:port.  The same port also serves the observability endpoints:
// GET /metrics (Prometheus text), GET /status (job progress + slave
// liveness JSON), GET /trace (Chrome trace_event spans) — see obs/.  The scheduler implements the paper's iterative
// optimizations: operations queue up and start the moment their inputs are
// complete, independent datasets run concurrently, and "corresponding
// tasks" are assigned "to the same processor from one iteration to the
// next" (affinity) to keep data local.
//
// Every scheduling decision lives in Scheduler (rt/scheduler.h), which has
// no sockets, threads, locks or clock.  Each RPC handler here parses its
// params, takes mutex_, reads the clock once, ticks the scheduler and hands
// it the event, then wakes the long polls and waiters.  What needs the
// network or blocks stays here: the signin health probe, the get_task long
// poll, Wait, WaitForSlaves, WaitUntilStats and /status.
//
// Fault tolerance is lineage-based (paper §I: "a job scheduler may kill
// processes at any time").  The master records which slave hosts each
// completed task's output URLs; when a slave is lost — ping timeout, or a
// peer reports an unreachable bucket — every completed task whose output
// lived there is invalidated and requeued, the affected sub-DAG re-runs
// on the survivors, and the job completes with results identical to the
// serial runner.  Tasks are only handed out while their inputs are
// complete, so a recovering sub-DAG re-executes in dependency order.
//
// Membership is elastic, not a fixed roster.  Each slave moves through a
// small state machine (see DESIGN.md "Elastic membership"):
//
//   signin -> healthy -> draining  -> gone
//                |     \-> quarantined -> healthy (probation)
//                \--------------------> gone (ping timeout / crash)
//
// Loss, drain reaping, probation and speculation are decided at the next
// event (any RPC or runner call), not by a monitor thread.  A slave may
// sign in mid-job (it is health-checked, handed the current dataset
// manifest, and immediately schedulable — lineage makes its empty bucket
// store safe); a slave may drain gracefully (the `drain` RPC: the master
// stops assigning it work, re-executes its hosted buckets through the
// lineage machinery, then releases it with "quit"); a slave whose failure
// ledger crosses a threshold is quarantined — no new work, its buckets
// invalidated — and re-admitted after a probation period.  The master
// also runs speculative execution: per-operation runtime histograms
// (mrs::obs) identify stragglers past a configurable quantile and a backup
// attempt is launched on another healthy slave; the first finisher wins
// and the duplicate completion is dropped idempotently.
#pragma once

#include <functional>
#include <memory>
#include <set>
#include <string>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/dataset.h"
#include "core/task.h"
#include "http/server.h"
#include "rt/scheduler.h"
#include "xmlrpc/server.h"

namespace mrs {

class Master {
 public:
  /// The scheduler's knobs (rt/scheduler.h) plus where to listen.
  struct Config : Scheduler::Config {
    std::string host = "127.0.0.1";
    uint16_t port = 0;  // 0 = ephemeral
  };

  /// Bind the RPC server and start the scheduler.
  static Result<std::unique_ptr<Master>> Start(Config config);
  ~Master();

  Master(const Master&) = delete;
  Master& operator=(const Master&) = delete;

  const SocketAddr& addr() const { return server_->addr(); }

  /// Block until at least `n` slaves have signed in.
  Status WaitForSlaves(int n, double timeout_seconds);
  int num_slaves() const;

  // ---- Runner-facing interface ---------------------------------------
  void Submit(const DataSetPtr& dataset);
  Status Wait(const DataSetPtr& dataset);
  void Discard(const DataSetPtr& dataset);
  UrlFetcher fetcher() const;
  /// A fetch of `url` failed outside any task (Job::Collect): recover it
  /// exactly as a slave's bad_url report would.  True if lineage
  /// re-execution was scheduled or the URL has already moved.
  bool RecoverLostUrl(const std::string& url);

  /// Answer every get_task with "quit", wait (at most about a second)
  /// until every slave on the roster that is not gone has collected it,
  /// then stop the server.  Idempotent.
  void Shutdown();

  /// Scheduler statistics (for benches and tests).
  struct Stats : Scheduler::Stats {
    /// Process-wide transport retries since this master started (control
    /// channel / bucket fetches) — meaningful for in-process clusters.
    int64_t rpc_retries = 0;
    int64_t fetch_retries = 0;
  };
  Stats stats() const;

  /// Condition-variable wait until `pred(stats())` holds or the timeout
  /// expires.  Used by tests to wait on observable scheduler state (e.g.
  /// "a slave was declared lost") instead of sleeping wall-clock time.
  bool WaitUntilStats(const std::function<bool(const Stats&)>& pred,
                      double timeout_seconds);

  /// The /status document: job progress, per-slave liveness + health
  /// ledger, membership counts, live health-config values, and lineage
  /// counters as JSON.  Served by the master's HTTP server and callable
  /// directly (thread-safe).
  std::string StatusJson() const;

 private:
  explicit Master(Config config);
  Status Init();

  // RPC handlers.
  Result<XmlRpcValue> RpcSignin(const XmlRpcArray& params);
  Result<XmlRpcValue> RpcGetTask(const XmlRpcArray& params);
  Result<XmlRpcValue> RpcTaskDone(const XmlRpcArray& params);
  Result<XmlRpcValue> RpcTaskFailed(const XmlRpcArray& params);
  Result<XmlRpcValue> RpcPing(const XmlRpcArray& params);
  Result<XmlRpcValue> RpcDrain(const XmlRpcArray& params);

  /// Read the clock once and make the scheduler's time-driven decisions
  /// due now; wakes the long polls and waiters if any was made.  Returns
  /// the reading for the event that follows.
  double TickLocked() MRS_REQUIRES(mutex_);
  /// Wake long-polling get_task calls and Wait/WaitUntilStats.
  void Notify();
  Stats StatsLocked() const MRS_REQUIRES(mutex_);
  /// Every slave not gone has been answered "quit" since Shutdown.
  bool AllSlavesQuitLocked() const MRS_REQUIRES(mutex_);

  Config config_;
  std::unique_ptr<HttpServer> server_;
  XmlRpcDispatcher dispatcher_;

  mutable Mutex mutex_;
  CondVar sched_cv_;  // wakes long-polling get_task
  CondVar done_cv_;   // wakes Wait and WaitUntilStats
  bool shutdown_ MRS_GUARDED_BY(mutex_) = false;
  std::set<int> quit_sent_ MRS_GUARDED_BY(mutex_);  // slave ids
  Scheduler scheduler_ MRS_GUARDED_BY(mutex_);
  int64_t rpc_retries_base_ = 0;    // process counters at Init
  int64_t fetch_retries_base_ = 0;
};

}  // namespace mrs
