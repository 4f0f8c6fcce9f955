// The Mrs master: slave registry, task scheduler, and result tracking.
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
// small state machine (see DESIGN.md "Slave lifecycle"):
//
//   registering -> healthy -> draining  -> gone
//                     |     \-> quarantined -> healthy (probation)
//                     \--------------------> gone (ping timeout / crash)
//
// A slave may sign in mid-job (it is health-checked, handed the current
// dataset manifest, and immediately schedulable — lineage makes its empty
// bucket store safe); a slave may drain gracefully (the `drain` RPC: the
// master stops assigning it work, re-executes its hosted buckets through
// the lineage machinery, then releases it with "quit"); a slave whose
// failure ledger crosses a threshold is quarantined — no new work, its
// buckets invalidated — and re-admitted after a probation period.  The
// master also runs speculative execution: per-operation runtime histograms
// (mrs::obs) identify stragglers past a configurable quantile and a backup
// attempt is launched on another healthy slave; the first finisher wins
// and the duplicate completion is dropped idempotently.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/dataset.h"
#include "core/program.h"
#include "core/runner.h"
#include "http/server.h"
#include "obs/metrics.h"
#include "rt/protocol.h"
#include "xmlrpc/server.h"

namespace mrs {

/// Membership state of a registered slave (DESIGN.md "Slave lifecycle").
enum class SlaveState {
  kRegistering,  // signin received, health probe in flight
  kHealthy,      // schedulable
  kDraining,     // drain requested: no new work, awaiting release
  kQuarantined,  // failure threshold crossed: no new work until probation
  kGone,         // released, timed out, or crashed; may revive by polling
};

/// Lower-case state name ("healthy", ...) for /status and logs.
const char* SlaveStateName(SlaveState state);

class Master {
 public:
  struct Config {
    std::string host = "127.0.0.1";
    uint16_t port = 0;           // 0 = ephemeral
    double slave_timeout = 15.0;  // seconds without ping before a slave is lost
    /// A slave reporting its ping interval at signin is declared gone
    /// after max(slave_timeout, missed_ping_limit * ping_interval) of
    /// silence — the roster adapts to per-slave heartbeat cadence instead
    /// of one global constant.
    int missed_ping_limit = 5;
    /// How often the monitor thread checks for lost slaves.  The monitor
    /// sleeps on a condition variable, so Shutdown() is prompt regardless.
    double monitor_interval = 0.2;
    int max_task_attempts = 4;
    bool enable_affinity = true;
    /// Seconds a draining slave may linger awaiting release before the
    /// monitor declares it gone (covers a slave that crashes mid-drain).
    double drain_timeout = 10.0;
    /// Speculative execution: launch a backup attempt for a running task
    /// once its elapsed time exceeds
    ///   max(speculation_min_seconds, 2 * Quantile(speculation_quantile))
    /// of the per-operation runtime histogram, provided the histogram has
    /// at least speculation_min_samples completions and another healthy
    /// slave exists to run the backup.  quantile <= 0 disables.
    double speculation_quantile = 0.9;
    int speculation_min_samples = 3;
    double speculation_min_seconds = 0.25;
    /// Quarantine: a slave reaching this many consecutive non-environmental
    /// task failures is quarantined (no new work, hosted buckets
    /// invalidated) unless it is the last healthy slave.  0 disables.
    int quarantine_failure_threshold = 3;
    /// Quarantined slaves re-enter the healthy pool after this long.
    double probation_seconds = 5.0;
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

  /// Tell all slaves to quit and stop the server.  Idempotent.
  void Shutdown();

  /// Scheduler statistics (for benches and tests).
  struct Stats {
    int64_t tasks_assigned = 0;
    int64_t tasks_completed = 0;
    int64_t tasks_failed = 0;
    int64_t affinity_hits = 0;
    int64_t slaves_lost = 0;
    /// Completed tasks whose outputs were re-queued because their hosting
    /// slave died (lineage recovery).
    int64_t tasks_invalidated = 0;
    /// Recovery events: one per slave loss or bad-bucket report that
    /// invalidated at least one completed task.
    int64_t lineage_recoveries = 0;
    /// Process-wide transport retries since this master started (control
    /// channel / bucket fetches) — meaningful for in-process clusters.
    int64_t rpc_retries = 0;
    int64_t fetch_retries = 0;
    // ---- Elastic membership ------------------------------------------
    int64_t slaves_joined = 0;     // total successful signins
    int64_t mid_job_joins = 0;     // signins while a dataset was incomplete
    int64_t slaves_drained = 0;    // drain RPCs honoured
    int64_t slaves_quarantined = 0;
    int64_t probation_returns = 0;  // quarantine -> healthy transitions
    int64_t tasks_speculated = 0;   // backup attempts launched
    int64_t speculative_wins = 0;   // backups that finished first
    // ---- Iterative/BSP residency -------------------------------------
    /// Assignments whose pinned input was already cached on the assigned
    /// slave (inputs omitted; only the broadcast delta shipped).
    int64_t resident_hits = 0;
    /// resident:// cache misses reported by slaves (full inputs re-sent).
    int64_t resident_misses = 0;
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

  /// One running attempt of a task on a particular slave.
  struct RunningTask {
    double started = 0;        // NowSeconds() at assignment
    bool speculative = false;  // backup attempt of a straggler
  };

  struct SlaveInfo {
    int id = 0;
    std::string data_url_base;  // "http://host:port"
    double last_ping = 0;
    SlaveState state = SlaveState::kRegistering;
    /// Heartbeat cadence the slave reported at signin (0 = unknown); feeds
    /// the adaptive death threshold.
    double ping_interval = 0;
    double drain_deadline = 0;     // kDraining: forced release time
    double quarantine_until = 0;   // kQuarantined: probation end
    // Health ledger.
    int consecutive_failures = 0;
    int64_t task_failures = 0;
    int64_t task_successes = 0;
    double latency_ewma = 0;  // seconds; exponentially weighted task latency
    /// Task keys currently assigned to this slave.
    std::map<int64_t, RunningTask> running;
    /// Completed task keys whose output URLs point at this slave's data
    /// server — the lineage record consulted when the slave dies.
    std::set<int64_t> hosted;
    std::vector<int> pending_discards;
    /// Resident-input cache keys ("r/<dataset>/<split>") this slave is
    /// believed to hold (iterative/BSP mode).  While a key is present the
    /// master omits the input parts from assignments over that pinned
    /// split — only the broadcast delta ships.  Cleared on slave loss /
    /// drain / quarantine, pruned on dataset discard, and individually
    /// dropped when the slave reports a resident:// cache miss.
    std::set<std::string> resident_keys;
  };

  struct TaskRef {
    int dataset_id = 0;
    int source = 0;
    /// Backup attempt for a straggler: does not claim the task (the
    /// original attempt keeps running); valid only while the task state
    /// is still kRunning.
    bool speculative = false;
  };

  static int64_t TaskKey(int dataset_id, int source) {
    return static_cast<int64_t>(dataset_id) * 1000000 + source;
  }

  // RPC handlers.
  Result<XmlRpcValue> RpcSignin(const XmlRpcArray& params);
  Result<XmlRpcValue> RpcGetTask(const XmlRpcArray& params);
  Result<XmlRpcValue> RpcTaskDone(const XmlRpcArray& params);
  Result<XmlRpcValue> RpcTaskFailed(const XmlRpcArray& params);
  Result<XmlRpcValue> RpcPing(const XmlRpcArray& params);
  Result<XmlRpcValue> RpcDrain(const XmlRpcArray& params);

  // Scheduling internals.  The *Locked suffix is enforced by the
  // compiler: each declares MRS_REQUIRES(mutex_), so a call site that
  // does not hold the scheduler lock fails the -Wthread-safety build.
  void RegisterDataSetLocked(const DataSetPtr& dataset) MRS_REQUIRES(mutex_);
  void PromoteRunnableLocked() MRS_REQUIRES(mutex_);
  bool DataSetReadyLocked(const DataSet& dataset) const MRS_REQUIRES(mutex_);
  /// Build the wire assignment for `ref` going to `slave`.  When the
  /// task's input dataset is pinned resident and the slave already caches
  /// its split, the inputs are omitted (resident_cached) and only the
  /// per-round broadcast delta ships.
  Result<TaskAssignment> BuildAssignmentLocked(const TaskRef& ref,
                                               SlaveInfo& slave)
      MRS_REQUIRES(mutex_);
  /// Pick the next runnable task this slave may execute (inputs complete,
  /// still pending — or a speculative backup of a task still running
  /// elsewhere), preferring its affinity matches.  Prunes stale refs.
  /// Returns false if nothing is currently assignable.
  bool PickRunnableLocked(int slave_id, TaskRef* out, bool* affinity_hit)
      MRS_REQUIRES(mutex_);
  void RequeueTasksOfSlaveLocked(SlaveInfo& slave) MRS_REQUIRES(mutex_);
  /// Full reaction to a departed slave: requeue its running tasks (unless
  /// a twin attempt survives elsewhere), invalidate every completed task
  /// it hosted, and drop its affinity entries.
  void HandleSlaveLossLocked(SlaveInfo& slave) MRS_REQUIRES(mutex_);
  /// Lineage core: reset + requeue each completed task whose output lived
  /// on `slave`.  Returns the number of tasks invalidated.
  int InvalidateSlaveOutputsLocked(SlaveInfo& slave) MRS_REQUIRES(mutex_);
  /// React to an unreachable bucket URL reported by a fetching slave.
  /// Returns true if the failure was environmental (lineage repaired or
  /// already repaired) — such failures are not charged against the
  /// reporting task's attempt budget.
  bool RecoverLostUrlLocked(const std::string& bad_url) MRS_REQUIRES(mutex_);
  void FailJobLocked(Status status) MRS_REQUIRES(mutex_);
  /// True if a healthy slave other than `except_id` exists (quarantine
  /// and speculation both need somewhere else to run work).
  bool AnotherHealthySlaveLocked(int except_id) const MRS_REQUIRES(mutex_);
  /// True if a non-gone slave other than `except_id` currently runs `key`
  /// (its attempt survives, so the task need not be requeued).
  bool AnotherSlaveRunsLocked(int64_t key, int except_id) const
      MRS_REQUIRES(mutex_);
  /// Silence threshold for this slave: max(slave_timeout,
  /// missed_ping_limit * reported ping interval).
  double DeathTimeoutLocked(const SlaveInfo& slave) const
      MRS_REQUIRES(mutex_);
  /// Move a slave into quarantine: no new work, hosted buckets
  /// invalidated, probation timer armed.
  void QuarantineSlaveLocked(SlaveInfo& slave, double now)
      MRS_REQUIRES(mutex_);
  /// Launch backup attempts for running tasks past the straggler
  /// threshold.  Returns true if any backup was queued.
  bool ScanForStragglersLocked(double now) MRS_REQUIRES(mutex_);
  /// Refresh the mrs.master.slaves_{healthy,draining,quarantined} gauges.
  void UpdateMembershipGaugesLocked() MRS_REQUIRES(mutex_);
  /// Per-operation runtime histogram (created on first use).
  obs::Histogram* OpHistogramLocked(const std::string& op_name)
      MRS_REQUIRES(mutex_);
  void MonitorLoop();

  Config config_;
  std::unique_ptr<HttpServer> server_;
  XmlRpcDispatcher dispatcher_;

  mutable Mutex mutex_;
  CondVar sched_cv_;    // wakes long-polling get_task
  CondVar done_cv_;     // wakes Wait
  CondVar monitor_cv_;  // wakes MonitorLoop (shutdown)
  bool shutdown_ MRS_GUARDED_BY(mutex_) = false;
  Status job_status_ MRS_GUARDED_BY(mutex_);  // first unrecoverable failure

  std::map<int, DataSetPtr> datasets_ MRS_GUARDED_BY(mutex_);
  // Submitted, inputs not ready yet.
  std::vector<DataSetPtr> waiting_ MRS_GUARDED_BY(mutex_);
  std::deque<TaskRef> runnable_ MRS_GUARDED_BY(mutex_);
  std::map<int64_t, int> attempts_ MRS_GUARDED_BY(mutex_);
  std::map<int, SlaveInfo> slaves_ MRS_GUARDED_BY(mutex_);
  int next_slave_id_ MRS_GUARDED_BY(mutex_) = 1;
  // "op:source" -> slave id.
  std::map<std::string, int> affinity_ MRS_GUARDED_BY(mutex_);
  /// Task keys with a backup attempt outstanding (queued or running) —
  /// caps speculation at one backup per task.
  std::set<int64_t> speculated_ MRS_GUARDED_BY(mutex_);
  /// Per-operation task runtime distributions feeding the straggler
  /// threshold.  Owned by this master (not the process-wide registry) so
  /// concurrent masters in one process — the test norm — never mix
  /// samples; /status surfaces the derived quantiles.
  std::map<std::string, std::unique_ptr<obs::Histogram>> op_hist_
      MRS_GUARDED_BY(mutex_);
  Stats stats_ MRS_GUARDED_BY(mutex_);
  int64_t rpc_retries_base_ = 0;    // process counters at Init
  int64_t fetch_retries_base_ = 0;

  std::thread monitor_;
};

}  // namespace mrs
