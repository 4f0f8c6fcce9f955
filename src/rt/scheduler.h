// The master's scheduler: every membership, speculation and lineage
// decision, with no sockets, threads, locks or clock.
//
// It owns the job's datasets, the waiting and runnable queues, attempt
// counts, the slave roster, affinity, speculation and the per-operation
// runtime histograms.  Each event — a submit, a discard, a slave's signin,
// poll, completion, failure, ping or drain, a lost URL — is one method,
// and each time-dependent one takes `now`, in seconds on any monotonic
// scale.  Master (rt/master.h) is the network shell: it parses an RPC,
// takes its lock, reads the clock once, calls Tick(now) and then the
// event, and wakes its waiters.
//
// Tick makes the decisions that only the passing of time can trigger: a
// silent slave is declared gone, a drain is reaped, probation ends, a
// straggler gets a backup.  No thread watches the clock.  Each tick
// decision only takes effect through a later Poll, and idle slaves poll
// every long-poll period while busy ones ping every ping_interval, so
// that poll comes soon.  Tests drive the same object with explicit times
// (tests/test_scheduler.cpp).
#pragma once

#include <compare>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/status.h"
#include "core/dataset.h"
#include "obs/metrics.h"
#include "rt/protocol.h"

namespace mrs {

/// Membership state of a registered slave (DESIGN.md "Elastic
/// membership").  Signin admits a slave as kHealthy once its data server
/// has passed the health probe.
enum class SlaveState {
  kHealthy,      // schedulable
  kDraining,     // drain requested: no new work, awaiting release
  kQuarantined,  // failure threshold crossed: no new work until probation
  kGone,         // released, timed out, or crashed; may revive by polling
};

/// Lower-case state name ("healthy", ...) for /status and logs.
const char* SlaveStateName(SlaveState state);

/// One task: row `source` of dataset `dataset`.
struct TaskId {
  int dataset = 0;
  int source = 0;
  auto operator<=>(const TaskId&) const = default;
};

class Scheduler {
 public:
  struct Config {
    double slave_timeout = 15.0;  // seconds without ping before a slave is lost
    /// A slave reporting its ping interval at signin is declared gone
    /// after max(slave_timeout, missed_ping_limit * ping_interval) of
    /// silence — the roster adapts to per-slave heartbeat cadence instead
    /// of one global constant.
    int missed_ping_limit = 5;
    int max_task_attempts = 4;
    bool enable_affinity = true;
    /// Seconds a draining slave may linger awaiting release before the
    /// next event declares it gone (covers a slave that crashes mid-drain).
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

  /// A running task is a straggler once it exceeds this multiple of its
  /// operation's speculation_quantile runtime.
  static constexpr double kSpeculationMultiplier = 2.0;

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

  /// Every Stats counter: its field and its name, which is both its
  /// /status key and, after "mrs.master.", its metric name.
  struct Counter {
    int64_t Stats::*field;
    const char* name;
  };
  static constexpr Counter kCounters[] = {
      {&Stats::tasks_assigned, "tasks_assigned"},
      {&Stats::tasks_completed, "tasks_completed"},
      {&Stats::tasks_failed, "tasks_failed"},
      {&Stats::affinity_hits, "affinity_hits"},
      {&Stats::slaves_lost, "slaves_lost"},
      {&Stats::tasks_invalidated, "tasks_invalidated"},
      {&Stats::lineage_recoveries, "lineage_recoveries"},
      {&Stats::slaves_joined, "slaves_joined"},
      {&Stats::mid_job_joins, "mid_job_joins"},
      {&Stats::slaves_drained, "slaves_drained"},
      {&Stats::slaves_quarantined, "slaves_quarantined"},
      {&Stats::probation_returns, "probation_returns"},
      {&Stats::tasks_speculated, "tasks_speculated"},
      {&Stats::speculative_wins, "speculative_wins"},
      {&Stats::resident_hits, "resident_hits"},
      {&Stats::resident_misses, "resident_misses"},
  };

  /// One running attempt of a task on a particular slave.
  struct RunningTask {
    double started = 0;        // `now` at assignment
    bool speculative = false;  // backup attempt of a straggler
  };

  struct SlaveInfo {
    int id = 0;
    std::string data_url_base;  // "http://host:port"
    double last_ping = 0;
    SlaveState state = SlaveState::kHealthy;
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
    /// Tasks currently assigned to this slave.
    std::map<TaskId, RunningTask> running;
    /// Completed tasks whose output URLs point at this slave's data
    /// server — the lineage record consulted when the slave dies.
    std::set<TaskId> hosted;
    std::vector<int> pending_discards;
    /// Resident-input cache keys ("r/<dataset>/<split>") this slave is
    /// believed to hold (iterative/BSP mode).  While a key is present the
    /// master omits the input parts from assignments over that pinned
    /// split — only the broadcast delta ships.  Cleared on slave loss /
    /// drain / quarantine, pruned on dataset discard, and individually
    /// dropped when the slave reports a resident:// cache miss.
    std::set<std::string> resident_keys;
  };

  /// What a get_task poll answers, plus the dataset ids the slave should
  /// drop (discard notices piggyback on every reply).
  struct PollResult {
    enum class Kind { kWait, kTask, kQuit };
    Kind kind = Kind::kWait;
    TaskAssignment assignment;  // kTask only
    std::vector<int> discards;
  };

  explicit Scheduler(Config config) : config_(std::move(config)) {}

  // ---- Events ----------------------------------------------------------

  /// The time-driven decisions due at `now`: silent slaves become gone,
  /// overdue drains are reaped, probation ends, stragglers get one backup.
  /// Returns true if anything changed.
  bool Tick(double now);
  /// Register `dataset` and its lineage; its tasks queue once its input
  /// is complete.
  void Submit(const DataSetPtr& dataset);
  void Discard(const DataSetPtr& dataset);
  /// Admit a slave whose data server passed the health probe; returns its
  /// id.
  int SignIn(std::string data_url_base, double ping_interval, double now);
  /// A slave's get_task: revives a gone slave, releases a draining one
  /// with quit, and hands a healthy one the next runnable task (its
  /// affinity match first), or wait.  Fails the job, and returns the
  /// error, if the assignment cannot be built.
  Result<PollResult> Poll(int slave_id, double now);
  /// Record a completed row.  Duplicates (transport retries, the losing
  /// twin of a speculative race) and rows hosted by a slave that has left
  /// the healthy pool are dropped.
  Status TaskDone(int slave_id, TaskId task,
                  const std::vector<std::string>& urls, double now);
  /// A failed attempt.  A non-empty `bad_url` names an input the slave
  /// could not fetch: lineage repairs it and the attempt is not charged.
  /// `attempt` > 0 charges that attempt at most once; 0 (old slaves)
  /// charges every report.
  void TaskFailed(int slave_id, TaskId task, const std::string& message,
                  const std::string& bad_url, int64_t attempt, double now);
  Status Ping(int slave_id, double now);
  /// Retire a healthy or quarantined slave: no new work, its hosted rows
  /// re-run through lineage, and its next poll answers quit.
  Status Drain(int slave_id, double now);
  /// React to an unreachable bucket URL (a slave's bad_url, or a failed
  /// Collect fetch).  Returns true if the failure was environmental
  /// (lineage repaired or already repaired) — such failures are not
  /// charged against the reporting task's attempt budget.
  bool RecoverLostUrl(const std::string& bad_url);

  // ---- Read-only views (Master's waits and /status) ---------------------

  const Config& config() const { return config_; }
  const Stats& stats() const { return stats_; }
  /// The first unrecoverable failure (Ok while the job is healthy).
  const Status& job_status() const { return job_status_; }
  const std::map<int, DataSetPtr>& datasets() const { return datasets_; }
  const std::map<int, SlaveInfo>& slaves() const { return slaves_; }
  size_t num_runnable() const { return runnable_.size(); }
  size_t num_waiting() const { return waiting_.size(); }
  /// Slaves not gone.
  int num_present() const;
  /// Per-operation task runtime distributions feeding the straggler
  /// threshold.  Owned by this scheduler (not the process-wide registry)
  /// so concurrent masters in one process — the test norm — never mix
  /// samples; /status surfaces the derived quantiles.
  const std::map<std::string, obs::Histogram>& op_runtimes() const {
    return op_hist_;
  }

 private:
  struct TaskRef {
    TaskId task;
    /// Backup attempt for a straggler: does not claim the task (the
    /// original attempt keeps running); valid only while the task state
    /// is still kRunning.
    bool speculative = false;
  };

  /// The registered dataset holding `task`, or null if it was discarded
  /// or `task.source` is out of its range.
  DataSet* FindDataSet(TaskId task) const;
  void PromoteRunnable();
  /// Build the wire assignment for `ref` going to `slave`.  When the
  /// task's input dataset is pinned resident and the slave already caches
  /// its split, the inputs are omitted (resident_cached) and only the
  /// per-round broadcast delta ships.
  Result<TaskAssignment> BuildAssignment(const TaskRef& ref,
                                         SlaveInfo& slave);
  /// Pick the next runnable task this slave may execute (inputs complete,
  /// still pending — or a speculative backup of a task still running
  /// elsewhere), preferring its affinity matches.  Prunes stale refs.
  /// Returns false if nothing is currently assignable.
  bool PickRunnable(int slave_id, TaskRef* out, bool* affinity_hit);
  /// The one place a slave changes state.  Logs "slave <id> <why>" at
  /// `level` and refreshes the membership gauges.  Leaving the healthy
  /// pool is the full reaction to a departed slave: its running tasks
  /// requeue (unless a twin attempt survives elsewhere), every completed
  /// task it hosted is invalidated, and its resident caches and affinity
  /// entries drop.
  void SetState(SlaveInfo& slave, SlaveState to, LogLevel level,
                const std::string& why);
  /// Lineage core: reset + requeue each completed task whose output lived
  /// on `slave`.
  void InvalidateSlaveOutputs(SlaveInfo& slave);
  void FailJob(Status status);
  /// Add `n` to a Stats counter and to its process-wide metric, so a live
  /// master's activity is visible at /metrics without calling stats().
  void Count(int64_t Stats::*field, int64_t n = 1);
  /// True if a healthy slave other than `except_id` exists (quarantine
  /// and speculation both need somewhere else to run work).
  bool AnotherHealthySlave(int except_id) const;
  /// True if a non-gone slave other than `except_id` currently runs `task`
  /// (its attempt survives, so the task need not be requeued).
  bool AnotherSlaveRuns(TaskId task, int except_id) const;
  /// Silence threshold for this slave: max(slave_timeout,
  /// missed_ping_limit * reported ping interval).
  double DeathTimeout(const SlaveInfo& slave) const;
  /// Queue backup attempts for running tasks past the straggler
  /// threshold.  Returns true if any backup was queued.
  bool QueueBackups(double now);

  Config config_;
  Status job_status_;  // first unrecoverable failure
  std::map<int, DataSetPtr> datasets_;
  std::vector<DataSetPtr> waiting_;  // submitted, inputs not ready yet
  std::deque<TaskRef> runnable_;
  std::map<TaskId, int> attempts_;
  std::map<int, SlaveInfo> slaves_;
  int next_slave_id_ = 1;
  std::map<std::string, int> affinity_;  // "op:source" -> slave id
  /// Tasks with a backup attempt outstanding (queued or running) — caps
  /// speculation at one backup per task.
  std::set<TaskId> speculated_;
  std::map<std::string, obs::Histogram> op_hist_;
  Stats stats_;
};

}  // namespace mrs
