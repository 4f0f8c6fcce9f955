#include "rt/scheduler.h"

#include <algorithm>
#include <iterator>
#include <optional>

#include "common/strings.h"

namespace mrs {

namespace {
/// Parse "<base>/bucket/<dataset>/<source>/<split>" into its coordinates.
bool ParseBucketUrl(const std::string& url, int* dataset_id, int* source,
                    int* split) {
  size_t pos = url.find("/bucket/");
  if (pos == std::string::npos) return false;
  std::vector<std::string_view> parts =
      SplitChar(std::string_view(url).substr(pos + 8), '/');
  if (parts.size() < 3) return false;
  auto ds = ParseInt64(parts[0]);
  auto src = ParseInt64(parts[1]);
  auto sp = ParseInt64(parts[2]);
  if (!ds.has_value() || !src.has_value() || !sp.has_value()) return false;
  *dataset_id = static_cast<int>(*ds);
  *source = static_cast<int>(*src);
  *split = static_cast<int>(*sp);
  return true;
}

std::string TaskName(TaskId task) {
  return "task (" + std::to_string(task.dataset) + "," +
         std::to_string(task.source) + ")";
}

bool InputsReady(const DataSet& dataset) {
  return dataset.input() != nullptr && dataset.input()->Complete();
}
}  // namespace

const char* SlaveStateName(SlaveState state) {
  switch (state) {
    case SlaveState::kHealthy:
      return "healthy";
    case SlaveState::kDraining:
      return "draining";
    case SlaveState::kQuarantined:
      return "quarantined";
    case SlaveState::kGone:
      return "gone";
  }
  return "unknown";
}

// ---- Events -------------------------------------------------------------

bool Scheduler::Tick(double now) {
  bool changed = false;
  for (auto& [id, slave] : slaves_) {
    if (slave.state == SlaveState::kGone) continue;
    if (now - slave.last_ping > DeathTimeout(slave)) {
      Count(&Stats::slaves_lost);
      SetState(slave, SlaveState::kGone, LogLevel::kWarning,
               StrPrintf("lost (no contact for %gs)", DeathTimeout(slave)));
    } else if (slave.state == SlaveState::kDraining &&
               now >= slave.drain_deadline) {
      // The drained slave never came back for its release — it crashed
      // mid-drain, or its loop wedged.  Force the transition.
      SetState(slave, SlaveState::kGone, LogLevel::kWarning,
               "missed its drain deadline; declaring gone");
    } else if (slave.state == SlaveState::kQuarantined &&
               now >= slave.quarantine_until) {
      slave.consecutive_failures = 0;
      Count(&Stats::probation_returns);
      SetState(slave, SlaveState::kHealthy, LogLevel::kInfo,
               "completed probation; re-admitted");
    } else {
      continue;
    }
    changed = true;
  }
  if (config_.speculation_quantile > 0 && QueueBackups(now)) changed = true;
  return changed;
}

void Scheduler::Submit(const DataSetPtr& dataset) {
  for (DataSetPtr ds = dataset; ds != nullptr; ds = ds->input()) {
    datasets_[ds->id()] = ds;
  }
  waiting_.push_back(dataset);
  PromoteRunnable();
}

void Scheduler::Discard(const DataSetPtr& dataset) {
  datasets_.erase(dataset->id());
  const std::string resident_prefix =
      "r/" + std::to_string(dataset->id()) + "/";
  for (auto& [id, slave] : slaves_) {
    slave.pending_discards.push_back(dataset->id());
    // An unpinned-then-discarded resident dataset also loses its slave-side
    // caches (the piggybacked discard purges them on the slave).
    std::erase_if(slave.resident_keys, [&](const std::string& key) {
      return StartsWith(key, resident_prefix);
    });
  }
  dataset->Discard();
}

int Scheduler::SignIn(std::string data_url_base, double ping_interval,
                      double now) {
  int id = next_slave_id_++;
  SlaveInfo& slave = slaves_[id];
  slave.id = id;
  slave.data_url_base = std::move(data_url_base);
  slave.last_ping = now;
  slave.ping_interval = ping_interval;
  bool mid_job =
      std::any_of(datasets_.begin(), datasets_.end(),
                  [](const auto& d) { return !d.second->Complete(); });
  Count(&Stats::slaves_joined);
  if (mid_job) Count(&Stats::mid_job_joins);
  SetState(slave, SlaveState::kHealthy, LogLevel::kInfo,
           "signed in from " + slave.data_url_base +
               (mid_job ? " (mid-job join)" : ""));
  return id;
}

Result<Scheduler::PollResult> Scheduler::Poll(int slave_id, double now) {
  auto sit = slaves_.find(slave_id);
  if (sit == slaves_.end()) return NotFoundError("unknown slave");
  SlaveInfo& slave = sit->second;
  slave.last_ping = now;
  PollResult out;
  if (slave.state == SlaveState::kGone) {
    // A presumed-lost slave that polls again revives.
    slave.consecutive_failures = 0;
    SetState(slave, SlaveState::kHealthy, LogLevel::kInfo,
             "revived (polled after being declared gone)");
  }
  if (slave.state == SlaveState::kDraining) {
    // Release: its buckets were re-homed when the drain started, so the
    // slave may exit the moment it reads this.
    SetState(slave, SlaveState::kGone, LogLevel::kInfo,
             "drained; released with quit");
    out.kind = PollResult::Kind::kQuit;
    return out;
  }
  TaskRef ref;
  bool affinity_hit = false;
  // Quarantined slaves keep long-polling (it doubles as their liveness
  // signal) but are never assigned work until probation ends.
  while (slave.state == SlaveState::kHealthy &&
         PickRunnable(slave_id, &ref, &affinity_hit)) {
    DataSet& ds = *FindDataSet(ref.task);
    if (!ref.speculative && !ds.TryClaimTask(ref.task.source)) continue;
    Result<TaskAssignment> assignment = BuildAssignment(ref, slave);
    if (!assignment.ok()) {
      if (!ref.speculative) ds.ResetTask(ref.task.source);
      FailJob(assignment.status());
      return assignment.status();
    }
    if (affinity_hit) Count(&Stats::affinity_hits);
    slave.running[ref.task] = RunningTask{now, ref.speculative};
    Count(&Stats::tasks_assigned);
    out.kind = PollResult::Kind::kTask;
    out.assignment = std::move(*assignment);
    break;
  }
  out.discards.swap(slave.pending_discards);
  return out;
}

Status Scheduler::TaskDone(int slave_id, TaskId task,
                           const std::vector<std::string>& urls, double now) {
  auto sit = slaves_.find(slave_id);
  SlaveInfo* slave = sit == slaves_.end() ? nullptr : &sit->second;
  std::optional<RunningTask> run;
  if (slave != nullptr) {
    slave->last_ping = now;
    if (auto node = slave->running.extract(task)) run = node.mapped();
  }
  DataSet* ds = FindDataSet(task);
  if (ds == nullptr) return Status::Ok();  // dataset discarded; drop result
  if (static_cast<int>(urls.size()) != ds->num_splits()) {
    return ProtocolError("task_done url count mismatch");
  }
  if (ds->task_state(task.source) == TaskState::kComplete) {
    // Duplicate completion: a transport retry, or the losing attempt of a
    // speculative race.  Both attempts are lineage-deterministic, so the
    // first row to land is authoritative and this one is dropped.
    return Status::Ok();
  }
  std::vector<Bucket> row;
  row.reserve(urls.size());
  bool hosted_here = false;
  for (int p = 0; p < ds->num_splits(); ++p) {
    const std::string& url = urls[static_cast<size_t>(p)];
    if (slave != nullptr && StartsWith(url, slave->data_url_base + "/")) {
      hosted_here = true;
    }
    Bucket b(task.source, p);
    b.set_url(url);
    row.push_back(std::move(b));
  }
  if (hosted_here && slave->state != SlaveState::kHealthy) {
    // The reporting slave is draining, quarantined, or already declared
    // gone, and the row points at its own (retiring) data server.
    // Accepting it would re-poison lineage with URLs about to vanish —
    // drop it; the task was already requeued when the slave left the
    // healthy pool.  (file:// rows survive the slave and are accepted.)
    MRS_LOG(kInfo, "master")
        << "dropping completion of " << TaskName(task) << " from "
        << SlaveStateName(slave->state) << " slave " << slave_id
        << " (self-hosted buckets)";
    return Status::Ok();
  }
  ds->SetRow(task.source, std::move(row));
  Count(&Stats::tasks_completed);
  speculated_.erase(task);
  if (run.has_value() && run->speculative) {
    Count(&Stats::speculative_wins);
    MRS_LOG(kInfo, "master") << "speculative backup of " << TaskName(task)
                             << " finished first on slave " << slave_id;
  }

  if (slave != nullptr) {
    // Health ledger + runtime sample for the straggler threshold.
    slave->consecutive_failures = 0;
    ++slave->task_successes;
    if (run.has_value()) {
      double duration = now - run->started;
      slave->latency_ewma =
          slave->task_successes <= 1
              ? duration
              : 0.8 * slave->latency_ewma + 0.2 * duration;
      op_hist_[ds->options().op_name].Observe(duration);
    }
    // Lineage record: this slave's data server now hosts the row.  Shared-
    // filesystem (file://) outputs survive slave death and need no entry.
    if (hosted_here) slave->hosted.insert(task);
    // Residency bookkeeping: a slave that just ran a task over a pinned
    // input now caches that split's decoded records, so the next
    // superstep's assignment can omit the inputs.
    if (ds->input() != nullptr && ds->input()->resident()) {
      slave->resident_keys.insert("r/" + std::to_string(ds->input()->id()) +
                                  "/" + std::to_string(task.source));
    }
    // Record affinity for the corresponding task of the next iteration —
    // only toward a slave still in the healthy pool.
    if (slave->state == SlaveState::kHealthy) {
      affinity_[ds->options().op_name + ":" + std::to_string(task.source)] =
          slave_id;
    }
  }
  PromoteRunnable();
  return Status::Ok();
}

void Scheduler::TaskFailed(int slave_id, TaskId task,
                           const std::string& message,
                           const std::string& bad_url, int64_t attempt,
                           double now) {
  MRS_LOG(kWarning, "master") << TaskName(task) << " failed on slave "
                              << slave_id << ": " << message;
  Count(&Stats::tasks_failed);
  auto sit = slaves_.find(slave_id);
  SlaveInfo* slave = sit == slaves_.end() ? nullptr : &sit->second;
  if (slave != nullptr) {
    slave->last_ping = now;
    slave->running.erase(task);
  }

  // Lineage recovery: if the slave could not fetch an input bucket, the
  // producing slave's data is gone — re-run the producers.  Such failures
  // are environmental and do not consume the reporting task's attempts.
  // A resident:// report is the cache-miss analogue: the master promised a
  // cached pinned input the slave no longer holds (restart, eviction) —
  // clear the cache bit so the retry ships full inputs, and charge nothing.
  bool environmental;
  if (StartsWith(bad_url, kResidentMissScheme)) {
    std::string rkey = bad_url.substr(sizeof(kResidentMissScheme) - 1);
    if (slave != nullptr) slave->resident_keys.erase(rkey);
    Count(&Stats::resident_misses);
    MRS_LOG(kInfo, "master")
        << "slave " << slave_id << " missed resident cache " << rkey
        << "; re-sending full inputs on the next attempt";
    environmental = true;
  } else {
    environmental = !bad_url.empty() && RecoverLostUrl(bad_url);
  }

  if (!environmental) {
    // Health ledger: only failures of the task itself count against the
    // slave; environmental failures indict the departed peer, not the
    // reporter.
    if (slave != nullptr) {
      ++slave->task_failures;
      ++slave->consecutive_failures;
      // Never quarantine the last healthy slave: a degraded worker still
      // beats an empty pool (and the attempt budget bounds the damage).
      if (config_.quarantine_failure_threshold > 0 &&
          slave->state == SlaveState::kHealthy &&
          slave->consecutive_failures >=
              config_.quarantine_failure_threshold &&
          AnotherHealthySlave(slave_id)) {
        slave->quarantine_until = now + config_.probation_seconds;
        Count(&Stats::slaves_quarantined);
        SetState(*slave, SlaveState::kQuarantined, LogLevel::kWarning,
                 StrPrintf("quarantined after %d consecutive failures; "
                           "probation ends in %gs",
                           slave->consecutive_failures,
                           config_.probation_seconds));
      }
    }
    // Idempotent charging: the transport may deliver the same report twice
    // (client retry after a lost response), so an attempt-numbered report
    // moves the counter to that attempt rather than incrementing per
    // delivery — a duplicate is a no-op instead of a double charge.
    int& charged = attempts_[task];
    charged = attempt > 0 ? std::max(charged, static_cast<int>(attempt))
                          : charged + 1;
    if (charged >= config_.max_task_attempts) {
      FailJob(InternalError(
          TaskName(task) + " failed " + std::to_string(charged) +
          " times (max_task_attempts=" +
          std::to_string(config_.max_task_attempts) +
          "); last error: " + message));
      return;
    }
  }

  DataSet* ds = FindDataSet(task);
  // A twin attempt (speculative backup or original) still running
  // elsewhere will finish instead of a third copy being queued.
  if (ds == nullptr || AnotherSlaveRuns(task, slave_id)) return;
  speculated_.erase(task);
  if (ds->task_state(task.source) == TaskState::kRunning) {
    ds->ResetTask(task.source);
  }
  runnable_.push_back(TaskRef{task});
}

Status Scheduler::Ping(int slave_id, double now) {
  auto sit = slaves_.find(slave_id);
  if (sit == slaves_.end()) return NotFoundError("unknown slave");
  sit->second.last_ping = now;
  return Status::Ok();
}

Status Scheduler::Drain(int slave_id, double now) {
  auto sit = slaves_.find(slave_id);
  if (sit == slaves_.end()) return NotFoundError("unknown slave");
  SlaveInfo& slave = sit->second;
  slave.last_ping = now;
  if (slave.state == SlaveState::kHealthy ||
      slave.state == SlaveState::kQuarantined) {
    slave.drain_deadline = now + config_.drain_timeout;
    Count(&Stats::slaves_drained);
    // Re-home through lineage: its hosted rows re-execute on the
    // survivors, its running tasks requeue, its affinity entries drop.
    // The slave stays registered (and its data server up) until it polls
    // get_task and receives its release.
    SetState(slave, SlaveState::kDraining, LogLevel::kInfo,
             "draining: re-homing " + std::to_string(slave.hosted.size()) +
                 " hosted rows, requeueing " +
                 std::to_string(slave.running.size()) + " running tasks");
  }
  return Status::Ok();
}

bool Scheduler::RecoverLostUrl(const std::string& bad_url) {
  TaskId task;
  int split = 0;
  if (!ParseBucketUrl(bad_url, &task.dataset, &task.source, &split)) {
    return false;
  }
  DataSet* ds = FindDataSet(task);
  if (ds == nullptr || split < 0 || split >= ds->num_splits()) return false;
  if (ds->bucket(task.source, split).url() != bad_url) {
    // The row was already invalidated and recomputed (its URL moved); the
    // reporting task simply ran with a stale assignment.  Environmental —
    // requeue without charging an attempt.
    return true;
  }
  // The unreachable URL is current: its hosting slave's data server is
  // gone.  Treat the host as lost and invalidate everything it serves —
  // every other bucket behind that data server is equally unreachable.
  for (auto& [id, slave] : slaves_) {
    if (!StartsWith(bad_url, slave.data_url_base + "/")) continue;
    if (slave.state != SlaveState::kGone) {
      Count(&Stats::slaves_lost);
      SetState(slave, SlaveState::kGone, LogLevel::kWarning,
               "presumed lost (unreachable bucket " + bad_url + ")");
    }
    return true;
  }
  // Host already signed off / unknown: recover just this producing task.
  if (ds->task_state(task.source) == TaskState::kComplete) {
    ds->InvalidateTask(task.source);
    runnable_.push_back(TaskRef{task});
    Count(&Stats::tasks_invalidated);
    Count(&Stats::lineage_recoveries);
    MRS_LOG(kWarning, "master") << "re-running lineage " << TaskName(task)
                                << " for lost bucket " << bad_url;
  }
  return true;
}

int Scheduler::num_present() const {
  return static_cast<int>(
      std::count_if(slaves_.begin(), slaves_.end(), [](const auto& s) {
        return s.second.state != SlaveState::kGone;
      }));
}

// ---- Internals ----------------------------------------------------------

DataSet* Scheduler::FindDataSet(TaskId task) const {
  auto it = datasets_.find(task.dataset);
  if (it == datasets_.end() || task.source < 0 ||
      task.source >= it->second->num_sources()) {
    return nullptr;
  }
  return it->second.get();
}

void Scheduler::PromoteRunnable() {
  for (auto it = waiting_.begin(); it != waiting_.end();) {
    if (InputsReady(**it)) {
      for (int s = 0; s < (*it)->num_sources(); ++s) {
        runnable_.push_back(TaskRef{TaskId{(*it)->id(), s}});
      }
      it = waiting_.erase(it);
    } else {
      ++it;
    }
  }
}

Result<TaskAssignment> Scheduler::BuildAssignment(const TaskRef& ref,
                                                  SlaveInfo& slave) {
  DataSet& ds = *FindDataSet(ref.task);
  TaskAssignment assignment;
  assignment.dataset_id = ds.id();
  assignment.kind = ds.kind();
  assignment.source = ref.task.source;
  assignment.num_splits = ds.num_splits();
  // 1-based attempt number: prior failures + 1 (for slave-side spans).  A
  // speculative backup shares the original's attempt number — they race
  // toward the same completion, and failure charging dedups on max().
  auto ait = attempts_.find(ref.task);
  assignment.attempt = (ait == attempts_.end() ? 0 : ait->second) + 1;
  assignment.options = ds.options();
  DataSet& in = *ds.input();
  if (in.resident()) {
    assignment.resident_key =
        "r/" + std::to_string(in.id()) + "/" + std::to_string(ref.task.source);
    if (slave.resident_keys.count(assignment.resident_key) > 0) {
      // The superstep fast path: the slave holds the decoded split from a
      // previous round, so this round ships the cache key and the
      // broadcast delta — nothing else.
      assignment.resident_cached = true;
      Count(&Stats::resident_hits);
      return assignment;
    }
  }
  MRS_ASSIGN_OR_RETURN(assignment.inputs,
                       BuildTaskInputParts(in, ref.task.source));
  return assignment;
}

bool Scheduler::PickRunnable(int slave_id, TaskRef* out, bool* affinity_hit) {
  // One pass: prune refs that are stale (dataset discarded, or the task
  // already claimed/recomputed elsewhere), skip refs whose inputs are not
  // complete (they become assignable again once lineage repair finishes),
  // and among the eligible prefer this slave's affinity match.  Normal
  // refs are preferred over speculative backups; a backup is valid only
  // while the original attempt is still running, and never goes to the
  // slave already running the original.
  const SlaveInfo& requester = slaves_.at(slave_id);
  bool found = false;
  size_t pick = 0;
  bool affinity_pick = false;
  bool pick_is_speculative = false;
  for (size_t i = 0; i < runnable_.size();) {
    const TaskRef& ref = runnable_[i];
    DataSet* ds = FindDataSet(ref.task);
    if (ds == nullptr) {  // discarded meanwhile
      runnable_.erase(runnable_.begin() + static_cast<long>(i));
      continue;
    }
    if (ref.speculative) {
      if (ds->task_state(ref.task.source) != TaskState::kRunning) {
        // Original finished or was requeued: the backup is moot.
        speculated_.erase(ref.task);
        runnable_.erase(runnable_.begin() + static_cast<long>(i));
        continue;
      }
      if (requester.running.count(ref.task) > 0) {
        ++i;  // this slave already runs the original attempt
        continue;
      }
      if (!found) {
        found = true;
        pick = i;
        pick_is_speculative = true;
      }
      ++i;
      continue;
    }
    if (ds->task_state(ref.task.source) != TaskState::kPending) {
      // Duplicate ref (requeued by several recovery paths) — drop it.
      runnable_.erase(runnable_.begin() + static_cast<long>(i));
      continue;
    }
    if (!InputsReady(*ds)) {
      ++i;  // inputs lost to a dead slave; wait for the upstream re-run
      continue;
    }
    if (!found || pick_is_speculative) {
      found = true;
      pick = i;
      pick_is_speculative = false;
    }
    if (config_.enable_affinity) {
      auto ait = affinity_.find(ds->options().op_name + ":" +
                                std::to_string(ref.task.source));
      if (ait != affinity_.end() && ait->second == slave_id) {
        pick = i;
        affinity_pick = true;
        break;
      }
    }
    ++i;
  }
  if (!found) return false;
  *out = runnable_[pick];
  *affinity_hit = affinity_pick;
  runnable_.erase(runnable_.begin() + static_cast<long>(pick));
  return true;
}

void Scheduler::SetState(SlaveInfo& slave, SlaveState to, LogLevel level,
                         const std::string& why) {
  slave.state = to;
  if (level >= GetLogLevel()) {
    LogLine(level, "master", "slave " + std::to_string(slave.id) + " " + why);
  }
  if (to != SlaveState::kHealthy) {
    for (const auto& [task, run] : slave.running) {
      DataSet* ds = FindDataSet(task);
      if (ds == nullptr) continue;
      if (AnotherSlaveRuns(task, slave.id)) {
        // A twin attempt (speculation) survives on another slave: the task
        // stays running there and that attempt's completion will land.  If
        // the dying attempt was the backup, allow re-speculation.
        if (run.speculative) speculated_.erase(task);
        continue;
      }
      speculated_.erase(task);
      if (ds->task_state(task.source) == TaskState::kRunning) {
        ds->ResetTask(task.source);
        runnable_.push_back(TaskRef{task});
      }
    }
    slave.running.clear();
    InvalidateSlaveOutputs(slave);
    // Resident caches died with the slave's process state; a revived slave
    // must be re-sent full inputs before its cache bits return.
    slave.resident_keys.clear();
    // Corresponding tasks must stop chasing the departed slave, or every
    // future iteration wastes its long poll preferring an unreachable host.
    std::erase_if(affinity_,
                  [&](const auto& entry) { return entry.second == slave.id; });
  }
  // The mrs.master.slaves_{healthy,draining,quarantined} gauges.
  int counts[4] = {0, 0, 0, 0};
  for (const auto& [id, s] : slaves_) ++counts[static_cast<int>(s.state)];
  for (SlaveState s : {SlaveState::kHealthy, SlaveState::kDraining,
                       SlaveState::kQuarantined}) {
    obs::Registry::Instance()
        .GetGauge(std::string("mrs.master.slaves_") + SlaveStateName(s))
        ->Set(counts[static_cast<int>(s)]);
  }
}

void Scheduler::InvalidateSlaveOutputs(SlaveInfo& slave) {
  int invalidated = 0;
  for (TaskId task : slave.hosted) {
    DataSet* ds = FindDataSet(task);
    if (ds == nullptr) continue;  // discarded; nothing to recover
    if (ds->task_state(task.source) != TaskState::kComplete) continue;
    ds->InvalidateTask(task.source);
    runnable_.push_back(TaskRef{task});
    ++invalidated;
  }
  slave.hosted.clear();
  if (invalidated > 0) {
    Count(&Stats::tasks_invalidated, invalidated);
    Count(&Stats::lineage_recoveries);
    MRS_LOG(kWarning, "master")
        << "lineage recovery: invalidated " << invalidated
        << " completed tasks hosted on slave " << slave.id
        << "; their sub-DAG will re-run";
  }
}

void Scheduler::FailJob(Status status) {
  if (job_status_.ok()) job_status_ = std::move(status);
}

void Scheduler::Count(int64_t Stats::*field, int64_t n) {
  static const std::vector<obs::Counter*> metrics = [] {
    std::vector<obs::Counter*> out;
    for (const Counter& c : kCounters) {
      out.push_back(obs::Registry::Instance().GetCounter(
          std::string("mrs.master.") + c.name));
    }
    return out;
  }();
  stats_.*field += n;
  for (size_t i = 0; i < std::size(kCounters); ++i) {
    if (kCounters[i].field == field) metrics[i]->Inc(n);
  }
}

bool Scheduler::AnotherHealthySlave(int except_id) const {
  for (const auto& [id, s] : slaves_) {
    if (id != except_id && s.state == SlaveState::kHealthy) return true;
  }
  return false;
}

bool Scheduler::AnotherSlaveRuns(TaskId task, int except_id) const {
  for (const auto& [id, s] : slaves_) {
    if (id == except_id || s.state == SlaveState::kGone) continue;
    if (s.running.count(task) > 0) return true;
  }
  return false;
}

double Scheduler::DeathTimeout(const SlaveInfo& slave) const {
  double timeout = config_.slave_timeout;
  if (slave.ping_interval > 0 && config_.missed_ping_limit > 0) {
    timeout = std::max(timeout, config_.missed_ping_limit *
                                    slave.ping_interval);
  }
  return timeout;
}

bool Scheduler::QueueBackups(double now) {
  bool queued = false;
  for (auto& [id, slave] : slaves_) {
    if (slave.state == SlaveState::kGone) continue;
    for (const auto& [task, run] : slave.running) {
      if (run.speculative) continue;               // never back up a backup
      if (speculated_.count(task) > 0) continue;  // one backup per task
      DataSet* ds = FindDataSet(task);
      if (ds == nullptr) continue;
      if (ds->task_state(task.source) != TaskState::kRunning) continue;
      const obs::Histogram& hist = op_hist_[ds->options().op_name];
      if (hist.count() < config_.speculation_min_samples) continue;
      double threshold = std::max(
          config_.speculation_min_seconds,
          kSpeculationMultiplier * hist.Quantile(config_.speculation_quantile));
      if (now - run.started <= threshold) continue;
      if (!AnotherHealthySlave(id)) continue;  // nowhere to back up
      runnable_.push_back(TaskRef{task, /*speculative=*/true});
      speculated_.insert(task);
      Count(&Stats::tasks_speculated);
      MRS_LOG(kWarning, "master")
          << "straggler: " << TaskName(task) << " has run "
          << now - run.started << "s on slave " << id << " (threshold "
          << threshold << "s); launching speculative backup";
      queued = true;
    }
  }
  return queued;
}

}  // namespace mrs
