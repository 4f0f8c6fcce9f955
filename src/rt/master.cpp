#include "rt/master.h"

#include <algorithm>
#include <chrono>

#include "common/clock.h"
#include "common/log.h"
#include "common/retry.h"
#include "common/strings.h"
#include "core/fetch_registry.h"
#include "http/client.h"
#include "obs/endpoints.h"
#include "obs/metrics.h"

namespace mrs {

namespace {
double NowSeconds() { return RealClock::Instance().Now(); }

/// How long get_task waits for work before answering "wait".
constexpr double kLongPollSeconds = 0.25;
/// A running task is a straggler once it exceeds this multiple of its
/// operation's speculation_quantile runtime (Master::Config).
constexpr double kSpeculationMultiplier = 2.0;

/// Process-wide mirrors of the scheduler counters, so a live master's
/// activity is visible at /metrics without calling stats().
struct MasterCounters {
  obs::Counter* tasks_assigned;
  obs::Counter* tasks_completed;
  obs::Counter* tasks_failed;
  obs::Counter* affinity_hits;
  obs::Counter* slaves_lost;
  obs::Counter* tasks_invalidated;
  obs::Counter* lineage_recoveries;
  obs::Counter* slaves_joined;
  obs::Counter* mid_job_joins;
  obs::Counter* slaves_drained;
  obs::Counter* slaves_quarantined;
  obs::Counter* probation_returns;
  obs::Counter* tasks_speculated;
  obs::Counter* speculative_wins;
  obs::Counter* resident_hits;
  obs::Counter* resident_misses;

  static MasterCounters& Get() {
    static MasterCounters c = [] {
      obs::Registry& reg = obs::Registry::Instance();
      return MasterCounters{reg.GetCounter("mrs.master.tasks_assigned"),
                            reg.GetCounter("mrs.master.tasks_completed"),
                            reg.GetCounter("mrs.master.tasks_failed"),
                            reg.GetCounter("mrs.master.affinity_hits"),
                            reg.GetCounter("mrs.master.slaves_lost"),
                            reg.GetCounter("mrs.master.tasks_invalidated"),
                            reg.GetCounter("mrs.master.lineage_recoveries"),
                            reg.GetCounter("mrs.master.slaves_joined"),
                            reg.GetCounter("mrs.master.mid_job_joins"),
                            reg.GetCounter("mrs.master.slaves_drained"),
                            reg.GetCounter("mrs.master.slaves_quarantined"),
                            reg.GetCounter("mrs.master.probation_returns"),
                            reg.GetCounter("mrs.master.tasks_speculated"),
                            reg.GetCounter("mrs.master.speculative_wins"),
                            reg.GetCounter("mrs.master.resident_hits"),
                            reg.GetCounter("mrs.master.resident_misses")};
    }();
    return c;
  }
};

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
}  // namespace

const char* SlaveStateName(SlaveState state) {
  switch (state) {
    case SlaveState::kRegistering:
      return "registering";
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

Master::Master(Config config) : config_(std::move(config)) {}

Result<std::unique_ptr<Master>> Master::Start(Config config) {
  std::unique_ptr<Master> master(new Master(std::move(config)));
  MRS_RETURN_IF_ERROR(master->Init());
  return master;
}

Status Master::Init() {
  dispatcher_.Register("signin", [this](const XmlRpcArray& p) {
    return RpcSignin(p);
  });
  dispatcher_.Register("get_task", [this](const XmlRpcArray& p) {
    return RpcGetTask(p);
  });
  dispatcher_.Register("task_done", [this](const XmlRpcArray& p) {
    return RpcTaskDone(p);
  });
  dispatcher_.Register("task_failed", [this](const XmlRpcArray& p) {
    return RpcTaskFailed(p);
  });
  dispatcher_.Register("ping", [this](const XmlRpcArray& p) {
    return RpcPing(p);
  });
  dispatcher_.Register("drain", [this](const XmlRpcArray& p) {
    return RpcDrain(p);
  });

  // Non-RPC paths fall through to the observability endpoints: /metrics,
  // /status (the JSON below), and /trace.
  MRS_ASSIGN_OR_RETURN(
      server_,
      HttpServer::Start(
          config_.host, config_.port,
          dispatcher_.MakeHttpHandler(
              "/RPC2", obs::MakeObsHandler([this] { return StatusJson(); },
                                           nullptr))));
  rpc_retries_base_ = RpcRetryCount();
  fetch_retries_base_ = FetchRetryCount();
  monitor_ = std::thread([this] { MonitorLoop(); });
  MRS_LOG(kInfo, "master") << "listening on " << server_->addr().ToString();
  return Status::Ok();
}

Master::~Master() { Shutdown(); }

void Master::Shutdown() {
  {
    MutexLock lock(mutex_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  sched_cv_.NotifyAll();
  done_cv_.NotifyAll();
  monitor_cv_.NotifyAll();
  if (monitor_.joinable()) monitor_.join();
  // Give slaves a moment to pick up the quit response before the server
  // goes away; they also handle connection failures gracefully.
  server_->Shutdown();
}

Status Master::WaitForSlaves(int n, double timeout_seconds) {
  auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_seconds));
  MutexLock lock(mutex_);
  while (true) {
    int present = 0;
    for (const auto& [id, s] : slaves_) {
      if (s.state != SlaveState::kGone) ++present;
    }
    if (present >= n || shutdown_) return Status::Ok();
    if (!sched_cv_.WaitUntil(mutex_, deadline)) {
      return DeadlineExceededError("timed out waiting for " +
                                   std::to_string(n) + " slaves");
    }
  }
}

int Master::num_slaves() const {
  MutexLock lock(mutex_);
  int present = 0;
  for (const auto& [id, s] : slaves_) {
    if (s.state != SlaveState::kGone) ++present;
  }
  return present;
}

Master::Stats Master::stats() const {
  MutexLock lock(mutex_);
  Stats out = stats_;
  out.rpc_retries = RpcRetryCount() - rpc_retries_base_;
  out.fetch_retries = FetchRetryCount() - fetch_retries_base_;
  return out;
}

bool Master::WaitUntilStats(const std::function<bool(const Stats&)>& pred,
                            double timeout_seconds) {
  auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_seconds));
  MutexLock lock(mutex_);
  while (true) {
    Stats snapshot = stats_;
    snapshot.rpc_retries = RpcRetryCount() - rpc_retries_base_;
    snapshot.fetch_retries = FetchRetryCount() - fetch_retries_base_;
    if (pred(snapshot)) return true;
    if (shutdown_) return false;
    // Bounded slices rather than a bare wait: the retry counters are
    // process-wide atomics with no associated cv, so poll them too.
    auto slice = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(25);
    auto until = slice < deadline ? slice : deadline;
    if (!done_cv_.WaitUntil(mutex_, until) &&
        std::chrono::steady_clock::now() >= deadline) {
      Stats last = stats_;
      last.rpc_retries = RpcRetryCount() - rpc_retries_base_;
      last.fetch_retries = FetchRetryCount() - fetch_retries_base_;
      return pred(last);
    }
  }
}

std::string Master::StatusJson() const {
  MutexLock lock(mutex_);
  double now = NowSeconds();
  std::string out;
  out.reserve(2048);
  out += "{\"role\":\"master\",";
  out += "\"job\":{\"ok\":";
  out += job_status_.ok() ? "true" : "false";
  if (!job_status_.ok()) {
    out += ",\"error\":\"" + obs::JsonEscape(job_status_.message()) + "\"";
  }
  out += ",\"shutdown\":";
  out += shutdown_ ? "true" : "false";
  out += "},";

  out += "\"datasets\":[";
  bool first = true;
  for (const auto& [id, ds] : datasets_) {
    if (!first) out += ",";
    first = false;
    out += "{\"id\":" + std::to_string(id);
    out += ",\"kind\":\"";
    out += ds->kind() == DataSetKind::kMap ? "map" : "reduce";
    out += "\",\"sources\":" + std::to_string(ds->num_sources());
    out += ",\"splits\":" + std::to_string(ds->num_splits());
    out += ",\"complete_tasks\":" + std::to_string(ds->NumCompleteTasks());
    out += ",\"complete\":";
    out += ds->Complete() ? "true" : "false";
    out += "}";
  }
  out += "],";
  out += "\"queue\":{\"runnable\":" + std::to_string(runnable_.size());
  out += ",\"waiting\":" + std::to_string(waiting_.size()) + "},";

  int healthy = 0, draining = 0, quarantined = 0, gone = 0;
  out += "\"slaves\":[";
  first = true;
  for (const auto& [id, slave] : slaves_) {
    switch (slave.state) {
      case SlaveState::kHealthy:
        ++healthy;
        break;
      case SlaveState::kDraining:
        ++draining;
        break;
      case SlaveState::kQuarantined:
        ++quarantined;
        break;
      case SlaveState::kGone:
        ++gone;
        break;
      case SlaveState::kRegistering:
        break;
    }
    if (!first) out += ",";
    first = false;
    out += "{\"id\":" + std::to_string(id);
    out += ",\"state\":\"";
    out += SlaveStateName(slave.state);
    out += "\",\"alive\":";
    out += slave.state != SlaveState::kGone ? "true" : "false";
    out += ",\"data_url\":\"" + obs::JsonEscape(slave.data_url_base) + "\"";
    out += ",\"last_ping_age_seconds\":" +
           std::to_string(now - slave.last_ping);
    out += ",\"ping_interval\":" + std::to_string(slave.ping_interval);
    out += ",\"running_tasks\":" + std::to_string(slave.running.size());
    out += ",\"hosted_rows\":" + std::to_string(slave.hosted.size());
    // Health ledger: the inputs to quarantine and speculation decisions.
    out += ",\"health\":{\"consecutive_failures\":" +
           std::to_string(slave.consecutive_failures);
    out += ",\"task_failures\":" + std::to_string(slave.task_failures);
    out += ",\"task_successes\":" + std::to_string(slave.task_successes);
    out += ",\"latency_ewma_seconds\":" + std::to_string(slave.latency_ewma);
    out += "}}";
  }
  out += "],";

  out += "\"membership\":{\"healthy\":" + std::to_string(healthy);
  out += ",\"draining\":" + std::to_string(draining);
  out += ",\"quarantined\":" + std::to_string(quarantined);
  out += ",\"gone\":" + std::to_string(gone) + "},";

  // Live values of the elasticity knobs, so an operator reading /status
  // sees the thresholds actually in force (not the defaults in a README).
  out += "\"health_config\":{";
  out += "\"slave_timeout\":" + std::to_string(config_.slave_timeout);
  out += ",\"missed_ping_limit\":" + std::to_string(config_.missed_ping_limit);
  out += ",\"drain_timeout\":" + std::to_string(config_.drain_timeout);
  out += ",\"speculation_quantile\":" +
         std::to_string(std::max(config_.speculation_quantile, 0.0));
  out += ",\"speculation_multiplier\":" +
         std::to_string(kSpeculationMultiplier);
  out += ",\"speculation_min_samples\":" +
         std::to_string(config_.speculation_min_samples);
  out += ",\"speculation_min_seconds\":" +
         std::to_string(config_.speculation_min_seconds);
  out += ",\"quarantine_failure_threshold\":" +
         std::to_string(config_.quarantine_failure_threshold);
  out += ",\"probation_seconds\":" + std::to_string(config_.probation_seconds);
  out += "},";

  // Observed per-operation runtime quantiles driving the straggler
  // threshold (bucketed upper bounds, not exact).
  out += "\"op_runtimes\":[";
  first = true;
  for (const auto& [op, hist] : op_hist_) {
    if (!first) out += ",";
    first = false;
    out += "{\"op\":\"" + obs::JsonEscape(op) + "\"";
    out += ",\"count\":" + std::to_string(hist->count());
    out += ",\"p50_seconds\":" + std::to_string(hist->Quantile(0.5));
    out += ",\"p90_seconds\":" + std::to_string(hist->Quantile(0.9));
    out += "}";
  }
  out += "],";

  out += "\"stats\":{";
  out += "\"tasks_assigned\":" + std::to_string(stats_.tasks_assigned);
  out += ",\"tasks_completed\":" + std::to_string(stats_.tasks_completed);
  out += ",\"tasks_failed\":" + std::to_string(stats_.tasks_failed);
  out += ",\"affinity_hits\":" + std::to_string(stats_.affinity_hits);
  out += ",\"slaves_lost\":" + std::to_string(stats_.slaves_lost);
  out += ",\"tasks_invalidated\":" + std::to_string(stats_.tasks_invalidated);
  out += ",\"lineage_recoveries\":" +
         std::to_string(stats_.lineage_recoveries);
  out += ",\"slaves_joined\":" + std::to_string(stats_.slaves_joined);
  out += ",\"mid_job_joins\":" + std::to_string(stats_.mid_job_joins);
  out += ",\"slaves_drained\":" + std::to_string(stats_.slaves_drained);
  out += ",\"slaves_quarantined\":" +
         std::to_string(stats_.slaves_quarantined);
  out += ",\"probation_returns\":" + std::to_string(stats_.probation_returns);
  out += ",\"tasks_speculated\":" + std::to_string(stats_.tasks_speculated);
  out += ",\"speculative_wins\":" + std::to_string(stats_.speculative_wins);
  out += ",\"rpc_retries\":" +
         std::to_string(RpcRetryCount() - rpc_retries_base_);
  out += ",\"fetch_retries\":" +
         std::to_string(FetchRetryCount() - fetch_retries_base_);
  out += "}}";
  return out;
}

// ---- Runner-facing ----------------------------------------------------

void Master::Submit(const DataSetPtr& dataset) {
  {
    MutexLock lock(mutex_);
    RegisterDataSetLocked(dataset);
    waiting_.push_back(dataset);
    PromoteRunnableLocked();
  }
  sched_cv_.NotifyAll();
}

Status Master::Wait(const DataSetPtr& dataset) {
  MutexLock lock(mutex_);
  while (!(dataset->Complete() || !job_status_.ok() || shutdown_)) {
    done_cv_.Wait(mutex_);
  }
  if (!job_status_.ok()) return job_status_;
  if (!dataset->Complete()) {
    return CancelledError("master shut down before dataset completed");
  }
  return Status::Ok();
}

void Master::Discard(const DataSetPtr& dataset) {
  MutexLock lock(mutex_);
  datasets_.erase(dataset->id());
  const std::string resident_prefix =
      "r/" + std::to_string(dataset->id()) + "/";
  for (auto& [id, slave] : slaves_) {
    slave.pending_discards.push_back(dataset->id());
    // An unpinned-then-discarded resident dataset also loses its slave-side
    // caches (the piggybacked discard purges them on the slave).
    for (auto it = slave.resident_keys.begin();
         it != slave.resident_keys.end();) {
      if (StartsWith(*it, resident_prefix)) {
        it = slave.resident_keys.erase(it);
      } else {
        ++it;
      }
    }
  }
  dataset->Discard();
}

UrlFetcher Master::fetcher() const {
  // Collect()-side fetches get the same transient-failure tolerance as
  // slave-side input fetches.
  return [](const std::string& url) {
    return ResolveUrlWithRetry(url, DefaultFetchRetryPolicy());
  };
}

bool Master::RecoverLostUrl(const std::string& url) {
  bool recovered;
  {
    MutexLock lock(mutex_);
    recovered = RecoverLostUrlLocked(url);
  }
  sched_cv_.NotifyAll();
  done_cv_.NotifyAll();
  return recovered;
}

// ---- Scheduling -------------------------------------------------------

void Master::RegisterDataSetLocked(const DataSetPtr& dataset) {
  for (DataSetPtr ds = dataset; ds != nullptr; ds = ds->input()) {
    datasets_[ds->id()] = ds;
  }
}

bool Master::DataSetReadyLocked(const DataSet& dataset) const {
  return dataset.input() != nullptr && dataset.input()->Complete();
}

void Master::PromoteRunnableLocked() {
  for (auto it = waiting_.begin(); it != waiting_.end();) {
    if (DataSetReadyLocked(**it)) {
      for (int s = 0; s < (*it)->num_sources(); ++s) {
        runnable_.push_back(TaskRef{(*it)->id(), s});
      }
      it = waiting_.erase(it);
    } else {
      ++it;
    }
  }
}

Result<TaskAssignment> Master::BuildAssignmentLocked(const TaskRef& ref,
                                                     SlaveInfo& slave) {
  auto it = datasets_.find(ref.dataset_id);
  if (it == datasets_.end()) {
    return NotFoundError("dataset " + std::to_string(ref.dataset_id) +
                         " no longer registered");
  }
  DataSet& ds = *it->second;
  TaskAssignment assignment;
  assignment.dataset_id = ds.id();
  assignment.kind = ds.kind();
  assignment.source = ref.source;
  assignment.num_splits = ds.num_splits();
  // 1-based attempt number: prior failures + 1 (for slave-side spans).  A
  // speculative backup shares the original's attempt number — they race
  // toward the same completion, and failure charging dedups on max().
  auto ait = attempts_.find(TaskKey(ref.dataset_id, ref.source));
  assignment.attempt = (ait == attempts_.end() ? 0 : ait->second) + 1;
  assignment.options = ds.options();
  DataSet& in = *ds.input();
  if (in.resident()) {
    assignment.resident_key =
        "r/" + std::to_string(in.id()) + "/" + std::to_string(ref.source);
    if (slave.resident_keys.count(assignment.resident_key) > 0) {
      // The superstep fast path: the slave holds the decoded split from a
      // previous round, so this round ships the cache key and the
      // broadcast delta — nothing else.
      assignment.resident_cached = true;
      ++stats_.resident_hits;
      MasterCounters::Get().resident_hits->Inc();
      return assignment;
    }
  }
  MRS_ASSIGN_OR_RETURN(assignment.inputs,
                       BuildTaskInputParts(*ds.input(), ref.source));
  return assignment;
}

bool Master::PickRunnableLocked(int slave_id, TaskRef* out,
                                bool* affinity_hit) {
  // One pass: prune refs that are stale (dataset discarded, or the task
  // already claimed/recomputed elsewhere), skip refs whose inputs are not
  // complete (they become assignable again once lineage repair finishes),
  // and among the eligible prefer this slave's affinity match.  Normal
  // refs are preferred over speculative backups; a backup is valid only
  // while the original attempt is still running, and never goes to the
  // slave already running the original.
  auto requester = slaves_.find(slave_id);
  bool found = false;
  size_t pick = 0;
  bool affinity_pick = false;
  bool pick_is_speculative = false;
  for (size_t i = 0; i < runnable_.size();) {
    const TaskRef& ref = runnable_[i];
    auto dsit = datasets_.find(ref.dataset_id);
    if (dsit == datasets_.end()) {  // discarded meanwhile
      runnable_.erase(runnable_.begin() + static_cast<long>(i));
      continue;
    }
    DataSet& ds = *dsit->second;
    int64_t key = TaskKey(ref.dataset_id, ref.source);
    if (ref.speculative) {
      if (ds.task_state(ref.source) != TaskState::kRunning) {
        // Original finished or was requeued: the backup is moot.
        speculated_.erase(key);
        runnable_.erase(runnable_.begin() + static_cast<long>(i));
        continue;
      }
      if (requester != slaves_.end() &&
          requester->second.running.count(key) > 0) {
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
    if (ds.task_state(ref.source) != TaskState::kPending) {
      // Duplicate ref (requeued by several recovery paths) — drop it.
      runnable_.erase(runnable_.begin() + static_cast<long>(i));
      continue;
    }
    if (!DataSetReadyLocked(ds)) {
      ++i;  // inputs lost to a dead slave; wait for the upstream re-run
      continue;
    }
    if (!found || pick_is_speculative) {
      found = true;
      pick = i;
      pick_is_speculative = false;
    }
    if (config_.enable_affinity) {
      std::string akey =
          ds.options().op_name + ":" + std::to_string(ref.source);
      auto ait = affinity_.find(akey);
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

bool Master::AnotherHealthySlaveLocked(int except_id) const {
  for (const auto& [id, s] : slaves_) {
    if (id != except_id && s.state == SlaveState::kHealthy) return true;
  }
  return false;
}

bool Master::AnotherSlaveRunsLocked(int64_t key, int except_id) const {
  for (const auto& [id, s] : slaves_) {
    if (id == except_id || s.state == SlaveState::kGone) continue;
    if (s.running.count(key) > 0) return true;
  }
  return false;
}

double Master::DeathTimeoutLocked(const SlaveInfo& slave) const {
  double timeout = config_.slave_timeout;
  if (slave.ping_interval > 0 && config_.missed_ping_limit > 0) {
    timeout = std::max(timeout, config_.missed_ping_limit *
                                    slave.ping_interval);
  }
  return timeout;
}

void Master::RequeueTasksOfSlaveLocked(SlaveInfo& slave) {
  for (const auto& [key, run] : slave.running) {
    int dataset_id = static_cast<int>(key / 1000000);
    int source = static_cast<int>(key % 1000000);
    auto it = datasets_.find(dataset_id);
    if (it == datasets_.end()) continue;
    if (AnotherSlaveRunsLocked(key, slave.id)) {
      // A twin attempt (speculation) survives on another slave: the task
      // stays running there and that attempt's completion will land.  If
      // the dying attempt was the backup, allow re-speculation.
      if (run.speculative) speculated_.erase(key);
      continue;
    }
    speculated_.erase(key);
    if (it->second->task_state(source) == TaskState::kRunning) {
      it->second->ResetTask(source);
      runnable_.push_back(TaskRef{dataset_id, source});
    }
  }
  slave.running.clear();
}

int Master::InvalidateSlaveOutputsLocked(SlaveInfo& slave) {
  int invalidated = 0;
  for (int64_t key : slave.hosted) {
    int dataset_id = static_cast<int>(key / 1000000);
    int source = static_cast<int>(key % 1000000);
    auto it = datasets_.find(dataset_id);
    if (it == datasets_.end()) continue;  // discarded; nothing to recover
    DataSet& ds = *it->second;
    if (ds.task_state(source) != TaskState::kComplete) continue;
    ds.InvalidateTask(source);
    runnable_.push_back(TaskRef{dataset_id, source});
    ++invalidated;
  }
  slave.hosted.clear();
  if (invalidated > 0) {
    stats_.tasks_invalidated += invalidated;
    ++stats_.lineage_recoveries;
    MasterCounters::Get().tasks_invalidated->Inc(invalidated);
    MasterCounters::Get().lineage_recoveries->Inc();
    MRS_LOG(kWarning, "master")
        << "lineage recovery: invalidated " << invalidated
        << " completed tasks hosted on slave " << slave.id
        << "; their sub-DAG will re-run";
  }
  return invalidated;
}

void Master::HandleSlaveLossLocked(SlaveInfo& slave) {
  RequeueTasksOfSlaveLocked(slave);
  InvalidateSlaveOutputsLocked(slave);
  // Resident caches died with the slave's process state; a revived slave
  // must be re-sent full inputs before its cache bits return.
  slave.resident_keys.clear();
  // Corresponding tasks must stop chasing the departed slave, or every
  // future iteration wastes its long poll preferring an unreachable host.
  for (auto it = affinity_.begin(); it != affinity_.end();) {
    if (it->second == slave.id) {
      it = affinity_.erase(it);
    } else {
      ++it;
    }
  }
}

void Master::QuarantineSlaveLocked(SlaveInfo& slave, double now) {
  slave.state = SlaveState::kQuarantined;
  slave.quarantine_until = now + config_.probation_seconds;
  ++stats_.slaves_quarantined;
  MasterCounters::Get().slaves_quarantined->Inc();
  MRS_LOG(kWarning, "master")
      << "slave " << slave.id << " quarantined after "
      << slave.consecutive_failures
      << " consecutive failures; probation ends in "
      << config_.probation_seconds << "s";
  HandleSlaveLossLocked(slave);
  UpdateMembershipGaugesLocked();
}

bool Master::RecoverLostUrlLocked(const std::string& bad_url) {
  int dataset_id = 0, source = 0, split = 0;
  if (!ParseBucketUrl(bad_url, &dataset_id, &source, &split)) return false;
  auto dsit = datasets_.find(dataset_id);
  if (dsit == datasets_.end()) return false;
  DataSet& ds = *dsit->second;
  if (source < 0 || source >= ds.num_sources() || split < 0 ||
      split >= ds.num_splits()) {
    return false;
  }
  if (ds.bucket(source, split).url() != bad_url) {
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
      MRS_LOG(kWarning, "master")
          << "slave " << id << " presumed lost (unreachable bucket "
          << bad_url << ")";
      slave.state = SlaveState::kGone;
      ++stats_.slaves_lost;
      MasterCounters::Get().slaves_lost->Inc();
      UpdateMembershipGaugesLocked();
    }
    HandleSlaveLossLocked(slave);
    return true;
  }
  // Host already signed off / unknown: recover just this producing task.
  if (ds.task_state(source) == TaskState::kComplete) {
    ds.InvalidateTask(source);
    runnable_.push_back(TaskRef{dataset_id, source});
    ++stats_.tasks_invalidated;
    ++stats_.lineage_recoveries;
    MasterCounters::Get().tasks_invalidated->Inc();
    MasterCounters::Get().lineage_recoveries->Inc();
    MRS_LOG(kWarning, "master")
        << "re-running lineage task (" << dataset_id << "," << source
        << ") for lost bucket " << bad_url;
  }
  return true;
}

void Master::FailJobLocked(Status status) {
  if (job_status_.ok()) job_status_ = std::move(status);
}

obs::Histogram* Master::OpHistogramLocked(const std::string& op_name) {
  auto& slot = op_hist_[op_name];
  if (slot == nullptr) slot = std::make_unique<obs::Histogram>();
  return slot.get();
}

void Master::UpdateMembershipGaugesLocked() {
  static obs::Gauge* healthy =
      obs::Registry::Instance().GetGauge("mrs.master.slaves_healthy");
  static obs::Gauge* draining =
      obs::Registry::Instance().GetGauge("mrs.master.slaves_draining");
  static obs::Gauge* quarantined =
      obs::Registry::Instance().GetGauge("mrs.master.slaves_quarantined");
  int h = 0, d = 0, q = 0;
  for (const auto& [id, s] : slaves_) {
    if (s.state == SlaveState::kHealthy) ++h;
    if (s.state == SlaveState::kDraining) ++d;
    if (s.state == SlaveState::kQuarantined) ++q;
  }
  healthy->Set(h);
  draining->Set(d);
  quarantined->Set(q);
}

bool Master::ScanForStragglersLocked(double now) {
  bool queued = false;
  for (auto& [id, slave] : slaves_) {
    if (slave.state == SlaveState::kGone) continue;
    for (const auto& [key, run] : slave.running) {
      if (run.speculative) continue;        // never back up a backup
      if (speculated_.count(key) > 0) continue;  // one backup per task
      int dataset_id = static_cast<int>(key / 1000000);
      int source = static_cast<int>(key % 1000000);
      auto dsit = datasets_.find(dataset_id);
      if (dsit == datasets_.end()) continue;
      DataSet& ds = *dsit->second;
      if (ds.task_state(source) != TaskState::kRunning) continue;
      obs::Histogram* hist = OpHistogramLocked(ds.options().op_name);
      if (hist->count() < config_.speculation_min_samples) continue;
      double threshold =
          std::max(config_.speculation_min_seconds,
                   kSpeculationMultiplier *
                       hist->Quantile(config_.speculation_quantile));
      if (now - run.started <= threshold) continue;
      if (!AnotherHealthySlaveLocked(id)) continue;  // nowhere to back up
      runnable_.push_back(TaskRef{dataset_id, source, /*speculative=*/true});
      speculated_.insert(key);
      ++stats_.tasks_speculated;
      MasterCounters::Get().tasks_speculated->Inc();
      MRS_LOG(kWarning, "master")
          << "straggler: task (" << dataset_id << "," << source
          << ") has run " << now - run.started << "s on slave " << id
          << " (threshold " << threshold
          << "s); launching speculative backup";
      queued = true;
    }
  }
  return queued;
}

void Master::MonitorLoop() {
  MutexLock lock(mutex_);
  while (!shutdown_) {
    monitor_cv_.WaitFor(mutex_, config_.monitor_interval);
    if (shutdown_) return;
    double now = NowSeconds();
    bool changed = false;
    for (auto& [id, slave] : slaves_) {
      if (slave.state == SlaveState::kGone) continue;
      if (now - slave.last_ping > DeathTimeoutLocked(slave)) {
        MRS_LOG(kWarning, "master")
            << "slave " << id << " lost (no contact for "
            << DeathTimeoutLocked(slave) << "s)";
        slave.state = SlaveState::kGone;
        ++stats_.slaves_lost;
        MasterCounters::Get().slaves_lost->Inc();
        HandleSlaveLossLocked(slave);
        changed = true;
        continue;
      }
      if (slave.state == SlaveState::kDraining &&
          now >= slave.drain_deadline) {
        // The drained slave never came back for its release — it crashed
        // mid-drain, or its loop wedged.  Force the transition.
        MRS_LOG(kWarning, "master")
            << "slave " << id << " missed its drain deadline; declaring gone";
        slave.state = SlaveState::kGone;
        HandleSlaveLossLocked(slave);  // idempotent: drain already cleaned up
        changed = true;
        continue;
      }
      if (slave.state == SlaveState::kQuarantined &&
          now >= slave.quarantine_until) {
        slave.state = SlaveState::kHealthy;
        slave.consecutive_failures = 0;
        ++stats_.probation_returns;
        MasterCounters::Get().probation_returns->Inc();
        MRS_LOG(kInfo, "master")
            << "slave " << id << " completed probation; re-admitted";
        changed = true;
      }
    }
    if (config_.speculation_quantile > 0) {
      changed = ScanForStragglersLocked(now) || changed;
    }
    // done_cv_ doubles as the stats-changed signal for WaitUntilStats.
    if (changed) {
      UpdateMembershipGaugesLocked();
      sched_cv_.NotifyAll();
      done_cv_.NotifyAll();
    }
  }
}

// ---- RPC handlers -------------------------------------------------------

Result<XmlRpcValue> Master::RpcSignin(const XmlRpcArray& params) {
  if (params.size() != 2 && params.size() != 3) {
    return InvalidArgumentError("signin(host, data_port[, ping_interval])");
  }
  MRS_ASSIGN_OR_RETURN(std::string host, params[0].AsString());
  MRS_ASSIGN_OR_RETURN(int64_t port, params[1].AsInt());
  double ping_interval = 0;  // old slave without a reported cadence
  if (params.size() == 3) {
    MRS_ASSIGN_OR_RETURN(ping_interval, params[2].AsDouble());
  }
  std::string data_url_base =
      "http://" + host + ":" + std::to_string(port);

  // Health-check the joiner's data plane before admitting it: one GET
  // /status round trip against the address it advertised.  A slave whose
  // data server is unreachable would poison lineage with dead URLs the
  // moment it completed a task — reject it at the door instead.  This is
  // a network call, so it runs without the scheduler lock.
  HttpClient probe(SocketAddr{host, static_cast<uint16_t>(port)});
  Result<HttpResponse> resp = probe.Get("/status");
  if (!resp.ok()) {
    MRS_LOG(kWarning, "master")
        << "signin rejected: data server probe of " << data_url_base
        << " failed: " << resp.status().ToString();
    return UnavailableError("signin rejected: data server " +
                            data_url_base + " failed its health probe: " +
                            resp.status().ToString());
  }
  if (resp->status_code != 200) {
    return UnavailableError("signin rejected: data server " +
                            data_url_base + " health probe returned " +
                            std::to_string(resp->status_code));
  }

  MutexLock lock(mutex_);
  int id = next_slave_id_++;
  SlaveInfo info;
  info.id = id;
  info.data_url_base = std::move(data_url_base);
  info.last_ping = NowSeconds();
  info.state = SlaveState::kHealthy;
  info.ping_interval = ping_interval;
  bool mid_job = false;
  for (const auto& [did, ds] : datasets_) {
    if (!ds->Complete()) {
      mid_job = true;
      break;
    }
  }
  ++stats_.slaves_joined;
  MasterCounters::Get().slaves_joined->Inc();
  if (mid_job) {
    ++stats_.mid_job_joins;
    MasterCounters::Get().mid_job_joins->Inc();
  }
  // The dataset/operation manifest: a late joiner learns the shape of the
  // job it is entering.  Its bucket store is empty, which lineage makes
  // safe — it simply hosts nothing until it completes its first task.
  XmlRpcArray manifest;
  for (const auto& [did, ds] : datasets_) {
    XmlRpcStruct entry;
    entry["dataset_id"] = XmlRpcValue(static_cast<int64_t>(did));
    entry["op"] = XmlRpcValue(ds->options().op_name);
    entry["kind"] =
        XmlRpcValue(ds->kind() == DataSetKind::kMap ? "map" : "reduce");
    entry["sources"] = XmlRpcValue(static_cast<int64_t>(ds->num_sources()));
    entry["splits"] = XmlRpcValue(static_cast<int64_t>(ds->num_splits()));
    entry["complete"] = XmlRpcValue(ds->Complete());
    manifest.push_back(XmlRpcValue(std::move(entry)));
  }
  slaves_[id] = std::move(info);
  UpdateMembershipGaugesLocked();
  MRS_LOG(kInfo, "master") << "slave " << id << " signed in from "
                           << slaves_[id].data_url_base
                           << (mid_job ? " (mid-job join)" : "");
  done_cv_.NotifyAll();  // stats changed — wake WaitUntilStats
  sched_cv_.NotifyAll();
  XmlRpcStruct out;
  out["slave_id"] = XmlRpcValue(static_cast<int64_t>(id));
  out["manifest"] = XmlRpcValue(std::move(manifest));
  return XmlRpcValue(std::move(out));
}

Result<XmlRpcValue> Master::RpcGetTask(const XmlRpcArray& params) {
  if (params.size() != 1) return InvalidArgumentError("get_task(slave_id)");
  MRS_ASSIGN_OR_RETURN(int64_t slave_id, params[0].AsInt());

  MutexLock lock(mutex_);
  auto sit = slaves_.find(static_cast<int>(slave_id));
  if (sit == slaves_.end()) return NotFoundError("unknown slave");
  sit->second.last_ping = NowSeconds();
  if (sit->second.state == SlaveState::kGone) {
    // A presumed-lost slave that polls again revives.
    sit->second.state = SlaveState::kHealthy;
    sit->second.consecutive_failures = 0;
    UpdateMembershipGaugesLocked();
    MRS_LOG(kInfo, "master") << "slave " << slave_id
                             << " revived (polled after being declared gone)";
  }

  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(kLongPollSeconds));
  while (true) {
    if (shutdown_) {
      XmlRpcStruct out;
      out["kind"] = XmlRpcValue("quit");
      return XmlRpcValue(std::move(out));
    }
    if (sit->second.state == SlaveState::kDraining) {
      // Release: its buckets were re-homed when the drain started, so the
      // slave may exit the moment it reads this.
      sit->second.state = SlaveState::kGone;
      UpdateMembershipGaugesLocked();
      MRS_LOG(kInfo, "master") << "slave " << slave_id
                               << " drained; released with quit";
      done_cv_.NotifyAll();
      XmlRpcStruct out;
      out["kind"] = XmlRpcValue("quit");
      return XmlRpcValue(std::move(out));
    }
    TaskRef ref;
    bool affinity_hit = false;
    // Quarantined slaves keep long-polling (it doubles as their liveness
    // signal) but are never assigned work until probation ends.
    if (sit->second.state == SlaveState::kHealthy &&
        PickRunnableLocked(static_cast<int>(slave_id), &ref, &affinity_hit)) {
      auto dsit = datasets_.find(ref.dataset_id);
      if (dsit == datasets_.end()) continue;           // discarded (raced)
      if (!ref.speculative) {
        if (!dsit->second->TryClaimTask(ref.source)) continue;  // raced
      }

      Result<TaskAssignment> assignment =
          BuildAssignmentLocked(ref, sit->second);
      if (!assignment.ok()) {
        if (!ref.speculative) dsit->second->ResetTask(ref.source);
        FailJobLocked(assignment.status());
        done_cv_.NotifyAll();
        return assignment.status();
      }
      if (affinity_hit) {
        ++stats_.affinity_hits;
        MasterCounters::Get().affinity_hits->Inc();
      }
      sit->second.running[TaskKey(ref.dataset_id, ref.source)] =
          RunningTask{NowSeconds(), ref.speculative};
      ++stats_.tasks_assigned;
      MasterCounters::Get().tasks_assigned->Inc();

      XmlRpcValue rpc = assignment->ToRpc();
      // Piggyback discard notices.
      XmlRpcStruct out = *rpc.AsStruct().value();
      XmlRpcArray discards;
      for (int d : sit->second.pending_discards) {
        discards.push_back(XmlRpcValue(static_cast<int64_t>(d)));
      }
      sit->second.pending_discards.clear();
      out["discard"] = XmlRpcValue(std::move(discards));
      return XmlRpcValue(std::move(out));
    }
    if (!sched_cv_.WaitUntil(mutex_, deadline)) {
      XmlRpcStruct out;
      out["kind"] = XmlRpcValue("wait");
      XmlRpcArray discards;
      for (int d : sit->second.pending_discards) {
        discards.push_back(XmlRpcValue(static_cast<int64_t>(d)));
      }
      sit->second.pending_discards.clear();
      out["discard"] = XmlRpcValue(std::move(discards));
      return XmlRpcValue(std::move(out));
    }
  }
}

Result<XmlRpcValue> Master::RpcTaskDone(const XmlRpcArray& params) {
  if (params.size() != 4 && params.size() != 5) {
    return InvalidArgumentError(
        "task_done(slave_id, dataset_id, source, urls[, attempt])");
  }
  MRS_ASSIGN_OR_RETURN(int64_t slave_id, params[0].AsInt());
  MRS_ASSIGN_OR_RETURN(int64_t dataset_id, params[1].AsInt());
  MRS_ASSIGN_OR_RETURN(int64_t source, params[2].AsInt());
  MRS_ASSIGN_OR_RETURN(const XmlRpcArray* urls, params[3].AsArray());
  if (params.size() == 5) {
    // Attempt number: carried for the same idempotency contract as
    // task_failed — duplicate deliveries and losing speculative attempts
    // are both dropped by the completed-state guard below, so the value
    // only matters for logs.
    MRS_RETURN_IF_ERROR(params[4].AsInt().status());
  }

  MutexLock lock(mutex_);
  double now = NowSeconds();
  int64_t key =
      TaskKey(static_cast<int>(dataset_id), static_cast<int>(source));
  auto sit = slaves_.find(static_cast<int>(slave_id));
  bool was_speculative = false;
  double started = 0;
  if (sit != slaves_.end()) {
    sit->second.last_ping = now;
    auto rit = sit->second.running.find(key);
    if (rit != sit->second.running.end()) {
      was_speculative = rit->second.speculative;
      started = rit->second.started;
      sit->second.running.erase(rit);
    }
  }
  auto dsit = datasets_.find(static_cast<int>(dataset_id));
  if (dsit == datasets_.end()) {
    return XmlRpcValue(XmlRpcStruct{});  // dataset discarded; drop result
  }
  DataSet& ds = *dsit->second;
  if (static_cast<int>(urls->size()) != ds.num_splits()) {
    return ProtocolError("task_done url count mismatch");
  }
  if (ds.task_state(static_cast<int>(source)) == TaskState::kComplete) {
    // Duplicate completion: a transport retry, or the losing attempt of a
    // speculative race.  Both attempts are lineage-deterministic, so the
    // first row to land is authoritative and this one is dropped.
    return XmlRpcValue(XmlRpcStruct{});
  }
  std::vector<Bucket> row;
  row.reserve(urls->size());
  bool hosted_here = false;
  for (int p = 0; p < ds.num_splits(); ++p) {
    MRS_ASSIGN_OR_RETURN(std::string url, (*urls)[static_cast<size_t>(p)].AsString());
    if (sit != slaves_.end() &&
        StartsWith(url, sit->second.data_url_base + "/")) {
      hosted_here = true;
    }
    Bucket b(static_cast<int>(source), p);
    b.set_url(std::move(url));
    row.push_back(std::move(b));
  }
  if (hosted_here && sit != slaves_.end() &&
      sit->second.state != SlaveState::kHealthy) {
    // The reporting slave is draining, quarantined, or already declared
    // gone, and the row points at its own (retiring) data server.
    // Accepting it would re-poison lineage with URLs about to vanish —
    // drop it; the task was already requeued when the slave left the
    // healthy pool.  (file:// rows survive the slave and are accepted.)
    MRS_LOG(kInfo, "master")
        << "dropping completion of task (" << dataset_id << "," << source
        << ") from " << SlaveStateName(sit->second.state) << " slave "
        << slave_id << " (self-hosted buckets)";
    return XmlRpcValue(XmlRpcStruct{});
  }
  ds.SetRow(static_cast<int>(source), std::move(row));
  ++stats_.tasks_completed;
  MasterCounters::Get().tasks_completed->Inc();
  speculated_.erase(key);
  if (was_speculative) {
    ++stats_.speculative_wins;
    MasterCounters::Get().speculative_wins->Inc();
    MRS_LOG(kInfo, "master")
        << "speculative backup of task (" << dataset_id << "," << source
        << ") finished first on slave " << slave_id;
  }

  if (sit != slaves_.end()) {
    // Health ledger + runtime sample for the straggler threshold.
    sit->second.consecutive_failures = 0;
    ++sit->second.task_successes;
    if (started > 0) {
      double duration = now - started;
      sit->second.latency_ewma =
          sit->second.task_successes <= 1
              ? duration
              : 0.8 * sit->second.latency_ewma + 0.2 * duration;
      OpHistogramLocked(ds.options().op_name)->Observe(duration);
    }
    // Lineage record: this slave's data server now hosts the row.  Shared-
    // filesystem (file://) outputs survive slave death and need no entry.
    if (hosted_here) {
      sit->second.hosted.insert(key);
    }
    // Residency bookkeeping: a slave that just ran a task over a pinned
    // input now caches that split's decoded records, so the next
    // superstep's assignment can omit the inputs.
    if (ds.input() != nullptr && ds.input()->resident()) {
      sit->second.resident_keys.insert("r/" +
                                       std::to_string(ds.input()->id()) + "/" +
                                       std::to_string(source));
    }
    // Record affinity for the corresponding task of the next iteration —
    // only toward a slave still in the healthy pool.
    if (sit->second.state == SlaveState::kHealthy) {
      affinity_[ds.options().op_name + ":" + std::to_string(source)] =
          static_cast<int>(slave_id);
    }
  }

  PromoteRunnableLocked();
  sched_cv_.NotifyAll();
  done_cv_.NotifyAll();
  return XmlRpcValue(XmlRpcStruct{});
}

Result<XmlRpcValue> Master::RpcTaskFailed(const XmlRpcArray& params) {
  if (params.size() != 5 && params.size() != 6) {
    return InvalidArgumentError(
        "task_failed(slave_id, dataset_id, source, message, bad_url"
        "[, attempt])");
  }
  MRS_ASSIGN_OR_RETURN(int64_t slave_id, params[0].AsInt());
  MRS_ASSIGN_OR_RETURN(int64_t dataset_id, params[1].AsInt());
  MRS_ASSIGN_OR_RETURN(int64_t source, params[2].AsInt());
  MRS_ASSIGN_OR_RETURN(std::string message, params[3].AsString());
  MRS_ASSIGN_OR_RETURN(std::string bad_url, params[4].AsString());
  int64_t reported_attempt = 0;  // 0: old slave without attempt numbering
  if (params.size() == 6) {
    MRS_ASSIGN_OR_RETURN(reported_attempt, params[5].AsInt());
  }

  MutexLock lock(mutex_);
  double now = NowSeconds();
  MRS_LOG(kWarning, "master") << "task (" << dataset_id << "," << source
                              << ") failed on slave " << slave_id << ": "
                              << message;
  ++stats_.tasks_failed;
  MasterCounters::Get().tasks_failed->Inc();
  int64_t key =
      TaskKey(static_cast<int>(dataset_id), static_cast<int>(source));
  auto sit = slaves_.find(static_cast<int>(slave_id));
  if (sit != slaves_.end()) {
    sit->second.last_ping = now;
    sit->second.running.erase(key);
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
    if (sit != slaves_.end()) sit->second.resident_keys.erase(rkey);
    ++stats_.resident_misses;
    MasterCounters::Get().resident_misses->Inc();
    MRS_LOG(kInfo, "master")
        << "slave " << slave_id << " missed resident cache " << rkey
        << "; re-sending full inputs on the next attempt";
    environmental = true;
  } else {
    environmental = !bad_url.empty() && RecoverLostUrlLocked(bad_url);
  }

  if (!environmental) {
    // Health ledger: only failures of the task itself count against the
    // slave; environmental failures indict the departed peer, not the
    // reporter.
    if (sit != slaves_.end()) {
      ++sit->second.task_failures;
      ++sit->second.consecutive_failures;
      if (config_.quarantine_failure_threshold > 0 &&
          sit->second.state == SlaveState::kHealthy &&
          sit->second.consecutive_failures >=
              config_.quarantine_failure_threshold &&
          AnotherHealthySlaveLocked(sit->first)) {
        // Never quarantine the last healthy slave: a degraded worker still
        // beats an empty pool (and the attempt budget bounds the damage).
        QuarantineSlaveLocked(sit->second, now);
      }
    }
    // Idempotent charging: the transport may deliver the same report twice
    // (client retry after a lost response), so an attempt-numbered report
    // moves the counter to that attempt rather than incrementing per
    // delivery — a duplicate is a no-op instead of a double charge.
    int attempts;
    if (reported_attempt > 0) {
      int& charged = attempts_[key];
      charged = std::max(charged, static_cast<int>(reported_attempt));
      attempts = charged;
    } else {
      attempts = ++attempts_[key];
    }
    if (attempts >= config_.max_task_attempts) {
      FailJobLocked(InternalError(
          "task (" + std::to_string(dataset_id) + "," +
          std::to_string(source) + ") failed " + std::to_string(attempts) +
          " times (max_task_attempts=" +
          std::to_string(config_.max_task_attempts) +
          "); last error: " + message));
      done_cv_.NotifyAll();
      return XmlRpcValue(XmlRpcStruct{});
    }
  }

  auto dsit = datasets_.find(static_cast<int>(dataset_id));
  if (dsit != datasets_.end()) {
    if (AnotherSlaveRunsLocked(key, static_cast<int>(slave_id))) {
      // A twin attempt (speculative backup or original) is still running
      // elsewhere; let it finish instead of queueing a third copy.
    } else {
      speculated_.erase(key);
      if (dsit->second->task_state(static_cast<int>(source)) ==
          TaskState::kRunning) {
        dsit->second->ResetTask(static_cast<int>(source));
      }
      runnable_.push_back(
          TaskRef{static_cast<int>(dataset_id), static_cast<int>(source)});
    }
  }

  sched_cv_.NotifyAll();
  done_cv_.NotifyAll();  // stats changed — wake WaitUntilStats
  return XmlRpcValue(XmlRpcStruct{});
}

Result<XmlRpcValue> Master::RpcPing(const XmlRpcArray& params) {
  if (params.size() != 1) return InvalidArgumentError("ping(slave_id)");
  MRS_ASSIGN_OR_RETURN(int64_t slave_id, params[0].AsInt());
  MutexLock lock(mutex_);
  auto sit = slaves_.find(static_cast<int>(slave_id));
  if (sit == slaves_.end()) return NotFoundError("unknown slave");
  sit->second.last_ping = NowSeconds();
  return XmlRpcValue(XmlRpcStruct{});
}

Result<XmlRpcValue> Master::RpcDrain(const XmlRpcArray& params) {
  if (params.size() != 1) return InvalidArgumentError("drain(slave_id)");
  MRS_ASSIGN_OR_RETURN(int64_t slave_id, params[0].AsInt());
  MutexLock lock(mutex_);
  auto sit = slaves_.find(static_cast<int>(slave_id));
  if (sit == slaves_.end()) return NotFoundError("unknown slave");
  SlaveInfo& slave = sit->second;
  slave.last_ping = NowSeconds();
  if (slave.state == SlaveState::kHealthy ||
      slave.state == SlaveState::kQuarantined) {
    slave.state = SlaveState::kDraining;
    slave.drain_deadline = NowSeconds() + config_.drain_timeout;
    ++stats_.slaves_drained;
    MasterCounters::Get().slaves_drained->Inc();
    MRS_LOG(kInfo, "master")
        << "slave " << slave_id << " draining: re-homing "
        << slave.hosted.size() << " hosted rows, requeueing "
        << slave.running.size() << " running tasks";
    // Re-home through lineage: its hosted rows re-execute on the
    // survivors, its running tasks requeue, its affinity entries drop.
    // The slave stays registered (and its data server up) until it polls
    // get_task and receives its release.
    HandleSlaveLossLocked(slave);
    UpdateMembershipGaugesLocked();
    sched_cv_.NotifyAll();
    done_cv_.NotifyAll();
  }
  return XmlRpcValue(XmlRpcStruct{});
}

}  // namespace mrs
