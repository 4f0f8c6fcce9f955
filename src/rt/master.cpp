#include "rt/master.h"

#include <algorithm>
#include <chrono>

#include "common/clock.h"
#include "common/log.h"
#include "common/retry.h"
#include "core/fetch_registry.h"
#include "http/client.h"
#include "obs/endpoints.h"

namespace mrs {

namespace {
double NowSeconds() { return RealClock::Instance().Now(); }

/// How long get_task waits for work before answering "wait".
constexpr double kLongPollSeconds = 0.25;

/// How long Shutdown keeps serving for slaves that have not collected their
/// "quit": a slave that never polls again (crashed, or stuck in a task)
/// costs at most this.
constexpr double kQuitGraceSeconds = 1.0;
}  // namespace

Master::Master(Config config)
    : config_(std::move(config)), scheduler_(config_) {}

Result<std::unique_ptr<Master>> Master::Start(Config config) {
  std::unique_ptr<Master> master(new Master(std::move(config)));
  MRS_RETURN_IF_ERROR(master->Init());
  return master;
}

Status Master::Init() {
  using Handler = Result<XmlRpcValue> (Master::*)(const XmlRpcArray&);
  const std::pair<const char*, Handler> methods[] = {
      {"signin", &Master::RpcSignin},
      {"get_task", &Master::RpcGetTask},
      {"task_done", &Master::RpcTaskDone},
      {"task_failed", &Master::RpcTaskFailed},
      {"ping", &Master::RpcPing},
      {"drain", &Master::RpcDrain}};
  for (const auto& [name, handler] : methods) {
    dispatcher_.Register(name, [this, handler = handler](const XmlRpcArray& p) {
      return (this->*handler)(p);
    });
  }

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
  MRS_LOG(kInfo, "master") << "listening on " << server_->addr().ToString();
  return Status::Ok();
}

Master::~Master() { Shutdown(); }

void Master::Shutdown() {
  {
    MutexLock lock(mutex_);
    if (shutdown_) return;
    shutdown_ = true;
    Notify();  // every get_task long poll answers "quit"
    // A handshake: keep serving until every slave on the roster has
    // collected its quit, so one between polls (running a task, retrying a
    // fetch) never finds the port closed and exits as if the master died.
    const auto deadline = DeadlineAfter(kQuitGraceSeconds);
    while (!AllSlavesQuitLocked() && done_cv_.WaitUntil(mutex_, deadline)) {
    }
  }
  server_->Shutdown();
}

bool Master::AllSlavesQuitLocked() const {
  for (const auto& [id, slave] : scheduler_.slaves()) {
    if (slave.state != SlaveState::kGone && !quit_sent_.contains(id)) {
      return false;
    }
  }
  return true;
}

double Master::TickLocked() {
  double now = NowSeconds();
  if (scheduler_.Tick(now)) Notify();
  return now;
}

void Master::Notify() {
  sched_cv_.NotifyAll();
  done_cv_.NotifyAll();
}

Status Master::WaitForSlaves(int n, double timeout_seconds) {
  auto deadline = DeadlineAfter(timeout_seconds);
  MutexLock lock(mutex_);
  while (scheduler_.num_present() < n && !shutdown_) {
    if (!sched_cv_.WaitUntil(mutex_, deadline)) {
      return DeadlineExceededError("timed out waiting for " +
                                   std::to_string(n) + " slaves");
    }
  }
  return Status::Ok();
}

int Master::num_slaves() const {
  MutexLock lock(mutex_);
  return scheduler_.num_present();
}

Master::Stats Master::StatsLocked() const {
  Stats out;
  static_cast<Scheduler::Stats&>(out) = scheduler_.stats();
  out.rpc_retries = RpcRetryCount() - rpc_retries_base_;
  out.fetch_retries = FetchRetryCount() - fetch_retries_base_;
  return out;
}

Master::Stats Master::stats() const {
  MutexLock lock(mutex_);
  return StatsLocked();
}

bool Master::WaitUntilStats(const std::function<bool(const Stats&)>& pred,
                            double timeout_seconds) {
  auto deadline = DeadlineAfter(timeout_seconds);
  MutexLock lock(mutex_);
  while (true) {
    if (pred(StatsLocked())) return true;
    if (shutdown_) return false;
    // Bounded slices rather than a bare wait: the retry counters are
    // process-wide atomics with no associated cv, so poll them too.
    auto until = std::min(DeadlineAfter(0.025), deadline);
    if (!done_cv_.WaitUntil(mutex_, until) &&
        std::chrono::steady_clock::now() >= deadline) {
      return pred(StatsLocked());
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
  const Status& job_status = scheduler_.job_status();
  out += job_status.ok() ? "true" : "false";
  if (!job_status.ok()) {
    out += ",\"error\":\"" + obs::JsonEscape(job_status.message()) + "\"";
  }
  out += ",\"shutdown\":";
  out += shutdown_ ? "true" : "false";
  out += "},";

  out += "\"datasets\":[";
  bool first = true;
  for (const auto& [id, ds] : scheduler_.datasets()) {
    if (!first) out += ",";
    first = false;
    out += "{\"id\":" + std::to_string(id);
    out += ",\"kind\":\"";
    out += DataSetKindName(ds->kind());
    out += "\",\"sources\":" + std::to_string(ds->num_sources());
    out += ",\"splits\":" + std::to_string(ds->num_splits());
    out += ",\"complete_tasks\":" + std::to_string(ds->NumCompleteTasks());
    out += ",\"complete\":";
    out += ds->Complete() ? "true" : "false";
    out += "}";
  }
  out += "],";
  out += "\"queue\":{\"runnable\":" +
         std::to_string(scheduler_.num_runnable());
  out += ",\"waiting\":" + std::to_string(scheduler_.num_waiting()) + "},";

  int members[4] = {0, 0, 0, 0};  // per SlaveState
  out += "\"slaves\":[";
  first = true;
  for (const auto& [id, slave] : scheduler_.slaves()) {
    ++members[static_cast<int>(slave.state)];
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

  out += "\"membership\":{";
  for (int s = 0; s < 4; ++s) {
    out += std::string(s > 0 ? ",\"" : "\"") +
           SlaveStateName(static_cast<SlaveState>(s)) +
           "\":" + std::to_string(members[s]);
  }
  out += "},";

  // Live values of the elasticity knobs, so an operator reading /status
  // sees the thresholds actually in force (not the defaults in a README).
  const Scheduler::Config& config = scheduler_.config();
  out += "\"health_config\":{";
  out += "\"slave_timeout\":" + std::to_string(config.slave_timeout);
  out += ",\"missed_ping_limit\":" + std::to_string(config.missed_ping_limit);
  out += ",\"drain_timeout\":" + std::to_string(config.drain_timeout);
  out += ",\"speculation_quantile\":" +
         std::to_string(std::max(config.speculation_quantile, 0.0));
  out += ",\"speculation_multiplier\":" +
         std::to_string(Scheduler::kSpeculationMultiplier);
  out += ",\"speculation_min_samples\":" +
         std::to_string(config.speculation_min_samples);
  out += ",\"speculation_min_seconds\":" +
         std::to_string(config.speculation_min_seconds);
  out += ",\"quarantine_failure_threshold\":" +
         std::to_string(config.quarantine_failure_threshold);
  out += ",\"probation_seconds\":" + std::to_string(config.probation_seconds);
  out += "},";

  // Observed per-operation runtime quantiles driving the straggler
  // threshold (bucketed upper bounds, not exact).
  out += "\"op_runtimes\":[";
  first = true;
  for (const auto& [op, hist] : scheduler_.op_runtimes()) {
    if (!first) out += ",";
    first = false;
    out += "{\"op\":\"" + obs::JsonEscape(op) + "\"";
    out += ",\"count\":" + std::to_string(hist.count());
    out += ",\"p50_seconds\":" + std::to_string(hist.Quantile(0.5));
    out += ",\"p90_seconds\":" + std::to_string(hist.Quantile(0.9));
    out += "}";
  }
  out += "],";

  Stats stats = StatsLocked();
  out += "\"stats\":{";
  for (const Scheduler::Counter& counter : Scheduler::kCounters) {
    out += "\"" + std::string(counter.name) +
           "\":" + std::to_string(stats.*counter.field) + ",";
  }
  out += "\"rpc_retries\":" + std::to_string(stats.rpc_retries);
  out += ",\"fetch_retries\":" + std::to_string(stats.fetch_retries);
  out += "}}";
  return out;
}

// ---- Runner-facing ----------------------------------------------------

void Master::Submit(const DataSetPtr& dataset) {
  MutexLock lock(mutex_);
  TickLocked();
  scheduler_.Submit(dataset);
  Notify();
}

Status Master::Wait(const DataSetPtr& dataset) {
  MutexLock lock(mutex_);
  while (!(dataset->Complete() || !scheduler_.job_status().ok() ||
           shutdown_)) {
    done_cv_.Wait(mutex_);
  }
  if (!scheduler_.job_status().ok()) return scheduler_.job_status();
  if (!dataset->Complete()) {
    return CancelledError("master shut down before dataset completed");
  }
  return Status::Ok();
}

void Master::Discard(const DataSetPtr& dataset) {
  MutexLock lock(mutex_);
  TickLocked();
  scheduler_.Discard(dataset);
}

UrlFetcher Master::fetcher() const {
  // Collect()-side fetches get the same transient-failure tolerance as
  // slave-side input fetches.
  return [](const std::string& url) {
    return ResolveUrlWithRetry(url, DefaultFetchRetryPolicy());
  };
}

bool Master::RecoverLostUrl(const std::string& url) {
  MutexLock lock(mutex_);
  TickLocked();
  bool recovered = scheduler_.RecoverLostUrl(url);
  Notify();
  return recovered;
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
  int id = scheduler_.SignIn(std::move(data_url_base), ping_interval,
                             TickLocked());
  // The dataset/operation manifest: a late joiner learns the shape of the
  // job it is entering.  Its bucket store is empty, which lineage makes
  // safe — it simply hosts nothing until it completes its first task.
  XmlRpcArray manifest;
  for (const auto& [did, ds] : scheduler_.datasets()) {
    XmlRpcStruct entry;
    entry["dataset_id"] = XmlRpcValue(static_cast<int64_t>(did));
    entry["op"] = XmlRpcValue(ds->options().op_name);
    entry["kind"] = XmlRpcValue(std::string(DataSetKindName(ds->kind())));
    entry["sources"] = XmlRpcValue(static_cast<int64_t>(ds->num_sources()));
    entry["splits"] = XmlRpcValue(static_cast<int64_t>(ds->num_splits()));
    entry["complete"] = XmlRpcValue(ds->Complete());
    manifest.push_back(XmlRpcValue(std::move(entry)));
  }
  Notify();  // a new slave (WaitForSlaves) and new stats (WaitUntilStats)
  XmlRpcStruct out;
  out["slave_id"] = XmlRpcValue(static_cast<int64_t>(id));
  out["manifest"] = XmlRpcValue(std::move(manifest));
  return XmlRpcValue(std::move(out));
}

Result<XmlRpcValue> Master::RpcGetTask(const XmlRpcArray& params) {
  if (params.size() != 1) return InvalidArgumentError("get_task(slave_id)");
  MRS_ASSIGN_OR_RETURN(int64_t slave_id, params[0].AsInt());

  auto deadline = DeadlineAfter(kLongPollSeconds);
  MutexLock lock(mutex_);
  XmlRpcStruct out;
  XmlRpcArray discards;
  while (true) {
    if (shutdown_) {
      quit_sent_.insert(static_cast<int>(slave_id));
      if (AllSlavesQuitLocked()) done_cv_.NotifyAll();  // Shutdown may stop
      out["kind"] = XmlRpcValue("quit");
      break;
    }
    Result<Scheduler::PollResult> poll =
        scheduler_.Poll(static_cast<int>(slave_id), TickLocked());
    if (!poll.ok()) {
      Notify();  // a failed assignment fails the job: wake Wait
      return poll.status();
    }
    for (int d : poll->discards) {
      discards.push_back(XmlRpcValue(static_cast<int64_t>(d)));
    }
    if (poll->kind == Scheduler::PollResult::Kind::kTask) {
      out = *poll->assignment.ToRpc().AsStruct().value();
      break;
    }
    if (poll->kind == Scheduler::PollResult::Kind::kQuit) {
      Notify();  // a drained slave left the roster
      out["kind"] = XmlRpcValue("quit");
      break;
    }
    if (!sched_cv_.WaitUntil(mutex_, deadline)) {
      out["kind"] = XmlRpcValue("wait");
      break;
    }
  }
  // Piggyback discard notices.
  out["discard"] = XmlRpcValue(std::move(discards));
  return XmlRpcValue(std::move(out));
}

Result<XmlRpcValue> Master::RpcTaskDone(const XmlRpcArray& params) {
  if (params.size() != 4 && params.size() != 5) {
    return InvalidArgumentError(
        "task_done(slave_id, dataset_id, source, urls[, attempt])");
  }
  MRS_ASSIGN_OR_RETURN(int64_t slave_id, params[0].AsInt());
  MRS_ASSIGN_OR_RETURN(int64_t dataset_id, params[1].AsInt());
  MRS_ASSIGN_OR_RETURN(int64_t source, params[2].AsInt());
  MRS_ASSIGN_OR_RETURN(const XmlRpcArray* url_values, params[3].AsArray());
  std::vector<std::string> urls;
  for (const XmlRpcValue& url : *url_values) {
    MRS_ASSIGN_OR_RETURN(urls.emplace_back(), url.AsString());
  }
  if (params.size() == 5) {
    // Attempt number: carried for the same idempotency contract as
    // task_failed — duplicate deliveries and losing speculative attempts
    // are both dropped by the scheduler's completed-state guard, so the
    // value only matters for logs.
    MRS_RETURN_IF_ERROR(params[4].AsInt().status());
  }

  MutexLock lock(mutex_);
  Status done = scheduler_.TaskDone(
      static_cast<int>(slave_id),
      TaskId{static_cast<int>(dataset_id), static_cast<int>(source)}, urls,
      TickLocked());
  Notify();
  MRS_RETURN_IF_ERROR(done);
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
  scheduler_.TaskFailed(
      static_cast<int>(slave_id),
      TaskId{static_cast<int>(dataset_id), static_cast<int>(source)}, message,
      bad_url, reported_attempt, TickLocked());
  Notify();
  return XmlRpcValue(XmlRpcStruct{});
}

Result<XmlRpcValue> Master::RpcPing(const XmlRpcArray& params) {
  if (params.size() != 1) return InvalidArgumentError("ping(slave_id)");
  MRS_ASSIGN_OR_RETURN(int64_t slave_id, params[0].AsInt());
  MutexLock lock(mutex_);
  MRS_RETURN_IF_ERROR(
      scheduler_.Ping(static_cast<int>(slave_id), TickLocked()));
  return XmlRpcValue(XmlRpcStruct{});
}

Result<XmlRpcValue> Master::RpcDrain(const XmlRpcArray& params) {
  if (params.size() != 1) return InvalidArgumentError("drain(slave_id)");
  MRS_ASSIGN_OR_RETURN(int64_t slave_id, params[0].AsInt());
  MutexLock lock(mutex_);
  Status drained = scheduler_.Drain(static_cast<int>(slave_id), TickLocked());
  Notify();
  MRS_RETURN_IF_ERROR(drained);
  return XmlRpcValue(XmlRpcStruct{});
}

}  // namespace mrs
