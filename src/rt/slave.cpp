#include "rt/slave.h"

#include <algorithm>
#include <cstdio>
#include <optional>

#include "common/clock.h"
#include "common/hash.h"
#include "common/log.h"
#include "common/retry.h"
#include "common/strings.h"
#include "core/fetch_registry.h"
#include "core/task.h"
#include "fs/bucket.h"
#include "fs/file_io.h"
#include "fs/spill.h"
#include "http/client.h"
#include "http/pool.h"
#include "obs/endpoints.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ser/record.h"

namespace mrs {

namespace {
std::atomic<bool> g_process_drain{false};

/// Backoff for control-channel calls (signin/get_task/task_done/...).
constexpr RetryPolicy kRpcRetry{.max_attempts = 4,
                                .initial_backoff_seconds = 0.05,
                                .max_backoff_seconds = 0.5};
/// Log at kWarning once this many consecutive pings have failed.
constexpr int kPingFailureLogThreshold = 3;

/// Re-checksum frames for a peer that predates XXH64: FNV-1a, but only
/// over data that still matches its stored value.  A corrupt frame keeps
/// its stored value, which the old peer cannot match, so it sees kDataLoss
/// as a new peer would.
void UseFnv1a(std::vector<BucketFrame>& frames) {
  for (BucketFrame& f : frames) {
    if (ChecksumMatches(f.data, f.checksum)) {
      f.checksum = Fnv1aChecksum(f.data);
    }
  }
}
}  // namespace

Result<std::map<std::string, std::string>> FetchBucketBatch(
    const std::string& base, const std::vector<std::string>& bucket_ids) {
  MRS_ASSIGN_OR_RETURN(HttpUrl parsed, HttpUrl::Parse(base));
  HttpRequest req;
  req.method = "GET";
  req.target = "/bucket?ids=" + Join(bucket_ids, ",");
  req.headers.Set(std::string(kMrsFormatHeader),
                  std::string(kBucketFramesFormat) + ", " +
                      std::string(kXxh64ChecksumFormat));
  const std::string url = base + req.target;
  MRS_ASSIGN_OR_RETURN(
      HttpResponse resp,
      ConnectionPool::Instance().Do(SocketAddr{parsed.host, parsed.port},
                                    std::move(req)));
  MRS_RETURN_IF_ERROR(FetchStatusFromHttpCode(url, resp.status_code));
  auto fmt = resp.headers.Get(kMrsFormatHeader);
  if (!fmt.has_value() || *fmt != kBucketFramesFormat) {
    return ProtocolError("batch from " + base + " not answered in mrsk1");
  }
  MRS_ASSIGN_OR_RETURN(std::vector<BucketFrame> frames,
                       DecodeBucketFrames(resp.body));
  return BucketBodies(std::move(frames));
}

void RequestProcessDrain() {
  g_process_drain.store(true, std::memory_order_relaxed);
}

bool ProcessDrainRequested() {
  return g_process_drain.load(std::memory_order_relaxed);
}

Slave::Slave(MapReduce* program, Config config)
    : program_(program), config_(std::move(config)) {
  faults_remaining_.store(config_.faults.fail_first_n_tasks);
  spill_corrupt_remaining_.store(config_.faults.spill_corrupt);
  chaos_rng_.store(config_.faults.seed);
}

Result<std::unique_ptr<Slave>> Slave::Start(MapReduce* program,
                                            Config config) {
  std::unique_ptr<Slave> slave(new Slave(program, std::move(config)));
  MRS_RETURN_IF_ERROR(slave->Init());
  return slave;
}

Status Slave::Init() {
  // The data server doubles as the slave's observability surface:
  // /metrics, /status, and /trace resolve before falling through to the
  // bucket store.
  MRS_ASSIGN_OR_RETURN(
      data_server_,
      HttpServer::Start(config_.host, config_.data_port,
                        obs::MakeObsHandler(
                            [this] { return StatusJson(); },
                            [this](const HttpRequest& req) {
                              return ServeData(req);
                            })));
  rpc_ = std::make_unique<XmlRpcClient>(config_.master);
  rpc_->set_retry_policy(kRpcRetry);

  // The reported ping interval lets the master size this slave's death
  // threshold (missed_ping_limit * interval) instead of assuming one
  // global heartbeat cadence.
  MRS_ASSIGN_OR_RETURN(
      XmlRpcValue reply,
      rpc_->Call("signin",
                 XmlRpcArray{XmlRpcValue(data_server_->addr().host),
                             XmlRpcValue(static_cast<int64_t>(
                                 data_server_->addr().port)),
                             XmlRpcValue(config_.ping_interval)}));
  MRS_ASSIGN_OR_RETURN(const XmlRpcValue* id, reply.Field("slave_id"));
  MRS_ASSIGN_OR_RETURN(int64_t slave_id, id->AsInt());
  id_ = static_cast<int>(slave_id);
  // Mid-job joiners get the current dataset/operation manifest: nothing to
  // act on eagerly (tasks arrive via get_task), but it tells the operator
  // what the slave walked into.
  size_t manifest_size = 0;
  if (auto manifest = reply.Field("manifest"); manifest.ok()) {
    if (auto arr = (*manifest)->AsArray(); arr.ok()) {
      manifest_size = (*arr)->size();
    }
  }
  MRS_LOG(kInfo, "slave") << "slave " << id_ << " signed in; data server on "
                          << data_server_->addr().ToString() << "; "
                          << manifest_size << " datasets in flight";
  // Pings are deliberately unretried: a missed beat is fine (the next one
  // is a fresh liveness sample) and backoff lives in PingLoop itself.
  ping_rpc_ = std::make_unique<XmlRpcClient>(config_.master);
  ping_thread_ = std::thread([this] { PingLoop(); });
  return Status::Ok();
}

bool Slave::InPingDropWindow() {
  const FaultPlan& plan = config_.faults;
  if (plan.drop_pings_after_n_tasks < 0 || plan.drop_pings_for_seconds <= 0) {
    return false;
  }
  double now = RealClock::Instance().Now();
  if (ping_drop_until_ == 0) {
    if (tasks_executed_.load() < plan.drop_pings_after_n_tasks) return false;
    ping_drop_until_ = now + plan.drop_pings_for_seconds;
    MRS_LOG(kWarning, "slave")
        << "slave " << id_ << " dropping pings for "
        << plan.drop_pings_for_seconds << "s (chaos)";
  }
  return now < ping_drop_until_;
}

void Slave::PingLoop() {
  // Paper §IV: slaves stay in contact with the master; the ping keeps the
  // slave alive in the registry even while a long map task runs.  On
  // consecutive failures the loop logs once per threshold and backs off
  // exponentially so a dead master is not hammered.
  const double base_interval = std::max(0.1, config_.ping_interval);
  double interval = base_interval;
  int consecutive_failures = 0;
  while (!StoppedWithin(interval)) {
    if (InPingDropWindow()) continue;
    Result<XmlRpcValue> r = ping_rpc_->Call(
        "ping", XmlRpcArray{XmlRpcValue(static_cast<int64_t>(id_))});
    if (r.ok()) {
      consecutive_failures = 0;
      interval = base_interval;
      continue;
    }
    ++consecutive_failures;
    if (consecutive_failures % kPingFailureLogThreshold == 0) {
      MRS_LOG(kWarning, "slave")
          << "slave " << id_ << ": " << consecutive_failures
          << " consecutive pings failed (last: " << r.status().ToString()
          << "); next ping in " << interval << "s";
    }
    interval = std::min(interval * 2, base_interval * 10);
  }
}

bool Slave::StoppedWithin(double seconds) {
  const auto deadline = DeadlineAfter(seconds);
  MutexLock lock(stop_mutex_);
  while (!stop_.load()) {
    if (!stop_cv_.WaitUntil(stop_mutex_, deadline)) break;  // timed out
  }
  return stop_.load();
}

void Slave::Stop() {
  MutexLock lock(stop_mutex_);
  stop_.store(true);
  stop_cv_.NotifyAll();
}

Slave::~Slave() {
  Stop();
  if (ping_thread_.joinable()) ping_thread_.join();
  if (data_server_) data_server_->Shutdown();
}

void Slave::Crash() {
  crashed_.store(true);
  Stop();
  if (data_server_) data_server_->Shutdown();
}

Status Slave::StoredBucket::MoveFramesTo(const std::string& id,
                                         std::vector<BucketFrame>* frames) {
  if (runs.empty()) {
    frames->push_back(BucketFrame{id, std::move(checksum), std::move(data)});
    return Status::Ok();
  }
  for (size_t i = 0; i < runs.size(); ++i) {
    MRS_ASSIGN_OR_RETURN(BucketFrame frame, ReadSpillRunFrame(runs[i]));
    frame.id = RunFrameId(id, i);
    frames->push_back(std::move(frame));
  }
  return Status::Ok();
}

HttpResponse Slave::ServeData(const HttpRequest& req) {
  auto [path, query] = SplitTarget(req.target);
  // One id from "/bucket/<id>", or many from "/bucket?ids=a,b,c" when the
  // peer accepts mrsk1 frames.
  const bool batch =
      path == "/bucket" && FormatAccepted(req.headers, kBucketFramesFormat);
  std::vector<std::string> ids;
  if (batch) {
    std::string_view list;
    for (std::string_view kv : SplitChar(query, '&')) {
      if (StartsWith(kv, "ids=")) list = kv.substr(4);
    }
    if (list.empty()) return HttpResponse::BadRequest("missing ids= parameter");
    for (std::string_view id : SplitChar(list, ',')) ids.emplace_back(id);
  } else if (StartsWith(path, "/bucket/")) {
    ids.emplace_back(path.substr(8));
  } else {
    return HttpResponse::NotFound();
  }
  // Copy the store entries under the lock; spill runs are read outside it.
  // Any missing id fails the whole request with 404, so a batched fetcher
  // falls back to per-bucket GETs, which pin down which bucket is gone.
  std::vector<StoredBucket> stored;
  stored.reserve(ids.size());
  {
    MutexLock lock(store_mutex_);
    for (const std::string& id : ids) {
      auto it = store_.find(id);
      if (it == store_.end()) return HttpResponse::NotFound("no bucket " + id);
      stored.push_back(it->second);
    }
  }
  static obs::Counter* served =
      obs::Registry::Instance().GetCounter("mrs.spill.buckets_served");
  const bool plain = !batch && stored.front().runs.empty();
  std::vector<BucketFrame> frames;
  for (size_t i = 0; i < ids.size(); ++i) {
    Status read = stored[i].MoveFramesTo(ids[i], &frames);
    if (!read.ok()) {
      return HttpResponse::NotFound(
          batch ? "no bucket " + ids[i] + " (spill data unreadable)"
                : "bucket " + ids[i] +
                      " spill data unreadable: " + read.ToString());
    }
    if (!stored[i].runs.empty()) served->Inc();
  }
  // Without the token the request comes from a peer that predates XXH64.
  if (!FormatAccepted(req.headers, kXxh64ChecksumFormat)) UseFnv1a(frames);
  if (plain) {
    // A lone in-memory bucket goes as its record stream: HttpFetch checks
    // X-Mrs-Checksum, and retries on a mismatch, before decoding it.
    HttpResponse resp = HttpResponse::Ok(std::move(frames.front().data),
                                         "application/octet-stream");
    resp.headers.Set(std::string(kMrsChecksumHeader),
                     std::move(frames.front().checksum));
    return resp;
  }
  // A frame set has no whole-body checksum: each frame's checksum guards
  // its data, and the reader's exact framing turns a cut into kDataLoss.
  HttpResponse resp = HttpResponse::Ok(EncodeBucketFrames(frames),
                                       "application/octet-stream");
  if (batch) {
    resp.headers.Set(std::string(kMrsFormatHeader),
                     std::string(kBucketFramesFormat));
  }
  return resp;
}

void Slave::HandleDiscards(const XmlRpcValue& response) {
  auto discard = response.Field("discard");
  if (!discard.ok()) return;
  auto arr = (*discard)->AsArray();
  if (!arr.ok()) return;
  // Files of a discarded dataset are deleted after the store erase
  // (outside the lock): once its entries are gone nothing can serve them,
  // and reclaiming the disk keeps long jobs bounded.  Its shared directory
  // goes last; remove() of a directory is rmdir(), which succeeds only for
  // the last slave to empty it.
  std::vector<std::string> dead_files;
  {
    MutexLock lock(store_mutex_);
    for (const XmlRpcValue& v : **arr) {
      auto id = v.AsInt();
      if (!id.ok()) continue;
      std::string prefix = std::to_string(*id) + "/";
      for (auto it = store_.lower_bound(prefix); it != store_.end();) {
        if (!StartsWith(it->first, prefix)) break;
        it = store_.erase(it);
      }
      if (auto files = dataset_files_.find(static_cast<int>(*id));
          files != dataset_files_.end()) {
        dead_files.insert(dead_files.end(), files->second.begin(),
                          files->second.end());
        dataset_files_.erase(files);
        if (!config_.shared_dir.empty()) {
          dead_files.push_back(
              JoinPath(config_.shared_dir, std::to_string(*id)));
        }
      }
      // Resident input caches of the discarded dataset go with it.
      std::string rprefix = "r/" + std::to_string(*id) + "/";
      for (auto it = resident_cache_.lower_bound(rprefix);
           it != resident_cache_.end();) {
        if (!StartsWith(it->first, rprefix)) break;
        it = resident_cache_.erase(it);
      }
    }
  }
  for (const std::string& file : dead_files) std::remove(file.c_str());
}

bool Slave::DrawFetchFault() {
  double p = config_.faults.fail_fetch_probability;
  if (p <= 0) return false;
  uint64_t s = chaos_rng_.fetch_add(0x9e3779b97f4a7c15ull);
  double u = static_cast<double>(SplitMix64(s) >> 11) /
             static_cast<double>(1ull << 53);
  return u < p;
}

void Slave::BatchPrefetch(const TaskAssignment& assignment,
                          std::map<std::string, std::string>* out) {
  static obs::Counter* batch_fetches =
      obs::Registry::Instance().GetCounter("mrs.slave.batch_fetches");
  static obs::Counter* batch_fallbacks =
      obs::Registry::Instance().GetCounter("mrs.slave.batch_fallbacks");
  static obs::Counter* batch_buckets =
      obs::Registry::Instance().GetCounter("mrs.slave.batch_buckets");

  // Group "<base>/bucket/<id>" inputs by hosting peer.
  std::map<std::string, std::vector<std::string>> by_peer;
  for (const TaskInputPart& part : assignment.inputs) {
    if (part.inline_records || !StartsWith(part.url, "http://")) continue;
    size_t pos = part.url.find("/bucket/");
    if (pos == std::string::npos) continue;
    by_peer[part.url.substr(0, pos)].push_back(part.url.substr(pos + 8));
  }
  for (const auto& [base, bucket_ids] : by_peer) {
    if (bucket_ids.size() < 2) continue;  // nothing to amortise
    batch_fetches->Inc();
    // Single attempt, no retry: this is an opportunistic fast path.  Any
    // failure — chaos fault, dead peer, an old peer 404ing the bare
    // /bucket path, a corrupt payload — leaves the URLs to the per-URL
    // fetcher, which owns retry/backoff and bad_url lineage reporting.
    Result<std::map<std::string, std::string>> bodies =
        DrawFetchFault()
            ? UnavailableError("injected fetch fault (chaos): batch " + base)
            : FetchBucketBatch(base, bucket_ids);
    if (!bodies.ok()) {
      batch_fallbacks->Inc();
      continue;
    }
    for (auto& [bucket_id, body] : *bodies) {
      (*out)[base + "/bucket/" + bucket_id] = std::move(body);
    }
    batch_buckets->Inc(static_cast<int64_t>(bodies->size()));
  }
}

Status Slave::ExecuteAssignment(const TaskAssignment& assignment) {
  // Fault injection hook: report failure without doing the work.
  if (faults_remaining_.load() > 0) {
    faults_remaining_.fetch_sub(1);
    return InternalError("injected task fault");
  }
  if (config_.faults.slow_task_seconds > 0) {
    SleepForSeconds(config_.faults.slow_task_seconds);  // straggler
  }
  const double exec_start = RealClock::Instance().Now();

  // One span per task attempt, labelled with the phase it executes.
  obs::ScopedSpan span(assignment.options.op_name,
                       assignment.kind == DataSetKind::kMap ? "map"
                                                            : "reduce");
  span.set_task(assignment.dataset_id, assignment.source, assignment.attempt);

  // Batched pull first: one round trip per peer hosting several of this
  // task's input buckets, instead of one per bucket.
  std::map<std::string, std::string> prefetched;
  BatchPrefetch(assignment, &prefetched);

  // Each fetch attempt may be chaos-failed; the retry wrapper absorbs
  // transient misses with backoff, so only a persistently unreachable
  // peer surfaces as a task failure (and a bad_url lineage report).
  UrlFetcher fetch = [this, &span, &assignment,
                      &prefetched](const std::string& url) {
    obs::ScopedSpan fetch_span("fetch", "fetch");
    fetch_span.set_task(assignment.dataset_id, assignment.source,
                        assignment.attempt);
    Result<std::string> got = [&]() -> Result<std::string> {
      auto hit = prefetched.find(url);
      if (hit != prefetched.end()) return hit->second;
      return CallWithRetry(DefaultFetchRetryPolicy(), &CountFetchRetry,
                           [&]() -> Result<std::string> {
                             if (DrawFetchFault()) {
                               return UnavailableError(
                                   "injected fetch fault (chaos): " + url);
                             }
                             return ResolveUrl(url);
                           });
    }();
    if (got.ok()) {
      fetch_span.add_bytes_in(static_cast<int64_t>(got->size()));
      span.add_bytes_in(static_cast<int64_t>(got->size()));
    }
    return got;
  };

  // Out-of-core execution: when the process memory budget is active,
  // every task attempt gets its own spill file (a rerun never overwrites
  // runs a published bucket still references).  It is deleted on every
  // failure path, and kept only while the store serves its runs.
  std::optional<TaskSpillContext> spill = NewTaskSpillContext(
      "slave" + std::to_string(id_), assignment.dataset_id, assignment.source);
  const TaskSpillContext* spill_ptr = spill ? &*spill : nullptr;

  // Resident input (iterative/BSP): the master either promises this slave
  // still caches the pinned split's loaded column (resident_cached,
  // inputs omitted) or ships full inputs that (re)populate the cache.  A
  // broken promise — restart, lost state — is reported as a resident://
  // cache miss, which the master treats as environmental and answers by
  // re-sending full inputs.
  std::vector<Bucket> column;
  if (!assignment.resident_key.empty() && assignment.resident_cached) {
    static obs::Counter* resident_hits =
        obs::Registry::Instance().GetCounter("mrs.slave.resident_hits");
    static obs::Counter* resident_misses =
        obs::Registry::Instance().GetCounter("mrs.slave.resident_misses");
    MutexLock lock(store_mutex_);
    auto it = resident_cache_.find(assignment.resident_key);
    if (it == resident_cache_.end()) {
      resident_misses->Inc();
      return DataLossError("resident cache miss: " +
                           std::string(kResidentMissScheme) +
                           assignment.resident_key);
    }
    resident_hits->Inc();
    column = it->second;  // copy: the task consumes its input
  } else {
    column = InputColumn(assignment.inputs);
  }

  auto compute_row = [&]() -> Result<std::vector<Bucket>> {
    if (!assignment.resident_key.empty() && !assignment.resident_cached) {
      // First round over a pinned split (or a re-send after a miss):
      // remember the loaded column so later supersteps skip the
      // fetch+decode entirely.
      for (Bucket& b : column) MRS_RETURN_IF_ERROR(b.EnsureLoaded(fetch));
      MutexLock lock(store_mutex_);
      resident_cache_[assignment.resident_key] = column;
    }
    return RunTaskOnBuckets(*program_, assignment.kind, assignment.options,
                            assignment.num_splits, std::move(column), fetch,
                            spill_ptr);
  };
  // A throw from user code fails this attempt like any other task error,
  // so the master retries it up to max_task_attempts.
  MRS_ASSIGN_OR_RETURN(std::vector<Bucket> row,
                       CatchUserExceptions("task", compute_row));

  // Publish each bucket as one StoredBucket: its payload and checksum, or,
  // once it spilled, its runs (hosting those costs no memory).  The store
  // serves it over HTTP; the shared filesystem (the fault-tolerant path of
  // paper §IV-B) holds it as the frames it would be served as, so every
  // frame there carries its checksum too.
  XmlRpcArray urls;
  std::vector<SpillRun> published_runs;
  for (int p = 0; p < assignment.num_splits; ++p) {
    Bucket& b = row[static_cast<size_t>(p)];
    std::string rel = std::to_string(assignment.dataset_id) + "/" +
                      std::to_string(assignment.source) + "/" +
                      std::to_string(p);
    StoredBucket stored;
    if (b.spilled()) {
      stored.runs = b.spill_runs();
      for (const SpillRun& run : stored.runs) {
        span.add_bytes_out(static_cast<int64_t>(run.bytes));
        published_runs.push_back(run);
      }
    } else {
      stored.data = EncodeBinaryRecords(b.records());
      stored.checksum = ContentChecksum(stored.data);
      span.add_bytes_out(static_cast<int64_t>(stored.data.size()));
    }
    if (config_.shared_dir.empty()) {
      {
        MutexLock lock(store_mutex_);
        store_[rel] = std::move(stored);
      }
      urls.push_back(XmlRpcValue("http://" + data_server_->addr().ToString() +
                                 "/bucket/" + rel));
      continue;
    }
    std::vector<BucketFrame> frames;
    MRS_RETURN_IF_ERROR(stored.MoveFramesTo(rel, &frames));
    std::string dir = JoinPath(config_.shared_dir,
                               std::to_string(assignment.dataset_id));
    MRS_RETURN_IF_ERROR(EnsureDir(dir));
    std::string file = JoinPath(
        dir, "source_" + std::to_string(assignment.source) + "_split_" +
                 std::to_string(p) + ".mrsb");
    MRS_RETURN_IF_ERROR(WriteFileAtomic(file, EncodeBucketFrames(frames)));
    {
      MutexLock lock(store_mutex_);
      dataset_files_[assignment.dataset_id].push_back(file);
    }
    urls.push_back(XmlRpcValue("file://" + file));
  }

  // The spill file stays while the store serves runs from it; otherwise
  // (nothing spilled, or the runs were copied to the shared filesystem)
  // it holds only dead runs and goes with the context.
  if (spill && config_.shared_dir.empty() && !published_runs.empty()) {
    spill->file->Keep();
    MutexLock lock(store_mutex_);
    dataset_files_[assignment.dataset_id].push_back(spill->file->path());
  }

  // Chaos: flip one byte inside a just-published run.  The fetching peer's
  // frame checksum catches it (kDataLoss), retries exhaust, and the
  // master's lineage machinery re-executes this task.
  if (!published_runs.empty() && spill_corrupt_remaining_.load() > 0 &&
      spill_corrupt_remaining_.fetch_sub(1) > 0) {
    const SpillRun& victim = published_runs.front();
    Result<std::string> raw = ReadFileToString(victim.path);
    if (raw.ok() && raw->size() >= victim.offset + victim.length) {
      size_t at = static_cast<size_t>(victim.offset + victim.length / 2);
      (*raw)[at] = static_cast<char>((*raw)[at] ^ 0x40);
      Status s = WriteFileAtomic(victim.path, *raw);
      MRS_LOG(kWarning, "slave")
          << "slave " << id_ << " corrupted spill run " << victim.path << "@"
          << victim.offset << " (chaos): " << s.ToString();
    }
  }

  // Limping-node chaos: stretch this task's wall time by the configured
  // multiplier before reporting — exercises straggler detection with a
  // latency profile proportional to real work, unlike slow_task_seconds.
  if (config_.faults.slow_everything > 1.0) {
    double elapsed = RealClock::Instance().Now() - exec_start;
    SleepForSeconds(elapsed * (config_.faults.slow_everything - 1.0));
  }

  // The attempt number rides along for the same idempotency contract as
  // task_failed: a duplicated delivery (or a losing speculative twin) is
  // dropped by the master's completed-state guard, not double-counted.
  MRS_ASSIGN_OR_RETURN(
      XmlRpcValue reply,
      rpc_->Call("task_done",
                 XmlRpcArray{XmlRpcValue(static_cast<int64_t>(id_)),
                             XmlRpcValue(static_cast<int64_t>(
                                 assignment.dataset_id)),
                             XmlRpcValue(static_cast<int64_t>(
                                 assignment.source)),
                             XmlRpcValue(std::move(urls)),
                             XmlRpcValue(static_cast<int64_t>(
                                 assignment.attempt))}));
  (void)reply;
  tasks_executed_.fetch_add(1);
  static obs::Counter* executed =
      obs::Registry::Instance().GetCounter("mrs.slave.tasks_executed");
  executed->Inc();
  return Status::Ok();
}

std::string Slave::StatusJson() {
  size_t buckets = 0;
  size_t bytes = 0;
  size_t spilled_buckets = 0;
  size_t spill_runs = 0;
  uint64_t spill_bytes = 0;
  {
    MutexLock lock(store_mutex_);
    buckets = store_.size();
    for (const auto& [key, stored] : store_) {
      bytes += stored.data.size();
      if (stored.runs.empty()) continue;
      ++spilled_buckets;
      spill_runs += stored.runs.size();
      for (const SpillRun& run : stored.runs) spill_bytes += run.bytes;
    }
  }
  const MemoryBudget& budget = MemoryBudget::Process();
  std::string out = "{\"role\":\"slave\",\"id\":" + std::to_string(id_);
  out += ",\"crashed\":";
  out += crashed_.load() ? "true" : "false";
  out += ",\"tasks_executed\":" + std::to_string(tasks_executed_.load());
  out += ",\"store\":{\"buckets\":" + std::to_string(buckets);
  out += ",\"bytes\":" + std::to_string(bytes) + "}";
  out += ",\"spill\":{\"buckets\":" + std::to_string(spilled_buckets);
  out += ",\"runs\":" + std::to_string(spill_runs);
  out += ",\"run_bytes\":" + std::to_string(spill_bytes);
  out += ",\"budget_limit\":" + std::to_string(budget.limit());
  out += ",\"budget_usage\":" + std::to_string(budget.usage());
  out += ",\"budget_high_water\":" + std::to_string(budget.high_water());
  out += "}}";
  return out;
}

Status Slave::Run() {
  int idle_streak = 0;
  bool drain_sent = false;
  while (!stop_.load()) {
    // Graceful retirement: tell the master once, then keep polling (and
    // serving buckets) until it answers a get_task with "quit".  The
    // master re-homes our hosted rows through lineage before releasing us.
    if (!drain_sent &&
        (drain_requested_.load() || ProcessDrainRequested())) {
      drain_sent = true;
      MRS_LOG(kInfo, "slave") << "slave " << id_
                              << " draining; awaiting release from master";
      Result<XmlRpcValue> r = rpc_->Call(
          "drain", XmlRpcArray{XmlRpcValue(static_cast<int64_t>(id_))});
      if (!r.ok()) {
        MRS_LOG(kWarning, "slave")
            << "drain request failed (master will time the drain out): "
            << r.status().ToString();
      }
      if (config_.faults.drain_then_crash) {
        // Chaos: the grace period is cut short — die without collecting
        // the release.  The master's drain deadline reaps us.
        MRS_LOG(kWarning, "slave")
            << "slave " << id_ << " hard-crashing mid-drain (chaos)";
        Crash();
        return UnavailableError("slave crashed mid-drain (chaos injection)");
      }
    }
    Result<XmlRpcValue> reply = rpc_->Call(
        "get_task", XmlRpcArray{XmlRpcValue(static_cast<int64_t>(id_))});
    if (stop_.load()) break;
    if (!reply.ok()) {
      // Master gone?  Retry briefly, then give up.
      if (++idle_streak > 20) {
        return UnavailableError("lost contact with master: " +
                                reply.status().ToString());
      }
      if (StoppedWithin(0.05)) break;
      continue;
    }
    idle_streak = 0;
    HandleDiscards(*reply);

    auto kind_field = reply->Field("kind");
    if (!kind_field.ok()) return kind_field.status();
    MRS_ASSIGN_OR_RETURN(std::string kind, (*kind_field)->AsString());

    if (kind == "quit") return Status::Ok();
    if (kind == "wait") continue;  // long poll already waited server-side
    if (kind != "task") return ProtocolError("unexpected get_task kind: " + kind);

    Result<TaskAssignment> assignment = TaskAssignment::FromRpc(*reply);
    if (!assignment.ok()) return assignment.status();

    Status exec = ExecuteAssignment(*assignment);
    if (exec.ok()) {
      // Chaos: die the instant the Nth task has been reported complete —
      // the master now holds URLs pointing at a corpse.
      if (config_.faults.crash_after_n_tasks >= 0 &&
          tasks_executed_.load() >= config_.faults.crash_after_n_tasks) {
        MRS_LOG(kWarning, "slave")
            << "slave " << id_ << " hard-crashing after "
            << tasks_executed_.load() << " tasks (chaos)";
        Crash();
        return UnavailableError("slave crashed (chaos injection)");
      }
      continue;
    }
    // Identify a bad input URL for lineage recovery, if the failure was
    // a fetch error — or a resident:// cache-miss token, which tells the
    // master to clear our cache bit and re-send full inputs.
    std::string bad_url;
    if (size_t pos = exec.message().find(kResidentMissScheme);
        pos != std::string::npos) {
      size_t end = exec.message().find_first_of(" \t\n", pos);
      bad_url = exec.message().substr(
          pos, end == std::string::npos ? std::string::npos : end - pos);
    } else {
      for (const TaskInputPart& part : assignment->inputs) {
        if (!part.inline_records &&
            exec.message().find(part.url) != std::string::npos) {
          bad_url = part.url;
          break;
        }
      }
    }
    // The attempt number makes the report idempotent on the master: a
    // duplicated delivery (retry after a lost response) charges the
    // attempt budget once, not twice.
    Result<XmlRpcValue> r = rpc_->Call(
        "task_failed",
        XmlRpcArray{
            XmlRpcValue(static_cast<int64_t>(id_)),
            XmlRpcValue(static_cast<int64_t>(assignment->dataset_id)),
            XmlRpcValue(static_cast<int64_t>(assignment->source)),
            XmlRpcValue(exec.ToString()), XmlRpcValue(bad_url),
            XmlRpcValue(static_cast<int64_t>(assignment->attempt))});
    if (!r.ok()) {
      MRS_LOG(kWarning, "slave") << "task_failed report failed: "
                                 << r.status().ToString();
    }
  }
  if (crashed_.load()) {
    return UnavailableError("slave crashed (chaos injection)");
  }
  return Status::Ok();
}

}  // namespace mrs
