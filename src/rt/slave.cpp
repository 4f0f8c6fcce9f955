#include "rt/slave.h"

#include <algorithm>
#include <chrono>
#include <optional>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/hash.h"
#include "common/log.h"
#include "common/strings.h"
#include "core/fetch_registry.h"
#include "core/task.h"
#include "fs/bucket.h"
#include "fs/file_io.h"
#include "fs/merge.h"
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

/// Parse a spill run file into its single frame WITHOUT verifying the
/// payload checksum.  Serving is a pass-through: the fetching peer's
/// DecodeBucketFrames is the integrity check, so a run corrupted on disk
/// surfaces client-side as kDataLoss (retry, then bad_url lineage
/// recovery) exactly like a truncated network transfer — not as an
/// unattributable serve-time error.
Result<BucketFrame> ReadRunFrameRaw(const std::string& path) {
  MRS_ASSIGN_OR_RETURN(std::string raw, ReadFileToString(path));
  if (!StartsWith(raw, kBucketFramesFormat)) {
    return DataLossError("spill run " + path + " missing mrsk1 magic");
  }
  ByteReader r(std::string_view(raw).substr(kBucketFramesFormat.size()));
  MRS_ASSIGN_OR_RETURN(uint64_t count, r.GetVarint());
  if (count != 1) {
    return DataLossError("spill run " + path + " holds " +
                         std::to_string(count) + " frames, want 1");
  }
  BucketFrame f;
  MRS_ASSIGN_OR_RETURN(f.id, r.GetLengthPrefixed());
  MRS_ASSIGN_OR_RETURN(f.checksum, r.GetLengthPrefixed());
  MRS_ASSIGN_OR_RETURN(f.data, r.GetLengthPrefixed());
  return f;
}

/// Assemble the served frames for a run-backed bucket: one frame per run,
/// relabelled "<key>#run<i>" so batched fetchers can regroup frames per
/// bucket.  Relabelling is safe because the per-frame checksum covers only
/// the data, never the id.
Result<std::vector<BucketFrame>> RunBackedFrames(
    const std::string& key, const std::vector<SpillRun>& runs) {
  std::vector<BucketFrame> frames;
  frames.reserve(runs.size());
  for (size_t i = 0; i < runs.size(); ++i) {
    MRS_ASSIGN_OR_RETURN(BucketFrame f, ReadRunFrameRaw(runs[i].path));
    f.id = key + "#run" + std::to_string(i);
    frames.push_back(std::move(f));
  }
  return frames;
}
}  // namespace

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
  rpc_->set_retry_policy(config_.rpc_retry);

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
  const int log_threshold = std::max(1, config_.ping_failure_log_threshold);
  double interval = base_interval;
  int consecutive_failures = 0;
  while (!stop_.load()) {
    // Sleep in short slices so Stop() takes effect promptly.
    for (double slept = 0; slept < interval && !stop_.load(); slept += 0.05) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (stop_.load()) return;
    if (InPingDropWindow()) continue;
    Result<XmlRpcValue> r = ping_rpc_->Call(
        "ping", XmlRpcArray{XmlRpcValue(static_cast<int64_t>(id_))});
    if (r.ok()) {
      consecutive_failures = 0;
      interval = base_interval;
      continue;
    }
    ++consecutive_failures;
    if (consecutive_failures % log_threshold == 0) {
      MRS_LOG(kWarning, "slave")
          << "slave " << id_ << ": " << consecutive_failures
          << " consecutive pings failed (last: " << r.status().ToString()
          << "); next ping in " << interval << "s";
    }
    interval = std::min(interval * 2, base_interval * 10);
  }
}

Slave::~Slave() {
  Stop();
  if (ping_thread_.joinable()) ping_thread_.join();
  if (data_server_) data_server_->Shutdown();
}

void Slave::Crash() {
  crashed_.store(true);
  stop_.store(true);
  if (data_server_) data_server_->Shutdown();
}

HttpResponse Slave::ServeData(const HttpRequest& req) {
  auto [path, query] = SplitTarget(req.target);
  if (path == "/bucket" && FormatAccepted(req.headers, kBucketFramesFormat)) {
    return ServeBucketBatch(query);
  }
  if (!StartsWith(path, "/bucket/")) return HttpResponse::NotFound();
  std::string key(path.substr(8));
  StoredBucket stored;
  {
    MutexLock lock(store_mutex_);
    auto it = store_.find(key);
    if (it == store_.end()) return HttpResponse::NotFound("no bucket " + key);
    stored = it->second;
  }
  if (stored.runs.empty()) {
    HttpResponse resp =
        HttpResponse::Ok(std::move(stored.data), "application/octet-stream");
    resp.headers.Set(std::string(kMrsChecksumHeader), stored.checksum);
    return resp;
  }
  // Run-backed: stream the spill runs into an mrsk1 frame set (file IO
  // happens outside the store lock).  The whole-body checksum is computed
  // over the assembled bytes, so transport integrity and on-disk integrity
  // are guarded independently — the latter by the per-frame checksums the
  // client verifies.
  static obs::Counter* served =
      obs::Registry::Instance().GetCounter("mrs.spill.buckets_served");
  Result<std::vector<BucketFrame>> frames = RunBackedFrames(key, stored.runs);
  if (!frames.ok()) {
    return HttpResponse::NotFound("bucket " + key + " spill data unreadable: " +
                                  frames.status().ToString());
  }
  served->Inc();
  std::string body = EncodeBucketFrames(*frames);
  HttpResponse resp = HttpResponse::Ok(std::move(body),
                                       "application/octet-stream");
  resp.headers.Set(std::string(kMrsChecksumHeader),
                   ContentChecksum(resp.body));
  return resp;
}

HttpResponse Slave::ServeBucketBatch(std::string_view query) {
  std::string_view ids;
  for (std::string_view kv : SplitChar(query, '&')) {
    if (StartsWith(kv, "ids=")) ids = kv.substr(4);
  }
  if (ids.empty()) return HttpResponse::BadRequest("missing ids= parameter");
  // Copy store entries under the lock; run files are read outside it.
  struct Entry {
    std::string id;
    StoredBucket stored;
  };
  std::vector<Entry> entries;
  {
    MutexLock lock(store_mutex_);
    for (std::string_view id : SplitChar(ids, ',')) {
      auto it = store_.find(std::string(id));
      if (it == store_.end()) {
        return HttpResponse::NotFound("no bucket " + std::string(id));
      }
      entries.push_back(Entry{std::string(id), it->second});
    }
  }
  std::vector<BucketFrame> frames;
  for (Entry& e : entries) {
    if (e.stored.runs.empty()) {
      frames.push_back(BucketFrame{std::move(e.id),
                                   std::move(e.stored.checksum),
                                   std::move(e.stored.data)});
      continue;
    }
    // Run-backed bucket: one "<id>#run<i>" frame per spill run.  An
    // unreadable run fails the whole batch, and the per-bucket fallback
    // pins down which bucket is gone.
    Result<std::vector<BucketFrame>> run_frames =
        RunBackedFrames(e.id, e.stored.runs);
    if (!run_frames.ok()) {
      return HttpResponse::NotFound("no bucket " + e.id +
                                    " (spill data unreadable)");
    }
    for (BucketFrame& f : *run_frames) frames.push_back(std::move(f));
  }
  HttpResponse resp = HttpResponse::Ok(EncodeBucketFrames(frames),
                                       "application/octet-stream");
  resp.headers.Set(std::string(kMrsFormatHeader),
                   std::string(kBucketFramesFormat));
  return resp;
}

void Slave::HandleDiscards(const XmlRpcValue& response) {
  auto discard = response.Field("discard");
  if (!discard.ok()) return;
  auto arr = (*discard)->AsArray();
  if (!arr.ok()) return;
  // Run files of discarded run-backed buckets are deleted after the store
  // erase (outside the lock): once the entry is gone nothing can serve
  // them, and reclaiming the disk keeps long jobs bounded.
  std::vector<SpillRun> dead_runs;
  {
    MutexLock lock(store_mutex_);
    for (const XmlRpcValue& v : **arr) {
      auto id = v.AsInt();
      if (!id.ok()) continue;
      std::string prefix = std::to_string(*id) + "/";
      for (auto it = store_.lower_bound(prefix); it != store_.end();) {
        if (!StartsWith(it->first, prefix)) break;
        for (SpillRun& run : it->second.runs) {
          dead_runs.push_back(std::move(run));
        }
        it = store_.erase(it);
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
  for (const SpillRun& run : dead_runs) RemoveSpillRun(run);
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
    Result<HttpUrl> parsed = HttpUrl::Parse(base);
    if (!parsed.ok()) continue;
    batch_fetches->Inc();
    // Single attempt, no retry: this is an opportunistic fast path.  Any
    // failure — chaos fault, dead peer, an old peer 404ing the bare
    // /bucket path — leaves the URLs to the per-URL fetcher, which owns
    // retry/backoff and bad_url lineage reporting.
    Result<HttpResponse> got = [&]() -> Result<HttpResponse> {
      if (DrawFetchFault()) {
        return UnavailableError("injected fetch fault (chaos): batch " + base);
      }
      HttpRequest req;
      req.method = "GET";
      req.target = "/bucket?ids=" + Join(bucket_ids, ",");
      req.headers.Set(std::string(kMrsFormatHeader),
                      std::string(kBucketFramesFormat));
      return ConnectionPool::Instance().Do(
          SocketAddr{parsed->host, parsed->port}, std::move(req));
    }();
    if (!got.ok() || got->status_code != 200) {
      batch_fallbacks->Inc();
      continue;
    }
    auto fmt = got->headers.Get(kMrsFormatHeader);
    if (!fmt.has_value() || *fmt != kBucketFramesFormat) {
      batch_fallbacks->Inc();  // peer answered but not in mrsk1
      continue;
    }
    Result<std::vector<BucketFrame>> frames = DecodeBucketFrames(got->body);
    if (!frames.ok()) {
      batch_fallbacks->Inc();  // corrupt payload; per-URL path will retry
      continue;
    }
    // Plain buckets arrive one frame each; a run-backed bucket arrives as
    // several "<id>#run<i>" frames, re-encoded here into one frame-set
    // body per bucket (run order preserved) that the fetch side's
    // DecodeBucketBody reassembles.
    size_t fetched_buckets = 0;
    std::map<std::string, std::vector<BucketFrame>> run_backed;
    for (BucketFrame& f : *frames) {
      size_t mark = f.id.rfind("#run");
      if (mark == std::string::npos) {
        (*out)[base + "/bucket/" + f.id] = std::move(f.data);
        ++fetched_buckets;
      } else {
        run_backed[f.id.substr(0, mark)].push_back(std::move(f));
      }
    }
    for (auto& [bucket_id, bucket_frames] : run_backed) {
      (*out)[base + "/bucket/" + bucket_id] = EncodeBucketFrames(bucket_frames);
      ++fetched_buckets;
    }
    batch_buckets->Inc(static_cast<int64_t>(fetched_buckets));
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
      return CallWithRetry(config_.fetch_retry, &CountFetchRetry,
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
  // every task attempt gets its own spill directory (a rerun never
  // overwrites run files a published bucket still references).
  std::optional<TaskSpillContext> spill = NewTaskSpillContext(
      "slave" + std::to_string(id_), assignment.dataset_id, assignment.source);
  const TaskSpillContext* spill_ptr = spill ? &*spill : nullptr;

  // Resident input (iterative/BSP): the master either promises this slave
  // still caches the pinned split's decoded records (resident_cached,
  // inputs omitted) or ships full inputs that (re)populate the cache.  A
  // broken promise — restart, lost state — is reported as a resident://
  // cache miss, which the master treats as environmental and answers by
  // re-sending full inputs.
  std::vector<KeyValue> resident_input;
  bool have_resident_input = false;
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
    resident_input = it->second;  // copy: the task consumes its input
    have_resident_input = true;
  }

  auto compute_row = [&]() -> Result<std::vector<Bucket>> {
    if (assignment.kind == DataSetKind::kReduce && spill_ptr != nullptr &&
        assignment.resident_key.empty()) {
      // Budgeted reduce: stage each input part on disk as a sorted run
      // (one part resident at a time) and stream the k-way merge, so the
      // full reduce input is never materialized in memory.
      std::vector<std::unique_ptr<MergeSource>> sources;
      size_t seq = 0;
      for (const TaskInputPart& part : assignment.inputs) {
        MRS_ASSIGN_OR_RETURN(std::vector<KeyValue> recs,
                             LoadTaskInput({part}, fetch));
        std::stable_sort(recs.begin(), recs.end(), KeyValueLess);
        std::string path =
            JoinPath(spill->dir, "input_run" + std::to_string(seq) + ".mrsk");
        MRS_ASSIGN_OR_RETURN(
            SpillRun run,
            WriteSpillRun(path,
                          spill->id_prefix + "/in" + std::to_string(seq),
                          recs, /*sorted=*/true));
        ++seq;
        sources.push_back(std::make_unique<SpillRunSource>(std::move(run)));
      }
      return ReduceMergedSources(*program_, assignment.options,
                                 assignment.num_splits, std::move(sources),
                                 spill_ptr);
    }
    std::vector<KeyValue> input;
    if (have_resident_input) {
      input = std::move(resident_input);
    } else {
      MRS_ASSIGN_OR_RETURN(input, LoadTaskInput(assignment.inputs, fetch));
      if (!assignment.resident_key.empty()) {
        // First round over a pinned split (or a re-send after a miss):
        // remember the decoded records so later supersteps skip the
        // fetch+decode entirely.
        MutexLock lock(store_mutex_);
        resident_cache_[assignment.resident_key] = input;
      }
    }
    return RunTask(*program_, assignment.kind, assignment.options,
                   assignment.num_splits, std::move(input), spill_ptr);
  };
  // A throw from user code fails this attempt like any other task error,
  // so the master retries it up to max_task_attempts.
  MRS_ASSIGN_OR_RETURN(std::vector<Bucket> row,
                       CatchUserExceptions("task", compute_row));

  // Publish each bucket and collect URLs.  A spilled bucket is published
  // run-backed: hosting it costs no memory, and the data plane streams the
  // runs at serve time.
  XmlRpcArray urls;
  std::vector<std::string> published_run_files;
  for (int p = 0; p < assignment.num_splits; ++p) {
    Bucket& b = row[static_cast<size_t>(p)];
    std::string rel = std::to_string(assignment.dataset_id) + "/" +
                      std::to_string(assignment.source) + "/" +
                      std::to_string(p);
    if (b.spilled()) {
      for (const SpillRun& run : b.spill_runs()) {
        span.add_bytes_out(static_cast<int64_t>(run.bytes));
        published_run_files.push_back(run.path);
      }
      if (config_.shared_dir.empty()) {
        {
          MutexLock lock(store_mutex_);
          StoredBucket& stored = store_[rel];
          stored.data.clear();
          stored.checksum.clear();
          stored.runs = b.spill_runs();
        }
        urls.push_back(XmlRpcValue("http://" +
                                   data_server_->addr().ToString() +
                                   "/bucket/" + rel));
      } else {
        // Shared filesystem: assemble the runs into one mrsk1 frame-set
        // file (DecodeBucketBody on the read side reassembles it).
        MRS_ASSIGN_OR_RETURN(std::vector<BucketFrame> frames,
                             RunBackedFrames(rel, b.spill_runs()));
        std::string dir = JoinPath(config_.shared_dir,
                                   std::to_string(assignment.dataset_id));
        MRS_RETURN_IF_ERROR(EnsureDir(dir));
        std::string file = JoinPath(
            dir, "source_" + std::to_string(assignment.source) + "_split_" +
                     std::to_string(p) + ".mrsb");
        MRS_RETURN_IF_ERROR(WriteFileAtomic(file, EncodeBucketFrames(frames)));
        urls.push_back(XmlRpcValue("file://" + file));
      }
      continue;
    }
    std::string encoded = EncodeBinaryRecords(b.records());
    span.add_bytes_out(static_cast<int64_t>(encoded.size()));
    if (config_.shared_dir.empty()) {
      // Direct communication: keep in memory, serve over HTTP.
      {
        MutexLock lock(store_mutex_);
        StoredBucket& stored = store_[rel];
        stored.runs.clear();
        stored.checksum = ContentChecksum(encoded);
        stored.data = std::move(encoded);
      }
      urls.push_back(XmlRpcValue("http://" + data_server_->addr().ToString() +
                                 "/bucket/" + rel));
    } else {
      // Fault-tolerant path: write to the shared filesystem.
      std::string dir = JoinPath(config_.shared_dir,
                                 std::to_string(assignment.dataset_id));
      MRS_RETURN_IF_ERROR(EnsureDir(dir));
      std::string file = JoinPath(
          dir, "source_" + std::to_string(assignment.source) + "_split_" +
                   std::to_string(p) + ".mrsb");
      MRS_RETURN_IF_ERROR(WriteFileAtomic(file, encoded));
      urls.push_back(XmlRpcValue("file://" + file));
    }
  }

  // Chaos: flip one byte inside a just-published run file.  The fetching
  // peer's frame checksum catches it (kDataLoss), retries exhaust, and the
  // master's lineage machinery re-executes this task.
  if (!published_run_files.empty() && spill_corrupt_remaining_.load() > 0 &&
      spill_corrupt_remaining_.fetch_sub(1) > 0) {
    const std::string& victim = published_run_files.front();
    Result<std::string> raw = ReadFileToString(victim);
    if (raw.ok() && !raw->empty()) {
      (*raw)[raw->size() / 2] = static_cast<char>((*raw)[raw->size() / 2] ^ 0x40);
      Status s = WriteFileAtomic(victim, *raw);
      MRS_LOG(kWarning, "slave")
          << "slave " << id_ << " corrupted spill run " << victim
          << " (chaos): " << s.ToString();
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
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
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
