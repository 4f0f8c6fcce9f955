// The Mrs slave: executes tasks and serves its output to peers.
//
// A slave needs "only the master's address and port to connect" (paper
// §IV).  It runs a built-in HTTP server from which the master and peer
// slaves fetch bucket data directly (the direct-communication path: a
// bucket is served from memory, or, once it spilled under the memory
// budget, from its spill runs on local disk), signs in, long-polls for
// assignments, executes them through the shared task executor, and
// reports the bucket URLs back.
//
// Because Mrs targets shared clusters where "a job scheduler may kill
// processes at any time", the slave also embeds a chaos-injection harness
// (FaultPlan) so tests can crash slaves mid-job, drop heartbeats, fail
// fetches probabilistically, and add stragglers — exercising the master's
// lineage-recovery machinery end to end.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/status.h"
#include "core/program.h"
#include "fs/bucket.h"
#include "fs/spill.h"
#include "http/server.h"
#include "rt/protocol.h"
#include "xmlrpc/client.h"

namespace mrs {

class Slave {
 public:
  /// Chaos-injection plan (tests only; every knob defaults off).
  struct FaultPlan {
    /// Report failure for this many tasks before doing real work.
    int fail_first_n_tasks = 0;
    /// >= 0: hard-kill the slave (data server down, pings stop, loop
    /// abandoned without signoff) once it has completed this many tasks.
    int crash_after_n_tasks = -1;
    /// >= 0: once this many tasks completed, stop sending pings ...
    int drop_pings_after_n_tasks = -1;
    /// ... for this long; the slave looks dead, then revives.
    double drop_pings_for_seconds = 0;
    /// Each individual fetch attempt fails with this probability (the
    /// retry layer sees a kUnavailable transport error).
    double fail_fetch_probability = 0;
    /// Straggler: sleep this long before executing each task.
    double slow_task_seconds = 0;
    /// Global latency multiplier (> 1 slows the slave down): after each
    /// task executes, sleep (multiplier - 1) x its elapsed time before
    /// reporting completion — a limping node rather than a fixed delay.
    double slow_everything = 0;
    /// After the drain RPC is sent, hard-crash instead of polling for the
    /// release — a SIGTERM'd slave whose grace period was cut short.
    bool drain_then_crash = false;
    /// Corrupt this many published spill-run-backed buckets (flip one byte
    /// in the first run's byte range before task_done).  The fetching peer sees a
    /// frame checksum mismatch (kDataLoss), exhausts its retries, and the
    /// failed task's bad_url report drives lineage re-execution — the
    /// out-of-core analogue of a truncated transfer.
    int spill_corrupt = 0;
    /// Chaos RNG stream (fetch-fault draws).
    uint64_t seed = 0x9e3779b97f4a7c15ull;
  };

  struct Config {
    SocketAddr master;
    std::string host = "127.0.0.1";
    uint16_t data_port = 0;  // HTTP data server; 0 = ephemeral
    double ping_interval = 2.0;
    /// If non-empty, write each bucket to this (shared) directory as its
    /// mrsk1 frame set and publish file:// URLs instead of serving it — the
    /// fault-tolerant path of paper §IV-B.
    std::string shared_dir;
    FaultPlan faults;
  };

  /// Start the data server and sign in to the master.
  static Result<std::unique_ptr<Slave>> Start(MapReduce* program,
                                              Config config);
  ~Slave();

  Slave(const Slave&) = delete;
  Slave& operator=(const Slave&) = delete;

  int id() const { return id_; }
  const SocketAddr& data_addr() const { return data_server_->addr(); }

  /// Main loop: poll for tasks until the master says quit or Stop() is
  /// called.  Returns the loop's exit status.
  Status Run();

  /// Ask the loop to exit, and wake the ping thread and a lost-master
  /// retry pause at once (safe from other threads).
  void Stop();

  /// Graceful retirement (safe from other threads): the main loop sends
  /// the `drain` RPC once, keeps serving its buckets, and exits when the
  /// master releases it with "quit".
  void RequestDrain() { drain_requested_.store(true); }

  /// Hard-kill for chaos tests: the data server goes down immediately,
  /// pings stop, and the main loop exits without signing off — exactly
  /// what a scheduler's SIGKILL looks like to the rest of the cluster.
  /// Safe from other threads.  Irreversible.
  void Crash();
  bool crashed() const { return crashed_.load(); }

  int64_t tasks_executed() const { return tasks_executed_.load(); }

  /// The /status document served by the data server: slave id, task
  /// counts, and bucket-store occupancy as JSON.  Thread-safe.
  std::string StatusJson();

 private:
  Slave(MapReduce* program, Config config);
  Status Init();
  /// "GET /bucket/<id>", and "GET /bucket?ids=a,b,c" when the request
  /// accepts mrsk1 (X-Mrs-Format): every requested bucket's frames in one
  /// frame set.  A lone in-memory bucket on the single route goes as its
  /// plain record stream with X-Mrs-Checksum.  A missing id, or a spill run
  /// that cannot be read, fails the whole request with 404.  Checksums are
  /// FNV-1a unless the request named `xxh64`.
  HttpResponse ServeData(const HttpRequest& req);
  Status ExecuteAssignment(const TaskAssignment& assignment);
  /// Best-effort batched pull of this assignment's http inputs, one round
  /// trip per peer that hosts two or more of them.  Successfully fetched
  /// bodies land in `out` keyed by URL; on any failure (old peer, chaos,
  /// transport) the affected URLs are simply left for the per-URL path,
  /// which owns retries and bad_url reporting.
  void BatchPrefetch(const TaskAssignment& assignment,
                     std::map<std::string, std::string>* out);
  void HandleDiscards(const XmlRpcValue& response);
  bool DrawFetchFault();
  bool InPingDropWindow();
  /// Wait up to `seconds`, returning early once Stop() or Crash() is
  /// called.  True if the slave is stopping.
  bool StoppedWithin(double seconds);

  void PingLoop();

  MapReduce* program_;
  Config config_;
  int id_ = 0;
  std::unique_ptr<HttpServer> data_server_;
  std::unique_ptr<XmlRpcClient> rpc_;
  // Heartbeats run on their own connection so a long-running task (which
  // keeps the main loop away from get_task) never looks like a dead slave
  // to the master.
  std::unique_ptr<XmlRpcClient> ping_rpc_;
  std::thread ping_thread_;
  // Set under stop_mutex_ so a StoppedWithin wait cannot miss it; read
  // without the lock everywhere else.
  std::atomic<bool> stop_{false};
  Mutex stop_mutex_;
  CondVar stop_cv_;
  std::atomic<bool> crashed_{false};
  std::atomic<bool> drain_requested_{false};
  std::atomic<int64_t> tasks_executed_{0};
  std::atomic<int> faults_remaining_{0};
  std::atomic<int> spill_corrupt_remaining_{0};
  std::atomic<uint64_t> chaos_rng_{0};
  double ping_drop_until_ = 0;  // ping thread only; 0 = window not started

  // One published bucket: its encoded payload with the ContentChecksum
  // computed once at publish time, or, for a bucket that spilled under the
  // memory budget, its spill runs (byte ranges of the producing attempt's
  // spill file) with `data` empty, so hosting it costs no memory.  Either
  // way it leaves as frames: served from the store, or written to the
  // shared directory at publish time.
  struct StoredBucket {
    std::string data;
    std::string checksum;
    std::vector<SpillRun> runs;

    /// Append this bucket's frames under bucket id `id`: the payload as one
    /// frame (moved out), or one RunFrameId(id, i) frame per run, read
    /// unverified so that damage on disk is kDataLoss where it is decoded.
    /// A run that cannot be read is an error.
    Status MoveFramesTo(const std::string& id,
                        std::vector<BucketFrame>* frames);
  };
  // The bucket store: "<dataset>/<source>/<split>" -> its bucket.
  Mutex store_mutex_;
  std::map<std::string, StoredBucket> store_ MRS_GUARDED_BY(store_mutex_);
  // Files this slave wrote for a dataset, deleted with the dataset's
  // piggybacked discard: the spill files of the attempts whose runs the
  // store serves, or the bucket files written to the shared directory.  A
  // re-executed task's older file stays listed, so it goes too.
  std::map<int, std::vector<std::string>> dataset_files_
      MRS_GUARDED_BY(store_mutex_);
  // Resident input cache (iterative/BSP mode): "r/<dataset>/<split>" ->
  // the loaded input column of a pinned dataset's split, kept across
  // supersteps so the master can ship only the broadcast delta.  Purged
  // with the dataset's piggybacked discard.
  std::map<std::string, std::vector<Bucket>> resident_cache_
      MRS_GUARDED_BY(store_mutex_);
};

/// One batched bucket transfer: GET <base>/bucket?ids=<ids> on a pooled
/// connection, accepting mrsk1 frames with XXH64 checksums.  Returns each
/// bucket's body by id, as BucketBodies (fs/bucket.h) regroups the frames:
/// a run-backed bucket's body is its run frames as one frame set, which
/// DecodeBucketBody reassembles.  An error status, an answer not in mrsk1,
/// or a frame that fails its checksum is an error (the caller falls back
/// to per-bucket GETs).
Result<std::map<std::string, std::string>> FetchBucketBatch(
    const std::string& base, const std::vector<std::string>& bucket_ids);

/// Process-wide drain flag for the quickstart binary's SIGTERM handler:
/// a lone atomic store, so it is safe to call from a signal context.  The
/// slave's Run() loop polls ProcessDrainRequested() alongside its own
/// RequestDrain() flag.
void RequestProcessDrain();
bool ProcessDrainRequested();

}  // namespace mrs
