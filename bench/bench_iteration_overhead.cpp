// E8 (paper §V-B): per-iteration framework overhead.
//
// The paper's headline: "Mrs demonstrates per-iteration overhead of about
// 0.3 seconds ... while Hadoop takes at least 30 seconds for each
// MapReduce operation, a difference of two orders of magnitude."
//
// An iterative program with a near-empty map and reduce runs N rounds so
// all measured time *is* framework overhead.  Columns cover the ablations
// DESIGN.md calls out: serial / mock parallel / masterslave with affinity
// scheduling on and off, direct HTTP buckets vs shared-filesystem
// buckets, and 4 vs 8 vs 16 slaves; the Hadoop row is the DES
// per-iteration latency.
//
// Usage: bench_iteration_overhead [rounds=30]
#include <cstdio>
#include <cstdlib>

#include "analysis/analysis.h"
#include "bench/bench_util.h"
#include "common/clock.h"
#include "fs/file_io.h"
#include "hadoopsim/cluster.h"
#include "halton/pi_kernel.h"
#include "kmeans/kmeans.h"
#include "obs/metrics.h"
#include "rt/cluster.h"
#include "rt/mrs_main.h"

namespace mrs {
namespace {

constexpr int kSplits = 8;

class NoopIterative : public MapReduce {
 public:
  int rounds = 30;
  void Map(const Value& key, const Value& value,
           const Emitter& emit) override {
    emit(key, Value(value.AsInt() + 1));
  }
  Status Run(Job& job) override {
    std::vector<KeyValue> input;
    for (int64_t i = 0; i < kSplits; ++i) {
      input.push_back(KeyValue{Value(i), Value(int64_t{0})});
    }
    DataSetPtr data = job.LocalData(std::move(input), kSplits);
    DataSetOptions options;
    options.num_splits = kSplits;
    for (int round = 0; round < rounds; ++round) {
      DataSetPtr mapped = job.MapData(data, options);
      DataSetPtr reduced = job.ReduceData(mapped, options);
      data = reduced;
    }
    MRS_ASSIGN_OR_RETURN(std::vector<KeyValue> out, job.Collect(data));
    for (const KeyValue& kv : out) {
      if (kv.value.AsInt() != rounds) {
        return InternalError("iteration count mismatch");
      }
    }
    return Status::Ok();
  }
};

/// Seconds per round of a masterslave run, and the seconds it took to
/// start and to stop its cluster (-1 each if the run failed).
struct MasterSlaveTimes {
  double s_per_iter = -1;
  double setup_s = -1;
  double teardown_s = -1;
};

/// Run under an in-process cluster of `num_slaves` slaves with
/// configurable scheduler knobs.
MasterSlaveTimes RunMasterSlave(int rounds, int num_slaves, bool affinity,
                                bool shared_files, bool speculation = true) {
  NoopIterative program;
  program.rounds = rounds;
  if (!program.Init(Options()).ok()) return {};

  ClusterLauncher::Config config;
  config.num_slaves = num_slaves;
  config.master.enable_affinity = affinity;
  if (!speculation) config.master.speculation_quantile = 0;
  std::string shared_dir;
  if (shared_files) {
    auto dir = MakeTempDir("mrs_bench_iter_");
    if (!dir.ok()) return {};
    shared_dir = *dir;
    config.slave.shared_dir = shared_dir;
  }
  Stopwatch setup;
  auto cluster = ClusterLauncher::Start(
      [&]() -> std::unique_ptr<MapReduce> {
        auto p = std::make_unique<NoopIterative>();
        p->rounds = rounds;
        return p;
      },
      Options(), config);
  if (!cluster.ok()) return {};
  MasterSlaveTimes times;
  times.setup_s = setup.ElapsedSeconds();

  Job job(&program, std::make_unique<MasterRunner>(&(*cluster)->master()));
  job.set_default_parallelism(kSplits);
  Stopwatch watch;
  Status status = program.Run(job);
  double elapsed = watch.ElapsedSeconds();
  Stopwatch teardown;
  (*cluster)->Shutdown();
  times.teardown_s = teardown.ElapsedSeconds();
  if (!shared_dir.empty()) RemoveTree(shared_dir);
  if (!status.ok()) {
    std::fprintf(stderr, "masterslave run failed: %s\n",
                 status.ToString().c_str());
    return {};
  }
  times.s_per_iter = elapsed / rounds;
  return times;
}

/// Nanoseconds per (counter Inc + histogram Observe) pair with the kill
/// switch in the given state.
double MeasureMetricsNsPerOp(bool enabled) {
  obs::Counter* counter =
      obs::Registry::Instance().GetCounter("bench.overhead.counter");
  obs::Histogram* hist =
      obs::Registry::Instance().GetHistogram("bench.overhead.hist");
  constexpr int kOps = 2000000;
  obs::SetMetricsEnabled(enabled);
  Stopwatch watch;
  for (int i = 0; i < kOps; ++i) {
    counter->Inc();
    hist->Observe(1e-5 * (i & 1023));
  }
  double elapsed = watch.ElapsedSeconds();
  obs::SetMetricsEnabled(true);
  return elapsed / kOps * 1e9;
}

/// The full π kernel as submitted through mrs::analysis (the inner loop
/// from halton/ plus the map/reduce wrappers of examples/kernels/pi.mpy).
std::string PiKernelSource() {
  return std::string(HaltonPiMiniPySource()) +
         "\n"
         "def map(key, value):\n"
         "    emit(\"inside\", count_inside(value[0], value[1]))\n"
         "    emit(\"total\", value[1])\n"
         "\n"
         "def reduce(key, values):\n"
         "    total = 0\n"
         "    for v in values:\n"
         "        total = total + v\n"
         "    emit(total)\n";
}

/// Seconds for one full submit-time analysis of the π kernel (parse,
/// semantic + determinism checks, compile, bytecode verification).
/// Min-of-N: analysis is pure CPU, so the minimum is the true cost.
double MeasureAnalysisSeconds() {
  std::string source = PiKernelSource();
  double best = -1;
  for (int rep = 0; rep < 20; ++rep) {
    Stopwatch watch;
    analysis::AnalysisResult result = analysis::AnalyzeKernelSource(source);
    double elapsed = watch.ElapsedSeconds();
    if (!result.ok() || result.module == nullptr) return -1;
    if (best < 0 || elapsed < best) best = elapsed;
  }
  return best;
}

/// Seconds per point through the π kernel on the given MiniPy engine —
/// kVm is the verified-module generic loop that must not regress, and
/// kVmTyped is the fact-gated unboxed tier measured against it.
double MeasureVmSecondsPerPoint(PiEngine engine) {
  auto kernel = PiKernel::Create(engine);
  if (!kernel.ok()) return -1;
  constexpr uint64_t kPoints = 200000;
  double best = -1;
  for (int rep = 0; rep < 3; ++rep) {
    Stopwatch watch;
    auto inside = (*kernel)->CountInside(0, kPoints);
    double elapsed = watch.ElapsedSeconds();
    if (!inside.ok() || *inside == 0) return -1;
    if (best < 0 || elapsed < best) best = elapsed;
  }
  return best / static_cast<double>(kPoints);
}

/// The iterative/BSP ablation (tentpole of the resident-dataset work):
/// k-means over masterslave with the chunks pinned resident and only the
/// centroids broadcast per round, vs the replan mode that re-plans a full
/// map+reduce over the complete carry-state every round.  Returns seconds
/// per round; tolerance 0 fixes the round count so both modes do
/// identical numeric work.
double RunKMeansMasterSlave(int rounds, bool iterative) {
  kmeans::KMeansConfig km;
  km.num_points = 4000;
  km.chunks = kSplits;
  km.max_rounds = rounds;
  km.tolerance = 0;  // never converge early: fixed per-round cost
  km.iterative = iterative;

  kmeans::KMeansProgram program;
  program.config = km;
  if (!program.Init(Options()).ok()) return -1;

  ClusterLauncher::Config config;
  config.num_slaves = 4;
  auto cluster = ClusterLauncher::Start(
      [&]() -> std::unique_ptr<MapReduce> {
        auto p = std::make_unique<kmeans::KMeansProgram>();
        p->config = km;
        return p;
      },
      Options(), config);
  if (!cluster.ok()) return -1;

  Job job(&program, std::make_unique<MasterRunner>(&(*cluster)->master()));
  job.set_default_parallelism(kSplits);
  Stopwatch watch;
  Status status = program.Run(job);
  double elapsed = watch.ElapsedSeconds();
  (*cluster)->Shutdown();
  if (!status.ok()) {
    std::fprintf(stderr, "kmeans masterslave run failed: %s\n",
                 status.ToString().c_str());
    return -1;
  }
  return elapsed / rounds;
}

double RunLocalImpl(const std::string& impl, int rounds) {
  NoopIterative program;
  program.rounds = rounds;
  if (!program.Init(Options()).ok()) return -1;
  RunConfig config;
  config.impl = impl;
  config.num_slaves = 4;
  Stopwatch watch;
  Status status = RunProgram(
      [&]() -> std::unique_ptr<MapReduce> {
        auto p = std::make_unique<NoopIterative>();
        p->rounds = rounds;
        return p;
      },
      &program, config);
  if (!status.ok()) return -1;
  return watch.ElapsedSeconds() / rounds;
}

}  // namespace
}  // namespace mrs

int main(int argc, char** argv) {
  using namespace mrs;
  int rounds = argc > 1 ? std::atoi(argv[1]) : 30;

  std::printf("bench_iteration_overhead: E8 (paper §V-B headline)\n");
  std::printf("empty-map/empty-reduce job, %d rounds of %d+%d tasks\n",
              rounds, kSplits, kSplits);

  double serial = RunLocalImpl("serial", rounds);
  double mock = RunLocalImpl("mockparallel", rounds);

  // Data-plane accounting around the headline run: with per-peer
  // connection pooling the number of TCP dials should be O(peers) for the
  // whole job, not O(buckets fetched) — watch the process-wide dial
  // counter to keep that claim honest.
  obs::Registry& reg = obs::Registry::Instance();
  int64_t connects_before = reg.GetCounter("mrs.http.client.connects")->value();
  int64_t pool_hits_before = reg.GetCounter("mrs.http.pool.hits")->value();
  int64_t batches_before = reg.GetCounter("mrs.slave.batch_fetches")->value();
  MasterSlaveTimes ms_s4 = RunMasterSlave(rounds, 4, true, false);
  double ms_affinity = ms_s4.s_per_iter;
  double connects =
      static_cast<double>(reg.GetCounter("mrs.http.client.connects")->value() -
                          connects_before);
  double pool_hits = static_cast<double>(
      reg.GetCounter("mrs.http.pool.hits")->value() - pool_hits_before);
  double batches = static_cast<double>(
      reg.GetCounter("mrs.slave.batch_fetches")->value() - batches_before);
  double ms_no_affinity = RunMasterSlave(rounds, 4, false, false).s_per_iter;
  double ms_shared = RunMasterSlave(rounds, 4, true, true).s_per_iter;
  // Speculation ablation: with no stragglers every task finishes under the
  // threshold, so the straggler scan should cost ~nothing — any gap
  // between these two columns is pure scheduler overhead.
  double ms_spec_off =
      RunMasterSlave(rounds, 4, true, false, false).s_per_iter;
  // Slave-count sweep: per-round overhead as the cluster widens and every
  // server holds more keep-alive connections, and the cost of starting and
  // stopping the cluster (a fixed cost of every run: Mrs keeps no daemons).
  MasterSlaveTimes ms_s8 = RunMasterSlave(rounds, 8, true, false);
  MasterSlaveTimes ms_s16 = RunMasterSlave(rounds, 16, true, false);

  // Observability kill switch (acceptance bar: <= 2% on this bench).  The
  // instrument cost is nanoseconds per task; end-to-end runs jitter by
  // tens of percent (long polls, allocator state), so diffing whole runs
  // measures noise, not metrics.  Instead: micro-time the counter +
  // histogram hot path with the kill switch on vs off (min-of-3, stable
  // to ~1%), then scale the per-op delta by the instrument ops one task
  // actually performs to get the per-round cost.  A kill-switch
  // masterslave run is still reported for completeness.
  obs::SetMetricsEnabled(false);
  double ms_no_metrics = RunMasterSlave(rounds, 4, true, false).s_per_iter;
  obs::SetMetricsEnabled(true);

  double on_ns = -1, off_ns = -1;
  for (int rep = 0; rep < 3; ++rep) {
    double off = MeasureMetricsNsPerOp(false);
    double on = MeasureMetricsNsPerOp(true);
    if (off_ns < 0 || off < off_ns) off_ns = off;
    if (on_ns < 0 || on < on_ns) on_ns = on;
  }
  double delta_ns = on_ns > off_ns ? on_ns - off_ns : 0;
  // Generous bound on instrument ops per task on the slave path: task
  // counter, retry counters, and http client/server counter + histogram
  // pairs on both the assignment RPC and the bucket fetch.
  const double kOpsPerTask = 10;
  double per_round_cost_s = delta_ns * 1e-9 * kOpsPerTask * 2 * kSplits;
  double metrics_overhead_pct =
      ms_affinity > 0 ? per_round_cost_s / ms_affinity * 100.0 : 0;

  // Submit-time static analysis: a one-off cost per kernel submission,
  // reported against the masterslave iteration so the "<1% of an
  // iteration" budget stays visible in the trend line.
  double analysis_s = MeasureAnalysisSeconds();
  double analysis_pct =
      ms_affinity > 0 && analysis_s >= 0 ? analysis_s / ms_affinity * 100.0
                                         : -1;
  double vm_s_per_point = MeasureVmSecondsPerPoint(PiEngine::kVm);
  double vm_typed_s_per_point = MeasureVmSecondsPerPoint(PiEngine::kVmTyped);
  double vm_points_per_s = vm_s_per_point > 0 ? 1.0 / vm_s_per_point : -1;
  double vm_typed_points_per_s =
      vm_typed_s_per_point > 0 ? 1.0 / vm_typed_s_per_point : -1;
  double typed_speedup = (vm_s_per_point > 0 && vm_typed_s_per_point > 0)
                             ? vm_s_per_point / vm_typed_s_per_point
                             : 0;

  // Iterative/BSP ablation: resident (pinned chunks + centroid broadcast)
  // vs replan k-means, same data and fixed round count.  The resident
  // counters confirm the pinned path actually engaged.
  int64_t resident_hits_before =
      reg.GetCounter("mrs.master.resident_hits")->value();
  double km_iterative = RunKMeansMasterSlave(rounds, /*iterative=*/true);
  double km_resident_hits = static_cast<double>(
      reg.GetCounter("mrs.master.resident_hits")->value() -
      resident_hits_before);
  double km_replan = RunKMeansMasterSlave(rounds, /*iterative=*/false);
  double km_ratio = km_iterative > 0 ? km_replan / km_iterative : 0;

  // Hadoop: per-iteration latency of an equivalent tiny job.
  hadoopsim::HadoopCluster cluster{hadoopsim::ClusterConfig{}};
  hadoopsim::JobSpec spec;
  spec.num_map_tasks = kSplits;
  spec.num_reduce_tasks = kSplits;
  spec.map_compute_seconds = 0.001;
  auto ten = cluster.RunIterativeJobs(spec, 10);
  auto one = cluster.RunIterativeJobs(spec, 1);
  double hadoop = (ten.ValueOr(0) - one.ValueOr(0)) / 9.0;

  bench::PrintTable(
      "E8: per-iteration overhead (seconds per MapReduce round)",
      {{"implementation", "s/iteration", "notes"},
       {"mrs serial", bench::Fmt("%.4f", serial), "in-memory"},
       {"mrs mockparallel", bench::Fmt("%.4f", mock),
        "same tasks, file-backed"},
       {"mrs masterslave", bench::Fmt("%.4f", ms_affinity),
        "TCP + XML-RPC, affinity on"},
       {"mrs masterslave (no affinity)", bench::Fmt("%.4f", ms_no_affinity),
        "ablation"},
       {"mrs masterslave (shared files)", bench::Fmt("%.4f", ms_shared),
        "fault-tolerant bucket path"},
       {"mrs masterslave (speculation off)", bench::Fmt("%.4f", ms_spec_off),
        "ablation: no straggler backups"},
       {"mrs masterslave (8 slaves)", bench::Fmt("%.4f", ms_s8.s_per_iter),
        "slave-count sweep"},
       {"mrs masterslave (16 slaves)", bench::Fmt("%.4f", ms_s16.s_per_iter),
        "slave-count sweep"},
       {"cluster start / stop (4 slaves)",
        bench::Fmt("%.4f", ms_s4.setup_s) + " / " +
            bench::Fmt("%.4f", ms_s4.teardown_s),
        "seconds, once per run"},
       {"cluster start / stop (8 slaves)",
        bench::Fmt("%.4f", ms_s8.setup_s) + " / " +
            bench::Fmt("%.4f", ms_s8.teardown_s),
        "seconds, once per run"},
       {"cluster start / stop (16 slaves)",
        bench::Fmt("%.4f", ms_s16.setup_s) + " / " +
            bench::Fmt("%.4f", ms_s16.teardown_s),
        "seconds, once per run"},
       {"mrs masterslave (metrics off)", bench::Fmt("%.4f", ms_no_metrics),
        "obs kill switch"},
       {"metrics hot path", bench::Fmt("%.4f ns/op", delta_ns),
        bench::Fmt("overhead %.4f%% of a masterslave round",
                   metrics_overhead_pct)},
       {"kernel static analysis", bench::Fmt("%.6f", analysis_s),
        bench::Fmt("one-off per submit; %.3f%% of a masterslave round",
                   analysis_pct)},
       {"verified-VM pi kernel", bench::Fmt("%.0f pts/s", vm_points_per_s),
        "fast path gated on the verified bit"},
       {"typed-tier pi kernel", bench::Fmt("%.0f pts/s", vm_typed_points_per_s),
        bench::Fmt("unboxed tier gated on checked type facts; %.2fx generic",
                   typed_speedup)},
       {"kmeans masterslave (resident)", bench::Fmt("%.4f", km_iterative),
        bench::Fmt("pinned chunks + broadcast; %.0f cache hits",
                   km_resident_hits)},
       {"kmeans masterslave (replan)", bench::Fmt("%.4f", km_replan),
        bench::Fmt("full re-ship every round; %.2fx resident", km_ratio)},
       {"hadoop (simulated)", bench::Fmt("%.1f", hadoop),
        "control-plane floor"},
       {"tcp dials (masterslave run)", bench::Fmt("%.0f", connects),
        bench::Fmt("%.2f/iter; ", rounds > 0 ? connects / rounds : 0) +
            bench::Fmt("pool hits %.0f, ", pool_hits) +
            bench::Fmt("batched fetches %.0f", batches)}});

  double ratio = ms_affinity > 0 ? hadoop / ms_affinity : 0;
  std::printf(
      "\nhadoop / mrs-masterslave ratio: %.0fx  (paper: ~0.3s vs >=30s, "
      "'a difference of two orders of magnitude')\n",
      ratio);

  bench::EmitBenchJson(
      "bench_iteration_overhead",
      {{"rounds", static_cast<double>(rounds)},
       {"serial_s_per_iter", serial},
       {"mockparallel_s_per_iter", mock},
       {"masterslave_s_per_iter", ms_affinity},
       {"masterslave_no_affinity_s_per_iter", ms_no_affinity},
       {"masterslave_shared_files_s_per_iter", ms_shared},
       {"masterslave_speculation_on_s_per_iter", ms_affinity},
       {"masterslave_speculation_off_s_per_iter", ms_spec_off},
       {"masterslave_s8_s_per_iter", ms_s8.s_per_iter},
       {"masterslave_s16_s_per_iter", ms_s16.s_per_iter},
       {"masterslave_s4_setup_s", ms_s4.setup_s},
       {"masterslave_s4_teardown_s", ms_s4.teardown_s},
       {"masterslave_s8_setup_s", ms_s8.setup_s},
       {"masterslave_s8_teardown_s", ms_s8.teardown_s},
       {"masterslave_s16_setup_s", ms_s16.setup_s},
       {"masterslave_s16_teardown_s", ms_s16.teardown_s},
       {"masterslave_metrics_off_s_per_iter", ms_no_metrics},
       {"metrics_ns_per_op_on", on_ns},
       {"metrics_ns_per_op_off", off_ns},
       {"metrics_overhead_pct", metrics_overhead_pct},
       {"analysis_s_per_submit", analysis_s},
       {"analysis_pct_of_masterslave_iter", analysis_pct},
       {"vm_pi_points_per_s", vm_points_per_s},
       {"vm_typed_pi_points_per_s", vm_typed_points_per_s},
       // µs-scale keys the regression gate watches with a µs floor (the
       // *_s keys of this bench are gated at seconds scale).
       {"vm_us_per_sample", vm_s_per_point * 1e6},
       {"vm_typed_us_per_sample", vm_typed_s_per_point * 1e6},
       {"vm_typed_speedup", typed_speedup},
       {"kmeans_resident_s_per_iter", km_iterative},
       {"kmeans_replan_s_per_iter", km_replan},
       {"kmeans_replan_over_resident_ratio", km_ratio},
       {"kmeans_resident_hits", km_resident_hits},
       {"hadoop_sim_s_per_iter", hadoop},
       {"hadoop_over_mrs_ratio", ratio},
       {"masterslave_tcp_dials", connects},
       {"masterslave_tcp_dials_per_iter", rounds > 0 ? connects / rounds : 0},
       {"masterslave_pool_hits", pool_hits},
       {"masterslave_batched_fetches", batches}});
  return 0;
}
