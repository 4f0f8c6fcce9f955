// Iterative/BSP execution mode (paper §IV-B: "iterative MapReduce
// programs such as k-means and particle swarm optimization"): datasets
// pinned resident across supersteps, per-round deltas broadcast on the
// data plane, and lineage still recovering pinned data after slave loss.
//
// Coverage:
//  - k-means equivalence matrix: all five implementations x
//    {iterative, replan}, every cell bit-identical to the Bypass ground
//    truth (the centroid-trajectory fingerprint).
//  - PSO iterative mode: same trajectory as replan across runners.
//  - Broadcast plumbing: DataSetOptions::broadcast visible to map and
//    reduce tasks under every runner; absent otherwise.
//  - Pin/Discard semantics: Discard is a no-op while pinned.
//  - masterslave residency: pinned splits are served from the slave
//    resident cache (master stats move), and a slave crash mid-superstep
//    still yields the serial answer.
//  - MiniPy: the checked-in kmeans.mpy kernel reproduces one native
//    replan round bit-for-bit.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/kernel_program.h"
#include "kmeans/kmeans.h"
#include "obs/metrics.h"
#include "pso/apiary.h"
#include "rt/cluster.h"
#include "rt/equivalence.h"
#include "rt/mrs_main.h"

namespace mrs {
namespace {

namespace fs = std::filesystem;

const std::vector<std::string> kAllImpls = {"bypass", "serial", "mockparallel",
                                            "thread", "masterslave"};
const std::vector<std::string> kRunnerImpls = {"serial", "mockparallel",
                                               "thread", "masterslave"};

std::string FmtDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---- k-means equivalence matrix -----------------------------------------

kmeans::KMeansConfig SmallKMeans(bool iterative) {
  kmeans::KMeansConfig config;
  config.num_points = 1200;
  config.clusters = 4;
  config.dims = 4;
  config.chunks = 4;
  config.max_rounds = 6;
  config.tolerance = 0;  // fixed round count: never converge early
  config.iterative = iterative;
  return config;
}

std::string KMeansFingerprint(MapReduce& program) {
  auto& km = static_cast<kmeans::KMeansProgram&>(program);
  return km.trajectory + "|" + std::to_string(km.rounds_run);
}

TEST(Iterative, KMeansIdenticalAcrossRunnersAndModes) {
  std::map<bool, std::string> by_mode;
  for (bool iterative : {false, true}) {
    auto report = CheckEquivalence(
        [iterative] {
          auto p = std::make_unique<kmeans::KMeansProgram>();
          p->config = SmallKMeans(iterative);
          return std::unique_ptr<MapReduce>(std::move(p));
        },
        Options(), kAllImpls, KMeansFingerprint);
    ASSERT_TRUE(report.ok()) << (iterative ? "iterative" : "replan") << ": "
                             << report.status().ToString();
    EXPECT_TRUE(report->identical)
        << (iterative ? "iterative" : "replan") << ": " << report->details;
    ASSERT_EQ(report->fingerprints.size(), kAllImpls.size());
    by_mode[iterative] = report->fingerprints.front().second;
  }
  // The two drivers walk bit-identical centroid trajectories: pinning the
  // chunks and broadcasting the centroids must not move a single ULP.
  EXPECT_EQ(by_mode[false], by_mode[true]);
  // Sanity: all six rounds ran and produced per-round hashes.
  EXPECT_NE(by_mode[true].find("|6"), std::string::npos) << by_mode[true];
}

// ---- PSO iterative mode --------------------------------------------------

pso::ApiaryConfig SmallPso(bool iterative) {
  pso::ApiaryConfig config;
  config.dims = 8;
  config.num_subswarms = 4;
  config.particles_per_subswarm = 3;
  config.inner_iterations = 5;
  config.max_rounds = 5;
  config.check_interval = 2;  // bookkeeping rounds != every round
  config.target = 0.0;        // never converges early
  config.iterative = iterative;
  return config;
}

std::string PsoFingerprint(MapReduce& program) {
  auto& pso = static_cast<pso::ApiaryPso&>(program);
  std::string fp = FmtDouble(pso.result.best) + "|" +
                   std::to_string(pso.result.rounds) + "|" +
                   std::to_string(pso.result.evaluations);
  for (const auto& point : pso.result.history) {
    fp += "|" + std::to_string(point.round) + ":" + FmtDouble(point.best);
  }
  return fp;
}

TEST(Iterative, PsoIterativeMatchesReplanAcrossRunners) {
  std::map<bool, std::string> by_mode;
  for (bool iterative : {false, true}) {
    // Bypass ignores config.iterative (it is the ground-truth serial
    // loop), so the matrix cells compare both drivers against it too.
    auto report = CheckEquivalence(
        [iterative] {
          auto p = std::make_unique<pso::ApiaryPso>();
          p->config = SmallPso(iterative);
          return std::unique_ptr<MapReduce>(std::move(p));
        },
        Options(), kAllImpls, PsoFingerprint);
    ASSERT_TRUE(report.ok()) << (iterative ? "iterative" : "replan") << ": "
                             << report.status().ToString();
    EXPECT_TRUE(report->identical)
        << (iterative ? "iterative" : "replan") << ": " << report->details;
    by_mode[iterative] = report->fingerprints.front().second;
  }
  EXPECT_EQ(by_mode[false], by_mode[true]);
}

// ---- Broadcast plumbing --------------------------------------------------

// Maps each record to the broadcast payload (or "none"), and has the
// reducer append its own view — both task kinds must see the same delta.
class BroadcastEcho : public MapReduce {
 public:
  std::vector<KeyValue> result;

  void Map(const Value& key, const Value& value,
           const Emitter& emit) override {
    (void)value;
    emit(key,
         Value(HasBroadcast() ? Broadcast().AsString() : std::string("none")));
  }
  void Reduce(const Value& key, const ValueList& values,
              const ValueEmitter& emit) override {
    (void)key;
    std::string seen =
        HasBroadcast() ? Broadcast().AsString() : std::string("none");
    for (const Value& v : values) emit(Value(v.AsString() + "/" + seen));
  }
  Status Run(Job& job) override {
    std::vector<KeyValue> rows;
    for (int i = 0; i < 4; ++i) {
      rows.push_back({Value(int64_t{i}), Value(int64_t{i})});
    }
    DataSetPtr data = job.LocalData(std::move(rows), /*num_splits=*/2);
    DataSetOptions with_delta;
    with_delta.broadcast =
        std::make_shared<const Value>(Value(std::string("delta-7")));
    DataSetPtr mapped = job.MapData(data, with_delta);
    DataSetPtr reduced = job.ReduceData(mapped, with_delta);
    MRS_ASSIGN_OR_RETURN(result, job.Collect(reduced));

    // A second derivation without options: the broadcast must not leak.
    DataSetPtr bare = job.ReduceData(job.MapData(data));
    MRS_ASSIGN_OR_RETURN(std::vector<KeyValue> plain, job.Collect(bare));
    for (const KeyValue& kv : plain) {
      if (kv.value.AsString() != "none/none") {
        return InternalError("broadcast leaked into a bare op: " +
                             kv.value.AsString());
      }
    }
    return Status::Ok();
  }
};

TEST(Iterative, BroadcastVisibleToMapAndReduceUnderEveryRunner) {
  ASSERT_FALSE(MapReduce::HasBroadcast())
      << "no broadcast scope outside task execution";
  for (const std::string& impl : kRunnerImpls) {
    BroadcastEcho program;
    ASSERT_TRUE(program.Init(Options()).ok());
    RunConfig config;
    config.impl = impl;
    Status status = RunProgram(
        [] { return std::unique_ptr<MapReduce>(new BroadcastEcho()); },
        &program, config);
    ASSERT_TRUE(status.ok()) << impl << ": " << status.ToString();
    ASSERT_EQ(program.result.size(), 4u) << impl;
    for (const KeyValue& kv : program.result) {
      EXPECT_EQ(kv.value.AsString(), "delta-7/delta-7") << impl;
    }
  }
  EXPECT_FALSE(MapReduce::HasBroadcast());
}

// ---- Pin / Discard semantics ---------------------------------------------

class PinnedSupersteps : public MapReduce {
 public:
  std::vector<KeyValue> round1, round2;

  void Map(const Value& key, const Value& value,
           const Emitter& emit) override {
    emit(key, Value(value.AsInt() + 1));
  }
  Status Run(Job& job) override {
    std::vector<KeyValue> rows;
    for (int i = 0; i < 4; ++i) {
      rows.push_back({Value(int64_t{i}), Value(int64_t{10 * i})});
    }
    DataSetPtr data = job.LocalData(std::move(rows), /*num_splits=*/2);
    job.Pin(data);
    // Discard while pinned is a no-op: the data must still be mappable —
    // twice, as an iterative driver would between supersteps.
    job.Discard(data);
    MRS_ASSIGN_OR_RETURN(round1, job.Collect(job.MapData(data)));
    job.Discard(data);
    MRS_ASSIGN_OR_RETURN(round2, job.Collect(job.MapData(data)));
    job.Unpin(data);
    job.Discard(data);
    return Status::Ok();
  }
};

TEST(Iterative, DiscardIsANoOpWhilePinned) {
  for (const std::string& impl : kRunnerImpls) {
    PinnedSupersteps program;
    ASSERT_TRUE(program.Init(Options()).ok());
    RunConfig config;
    config.impl = impl;
    Status status = RunProgram(
        [] { return std::unique_ptr<MapReduce>(new PinnedSupersteps()); },
        &program, config);
    ASSERT_TRUE(status.ok()) << impl << ": " << status.ToString();
    ASSERT_EQ(program.round1.size(), 4u) << impl;
    ASSERT_EQ(program.round2.size(), 4u) << impl;
    std::map<int64_t, int64_t> got;
    for (const KeyValue& kv : program.round1) {
      got[kv.key.AsInt()] = kv.value.AsInt();
    }
    for (int i = 0; i < 4; ++i) EXPECT_EQ(got[i], 10 * i + 1) << impl;
  }
}

// ---- masterslave residency ----------------------------------------------

ClusterLauncher::Config FastFailoverConfig(int num_slaves) {
  ClusterLauncher::Config config;
  config.num_slaves = num_slaves;
  config.master.slave_timeout = 1.0;
  config.slave.ping_interval = 0.2;
  return config;
}

std::unique_ptr<MapReduce> IterativeKMeansFactory() {
  auto p = std::make_unique<kmeans::KMeansProgram>();
  p->config = SmallKMeans(/*iterative=*/true);
  return p;
}

TEST(Iterative, MasterSlaveServesPinnedSplitsFromResidentCache) {
  kmeans::KMeansProgram reference;
  reference.config = SmallKMeans(true);
  ASSERT_TRUE(reference.Init(Options()).ok());
  ASSERT_TRUE(reference.Bypass().ok());

  ClusterLauncher::Config config;
  config.num_slaves = 2;
  auto cluster =
      ClusterLauncher::Start(IterativeKMeansFactory, Options(), config);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  kmeans::KMeansProgram program;
  program.config = SmallKMeans(true);
  ASSERT_TRUE(program.Init(Options()).ok());
  Job job(&program, std::make_unique<MasterRunner>(&(*cluster)->master()));
  Status status = program.Run(job);
  ASSERT_TRUE(status.ok()) << status.ToString();

  EXPECT_EQ(program.trajectory, reference.trajectory);
  EXPECT_EQ(program.rounds_run, reference.rounds_run);

  // Rounds 2..6 re-map the same pinned chunks: the assignments must have
  // hit the slave resident caches instead of re-shipping the points.
  Master::Stats stats = (*cluster)->master().stats();
  EXPECT_GT(stats.resident_hits, 0);
  EXPECT_EQ(stats.resident_misses, 0);
  (*cluster)->Shutdown();
}

// The ISSUE acceptance scenario: a slave hard-crashes mid-superstep while
// holding pinned resident chunks and freshly produced map output; the
// survivors drop 10% of their fetches.  Lineage must rebuild the lost
// pinned split on a surviving slave and the trajectory must not move.
TEST(Iterative, KMeansSurvivesSlaveCrashMidSuperstep) {
  kmeans::KMeansProgram reference;
  reference.config = SmallKMeans(true);
  ASSERT_TRUE(reference.Init(Options()).ok());
  ASSERT_TRUE(reference.Bypass().ok());

  // Slave 0 starts alone, so it is certain to complete the two tasks it
  // crashes after: it dies owning resident chunks and shuffle output that
  // later supersteps still need.  The three survivors join only then.
  ClusterLauncher::Config config = FastFailoverConfig(1);
  config.fault_plans.resize(1);
  config.fault_plans[0].crash_after_n_tasks = 2;
  auto cluster =
      ClusterLauncher::Start(IterativeKMeansFactory, Options(), config);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  kmeans::KMeansProgram program;
  program.config = SmallKMeans(true);
  ASSERT_TRUE(program.Init(Options()).ok());
  Job job(&program, std::make_unique<MasterRunner>(&(*cluster)->master()));
  Status status;
  std::thread runner([&] { status = program.Run(job); });
  for (int i = 0; i < 400 && (*cluster)->slave(0).tasks_executed() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  EXPECT_GE((*cluster)->slave(0).tasks_executed(), 2);
  Slave::FaultPlan flaky;
  flaky.fail_fetch_probability = 0.1;
  for (int i = 1; i < 4; ++i) {
    Result<int> joined = (*cluster)->AddSlave(&flaky);
    EXPECT_TRUE(joined.ok()) << joined.status().ToString();
  }
  runner.join();
  ASSERT_TRUE(status.ok()) << status.ToString();

  EXPECT_EQ(program.trajectory, reference.trajectory);
  EXPECT_EQ(program.rounds_run, reference.rounds_run);
  EXPECT_TRUE((*cluster)->slave(0).crashed());
  // A short job can outrun the failure detector (1s ping timeout): the
  // crash is real either way, so give the monitor a moment to record it.
  Master::Stats stats = (*cluster)->master().stats();
  for (int i = 0; i < 100 && stats.slaves_lost < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    stats = (*cluster)->master().stats();
  }
  EXPECT_GE(stats.slaves_lost, 1);
  (*cluster)->Shutdown();
}

// ---- MiniPy kernel -------------------------------------------------------

// Drives one round of examples/kernels/kmeans.mpy and checks the
// recomputed centroids bit-for-bit against one native replan round over
// the same generated data.
TEST(Iterative, MiniPyKMeansKernelMatchesNativeRound) {
  auto kernel_or = analysis::MiniPyProgram::FromFile(
      (fs::path(MRS_EXAMPLE_KERNELS_DIR) / "kmeans.mpy").string());
  ASSERT_TRUE(kernel_or.ok()) << kernel_or.status().message();
  analysis::MiniPyProgram& kernel = **kernel_or;
  ASSERT_TRUE(kernel.analysis().ok());

  kmeans::KMeansProgram native;
  native.config = SmallKMeans(/*iterative=*/false);
  native.config.max_rounds = 1;
  ASSERT_TRUE(native.Init(Options()).ok());
  ASSERT_TRUE(native.Bypass().ok());
  ASSERT_EQ(native.rounds_run, 1);

  // Data generation is deterministic and const, so a second instance
  // yields the exact chunks/centroids the reference just clustered.
  kmeans::KMeansProgram gen;
  gen.config = native.config;
  ASSERT_TRUE(gen.Init(Options()).ok());
  const int nchunks = gen.config.chunks;

  auto pack_matrix = [](const std::vector<std::vector<double>>& rows) {
    ValueList out;
    for (const auto& row : rows) {
      ValueList vec;
      for (double x : row) vec.push_back(Value(x));
      out.push_back(Value(std::move(vec)));
    }
    return Value(std::move(out));
  };

  struct Harness : MapReduce {
    analysis::MiniPyProgram* kernel = nullptr;
    std::vector<KeyValue> inputs;
    int num_splits = 0;
    std::vector<KeyValue> result;
    void Map(const Value& key, const Value& value,
             const Emitter& emit) override {
      kernel->Map(key, value, emit);
    }
    void Reduce(const Value& key, const ValueList& values,
                const ValueEmitter& emit) override {
      kernel->Reduce(key, values, emit);
    }
    Status Run(Job& job) override {
      DataSetPtr input = job.LocalData(std::move(inputs), num_splits);
      DataSetPtr reduced = job.ReduceData(job.MapData(input));
      MRS_ASSIGN_OR_RETURN(result, job.Collect(reduced));
      return Status::Ok();
    }
  };

  Harness harness;
  harness.kernel = &kernel;
  harness.num_splits = nchunks;
  Value cents = pack_matrix(gen.InitialCentroids());
  for (int chunk = 0; chunk < nchunks; ++chunk) {
    ValueList record;
    record.push_back(Value(std::string("chunk")));
    record.push_back(Value(int64_t{nchunks}));
    record.push_back(cents);
    record.push_back(pack_matrix(gen.ChunkPoints(chunk)));
    harness.inputs.push_back(
        {Value(int64_t{chunk}), Value(std::move(record))});
  }

  RunConfig run_config;
  run_config.impl = "thread";
  run_config.num_workers = 4;
  Status status = RunProgram(
      [] { return std::unique_ptr<MapReduce>(new MapReduce()); }, &harness,
      run_config);
  ASSERT_EQ(status, Status::Ok());

  // Every chunk re-emits the full updated centroid matrix; each must equal
  // the native round exactly (same summation order, same division).
  ASSERT_EQ(harness.result.size(), static_cast<size_t>(nchunks));
  for (const KeyValue& kv : harness.result) {
    const ValueList& chunk = kv.value.AsList();
    ASSERT_GE(chunk.size(), 4u);
    ASSERT_EQ(chunk[0].AsString(), "chunk");
    const ValueList& new_cents = chunk[2].AsList();
    ASSERT_EQ(new_cents.size(), native.centroids.size());
    for (size_t c = 0; c < new_cents.size(); ++c) {
      const ValueList& row = new_cents[c].AsList();
      ASSERT_EQ(row.size(), native.centroids[c].size());
      for (size_t d = 0; d < row.size(); ++d) {
        EXPECT_EQ(row[d].AsDouble(), native.centroids[c][d])
            << "chunk " << kv.key.AsInt() << " centroid " << c << " dim "
            << d;
      }
    }
  }
}

}  // namespace
}  // namespace mrs
