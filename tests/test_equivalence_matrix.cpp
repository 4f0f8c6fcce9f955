// Cross-runner equivalence matrix (paper §IV-A): the same program run
// under all five implementations — bypass, serial, mockparallel, thread
// (true shared-memory parallelism), and masterslave over real loopback
// TCP — must produce byte-identical results.  Three workloads: WordCount,
// π estimation over the Halton sequence, and one Apiary PSO round;
// WordCount and π additionally sweep the reduce partition count (1, 2,
// and 7) since the partition function must not change the answer, only
// its layout.  The thread runner gets an extra sweep over worker counts
// (1 and 4): pool size affects scheduling only, never the answer.  Failure
// is part of the contract too: a map that throws fails the run with the
// same named Status on every runner instead of killing the process.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/strings.h"
#include "fs/spill.h"
#include "halton/pi_program.h"
#include "obs/metrics.h"
#include "pso/apiary.h"
#include "rt/equivalence.h"
#include "ser/record.h"
#include "sort/distsort.h"

namespace mrs {
namespace {

const std::vector<std::string> kAllImpls = {"bypass", "serial", "mockparallel",
                                            "thread", "masterslave"};

// Thread-vs-serial pairing for the worker-count sweep.
const std::vector<std::string> kThreadVsSerial = {"serial", "thread"};
const int kWorkerSweep[] = {1, 4};

std::string FmtDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---- Workload 1: WordCount ----------------------------------------------

class MatrixWordCount : public MapReduce {
 public:
  int reduce_splits = 1;
  bool use_combiner = false;
  std::vector<KeyValue> result;

  void Map(const Value& key, const Value& value,
           const Emitter& emit) override {
    (void)key;
    for (std::string_view word : SplitWhitespace(value.AsString())) {
      emit(Value(word), Value(int64_t{1}));
    }
  }
  void Reduce(const Value& key, const ValueList& values,
              const ValueEmitter& emit) override {
    (void)key;
    int64_t sum = 0;
    for (const Value& v : values) sum += v.AsInt();
    emit(Value(sum));
  }
  Status Run(Job& job) override {
    DataSetPtr input = job.LocalData(MakeLines(), /*num_splits=*/5);
    DataSetOptions map_options;
    map_options.use_combiner = use_combiner;
    DataSetPtr mapped = job.MapData(input, map_options);
    DataSetOptions reduce_options;
    reduce_options.num_splits = reduce_splits;
    DataSetPtr reduced = job.ReduceData(mapped, reduce_options);
    MRS_ASSIGN_OR_RETURN(result, job.Collect(reduced));
    std::sort(result.begin(), result.end(), KeyValueLess);
    return Status::Ok();
  }
  Status Bypass() override {
    std::map<std::string, int64_t> counts;
    for (const KeyValue& line : MakeLines()) {
      for (std::string_view word : SplitWhitespace(line.value.AsString())) {
        ++counts[std::string(word)];
      }
    }
    for (const auto& [word, count] : counts) {
      result.push_back({Value(word), Value(count)});
    }
    return Status::Ok();
  }

 private:
  static std::vector<KeyValue> MakeLines() {
    // Deterministic synthetic corpus: 120 lines drawn from a small
    // vocabulary so reduce keys collide across map tasks.
    static const char* kWords[] = {"the",  "map",   "reduce", "halton",
                                   "swarm", "mrs",  "python", "pi"};
    std::vector<KeyValue> lines;
    for (int64_t i = 0; i < 120; ++i) {
      std::string line;
      for (int64_t j = 0; j < 6; ++j) {
        if (j) line += ' ';
        line += kWords[(i * 7 + j * 3 + i * j) % 8];
      }
      lines.push_back({Value(i), Value(line)});
    }
    return lines;
  }
};

std::string WordCountFingerprint(MapReduce& program) {
  return EncodeTextRecords(static_cast<MatrixWordCount&>(program).result);
}

TEST(EquivalenceMatrix, WordCountAcrossRunnersAndPartitionCounts) {
  for (int splits : {1, 2, 7}) {
    auto report = CheckEquivalence(
        [splits] {
          auto p = std::make_unique<MatrixWordCount>();
          p->reduce_splits = splits;
          return std::unique_ptr<MapReduce>(std::move(p));
        },
        Options(), kAllImpls, WordCountFingerprint);
    ASSERT_TRUE(report.ok())
        << "splits=" << splits << ": " << report.status().ToString();
    EXPECT_TRUE(report->identical)
        << "splits=" << splits << ": " << report->details;
    EXPECT_EQ(report->fingerprints.size(), kAllImpls.size());
    // The fingerprint is non-trivial: all 8 vocabulary words counted.
    EXPECT_EQ(static_cast<size_t>(
                  std::count(report->fingerprints[0].second.begin(),
                             report->fingerprints[0].second.end(), '\n')),
              8u)
        << report->fingerprints[0].second;
  }
}

TEST(EquivalenceMatrix, WordCountThreadWorkerCountSweep) {
  for (int splits : {1, 2, 7}) {
    for (int workers : kWorkerSweep) {
      auto report = CheckEquivalence(
          [splits] {
            auto p = std::make_unique<MatrixWordCount>();
            p->reduce_splits = splits;
            return std::unique_ptr<MapReduce>(std::move(p));
          },
          Options(), kThreadVsSerial, WordCountFingerprint,
          /*num_slaves=*/2, workers);
      ASSERT_TRUE(report.ok()) << "splits=" << splits << " workers=" << workers
                               << ": " << report.status().ToString();
      EXPECT_TRUE(report->identical) << "splits=" << splits
                                     << " workers=" << workers << ": "
                                     << report->details;
    }
  }
}

// ---- Workload 2: π estimation (Halton) ----------------------------------

// PiEstimatorProgram hard-codes one reduce partition; this subclass sweeps
// the partition count.  The reduce still has a single key (0), so every
// partitioning yields exactly one output record — the sweep proves empty
// partitions don't perturb the answer.
class PartitionedPi : public PiEstimatorProgram {
 public:
  int reduce_splits = 1;

  Status Run(Job& job) override {
    DataSetPtr input;
    MRS_RETURN_IF_ERROR(InputData(job, &input));
    DataSetPtr mapped = job.MapData(input);
    DataSetOptions reduce_options;
    reduce_options.num_splits = reduce_splits;
    DataSetPtr reduced = job.ReduceData(mapped, reduce_options);
    MRS_ASSIGN_OR_RETURN(std::vector<KeyValue> out, job.Collect(reduced));
    if (out.size() != 1) {
      return InternalError("expected exactly one reduced record, got " +
                           std::to_string(out.size()));
    }
    inside = out[0].value.AsList()[0].AsInt();
    int64_t total = out[0].value.AsList()[1].AsInt();
    estimate = EstimatePi(static_cast<uint64_t>(inside),
                          static_cast<uint64_t>(total));
    return Status::Ok();
  }
};

std::string PiFingerprint(MapReduce& program) {
  auto& pi = static_cast<PiEstimatorProgram&>(program);
  return std::to_string(pi.inside) + ":" + FmtDouble(pi.estimate);
}

TEST(EquivalenceMatrix, PiEstimationAcrossRunnersAndPartitionCounts) {
  for (int splits : {1, 2, 7}) {
    auto report = CheckEquivalence(
        [splits] {
          auto p = std::make_unique<PartitionedPi>();
          p->samples = 20000;
          p->tasks = 5;
          p->reduce_splits = splits;
          return std::unique_ptr<MapReduce>(std::move(p));
        },
        Options(), kAllImpls, PiFingerprint);
    ASSERT_TRUE(report.ok())
        << "splits=" << splits << ": " << report.status().ToString();
    EXPECT_TRUE(report->identical)
        << "splits=" << splits << ": " << report->details;
    // Sanity: the estimate actually approximates π.
    auto& fp = report->fingerprints[0].second;
    double estimate = std::stod(fp.substr(fp.find(':') + 1));
    EXPECT_NEAR(estimate, 3.14159, 0.05);
  }
}

TEST(EquivalenceMatrix, PiEstimationThreadWorkerCountSweep) {
  for (int splits : {1, 2, 7}) {
    for (int workers : kWorkerSweep) {
      auto report = CheckEquivalence(
          [splits] {
            auto p = std::make_unique<PartitionedPi>();
            p->samples = 20000;
            p->tasks = 5;
            p->reduce_splits = splits;
            return std::unique_ptr<MapReduce>(std::move(p));
          },
          Options(), kThreadVsSerial, PiFingerprint,
          /*num_slaves=*/2, workers);
      ASSERT_TRUE(report.ok()) << "splits=" << splits << " workers=" << workers
                               << ": " << report.status().ToString();
      EXPECT_TRUE(report->identical) << "splits=" << splits
                                     << " workers=" << workers << ": "
                                     << report->details;
    }
  }
}

// ---- Workload 3: one Apiary PSO round -----------------------------------

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

TEST(EquivalenceMatrix, PsoSingleRoundAcrossRunners) {
  auto report = CheckEquivalence(
      [] {
        auto p = std::make_unique<pso::ApiaryPso>();
        p->config.dims = 8;
        p->config.num_subswarms = 4;
        p->config.particles_per_subswarm = 3;
        p->config.inner_iterations = 5;
        p->config.max_rounds = 1;
        p->config.target = 0.0;  // never converges early
        return std::unique_ptr<MapReduce>(std::move(p));
      },
      Options(), kAllImpls, PsoFingerprint);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->identical) << report->details;
  EXPECT_EQ(report->fingerprints.size(), kAllImpls.size());
}

TEST(EquivalenceMatrix, PsoThreadWorkerCountSweep) {
  for (int workers : kWorkerSweep) {
    auto report = CheckEquivalence(
        [] {
          auto p = std::make_unique<pso::ApiaryPso>();
          p->config.dims = 8;
          p->config.num_subswarms = 4;
          p->config.particles_per_subswarm = 3;
          p->config.inner_iterations = 5;
          p->config.max_rounds = 1;
          p->config.target = 0.0;
          return std::unique_ptr<MapReduce>(std::move(p));
        },
        Options(), kThreadVsSerial, PsoFingerprint, /*num_slaves=*/2, workers);
    ASSERT_TRUE(report.ok())
        << "workers=" << workers << ": " << report.status().ToString();
    EXPECT_TRUE(report->identical)
        << "workers=" << workers << ": " << report->details;
  }
}

// ---- Out-of-core spill sweep ---------------------------------------------
//
// The same three workloads re-run under a process memory budget small
// enough that every intermediate bucket spills to disk as sorted runs —
// and the answers must stay byte-identical across every runner AND
// identical to the unbudgeted serial run.  This is the tentpole invariant
// of the out-of-core tier: spilling is a memory-management decision, never
// an observable one.

/// Pins the process budget for one scope; restores the previous limit (and
/// zeroes any accounting a failed run may have leaked) on the way out.
/// The explicit limit also shields the test from an ambient
/// $MRS_MEMORY_BUDGET in the CI environment.
class ScopedBudget {
 public:
  explicit ScopedBudget(int64_t bytes)
      : prev_(MemoryBudget::Process().limit()) {
    MemoryBudget::Process().set_limit(bytes);
  }
  ~ScopedBudget() {
    MemoryBudget::Process().set_limit(prev_);
    MemoryBudget::Process().ResetForTest();
  }

 private:
  int64_t prev_;
};

int64_t BytesSpilledCounter() {
  return obs::Registry::Instance()
      .GetCounter("mrs.spill.bytes_spilled")
      ->value();
}

// Runs `factory` unbudgeted under the serial runner, then under every
// implementation with `budget`, asserting (a) all budgeted fingerprints
// are identical, (b) they match the unbudgeted serial fingerprint, and
// (c) the budgeted sweep actually spilled.
void CheckSpillSweep(
    const ProgramFactory& factory,
    const std::function<std::string(MapReduce&)>& fingerprint,
    int64_t budget, const std::string& what) {
  std::string reference;
  {
    ScopedBudget unlimited(0);
    auto report =
        CheckEquivalence(factory, Options(), {"serial"}, fingerprint);
    ASSERT_TRUE(report.ok()) << what << ": " << report.status().ToString();
    reference = report->fingerprints[0].second;
  }
  ScopedBudget tiny(budget);
  int64_t spilled_before = BytesSpilledCounter();
  auto report = CheckEquivalence(factory, Options(), kAllImpls, fingerprint);
  ASSERT_TRUE(report.ok()) << what << ": " << report.status().ToString();
  EXPECT_TRUE(report->identical) << what << ": " << report->details;
  for (const auto& [impl, fp] : report->fingerprints) {
    EXPECT_EQ(fp, reference)
        << what << ": budgeted " << impl
        << " diverged from the unbudgeted serial run";
  }
  EXPECT_GT(BytesSpilledCounter() - spilled_before, 0)
      << what << ": budget=" << budget
      << " was expected to force spilling but nothing hit disk";
}

// ---- Combine-enabled thread scaling sweep --------------------------------
//
// A combine-enabled map→reduce edge on the thread runner: sweep worker
// counts with and without a memory budget and demand the serial answer
// byte-for-byte.
TEST(EquivalenceMatrix, CombineEnabledWordCountWorkerAndBudgetSweep) {
  auto factory = [] {
    auto p = std::make_unique<MatrixWordCount>();
    p->reduce_splits = 3;
    p->use_combiner = true;
    return std::unique_ptr<MapReduce>(std::move(p));
  };
  Options opts;

  std::string reference;
  {
    ScopedBudget unlimited(0);
    auto report =
        CheckEquivalence(factory, opts, {"serial"}, WordCountFingerprint);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    reference = report->fingerprints[0].second;
  }
  for (int64_t budget : {int64_t{0}, int64_t{1}}) {
    ScopedBudget scoped(budget);
    for (int workers : {1, 2, 4, 7}) {
      auto report =
          CheckEquivalence(factory, opts, kThreadVsSerial,
                           WordCountFingerprint, /*num_slaves=*/2, workers);
      ASSERT_TRUE(report.ok()) << "budget=" << budget
                               << " workers=" << workers << ": "
                               << report.status().ToString();
      EXPECT_TRUE(report->identical)
          << "budget=" << budget << " workers=" << workers << ": "
          << report->details;
      for (const auto& [impl, fp] : report->fingerprints) {
        EXPECT_EQ(fp, reference)
            << "budget=" << budget << " workers=" << workers << " " << impl
            << " diverged from the unbudgeted serial run";
      }
    }
  }
}

TEST(SpillSweep, WordCountAllRunnersUnderAllSpillBudget) {
  // A 1-byte budget spills every record: maximal run counts, merge fan-in
  // stress, and the reduce path streams everything from disk.
  for (int splits : {1, 3}) {
    CheckSpillSweep(
        [splits] {
          auto p = std::make_unique<MatrixWordCount>();
          p->reduce_splits = splits;
          return std::unique_ptr<MapReduce>(std::move(p));
        },
        WordCountFingerprint, /*budget=*/1,
        "wordcount splits=" + std::to_string(splits));
  }
}

TEST(SpillSweep, WordCountAllRunnersUnderMixedBudget) {
  // A middling budget: some buckets spill, some stay resident — the mixed
  // merge (disk runs + in-memory tail) path.
  CheckSpillSweep(
      [] {
        auto p = std::make_unique<MatrixWordCount>();
        p->reduce_splits = 2;
        return std::unique_ptr<MapReduce>(std::move(p));
      },
      WordCountFingerprint, /*budget=*/4096, "wordcount mixed-budget");
}

TEST(SpillSweep, PiEstimationAllRunnersUnderAllSpillBudget) {
  CheckSpillSweep(
      [] {
        auto p = std::make_unique<PartitionedPi>();
        p->samples = 20000;
        p->tasks = 5;
        p->reduce_splits = 2;
        return std::unique_ptr<MapReduce>(std::move(p));
      },
      PiFingerprint, /*budget=*/1, "pi");
}

TEST(SpillSweep, PsoSingleRoundAllRunnersUnderAllSpillBudget) {
  CheckSpillSweep(
      [] {
        auto p = std::make_unique<pso::ApiaryPso>();
        p->config.dims = 8;
        p->config.num_subswarms = 4;
        p->config.particles_per_subswarm = 3;
        p->config.inner_iterations = 5;
        p->config.max_rounds = 1;
        p->config.target = 0.0;
        return std::unique_ptr<MapReduce>(std::move(p));
      },
      PsoFingerprint, /*budget=*/1, "pso");
}

// ---- Workload 4: the DistSort range-partitioned sort ---------------------
//
// The out-of-core flagship joins the matrix: a sample-range-partitioned
// sort whose correctness depends on the shuffle (partition boundaries ARE
// the answer's layout), swept across all runners with a budget that forces
// the shuffle through disk.

std::string DistSortFingerprint(MapReduce& program) {
  return EncodeTextRecords(
      static_cast<sort::DistSortProgram&>(program).result);
}

TEST(SpillSweep, DistSortAllRunnersUnderAllSpillBudget) {
  sort::DistSortConfig cfg;
  cfg.tasks = 4;
  cfg.records_per_task = 120;
  cfg.reduce_splits = 3;
  auto factory = [cfg] {
    auto p = std::make_unique<sort::DistSortProgram>();
    p->config = cfg;
    return std::unique_ptr<MapReduce>(std::move(p));
  };
  CheckSpillSweep(factory, DistSortFingerprint, /*budget=*/1, "distsort");

  // And against the no-framework ground truth: generate + std::sort.
  sort::DistSortProgram reference;
  reference.config = cfg;
  ASSERT_TRUE(reference.Init(Options()).ok());
  ScopedBudget tiny(1);
  auto report = CheckEquivalence(factory, Options(), {"serial"},
                                 DistSortFingerprint);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->fingerprints[0].second,
            EncodeTextRecords(reference.ExpectedOutput()));
}

// ---- User exceptions ----------------------------------------------------

class ThrowingWordCount : public MatrixWordCount {
 public:
  bool non_standard = false;

  void Map(const Value&, const Value&, const Emitter&) override {
    if (non_standard) throw 42;  // not derived from std::exception
    throw std::runtime_error("map exploded");
  }
};

TEST(EquivalenceMatrix, ThrowingMapFailsWithTheSameStatusOnEveryRunner) {
  for (bool non_standard : {false, true}) {
    const std::string want = non_standard
                                 ? "uncaught non-standard exception in task"
                                 : "uncaught exception in task: map exploded";
    ProgramFactory factory = [non_standard] {
      auto p = std::make_unique<ThrowingWordCount>();
      p->non_standard = non_standard;
      return std::unique_ptr<MapReduce>(std::move(p));
    };
    for (const char* impl :
         {"serial", "mockparallel", "thread", "masterslave"}) {
      std::unique_ptr<MapReduce> program = factory();
      ASSERT_TRUE(program->Init(Options()).ok());
      RunConfig config;
      config.impl = impl;
      Status status = RunProgram(factory, program.get(), config);
      EXPECT_EQ(status.code(), StatusCode::kInternal)
          << impl << ": " << status.ToString();
      EXPECT_NE(status.message().find(want), std::string::npos)
          << impl << ": " << status.ToString();
    }
  }
}

}  // namespace
}  // namespace mrs
