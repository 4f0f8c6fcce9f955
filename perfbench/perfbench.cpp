// perfbench: one run of one workload of the repository benchmark.
//
// run.py builds this binary and, for every workload run, starts it with
// --cycles 9 to time runtime set-up and teardown, then once more to
// measure the window.  Load is closed-loop from the main thread:
// the next job or round is submitted only after the previous one's output
// has been verified.  The measured window alternates one unit on the
// parallel runtime (4 in-process slaves, or a 4-worker thread runner for
// pi-ladder) with one unit on the serial runner.
//
// Output is line-oriented JSON on stdout, flushed per line so run.py's
// watchdog sees progress:
//   {"phase":"..."}                               progress marks
//   {"unit":"cycle"|"warm"|"par"|"ser","s":..,"ok":..,"traced":..
//    [,"parts":[..]]}
//   {"summary":{...}}                             last line
// Diagnostics go to stderr.  run.py turns the samples into metrics.
//
// With --trace 1 every other parallel unit is traced: the benchmark times
// user Map/Reduce/Combine, takes counter deltas from obs::Registry and the
// task/fetch spans from obs::TraceBuffer around the unit, and after the
// window replays module functions on data shaped like the workload's.
// Untraced runs do none of this.
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/analysis.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/serial_runner.h"
#include "core/task.h"
#include "core/thread_runner.h"
#include "corpus/corpus.h"
#include "fs/bucket.h"
#include "fs/file_io.h"
#include "fs/merge.h"
#include "fs/spill.h"
#include "halton/halton.h"
#include "halton/pi_program.h"
#include "http/client.h"
#include "http/message.h"
#include "http/server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rt/cluster.h"
#include "rt/protocol.h"
#include "ser/record.h"
#include "sort/distsort.h"
#include "xmlrpc/client.h"
#include "xmlrpc/protocol.h"
#include "xmlrpc/server.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace mrs {
namespace perfbench {
namespace {

// 4 slaves or pool workers: the core count of the machine the benchmark
// was sized on.  Changing it changes every workload.
constexpr int kWorkers = 4;
// Job::set_default_parallelism as RunProgram sets it for 4 slaves.
constexpr int kDefaultParallelism = kWorkers * 2;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void EmitLine(const std::string& json) {
  std::fputs(json.c_str(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

std::string Num(double v) { return StrPrintf("%.9g", v); }

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// ---- Tracing: benchmark spans and user-code time ------------------------

bool g_trace_run = false;             // --trace 1
std::atomic<bool> g_unit_traced{false};  // the current unit is traced
std::atomic<int64_t> g_map_ns{0};
std::atomic<int64_t> g_reduce_ns{0};
std::atomic<int64_t> g_combine_ns{0};
thread_local bool t_in_combine = false;
std::vector<obs::TraceSpan> g_bench_spans;  // main thread only
std::atomic<uint64_t> g_sink{0};            // keeps replay results live

/// Adds the scope's duration to `sink` while the current unit is traced.
class UserTimer {
 public:
  explicit UserTimer(std::atomic<int64_t>* sink)
      : sink_(g_unit_traced.load(std::memory_order_relaxed) ? sink : nullptr),
        start_(sink_ != nullptr ? std::chrono::steady_clock::now()
                                : std::chrono::steady_clock::time_point()) {}
  ~UserTimer() {
    if (sink_ == nullptr) return;
    sink_->fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - start_)
                         .count(),
                     std::memory_order_relaxed);
  }
  UserTimer(const UserTimer&) = delete;
  UserTimer& operator=(const UserTimer&) = delete;

 private:
  std::atomic<int64_t>* sink_;
  std::chrono::steady_clock::time_point start_;
};

/// A benchmark span around a call into the runtime, kept in memory and
/// written with the trace file at the end of a traced run.
class BenchSpan {
 public:
  BenchSpan(const char* name, bool active)
      : name_(name), active_(active), start_(obs::TraceNowSeconds()) {}
  ~BenchSpan() {
    if (!active_) return;
    obs::TraceSpan span;
    span.name = name_;
    span.cat = "bench";
    span.start_seconds = start_;
    span.wall_seconds = obs::TraceNowSeconds() - start_;
    g_bench_spans.push_back(std::move(span));
  }
  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;

 private:
  const char* name_;
  bool active_;
  double start_;
};

bool UnitTraced() { return g_unit_traced.load(std::memory_order_relaxed); }

/// Wraps a program's user functions with UserTimer.  Combine delegates to
/// Reduce by default, so Reduce time excludes time spent inside Combine.
template <typename Base>
class Timed : public Base {
 public:
  void Map(const Value& key, const Value& value,
           const Emitter& emit) override {
    UserTimer timer(&g_map_ns);
    Base::Map(key, value, emit);
  }
  void Reduce(const Value& key, const ValueList& values,
              const ValueEmitter& emit) override {
    UserTimer timer(t_in_combine ? nullptr : &g_reduce_ns);
    Base::Reduce(key, values, emit);
  }
  void Combine(const Value& key, const ValueList& values,
               const ValueEmitter& emit) override {
    UserTimer timer(&g_combine_ns);
    t_in_combine = true;
    Base::Combine(key, values, emit);
    t_in_combine = false;
  }
};

// ---- Workloads -----------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  std::string work_dir;
  std::string trace_out;
  /// > 0: only run this many set-up cycles (see Run).
  int cycles = 0;
};

/// Submit map and reduce over `input` and collect the result.  Discards
/// the input and the map output, and the reduce output unless `keep`
/// takes it.
Result<std::vector<KeyValue>> MapReduceCollect(Job& job, DataSetPtr input,
                                               const DataSetOptions& map_opts,
                                               const DataSetOptions& red_opts,
                                               DataSetPtr* keep = nullptr) {
  DataSetPtr mapped;
  DataSetPtr reduced;
  {
    BenchSpan span("submit", UnitTraced());
    mapped = job.MapData(input, map_opts);
    reduced = job.ReduceData(mapped, red_opts);
  }
  Result<std::vector<KeyValue>> out = InternalError("not collected");
  {
    BenchSpan span("collect", UnitTraced());
    out = job.Collect(reduced);
  }
  job.Discard(input);
  job.Discard(mapped);
  if (keep != nullptr) {
    *keep = reduced;
  } else {
    job.Discard(reduced);
  }
  return out;
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generate the inputs and the oracle (not timed).
  virtual Status Prepare(const Args& args, const Options& opts) = 0;
  /// True: 4 in-process slaves.  False: a 4-worker thread runner.
  virtual bool UsesCluster() const { return true; }
  virtual MapReduce* program(bool serial) = 0;
  virtual ProgramFactory factory() = 0;
  /// One closed-loop unit on `job`, verified against the oracle.
  virtual Status Unit(Job& job, bool serial) = 0;
  /// Forget state tied to the previous parallel runtime's Job.
  virtual void OnNewRuntime() {}
  /// Per-part seconds of the last unit (pi-ladder's engines), else empty.
  virtual std::vector<double> last_parts() const { return {}; }
  virtual std::string info() const { return "{}"; }

  // Replay inputs shaped like this workload's data.
  /// Records one shuffle bucket of this workload holds.
  virtual std::vector<KeyValue> CapturedBucket() = 0;
  /// The input of one map task.
  virtual Result<std::vector<KeyValue>> MapTaskInput() = 0;
  virtual DataSetOptions MapOptions() const {
    DataSetOptions o;
    o.op_name = "map";
    return o;
  }
  /// Map tasks feeding one reduce task (URL parts in its assignment).
  virtual int UpstreamTasks() const = 0;
};

// iterate: E8's near-empty map and identity reduce over 8 splits; one
// unit is one round, and every value must equal the round count.  Each
// round's dataset keeps its whole lineage alive and the master walks that
// lineage on every submit, so round time and memory grow with the chain's
// length (5.4 to 7.5 ms over 3000 rounds on a 4-core container).
// Restarting the chain every kChainRounds rounds, as a program of that
// many iterations would, keeps the medians independent of how many rounds
// fit in the window.
class NoopRounds : public MapReduce {
 public:
  void Map(const Value& key, const Value& value,
           const Emitter& emit) override {
    emit(key, Value(value.AsInt() + 1));
  }
};

class IterateWorkload : public Workload {
 public:
  static constexpr int kSplits = 8;
  static constexpr int64_t kChainRounds = 250;

  Status Prepare(const Args&, const Options& opts) override {
    MRS_RETURN_IF_ERROR(programs_[0].Init(opts));
    return programs_[1].Init(opts);
  }
  MapReduce* program(bool serial) override { return &programs_[serial]; }
  ProgramFactory factory() override {
    return [] { return std::make_unique<Timed<NoopRounds>>(); };
  }

  Status Unit(Job& job, bool serial) override {
    Chain& chain = chains_[serial];
    if (chain.rounds == kChainRounds) EndChain(job, &chain);
    if (chain.data == nullptr) {
      std::vector<KeyValue> input;
      for (int64_t i = 0; i < kSplits; ++i) {
        input.push_back(KeyValue{Value(i), Value(int64_t{0})});
      }
      chain.data = job.LocalData(std::move(input), kSplits);
    }
    DataSetOptions options;
    options.num_splits = kSplits;
    Result<std::vector<KeyValue>> out =
        MapReduceCollect(job, chain.data, options, options, &chain.data);
    ++chain.rounds;
    Status verdict = Check(out, chain.rounds);
    if (!verdict.ok()) {
      EndChain(job, &chain);
      return verdict;
    }
    if (!serial) last_ = *out;
    return Status::Ok();
  }

  void OnNewRuntime() override { chains_[0] = Chain(); }

  std::vector<KeyValue> CapturedBucket() override { return last_; }
  Result<std::vector<KeyValue>> MapTaskInput() override { return last_; }
  int UpstreamTasks() const override { return kSplits; }

 private:
  struct Chain {
    DataSetPtr data;
    int64_t rounds = 0;
  };

  // Submitting a dataset re-registers its ancestors with the master, so
  // ending a chain releases its whole lineage, as the end of a program
  // would.
  static void EndChain(Job& job, Chain* chain) {
    for (DataSetPtr ds = chain->data; ds != nullptr; ds = ds->input()) {
      job.Discard(ds);
    }
    *chain = Chain();
  }

  static Status Check(const Result<std::vector<KeyValue>>& out,
                      int64_t rounds) {
    if (!out.ok()) return out.status();
    if (out->size() != kSplits) {
      return DataLossError("iterate: expected 8 records, got " +
                           std::to_string(out->size()));
    }
    for (const KeyValue& kv : *out) {
      if (!kv.value.is_int() || kv.value.AsInt() != rounds) {
        return DataLossError("iterate: value differs from the round count");
      }
    }
    return Status::Ok();
  }

  Timed<NoopRounds> programs_[2];
  Chain chains_[2];
  std::vector<KeyValue> last_;
};

// wordcount: E3's corpus at 1/20 of the paper's 31,173 files, one split
// per file, combiner on.
class WordCountProgram : public MapReduce {
 public:
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
};

class WordCountWorkload : public Workload {
 public:
  Status Prepare(const Args& args, const Options& opts) override {
    MRS_RETURN_IF_ERROR(programs_[0].Init(opts));
    MRS_RETURN_IF_ERROR(programs_[1].Init(opts));
    CorpusSpec spec;
    spec.num_files = 31173 / 20;
    spec.words_per_file = 800;
    spec.vocabulary = 20000;
    spec.seed = args.seed;
    dir_ = JoinPath(args.work_dir, "corpus");
    std::vector<uint64_t> counts;
    CorpusStats stats;
    MRS_ASSIGN_OR_RETURN(files_,
                         GenerateCorpusWithCounts(dir_, spec, &counts, &stats));
    for (size_t rank = 0; rank < counts.size(); ++rank) {
      if (counts[rank] == 0) continue;
      expected_[VocabularyWord(static_cast<int>(rank))] =
          static_cast<int64_t>(counts[rank]);
    }
    if (expected_.size() != stats.distinct_words) {
      return InternalError("wordcount: vocabulary words are not distinct");
    }
    return Status::Ok();
  }
  MapReduce* program(bool serial) override { return &programs_[serial]; }
  ProgramFactory factory() override {
    return [] { return std::make_unique<Timed<WordCountProgram>>(); };
  }

  Status Unit(Job& job, bool serial) override {
    MRS_ASSIGN_OR_RETURN(DataSetPtr input, job.FileData({dir_}));
    DataSetOptions reduce_opts;
    MRS_ASSIGN_OR_RETURN(
        std::vector<KeyValue> out,
        MapReduceCollect(job, input, MapOptions(), reduce_opts));
    if (out.size() != expected_.size()) {
      return DataLossError(StrPrintf("wordcount: %zu words, expected %zu",
                                     out.size(), expected_.size()));
    }
    for (const KeyValue& kv : out) {
      auto it = expected_.find(kv.key.AsString());
      if (it == expected_.end() || !kv.value.is_int() ||
          kv.value.AsInt() != it->second) {
        return DataLossError("wordcount: count differs for '" +
                             kv.key.AsString() + "'");
      }
    }
    if (!serial) last_ = std::move(out);
    return Status::Ok();
  }

  DataSetOptions MapOptions() const override {
    DataSetOptions o;
    o.op_name = "map";
    o.use_combiner = true;
    return o;
  }
  // One reduce split of the output: the shape of a combined bucket.
  std::vector<KeyValue> CapturedBucket() override {
    return std::vector<KeyValue>(
        last_.begin(), last_.begin() + static_cast<std::ptrdiff_t>(
                                           last_.size() / kDefaultParallelism));
  }
  Result<std::vector<KeyValue>> MapTaskInput() override {
    MRS_ASSIGN_OR_RETURN(std::string text, ReadFileToString(files_.at(0)));
    return LinesToRecords(text);
  }
  int UpstreamTasks() const override { return static_cast<int>(files_.size()); }

 private:
  Timed<WordCountProgram> programs_[2];
  std::string dir_;
  std::vector<std::string> files_;
  std::unordered_map<std::string, int64_t> expected_;
  std::vector<KeyValue> last_;
};

// distsort-spill: DistSort with the process MemoryBudget at 1/8 of the
// dataset, so the shuffle goes through spill runs on disk.
class DistSortWorkload : public Workload {
 public:
  Status Prepare(const Args&, const Options& opts) override {
    config_.tasks = 8;
    config_.records_per_task = 20000;
    for (auto& p : programs_) {
      p.config = config_;
      MRS_RETURN_IF_ERROR(p.Init(opts));
    }
    expected_ = programs_[0].ExpectedOutput();
    MemoryBudget::Process().set_limit(programs_[0].ApproxDatasetBytes() / 8);
    return Status::Ok();
  }
  MapReduce* program(bool serial) override { return &programs_[serial]; }
  ProgramFactory factory() override {
    sort::DistSortConfig config = config_;
    return [config] {
      auto p = std::make_unique<Timed<sort::DistSortProgram>>();
      p->config = config;
      return p;
    };
  }

  Status Unit(Job& job, bool serial) override {
    sort::DistSortProgram& prog = programs_[serial];
    DataSetPtr input;
    MRS_RETURN_IF_ERROR(prog.InputData(job, &input));
    DataSetOptions reduce_opts;
    reduce_opts.num_splits = config_.reduce_splits;
    MRS_ASSIGN_OR_RETURN(prog.result, MapReduceCollect(job, input,
                                                       DataSetOptions{},
                                                       reduce_opts));
    if (prog.result != expected_) {
      return DataLossError("distsort: output differs from ExpectedOutput()");
    }
    return Status::Ok();
  }

  std::vector<KeyValue> CapturedBucket() override {
    const std::vector<KeyValue>& out = programs_[0].result;
    size_t n = std::min(out.size(),
                        static_cast<size_t>(config_.records_per_task));
    return std::vector<KeyValue>(out.begin(),
                                 out.begin() + static_cast<std::ptrdiff_t>(n));
  }
  Result<std::vector<KeyValue>> MapTaskInput() override {
    return std::vector<KeyValue>{
        {Value(int64_t{0}), Value(config_.records_per_task)}};
  }
  int UpstreamTasks() const override { return config_.tasks; }

 private:
  sort::DistSortConfig config_;
  Timed<sort::DistSortProgram> programs_[2];
  std::vector<KeyValue> expected_;
};

// pi-ladder: Halton π once per engine, sized so each engine's job takes
// roughly the same time on 4 workers.
class PiLadderProgram : public PiEstimatorProgram {
 public:
  // PiEstimatorProgram caches per-thread kernels in a three-slot array
  // indexed by PiEngine, which has four values; the tree-walk engine gets
  // its own per-thread kernel here so it never indexes past that array.
  void Map(const Value& key, const Value& value,
           const Emitter& emit) override {
    if (engine != PiEngine::kTreeWalk) {
      PiEstimatorProgram::Map(key, value, emit);
      return;
    }
    thread_local std::unique_ptr<PiKernel> kernel;
    if (kernel == nullptr) {
      Result<std::unique_ptr<PiKernel>> made = PiKernel::Create(engine);
      if (!made.ok()) return;
      kernel = std::move(made).value();
    }
    const ValueList& range = value.AsList();
    uint64_t count = static_cast<uint64_t>(range[1].AsInt());
    Result<uint64_t> counted = kernel->CountInside(
        static_cast<uint64_t>(range[0].AsInt()), count);
    if (counted.ok()) {
      emit(Value(int64_t{0}),
           Value(ValueList{Value(static_cast<int64_t>(*counted)),
                           Value(static_cast<int64_t>(count))}));
    }
  }
};

class PiLadderWorkload : public Workload {
 public:
  struct Rung {
    PiEngine engine;
    int64_t samples;
    const char* name;
  };
  static constexpr int kTasks = 16;

  Status Prepare(const Args&, const Options& opts) override {
    for (auto& p : programs_) {
      MRS_RETURN_IF_ERROR(p.Init(opts));
      p.tasks = kTasks;
    }
    for (const Rung& rung : kRungs) {
      PiLadderProgram& p = programs_[0];
      p.engine = rung.engine;
      p.samples = rung.samples;
      MRS_RETURN_IF_ERROR(p.Bypass());
      expected_.push_back(p.inside);
    }
    return Status::Ok();
  }
  bool UsesCluster() const override { return false; }
  MapReduce* program(bool serial) override { return &programs_[serial]; }
  ProgramFactory factory() override {
    return [] { return std::make_unique<Timed<PiLadderProgram>>(); };
  }

  Status Unit(Job& job, bool serial) override {
    PiLadderProgram& prog = programs_[serial];
    parts_.clear();
    for (size_t i = 0; i < std::size(kRungs); ++i) {
      double start = Now();
      prog.engine = kRungs[i].engine;
      prog.samples = kRungs[i].samples;
      DataSetPtr input;
      MRS_RETURN_IF_ERROR(prog.InputData(job, &input));
      DataSetOptions reduce_opts;
      reduce_opts.num_splits = 1;
      MRS_ASSIGN_OR_RETURN(
          std::vector<KeyValue> out,
          MapReduceCollect(job, input, DataSetOptions{}, reduce_opts));
      parts_.push_back(Now() - start);
      if (out.size() != 1 || !out[0].value.is_list() ||
          out[0].value.AsList().size() != 2 ||
          out[0].value.AsList()[0].AsInt() != expected_[i] ||
          out[0].value.AsList()[1].AsInt() != kRungs[i].samples) {
        return DataLossError(StrPrintf("pi-ladder: %s count differs from "
                                       "Bypass()",
                                       kRungs[i].name));
      }
    }
    return Status::Ok();
  }
  std::vector<double> last_parts() const override { return parts_; }
  std::string info() const override {
    std::string names;
    std::string samples;
    for (const Rung& rung : kRungs) {
      if (!names.empty()) {
        names += ",";
        samples += ",";
      }
      names += StrPrintf("\"%s\"", rung.name);
      samples += std::to_string(rung.samples);
    }
    return "{\"parts\":[" + names + "],\"samples\":[" + samples + "]}";
  }

  std::vector<KeyValue> CapturedBucket() override {
    std::vector<KeyValue> ranges;
    for (int t = 0; t < kTasks; ++t) {
      ranges.push_back({Value(int64_t{0}),
                        Value(ValueList{Value(int64_t{t}),
                                        Value(int64_t{1000})})});
    }
    return ranges;
  }
  Result<std::vector<KeyValue>> MapTaskInput() override {
    const Rung& native = kRungs[std::size(kRungs) - 1];
    return std::vector<KeyValue>{
        {Value(int64_t{0}),
         Value(ValueList{Value(int64_t{0}),
                         Value(native.samples / kTasks)})}};
  }
  int UpstreamTasks() const override { return kTasks; }

 private:
  // Samples per engine, about 80 ms per job each on 4 workers.
  static constexpr Rung kRungs[] = {
      {PiEngine::kTreeWalk, 19200, "treewalk"},
      {PiEngine::kVm, 40000, "vm"},
      {PiEngine::kVmTyped, 400000, "typed"},
      {PiEngine::kNative, 2400000, "native"},
  };
  Timed<PiLadderProgram> programs_[2];
  std::vector<int64_t> expected_;
  std::vector<double> parts_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "iterate") return std::make_unique<IterateWorkload>();
  if (name == "wordcount") return std::make_unique<WordCountWorkload>();
  if (name == "distsort-spill") return std::make_unique<DistSortWorkload>();
  if (name == "pi-ladder") return std::make_unique<PiLadderWorkload>();
  return nullptr;
}

// ---- Runtime set-up and teardown ----------------------------------------

struct Runtime {
  std::unique_ptr<ClusterLauncher> cluster;
  std::unique_ptr<Job> job;
};

/// From starting the runtime until the first job can be submitted.
Result<Runtime> StartRuntime(Workload& w, const Options& opts) {
  BenchSpan span("setup", g_trace_run);
  Runtime rt;
  MapReduce* program = w.program(false);
  if (w.UsesCluster()) {
    ClusterLauncher::Config config;
    config.num_slaves = kWorkers;
    MRS_ASSIGN_OR_RETURN(rt.cluster,
                         ClusterLauncher::Start(w.factory(), opts, config));
    rt.job = std::make_unique<Job>(
        program, std::make_unique<MasterRunner>(&rt.cluster->master()));
  } else {
    rt.job = std::make_unique<Job>(
        program, std::make_unique<ThreadRunner>(program, kWorkers));
  }
  rt.job->set_default_parallelism(kDefaultParallelism);
  return rt;
}

void StopRuntime(Runtime& rt) {
  BenchSpan span("teardown", g_trace_run);
  if (rt.cluster != nullptr) rt.cluster->Shutdown();
  rt.job.reset();
  rt.cluster.reset();
}

// ---- Traced-unit accounting ---------------------------------------------

const char* const kDeltaCounters[] = {
    "mrs.master.tasks_assigned", "mrs.master.tasks_completed",
    "mrs.master.tasks_speculated", "mrs.retry.rpc", "mrs.retry.fetch",
    "mrs.http.client.requests", "mrs.http.client.connects",
    "mrs.http.pool.hits", "mrs.http.pool.misses", "mrs.slave.batch_fetches",
    "mrs.slave.batch_buckets", "mrs.slave.batch_fallbacks",
    "mrs.spill.bytes_spilled", "mrs.spill.runs_written", "mrs.thread.tasks",
    "mrs.pool.steals", "mrs.vm.typed_calls", "mrs.vm.deopts",
};

struct TraceTotals {
  int units = 0;
  double wall = 0;
  std::map<std::string, int64_t> deltas;
  int64_t task_spans = 0;
  double task_wall = 0;
  int64_t fetch_bytes = 0;
  std::vector<obs::TraceSpan> last_program_spans;
};

int64_t CounterValue(const std::map<std::string, int64_t>& values,
                     const char* name) {
  auto it = values.find(name);
  return it == values.end() ? 0 : it->second;
}

void AddTracedUnit(TraceTotals* totals, double wall,
                   const std::map<std::string, int64_t>& before,
                   const std::map<std::string, int64_t>& after,
                   std::vector<obs::TraceSpan> spans) {
  ++totals->units;
  totals->wall += wall;
  for (const char* name : kDeltaCounters) {
    totals->deltas[name] +=
        CounterValue(after, name) - CounterValue(before, name);
  }
  for (const obs::TraceSpan& span : spans) {
    if (span.cat == "map" || span.cat == "reduce") {
      ++totals->task_spans;
      totals->task_wall += span.wall_seconds;
    } else if (span.cat == "fetch") {
      totals->fetch_bytes += span.bytes_in;
    }
  }
  totals->last_program_spans = std::move(spans);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

void AddCounterLayers(const TraceTotals& t, std::map<std::string, double>* out) {
  auto d = [&](const char* name) {
    auto it = t.deltas.find(name);
    return it == t.deltas.end() ? 0.0 : static_cast<double>(it->second);
  };
  double n = std::max(1, t.units);
  auto& m = *out;
  m["rt.tasks_per_job"] = static_cast<double>(t.task_spans) / n;
  double assigned = d("mrs.master.tasks_assigned");
  m["rt.useful_task_ratio"] =
      assigned > 0 ? d("mrs.master.tasks_completed") / assigned : 1.0;
  m["rt.speculated_per_job"] = d("mrs.master.tasks_speculated") / n;
  m["rt.task_busy_s"] = t.task_wall / n;
  m["rt.slave_idle_share"] = 1.0 - Ratio(t.task_wall, kWorkers * t.wall);
  m["xmlrpc.retries_per_job"] = d("mrs.retry.rpc") / n;
  m["http.requests_per_job"] = d("mrs.http.client.requests") / n;
  m["http.connects_per_job"] = d("mrs.http.client.connects") / n;
  m["http.pool_hit_ratio"] =
      Ratio(d("mrs.http.pool.hits"),
            d("mrs.http.pool.hits") + d("mrs.http.pool.misses"));
  m["http.batch_buckets_per_fetch"] =
      Ratio(d("mrs.slave.batch_buckets"), d("mrs.slave.batch_fetches"));
  m["http.batch_fallback_ratio"] =
      Ratio(d("mrs.slave.batch_fallbacks"), d("mrs.slave.batch_fetches"));
  m["http.fetch_retries_per_job"] = d("mrs.retry.fetch") / n;
  m["ser.shuffle_mb_per_job"] = static_cast<double>(t.fetch_bytes) / 1e6 / n;
  m["fs.spilled_mb_per_job"] = d("mrs.spill.bytes_spilled") / 1e6 / n;
  m["fs.runs_per_job"] = d("mrs.spill.runs_written") / n;
  m["fs.budget_high_water_mb"] =
      static_cast<double>(MemoryBudget::Process().high_water()) / 1e6;
  m["core.thread_tasks_per_job"] = d("mrs.thread.tasks") / n;
  m["common.pool_steals_per_job"] = d("mrs.pool.steals") / n;
  m["interp.typed_calls_per_job"] = d("mrs.vm.typed_calls") / n;
  m["interp.deopts_per_job"] = d("mrs.vm.deopts") / n;
  m["user.map_s"] = static_cast<double>(g_map_ns.load()) / 1e9 / n;
  m["user.reduce_s"] = static_cast<double>(g_reduce_ns.load()) / 1e9 / n;
  m["user.combine_s"] = static_cast<double>(g_combine_ns.load()) / 1e9 / n;
}

// ---- Replays (traced runs only) -----------------------------------------

/// Median seconds per call of `fn`, over at least `min_reps` calls and
/// `min_seconds` of calls (capped at `max_reps`).
double MedianSecondsPerCall(const std::function<void()>& fn, int min_reps,
                            double min_seconds, int max_reps = 100000) {
  std::vector<double> samples;
  double start = Now();
  while (static_cast<int>(samples.size()) < min_reps ||
         (Now() - start < min_seconds &&
          static_cast<int>(samples.size()) < max_reps)) {
    double t0 = Now();
    fn();
    samples.push_back(Now() - t0);
  }
  return Median(samples);
}

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

size_t RowRecords(const Result<std::vector<Bucket>>& row) {
  size_t n = 0;
  if (!row.ok()) return 0;
  for (const Bucket& b : *row) n += b.records().size();
  return n;
}

/// Times module functions on data shaped like the workload's.  Returns the
/// number of replays whose call failed.
int RunReplays(Workload& w, const Args& args,
               std::map<std::string, double>* out) {
  auto& m = *out;
  int failures = 0;
  auto check = [&failures](bool ok, const char* what) {
    if (!ok) {
      ++failures;
      std::fprintf(stderr, "perfbench: replay %s failed\n", what);
    }
  };

  std::vector<KeyValue> bucket = w.CapturedBucket();
  const std::string encoded = EncodeBinaryRecords(bucket);
  const double mb = static_cast<double>(encoded.size()) / 1e6;
  std::vector<KeyValue> sorted = bucket;
  std::sort(sorted.begin(), sorted.end(), KeyValueLess);

  // ser
  double t = MedianSecondsPerCall(
      [&] { g_sink += EncodeBinaryRecords(bucket).size(); }, 5, 0.05);
  m["ser.encode_mb_per_s"] = mb / t;
  t = MedianSecondsPerCall(
      [&] {
        auto r = DecodeBinaryRecords(encoded);
        check(r.ok(), "DecodeBinaryRecords");
        if (r.ok()) g_sink += r->size();
      },
      5, 0.05);
  m["ser.decode_mb_per_s"] = mb / t;

  // fs: frames, spill runs, durable writes, merge, listing
  std::vector<BucketFrame> frames;
  for (int i = 0; i < 4; ++i) {
    frames.push_back({StrPrintf("1/%d/0", i), ContentChecksum(encoded),
                      encoded});
  }
  const std::string framed = EncodeBucketFrames(frames);
  t = MedianSecondsPerCall(
      [&] { g_sink += EncodeBucketFrames(frames).size(); }, 5, 0.05);
  m["fs.frames_encode_mb_per_s"] = 4 * mb / t;
  t = MedianSecondsPerCall(
      [&] {
        auto r = DecodeBucketFrames(framed);
        check(r.ok(), "DecodeBucketFrames");
        if (r.ok()) g_sink += r->size();
      },
      5, 0.05);
  m["fs.frames_decode_mb_per_s"] = 4 * mb / t;

  const std::string dir = JoinPath(args.work_dir, "replay");
  check(EnsureDir(dir).ok(), "EnsureDir");
  int seq = 0;
  t = MedianSecondsPerCall(
      [&] {
        auto r = WriteSpillRun(JoinPath(dir, StrPrintf("w%d", seq++)), "w",
                               sorted, true);
        check(r.ok(), "WriteSpillRun");
      },
      5, 0.05, 50);
  m["fs.spill_write_mb_per_s"] = mb / t;
  t = MedianSecondsPerCall(
      [&] {
        check(WriteFileAtomic(JoinPath(dir, "atomic"), encoded).ok(),
              "WriteFileAtomic");
      },
      5, 0.05, 50);
  m["fs.write_atomic_ms"] = t * 1e3;

  constexpr int kFanIn = 8;
  std::vector<SpillRun> runs;
  for (int k = 0; k < kFanIn; ++k) {
    std::vector<KeyValue> part;
    for (size_t i = static_cast<size_t>(k); i < sorted.size(); i += kFanIn) {
      part.push_back(sorted[i]);
    }
    auto r = WriteSpillRun(JoinPath(dir, StrPrintf("m%d", k)), "m", part,
                           true);
    check(r.ok(), "WriteSpillRun");
    if (r.ok()) runs.push_back(*r);
  }
  t = MedianSecondsPerCall(
      [&] {
        std::vector<std::unique_ptr<MergeSource>> sources;
        for (const SpillRun& run : runs) {
          sources.push_back(std::make_unique<SpillRunSource>(run));
        }
        LoserTreeMerger merger(std::move(sources));
        KeyValue kv;
        while (true) {
          Result<bool> more = merger.Next(&kv);
          if (!more.ok()) {
            check(false, "LoserTreeMerger");
            break;
          }
          if (!*more) break;
          ++g_sink;
        }
      },
      3, 0.05, 200);
  m["fs.merge_mrec_per_s"] =
      std::max<double>(1, static_cast<double>(sorted.size())) / t / 1e6;
  t = MedianSecondsPerCall(
      [&] {
        auto r = ListFilesRecursive(args.work_dir);
        check(r.ok(), "ListFilesRecursive");
        if (r.ok()) g_sink += r->size();
      },
      5, 0.02, 200);
  m["fs.list_files_ms"] = t * 1e3;

  // core
  MapReduce& prog = *w.program(false);
  Result<std::vector<KeyValue>> map_input = w.MapTaskInput();
  check(map_input.ok(), "MapTaskInput");
  if (map_input.ok()) {
    DataSetOptions mo = w.MapOptions();
    t = MedianSecondsPerCall(
        [&] {
          auto r = RunMapTask(prog, mo, kDefaultParallelism, *map_input);
          check(r.ok(), "RunMapTask");
        },
        5, 0.05, 200);
    m["core.map_task_ms"] = t * 1e3;
    DataSetOptions plain = mo;
    plain.use_combiner = false;
    size_t combined =
        RowRecords(RunMapTask(prog, mo, kDefaultParallelism, *map_input));
    size_t raw =
        RowRecords(RunMapTask(prog, plain, kDefaultParallelism, *map_input));
    m["core.combine_ratio"] = raw > 0 ? static_cast<double>(combined) /
                                            static_cast<double>(raw)
                                      : 1.0;
  }
  DataSetOptions ro;
  ro.op_name = "reduce";
  t = MedianSecondsPerCall(
      [&] {
        auto r = RunReduceTask(prog, ro, 1, bucket);
        check(r.ok(), "RunReduceTask");
      },
      5, 0.05, 200);
  m["core.reduce_task_ms"] = t * 1e3;
  Result<ReduceFn> reduce_fn = prog.FindReduce("reduce");
  check(reduce_fn.ok(), "FindReduce");
  if (reduce_fn.ok()) {
    std::vector<KeyValue> shuffled(bucket.rbegin(), bucket.rend());
    t = MedianSecondsPerCall(
        [&] {
          auto r = SortGroupApply(shuffled, *reduce_fn);
          check(r.ok(), "SortGroupApply");
        },
        5, 0.05, 200);
    m["core.sort_group_mrec_per_s"] =
        std::max<double>(1, static_cast<double>(shuffled.size())) / t / 1e6;
  }

  // common: submit-to-completion cost through the work-stealing pool
  {
    WorkStealingPool pool(kWorkers);
    constexpr int kTasks = 20000;
    t = MedianSecondsPerCall(
        [&] {
          std::atomic<int> done{0};
          for (int i = 0; i < kTasks; ++i) {
            pool.Submit([&done] { done.fetch_add(1); });
          }
          while (done.load() < kTasks) std::this_thread::yield();
        },
        3, 0.05, 50);
    m["common.pool_submit_us"] = t / kTasks * 1e6;
  }

  // interp, halton, analysis: single-thread kernels, then submit-time
  // analysis of the π kernel.
  const struct {
    PiEngine engine;
    uint64_t samples;
    const char* metric;
  } kernels[] = {
      {PiEngine::kTreeWalk, 4000, "interp.treewalk_us_per_sample"},
      {PiEngine::kVm, 10000, "interp.vm_us_per_sample"},
      {PiEngine::kVmTyped, 100000, "interp.typed_us_per_sample"},
      {PiEngine::kNative, 1000000, "halton.native_us_per_sample"},
  };
  for (const auto& k : kernels) {
    Result<std::unique_ptr<PiKernel>> kernel = PiKernel::Create(k.engine);
    check(kernel.ok(), "PiKernel::Create");
    if (!kernel.ok()) continue;
    t = MedianSecondsPerCall(
        [&] {
          auto r = (*kernel)->CountInside(0, k.samples);
          check(r.ok(), "CountInside");
          if (r.ok()) g_sink += *r;
        },
        3, 0);
    m[k.metric] = t / static_cast<double>(k.samples) * 1e6;
  }
  const std::string source = PiKernelSource();
  t = MedianSecondsPerCall(
      [&] {
        check(analysis::AnalyzeKernelSource(source).ok(),
              "AnalyzeKernelSource");
      },
      10, 0.05, 200);
  m["analysis.submit_ms"] = t * 1e3;

  // xmlrpc: a reduce assignment with one URL part per upstream map task.
  TaskAssignment assignment;
  assignment.dataset_id = 3;
  assignment.kind = DataSetKind::kReduce;
  assignment.num_splits = kDefaultParallelism;
  assignment.options.op_name = "reduce";
  for (int i = 0; i < w.UpstreamTasks(); ++i) {
    assignment.inputs.push_back(TaskInputPart::Url(
        StrPrintf("http://127.0.0.1:40000/bucket/2/%d/0", i)));
  }
  t = MedianSecondsPerCall(
      [&] {
        std::string body = xmlrpc::BuildBinaryResponse(assignment.ToRpc());
        auto parsed = xmlrpc::ParseBinaryResponse(body);
        check(parsed.ok() && TaskAssignment::FromRpc(*parsed).ok(),
              "TaskAssignment round trip");
      },
      5, 0.05);
  m["xmlrpc.marshal_us"] = t * 1e6;
  {
    XmlRpcDispatcher dispatcher;
    dispatcher.Register("get_task", [&](const XmlRpcArray&) {
      return Result<XmlRpcValue>(assignment.ToRpc());
    });
    auto server =
        HttpServer::Start("127.0.0.1", 0, dispatcher.MakeHttpHandler(), 2);
    check(server.ok(), "HttpServer::Start");
    if (server.ok()) {
      XmlRpcClient client((*server)->addr());
      t = MedianSecondsPerCall(
          [&] { check(client.Call("get_task", {XmlRpcValue(1)}).ok(),
                      "XmlRpcClient::Call"); },
          5, 0.05);
      m["xmlrpc.call_us"] = t * 1e6;
      (*server)->Shutdown();
    }
  }

  // http: a bucket-sized body from a loopback server.
  {
    auto server = HttpServer::Start(
        "127.0.0.1", 0,
        [&](const HttpRequest&) {
          return HttpResponse::Ok(encoded, "application/octet-stream");
        },
        2);
    check(server.ok(), "HttpServer::Start");
    if (server.ok()) {
      HttpClient client((*server)->addr());
      t = MedianSecondsPerCall(
          [&] {
            auto r = client.Get("/bucket");
            check(r.ok() && r->body.size() == encoded.size(),
                  "HttpClient::Get");
          },
          5, 0.05);
      m["http.get_us"] = t * 1e6;
      (*server)->Shutdown();
    }
  }
  RemoveTree(dir);
  return failures;
}

// ---- Fingerprint ---------------------------------------------------------

std::string FilesystemType(const std::string& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<uint64_t>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: return StrPrintf("0x%llx", static_cast<unsigned long long>(
                                            st.f_type));
  }
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string JsonList(const std::vector<double>& v) {
  std::string s = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) s += ",";
    s += Num(v[i]);
  }
  return s + "]";
}

// ---- Main loop -----------------------------------------------------------

int Run(const Args& args) {
  std::unique_ptr<Workload> w = MakeWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  Options opts;
  opts.Set("mrs-seed", std::to_string(args.seed));
  Status prepared = w->Prepare(args, opts);
  if (!prepared.ok()) {
    std::fprintf(stderr, "perfbench: prepare failed: %s\n",
                 prepared.ToString().c_str());
    return 1;
  }
  EmitLine("{\"phase\":\"prepared\"}");

  auto run_unit = [&](Job& job, bool serial, const char* kind, bool traced) {
    double t0 = Now();
    Status status = w->Unit(job, serial);
    double elapsed = Now() - t0;
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: %s unit failed: %s\n", kind,
                   status.ToString().c_str());
    }
    std::string line = StrPrintf(
        "{\"unit\":\"%s\",\"s\":%s,\"ok\":%s,\"traced\":%s", kind,
        Num(elapsed).c_str(), status.ok() ? "true" : "false",
        traced ? "true" : "false");
    if (!serial) {
      std::vector<double> parts = w->last_parts();
      if (!parts.empty()) line += ",\"parts\":" + JsonList(parts);
    }
    EmitLine(line + "}");
    return elapsed;
  };

  std::vector<double> setup_s;
  std::vector<double> teardown_s;
  auto start = [&]() -> Result<Runtime> {
    double t0 = Now();
    MRS_ASSIGN_OR_RETURN(Runtime rt, StartRuntime(*w, opts));
    setup_s.push_back(Now() - t0);
    w->OnNewRuntime();
    return rt;
  };
  auto stop = [&](Runtime& rt) {
    double t0 = Now();
    StopRuntime(rt);
    teardown_s.push_back(Now() - t0);
  };
  auto start_failed = [](const Status& status) {
    std::fprintf(stderr, "perfbench: runtime start failed: %s\n",
                 status.ToString().c_str());
    return 1;
  };

  std::map<std::string, double> layers;
  int replay_failures = 0;
  if (args.cycles > 0) {
    // Set-up cycles: start a runtime, run one unit on it, stop it.  They
    // run in a process of their own because every cluster a process
    // starts leaves its threads' allocator arenas behind, which would
    // raise the measuring process's peak RSS by a varying amount.
    for (int i = 0; i < args.cycles; ++i) {
      Result<Runtime> rt = start();
      if (!rt.ok()) return start_failed(rt.status());
      run_unit(*rt->job, false, "cycle", false);
      stop(*rt);
    }
  } else {
    Result<Runtime> started = start();
    if (!started.ok()) return start_failed(started.status());
    Runtime rt = std::move(started).value();
    run_unit(*rt.job, false, "warm", false);
    Job serial_job(w->program(true),
                   std::make_unique<SerialRunner>(w->program(true)));
    serial_job.set_default_parallelism(kDefaultParallelism);
    run_unit(serial_job, true, "warm", false);
    EmitLine("{\"phase\":\"window\"}");

    TraceTotals totals;
    obs::Registry& registry = obs::Registry::Instance();
    const double deadline = Now() + args.seconds;
    for (int i = 0; Now() < deadline; ++i) {
      bool traced = g_trace_run && i % 2 == 0;
      if (traced) {
        std::map<std::string, int64_t> before = registry.CounterValues();
        obs::TraceBuffer::Instance().Clear();
        g_unit_traced = true;
        double elapsed;
        {
          BenchSpan span("unit", true);
          elapsed = run_unit(*rt.job, false, "par", true);
        }
        g_unit_traced = false;
        AddTracedUnit(&totals, elapsed, before, registry.CounterValues(),
                      obs::TraceBuffer::Instance().Snapshot());
      } else {
        run_unit(*rt.job, false, "par", false);
      }
      run_unit(serial_job, true, "ser", false);
    }
    stop(rt);
    EmitLine("{\"phase\":\"stopped\"}");

    if (g_trace_run) {
      AddCounterLayers(totals, &layers);
      replay_failures = RunReplays(*w, args, &layers);
      if (!args.trace_out.empty()) {
        std::vector<obs::TraceSpan> spans = g_bench_spans;
        spans.insert(spans.end(), totals.last_program_spans.begin(),
                     totals.last_program_spans.end());
        if (!WriteFileAtomic(args.trace_out, obs::RenderChromeTrace(spans))
                 .ok()) {
          std::fprintf(stderr, "perfbench: could not write %s\n",
                       args.trace_out.c_str());
        }
      }
    }
  }

  std::string layer_json = "{";
  for (const auto& [name, value] : layers) {
    if (layer_json.size() > 1) layer_json += ",";
    layer_json += "\"" + name + "\":" + Num(value);
  }
  layer_json += "}";
  EmitLine(StrPrintf(
      "{\"summary\":{\"workers\":%d,\"setup_s\":%s,\"teardown_s\":%s,"
      "\"peak_rss_mb\":%s,\"replay_failures\":%d,\"info\":%s,"
      "\"layers\":%s,\"fingerprint\":{\"nproc\":%ld,\"compiler\":\"%s\","
      "\"build_type\":\"%s\",\"spill_fs\":\"%s\"}}}",
      kWorkers, JsonList(setup_s).c_str(), JsonList(teardown_s).c_str(),
      Num(PeakRssMb()).c_str(), replay_failures, w->info().c_str(),
      layer_json.c_str(), sysconf(_SC_NPROCESSORS_ONLN), Compiler().c_str(),
      PERFBENCH_BUILD_TYPE, FilesystemType(args.work_dir).c_str()));
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace mrs

int main(int argc, char** argv) {
  mrs::perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      mrs::perfbench::g_trace_run = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--cycles") {
      args.cycles = std::atoi(value.c_str());
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (args.workload.empty() || args.work_dir.empty()) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --work-dir DIR [--seed N] "
                 "[--seconds S] [--trace 0|1] [--trace-out FILE] "
                 "[--cycles N]\n");
    return 2;
  }
  return mrs::perfbench::Run(args);
}
