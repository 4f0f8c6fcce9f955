// E3 (paper §V-B, WordCount on Project Gutenberg).
//
// The paper's numbers:
//   * full corpus (31,173 nested files): Hadoop took ~9 minutes just to
//     load the data; Mrs finished the whole job in under 9 minutes;
//   * subset (8,316 files): Hadoop 1 minute prepare / 16 minutes total;
//     Mrs 2 minutes total.
//
// Here: a scaled synthetic corpus (same nested layout, Zipf words) is
// counted by real mrs-cpp runs (serial and masterslave over loopback
// TCP), while the Hadoop columns come from the hadoopsim DES — both at
// the scaled size and, for the DES, at full paper scale.  A --no-combiner
// ablation row quantifies the combiner optimization the paper describes.
#include <cstdio>
#include <cstdlib>
#include <set>
#include <thread>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "common/strings.h"
#include "corpus/corpus.h"
#include "fs/file_io.h"
#include "hadoopsim/cluster.h"
#include "rt/mrs_main.h"

namespace mrs {
namespace {

class WordCount : public MapReduce {
 public:
  bool use_combiner = true;
  std::string input_dir;
  size_t distinct_words = 0;

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
    MRS_ASSIGN_OR_RETURN(DataSetPtr input, job.FileData({input_dir}));
    DataSetOptions map_options;
    map_options.use_combiner = use_combiner;
    DataSetPtr mapped = job.MapData(input, map_options);
    DataSetPtr reduced = job.ReduceData(mapped);
    MRS_ASSIGN_OR_RETURN(std::vector<KeyValue> out, job.Collect(reduced));
    distinct_words = out.size();
    return Status::Ok();
  }
};

double RunMrs(const std::string& impl, const std::string& dir,
              bool use_combiner, int num_slaves, size_t* distinct,
              int num_workers = 0) {
  WordCount program;
  program.input_dir = dir;
  program.use_combiner = use_combiner;
  if (!program.Init(Options()).ok()) return -1;
  RunConfig config;
  config.impl = impl;
  config.num_slaves = num_slaves;
  config.num_workers = num_workers;
  Stopwatch watch;
  Status status = RunProgram(
      [&]() -> std::unique_ptr<MapReduce> {
        auto p = std::make_unique<WordCount>();
        p->input_dir = dir;
        p->use_combiner = use_combiner;
        return p;
      },
      &program, config);
  if (!status.ok()) {
    std::fprintf(stderr, "mrs %s failed: %s\n", impl.c_str(),
                 status.ToString().c_str());
    return -1;
  }
  *distinct = program.distinct_words;
  return watch.ElapsedSeconds();
}

hadoopsim::JobResult SimulateHadoop(int num_files, int num_dirs,
                                    int64_t bytes) {
  hadoopsim::HadoopCluster cluster{hadoopsim::ClusterConfig{}};
  hadoopsim::JobSpec spec;
  spec.num_map_tasks = num_files;
  spec.num_reduce_tasks = 21;
  spec.map_input_bytes = bytes;
  spec.map_output_bytes = bytes / 4;   // combiner applied
  spec.reduce_output_bytes = bytes / 50;
  spec.num_input_files = num_files;
  spec.num_input_dirs = num_dirs;
  spec.stage_in_bytes = bytes;  // data must enter HDFS
  spec.stage_out_bytes = bytes / 50;
  auto result = cluster.RunJob(spec);
  return result.ValueOr(hadoopsim::JobResult{});
}

}  // namespace
}  // namespace mrs

int main(int argc, char** argv) {
  using namespace mrs;
  // Scale: paper file counts divided by `denominator` (default 20).
  int denominator = 20;
  if (argc > 1) denominator = std::max(1, std::atoi(argv[1]));

  std::printf("bench_wordcount: E3, WordCount vs Hadoop (paper §V-B)\n");
  std::printf("corpus scale: paper file counts / %d\n", denominator);

  auto tmp = MakeTempDir("mrs_bench_wc_");
  if (!tmp.ok()) {
    std::fprintf(stderr, "tempdir failed\n");
    return 1;
  }

  struct Scale {
    const char* name;
    int paper_files;
  };
  const Scale scales[] = {{"subset", 8316}, {"full", 31173}};

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"corpus", "files", "MB", "mrs serial (s)",
                  "mrs masterslave (s)", "hadoopsim startup (s)",
                  "hadoopsim total (s)"});
  std::vector<bench::BenchMetric> json_metrics;
  json_metrics.push_back(
      {"denominator", static_cast<double>(denominator)});

  std::vector<std::vector<std::string>> paper_rows;
  paper_rows.push_back({"corpus (paper scale)", "files",
                        "hadoopsim startup (s)", "hadoopsim total (s)",
                        "mrs total est. (s)", "paper said"});

  for (const Scale& scale : scales) {
    CorpusSpec spec;
    spec.num_files = scale.paper_files / denominator;
    spec.words_per_file = 800;
    spec.vocabulary = 20000;
    spec.seed = 2012;
    std::string dir = JoinPath(*tmp, scale.name);
    CorpusStats stats;
    std::vector<uint64_t> counts;
    auto files = GenerateCorpusWithCounts(dir, spec, &counts, &stats);
    if (!files.ok()) {
      std::fprintf(stderr, "corpus generation failed: %s\n",
                   files.status().ToString().c_str());
      return 1;
    }
    int64_t bytes = 0;
    int num_dirs = 0;
    {
      std::set<std::string> dirs;
      for (const std::string& f : *files) {
        bytes += static_cast<int64_t>(FileSize(f).ValueOr(0));
        dirs.insert(f.substr(0, f.rfind('/')));
      }
      num_dirs = static_cast<int>(dirs.size());
    }

    size_t distinct_serial = 0, distinct_ms = 0;
    double t_serial = RunMrs("serial", dir, true, 4, &distinct_serial);
    double t_ms = RunMrs("masterslave", dir, true, 4, &distinct_ms);
    if (distinct_serial != stats.distinct_words ||
        distinct_ms != stats.distinct_words) {
      std::fprintf(stderr,
                   "WARNING: wordcount mismatch (serial %zu, ms %zu, "
                   "expected %llu)\n",
                   distinct_serial, distinct_ms,
                   static_cast<unsigned long long>(stats.distinct_words));
    }
    hadoopsim::JobResult sim = SimulateHadoop(
        static_cast<int>(files->size()), num_dirs, bytes);

    rows.push_back({scale.name, std::to_string(files->size()),
                    bench::Fmt("%.1f", static_cast<double>(bytes) / 1e6),
                    bench::Fmt("%.2f", t_serial), bench::Fmt("%.2f", t_ms),
                    bench::Fmt("%.1f", sim.startup()),
                    bench::Fmt("%.1f", sim.total)});
    std::string prefix = scale.name;
    json_metrics.push_back(
        {prefix + "_files", static_cast<double>(files->size())});
    json_metrics.push_back({prefix + "_serial_s", t_serial});
    json_metrics.push_back({prefix + "_masterslave_s", t_ms});
    json_metrics.push_back({prefix + "_hadoop_sim_total_s", sim.total});

    // Paper-scale projection: DES runs at real file counts; Mrs total is
    // the measured masterslave throughput scaled linearly in bytes.
    int paper_dirs = num_dirs * denominator;
    hadoopsim::JobResult paper_sim =
        SimulateHadoop(scale.paper_files, paper_dirs, bytes * denominator);
    double mrs_est = t_ms * denominator;
    const char* said = scale.paper_files == 8316
                           ? "Hadoop 60s prepare / 16min total; Mrs 2min"
                           : "Hadoop ~9min load alone; Mrs <9min total";
    paper_rows.push_back({scale.name, std::to_string(scale.paper_files),
                          bench::Fmt("%.0f", paper_sim.startup()),
                          bench::Fmt("%.0f", paper_sim.total),
                          bench::Fmt("%.0f", mrs_est), said});
  }

  bench::PrintTable("E3: measured (scaled corpus)", rows);
  bench::PrintTable("E3: paper-scale projection", paper_rows);

  // Ablation: the combiner optimization (paper §V-A).
  {
    std::string dir = JoinPath(*tmp, "subset");
    size_t distinct = 0;
    double with_combiner = RunMrs("serial", dir, true, 4, &distinct);
    double without = RunMrs("serial", dir, false, 4, &distinct);
    bench::PrintTable("Ablation: combiner on/off (mrs serial, subset corpus)",
                      {{"variant", "seconds"},
                       {"with combiner", bench::Fmt("%.2f", with_combiner)},
                       {"without combiner", bench::Fmt("%.2f", without)}});
    json_metrics.push_back({"combiner_on_s", with_combiner});
    json_metrics.push_back({"combiner_off_s", without});
  }

  // Thread-runner scaling curve: same job, same answer, 1/2/4 workers
  // (plus 8 on machines that have them).  Speedup is hardware-bound
  // (ideal on >=4 cores, ~1x on one core), so the emitted curve also
  // records thread_hw_concurrency — tools/check_scaling.py only enforces
  // its floors where the cores exist.  The pool's steal count per run
  // rides along.
  {
    std::string dir = JoinPath(*tmp, "subset");
    json_metrics.push_back(
        {"thread_hw_concurrency",
         static_cast<double>(std::thread::hardware_concurrency())});
    std::vector<std::vector<std::string>> scaling;
    scaling.push_back({"workers", "seconds", "speedup vs 1 worker"});
    double base = -1;
    for (int workers : bench::ScalingWorkerCounts()) {
      size_t distinct = 0;
      std::vector<int64_t> before = bench::SnapshotThreadCounters();
      double t = RunMrs("thread", dir, true, 4, &distinct, workers);
      if (workers == 1) base = t;
      double speedup = (t > 0 && base > 0) ? base / t : 0;
      scaling.push_back({std::to_string(workers), bench::Fmt("%.2f", t),
                         bench::Fmt("%.2fx", speedup)});
      std::string w = std::to_string(workers);
      json_metrics.push_back({"thread_w" + w + "_s", t});
      json_metrics.push_back({"thread_speedup_w" + w, speedup});
      bench::AppendCounterDeltas("thread_w" + w, before, &json_metrics);
    }
    bench::PrintTable("Thread runner scaling (subset corpus)", scaling);
  }

  RemoveTree(*tmp);
  bench::EmitBenchJson("bench_wordcount", json_metrics);
  return 0;
}
