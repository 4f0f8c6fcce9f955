// Out-of-core sort bench: the TeraSort-class DistSort workload run with a
// memory budget a fraction of the dataset size.
//
// The run is a validation as much as a measurement: every budgeted run
// must (a) actually spill (mrs.spill.bytes_spilled grows), (b) produce
// output byte-identical to both the unbudgeted run and a plain std::sort
// ground truth, and (c) create no more spill files than it ran task
// attempts (each attempt appends all its runs to one file).  The dataset
// is 8x the memory budget, so the shuffle cannot complete without the
// spill-to-disk tier.
//
// Usage: bench_sort [records_per_task=2000] [tasks=8]
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "fs/spill.h"
#include "obs/metrics.h"
#include "rt/mrs_main.h"
#include "sort/distsort.h"

namespace mrs {
namespace {

struct SortRunResult {
  double seconds = -1;
  bool identical = false;
  int64_t spilled_bytes = 0;
  int64_t runs_written = 0;
  int64_t files_created = 0;
  int64_t task_attempts = 0;
  size_t records = 0;
};

/// Task attempts so far, summed over the runners' task counters (one
/// runner runs per cell).
int64_t TaskAttempts() {
  int64_t n = 0;
  for (const char* name : {"mrs.serial.tasks", "mrs.mock.tasks",
                           "mrs.thread.tasks", "mrs.master.tasks_assigned"}) {
    n += obs::Registry::Instance().GetCounter(name)->value();
  }
  return n;
}

SortRunResult RunSort(const std::string& impl,
                      const sort::DistSortConfig& cfg, int64_t budget,
                      const std::vector<KeyValue>& expected) {
  SortRunResult r;
  sort::DistSortProgram program;
  program.config = cfg;
  if (!program.Init(Options()).ok()) return r;

  obs::Counter* spilled =
      obs::Registry::Instance().GetCounter("mrs.spill.bytes_spilled");
  obs::Counter* runs =
      obs::Registry::Instance().GetCounter("mrs.spill.runs_written");
  obs::Counter* files =
      obs::Registry::Instance().GetCounter("mrs.spill.files_created");
  int64_t spilled_before = spilled->value();
  int64_t runs_before = runs->value();
  int64_t files_before = files->value();
  int64_t attempts_before = TaskAttempts();

  MemoryBudget::Process().set_limit(budget);
  RunConfig config;
  config.impl = impl;
  config.num_slaves = 4;
  Stopwatch watch;
  Status status = RunProgram(
      [cfg]() -> std::unique_ptr<MapReduce> {
        auto p = std::make_unique<sort::DistSortProgram>();
        p->config = cfg;
        return p;
      },
      &program, config);
  r.seconds = watch.ElapsedSeconds();
  MemoryBudget::Process().set_limit(0);
  if (!status.ok()) {
    std::fprintf(stderr, "bench_sort: %s run failed: %s\n", impl.c_str(),
                 status.ToString().c_str());
    r.seconds = -1;
    return r;
  }
  r.spilled_bytes = spilled->value() - spilled_before;
  r.runs_written = runs->value() - runs_before;
  r.files_created = files->value() - files_before;
  r.task_attempts = TaskAttempts() - attempts_before;
  r.identical = program.result == expected;
  r.records = program.result.size();
  return r;
}

}  // namespace
}  // namespace mrs

int main(int argc, char** argv) {
  using namespace mrs;
  sort::DistSortConfig cfg;
  cfg.records_per_task = argc > 1 ? std::atoll(argv[1]) : 2000;
  cfg.tasks = argc > 2 ? std::atoi(argv[2]) : 8;

  sort::DistSortProgram reference;
  reference.config = cfg;
  if (!reference.Init(Options()).ok()) {
    std::fprintf(stderr, "bench_sort: reference init failed\n");
    return 1;
  }
  const std::vector<KeyValue> expected = reference.ExpectedOutput();
  const int64_t dataset_bytes = reference.ApproxDatasetBytes();
  const int64_t budget = dataset_bytes / 8;

  std::printf("bench_sort: %d tasks x %lld records (~%lld bytes), budget %lld"
              " bytes (dataset = 8x budget)\n",
              cfg.tasks, static_cast<long long>(cfg.records_per_task),
              static_cast<long long>(dataset_bytes),
              static_cast<long long>(budget));

  struct Cell {
    const char* label;
    const char* impl;
    int64_t budget;
  };
  const Cell cells[] = {
      {"serial (unbudgeted)", "serial", 0},
      {"serial", "serial", budget},
      {"mockparallel", "mockparallel", budget},
      {"thread", "thread", budget},
      {"masterslave", "masterslave", budget},
  };

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"run", "seconds", "identical", "spilled bytes", "runs",
                  "spill files", "attempts"});
  std::vector<bench::BenchMetric> metrics = {
      {"dataset_bytes", static_cast<double>(dataset_bytes)},
      {"budget_bytes", static_cast<double>(budget)},
      {"records", static_cast<double>(expected.size())},
  };
  bool ok = true;
  for (const Cell& cell : cells) {
    SortRunResult r = RunSort(cell.impl, cfg, cell.budget, expected);
    bool budgeted = cell.budget > 0;
    bool cell_ok = r.seconds >= 0 && r.identical &&
                   (!budgeted || r.spilled_bytes > 0) &&
                   r.files_created <= r.task_attempts;
    ok = ok && cell_ok;
    rows.push_back({cell.label, bench::Fmt("%.3f", r.seconds),
                    r.identical ? "yes" : "NO",
                    std::to_string(r.spilled_bytes),
                    std::to_string(r.runs_written),
                    std::to_string(r.files_created),
                    std::to_string(r.task_attempts)});
    std::string tag = std::string(cell.impl) + (budgeted ? "_budgeted" : "");
    metrics.push_back({tag + "_s", r.seconds});
    metrics.push_back({tag + "_identical", r.identical ? 1.0 : 0.0});
    metrics.push_back({tag + "_spilled_bytes",
                       static_cast<double>(r.spilled_bytes)});
    metrics.push_back({tag + "_spill_files",
                       static_cast<double>(r.files_created)});
  }
  bench::PrintTable(
      "Out-of-core sort: budget = dataset/8, output vs std::sort ground "
      "truth",
      rows);
  bench::EmitBenchJson("bench_sort", metrics);
  if (!ok) {
    std::fprintf(stderr,
                 "bench_sort: FAILED (non-identical output, no spill in a "
                 "budgeted run, or more spill files than task attempts)\n");
    return 1;
  }
  return 0;
}
