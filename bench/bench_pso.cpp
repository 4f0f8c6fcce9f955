// E6 (paper Fig 4): Apiary PSO convergence on Rosenbrock-250, with respect
// to function evaluations and to wall time, serial vs parallel.
//
// The paper's numbers: 100 iterations on 5 particles take ~0.2 s serial;
// parallel Mrs costs ~0.3-0.5 s per (100-inner-iteration) round with ~2 s
// startup.  Here both series come from real runs — serial is the plain
// loop, parallel is masterslave over loopback TCP + XML-RPC.
//
// Usage: bench_pso [rounds=80] [dims=250]
#include <cstdio>
#include <algorithm>
#include <cstdlib>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "pso/apiary.h"
#include "rt/mrs_main.h"

namespace mrs {
namespace {

pso::ApiaryConfig FigConfig(int rounds, int dims) {
  pso::ApiaryConfig config;
  config.function = "rosenbrock";
  config.dims = dims;
  config.num_subswarms = 8;
  config.particles_per_subswarm = 5;  // the paper's 5 particles
  config.inner_iterations = 100;      // 100 iterations per map task
  config.max_rounds = rounds;
  config.target = 1e-5;
  // Record every 4th round so the Fig 4 table stays readable at the
  // default 80-round budget.
  config.check_interval = 4;
  return config;
}

struct SeriesResult {
  pso::ApiaryResult result;
  double startup_seconds = 0;
};

SeriesResult RunParallel(const pso::ApiaryConfig& config,
                         const std::string& impl = "masterslave",
                         int num_workers = 0) {
  pso::ApiaryPso program;
  program.config = config;
  SeriesResult out;
  if (!program.Init(Options()).ok()) return out;
  Stopwatch startup;
  RunConfig run_config;
  run_config.impl = impl;
  run_config.num_slaves = 4;
  run_config.num_workers = num_workers;
  // Startup (cluster bring-up) is measured by RunProgram being
  // responsible for it; program.result.seconds covers only Run.
  Status status = RunProgram(
      [&]() -> std::unique_ptr<MapReduce> {
        auto p = std::make_unique<pso::ApiaryPso>();
        p->config = config;
        return p;
      },
      &program, run_config);
  if (!status.ok()) {
    std::fprintf(stderr, "parallel pso failed: %s\n",
                 status.ToString().c_str());
    return out;
  }
  out.result = program.result;
  out.startup_seconds = startup.ElapsedSeconds() - program.result.seconds;
  return out;
}

}  // namespace
}  // namespace mrs

int main(int argc, char** argv) {
  using namespace mrs;
  int rounds = argc > 1 ? std::atoi(argv[1]) : 80;
  int dims = argc > 2 ? std::atoi(argv[2]) : 250;

  std::printf("bench_pso: E6, Fig 4 (Apiary PSO on Rosenbrock-%d)\n", dims);
  pso::ApiaryConfig config = FigConfig(rounds, dims);

  auto serial = RunApiarySerial(config, /*seed=*/42);
  if (!serial.ok()) {
    std::fprintf(stderr, "serial pso failed: %s\n",
                 serial.status().ToString().c_str());
    return 1;
  }
  SeriesResult parallel = RunParallel(config);

  // Fig 4, left: best value vs function evaluations.  Identical for both
  // series by the equivalence invariant — print once with both times.
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"round", "evaluations", "best value", "serial t (s)",
                  "parallel t (s)"});
  size_t n = std::min(serial->history.size(), parallel.result.history.size());
  for (size_t i = 0; i < n; ++i) {
    const auto& s = serial->history[i];
    const auto& p = parallel.result.history[i];
    rows.push_back({std::to_string(s.round), std::to_string(s.evaluations),
                    bench::Fmt("%.6g", s.best), bench::Fmt("%.3f", s.seconds),
                    bench::Fmt("%.3f", p.seconds)});
    if (s.best != p.best) {
      std::fprintf(stderr,
                   "WARNING: serial/parallel trajectories diverge at round "
                   "%lld (%g vs %g)\n",
                   static_cast<long long>(s.round), s.best, p.best);
    }
  }
  bench::PrintTable(
      "Fig 4: convergence vs evaluations and vs time (identical "
      "trajectories; only the clock differs)",
      rows);

  double serial_per_round =
      serial->rounds > 0 ? serial->seconds / static_cast<double>(serial->rounds)
                         : 0;
  double parallel_per_round =
      parallel.result.rounds > 0
          ? parallel.result.seconds /
                static_cast<double>(parallel.result.rounds)
          : 0;
  bench::PrintTable(
      "Per-round (per-MapReduce-iteration) cost",
      {{"series", "rounds", "total (s)", "s/round", "startup (s)"},
       {"serial loop", std::to_string(serial->rounds),
        bench::Fmt("%.3f", serial->seconds),
        bench::Fmt("%.4f", serial_per_round), "0"},
       {"mrs masterslave", std::to_string(parallel.result.rounds),
        bench::Fmt("%.3f", parallel.result.seconds),
        bench::Fmt("%.4f", parallel_per_round),
        bench::Fmt("%.2f", parallel.startup_seconds)}});
  std::printf(
      "(paper: ~0.2s serial per 100x5-particle block, ~0.3-0.5s/round\n"
      " parallel, ~2s Mrs startup; our loopback cluster is faster in\n"
      " absolute terms but shows the same flat per-round overhead)\n");

  // The 250-dimension workload moves slowly at bench scale (5-particle
  // hives in 250-d barely improve within 80 rounds, as the flat column
  // above shows); a reduced-dimension view makes the convergence shape of
  // Fig 4 visible without hours of runtime.
  {
    pso::ApiaryConfig small = FigConfig(rounds, std::min(dims, 100));
    auto small_serial = RunApiarySerial(small, /*seed=*/42);
    if (small_serial.ok()) {
      std::vector<std::vector<std::string>> small_rows;
      small_rows.push_back({"round", "evaluations", "best value", "t (s)"});
      for (const auto& point : small_serial->history) {
        small_rows.push_back({std::to_string(point.round),
                              std::to_string(point.evaluations),
                              bench::Fmt("%.6g", point.best),
                              bench::Fmt("%.3f", point.seconds)});
      }
      bench::PrintTable(
          "Fig 4 (reduced-dimension view, Rosenbrock-" +
              std::to_string(small.dims) + "): convergence visible at "
              "bench scale",
          small_rows);
    }
  }

  // Ablation: inter-hive communication topology (the "Apiary" design
  // choice, ref [12]).  Same seed, same budget; only the message pattern
  // changes.
  // A lower-dimensional, longer run differentiates topologies: inter-hive
  // messages only change the global best once a receiving hive overtakes
  // the current leader, which takes many rounds at 250 dims.
  pso::ApiaryConfig ablation_base = config;
  ablation_base.dims = std::min(dims, 60);
  ablation_base.max_rounds = std::max(rounds, 40);
  std::vector<std::vector<std::string>> topo_rows;
  topo_rows.push_back({"topology", "best value", "messages/round"});
  for (const char* topology : {"ring", "star", "isolated"}) {
    pso::ApiaryConfig topo_config = ablation_base;
    topo_config.topology = topology;
    auto result = RunApiarySerial(topo_config, 42);
    if (!result.ok()) continue;
    int msgs = 0;
    for (int sid = 0; sid < config.num_subswarms; ++sid) {
      auto n = pso::TopologyNeighbors(topology, sid, config.num_subswarms);
      if (n.ok()) msgs += static_cast<int>(n->size());
    }
    topo_rows.push_back({topology, bench::Fmt("%.6g", result->best),
                         std::to_string(msgs)});
  }
  bench::PrintTable("Ablation: inter-hive topology (same seed and budget)",
                    topo_rows);

  // Iterative/BSP ablation: the same masterslave workload with the hive
  // dataset pinned resident and only best positions broadcast between
  // supersteps — the best-exchange reduce phase disappears.  The
  // trajectory must not move: only the clock may.
  pso::ApiaryConfig iter_config = config;
  iter_config.iterative = true;
  SeriesResult iterative = RunParallel(iter_config);
  double iterative_per_round =
      iterative.result.rounds > 0
          ? iterative.result.seconds /
                static_cast<double>(iterative.result.rounds)
          : 0;
  if (iterative.result.best != parallel.result.best) {
    std::fprintf(stderr,
                 "WARNING: iterative mode diverged from replan (%g vs %g)\n",
                 iterative.result.best, parallel.result.best);
  }
  bench::PrintTable(
      "Ablation: iterative/BSP (pinned hives + best broadcast) vs replan",
      {{"mode", "rounds", "total (s)", "s/round"},
       {"replan", std::to_string(parallel.result.rounds),
        bench::Fmt("%.3f", parallel.result.seconds),
        bench::Fmt("%.4f", parallel_per_round)},
       {"iterative", std::to_string(iterative.result.rounds),
        bench::Fmt("%.3f", iterative.result.seconds),
        bench::Fmt("%.4f", iterative_per_round)}});

  std::vector<bench::BenchMetric> json_metrics = {
      {"rounds", static_cast<double>(rounds)},
      {"dims", static_cast<double>(dims)},
      {"serial_total_s", serial->seconds},
      {"serial_s_per_round", serial_per_round},
      {"parallel_total_s", parallel.result.seconds},
      {"parallel_s_per_round", parallel_per_round},
      {"parallel_startup_s", parallel.startup_seconds},
      {"iterative_total_s", iterative.result.seconds},
      {"iterative_s_per_round", iterative_per_round},
      {"best_value", serial->best}};

  // Thread-runner scaling: the same Fig-4 workload driven by the
  // shared-memory implementation at 1/2/4 pool workers.  No cluster
  // startup column — thread has none, which is exactly its point.
  {
    json_metrics.push_back(
        {"thread_hw_concurrency",
         static_cast<double>(std::thread::hardware_concurrency())});
    std::vector<std::vector<std::string>> scaling;
    scaling.push_back({"workers", "total (s)", "s/round",
                       "speedup vs 1 worker"});
    double base = -1;
    for (int workers : bench::ScalingWorkerCounts()) {
      SeriesResult r = RunParallel(config, "thread", workers);
      double t = r.result.seconds;
      if (workers == 1) base = t;
      double speedup = (t > 0 && base > 0) ? base / t : 0;
      double per_round =
          r.result.rounds > 0 ? t / static_cast<double>(r.result.rounds) : 0;
      scaling.push_back({std::to_string(workers), bench::Fmt("%.3f", t),
                         bench::Fmt("%.4f", per_round),
                         bench::Fmt("%.2fx", speedup)});
      std::string w = std::to_string(workers);
      json_metrics.push_back({"thread_w" + w + "_s", t});
      json_metrics.push_back({"thread_speedup_w" + w, speedup});
      if (r.result.best != serial->best) {
        std::fprintf(stderr,
                     "WARNING: thread (%d workers) diverged from serial "
                     "(%g vs %g)\n",
                     workers, r.result.best, serial->best);
      }
    }
    bench::PrintTable("Thread runner scaling (same workload)", scaling);
  }

  bench::EmitBenchJson("bench_pso", json_metrics);
  return 0;
}
