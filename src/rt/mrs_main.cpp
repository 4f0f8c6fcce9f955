#include "rt/mrs_main.h"

#include <csignal>
#include <cstdio>

#include "common/clock.h"
#include "common/log.h"
#include "core/job.h"
#include "core/serial_runner.h"
#include "core/thread_runner.h"
#include "fs/file_io.h"
#include "fs/spill.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rt/cluster.h"

namespace mrs {

namespace {

/// Elasticity/health flags -> Master::Config.  Each default equals the
/// Master::Config default, so a program whose options lack the flags (any
/// library caller of RunProgram) keeps the stock config.
void ApplyMasterOptions(const Options& opts, Master::Config* config) {
  config->slave_timeout = opts.GetDouble("mrs-slave-timeout", 15.0);
  config->missed_ping_limit =
      static_cast<int>(opts.GetInt("mrs-missed-ping-limit", 5));
  config->drain_timeout = opts.GetDouble("mrs-drain-timeout", 10.0);
  config->speculation_quantile =
      opts.GetDouble("mrs-speculation-quantile", 0.9);
  config->quarantine_failure_threshold =
      static_cast<int>(opts.GetInt("mrs-quarantine-failures", 3));
  config->probation_seconds = opts.GetDouble("mrs-probation-seconds", 5.0);
}

void ApplySlaveOptions(const Options& opts, Slave::Config* config) {
  config->ping_interval = opts.GetDouble("mrs-ping-interval", 2.0);
  config->shared_dir = opts.GetString("mrs-shared-dir");
}

Status RunMasterProcess(MapReduce* program) {
  Master::Config config;
  config.port = static_cast<uint16_t>(program->opts().GetInt("mrs-port", 0));
  ApplyMasterOptions(program->opts(), &config);
  MRS_ASSIGN_OR_RETURN(std::unique_ptr<Master> master, Master::Start(config));

  // The run-script handshake (paper Program 3): write host:port to the
  // port file so slave launchers can find us.
  std::string port_file = program->opts().GetString("mrs-port-file");
  if (!port_file.empty()) {
    MRS_RETURN_IF_ERROR(
        WriteFileAtomic(port_file, master->addr().ToString() + "\n"));
  }

  int num_slaves =
      static_cast<int>(program->opts().GetInt("mrs-num-slaves", 1));
  MRS_RETURN_IF_ERROR(master->WaitForSlaves(num_slaves, /*timeout=*/120.0));

  Job job(program, std::make_unique<MasterRunner>(master.get()));
  job.set_default_parallelism(static_cast<int>(
      num_slaves * program->opts().GetInt("mrs-tasks-per-slave", 2)));
  Status status = program->Run(job);
  master->Shutdown();
  return status;
}

Status RunSlaveProcess(MapReduce* program) {
  std::string master_addr = program->opts().GetString("mrs-master");
  if (master_addr.empty()) {
    return InvalidArgumentError("slave implementation requires --mrs-master");
  }
  Slave::Config config;
  MRS_ASSIGN_OR_RETURN(config.master, SocketAddr::Parse(master_addr));
  ApplySlaveOptions(program->opts(), &config);
  // SIGTERM means "retire gracefully" (a preempting scheduler's warning
  // shot): drain instead of dying, so hosted buckets are re-homed and the
  // exit is clean.  The handler is one atomic store — signal-safe.
  struct sigaction action = {};
  action.sa_handler = [](int) { RequestProcessDrain(); };
  sigaction(SIGTERM, &action, nullptr);
  MRS_ASSIGN_OR_RETURN(std::unique_ptr<Slave> slave,
                       Slave::Start(program, config));
  return slave->Run();
}

}  // namespace

Status RunProgram(const ProgramFactory& factory, MapReduce* program,
                  const RunConfig& config) {
  // Every implementation gets the same default split count, so the task
  // decomposition (and the answer's layout) never depends on the runner.
  auto run = [&](std::unique_ptr<Runner> runner) {
    Job job(program, std::move(runner));
    job.set_default_parallelism(config.num_slaves * config.tasks_per_slave);
    return program->Run(job);
  };
  if (config.impl == "serial") {
    return run(std::make_unique<SerialRunner>(program));
  }
  if (config.impl == "thread") {
    return run(std::make_unique<ThreadRunner>(program, config.num_workers));
  }
  if (config.impl == "mockparallel") {
    std::string tmpdir = config.tmpdir;
    bool fresh = tmpdir.empty();
    if (fresh) {
      MRS_ASSIGN_OR_RETURN(tmpdir, MakeTempDir("mrs_mock_"));
    } else {
      MRS_RETURN_IF_ERROR(EnsureDir(tmpdir));
    }
    Status status = run(std::make_unique<SerialRunner>(program, tmpdir));
    if (fresh) RemoveTree(tmpdir);
    return status;
  }
  if (config.impl == "masterslave") {
    ClusterLauncher::Config cluster_config;
    cluster_config.num_slaves = config.num_slaves;
    cluster_config.first_slave_faults = config.first_slave_faults;
    ApplyMasterOptions(program->opts(), &cluster_config.master);
    ApplySlaveOptions(program->opts(), &cluster_config.slave);
    if (config.shared_files) {
      MRS_ASSIGN_OR_RETURN(cluster_config.slave.shared_dir,
                           MakeTempDir("mrs_shared_"));
    }
    MRS_ASSIGN_OR_RETURN(
        std::unique_ptr<ClusterLauncher> cluster,
        ClusterLauncher::Start(factory, program->opts(), cluster_config));
    Status status = run(std::make_unique<MasterRunner>(&cluster->master()));
    cluster->Shutdown();
    if (config.shared_files) {
      RemoveTree(cluster_config.slave.shared_dir);
    }
    return status;
  }
  return InvalidArgumentError("unknown implementation: " + config.impl);
}

int RunMain(const ProgramFactory& factory, int argc,
            const char* const* argv) {
  OptionParser parser;
  AddStandardMrsOptions(&parser);

  std::unique_ptr<MapReduce> program = factory();
  program->AddOptions(&parser);

  Result<Options> opts = parser.Parse(argc, argv);
  if (!opts.ok()) {
    std::fprintf(stderr, "error: %s\n%s", opts.status().ToString().c_str(),
                 parser.Usage(argc > 0 ? argv[0] : "mrs-program").c_str());
    return 2;
  }
  if (opts->GetBool("help")) {
    std::fprintf(stdout, "%s",
                 parser.Usage(argc > 0 ? argv[0] : "mrs-program").c_str());
    return 0;
  }
  if (opts->GetBool("mrs-debug")) {
    SetLogLevel(LogLevel::kDebug);
  } else if (opts->GetBool("mrs-verbose")) {
    SetLogLevel(LogLevel::kInfo);
  }
  if (opts->GetBool("mrs-no-metrics")) {
    obs::SetMetricsEnabled(false);
  }
  std::string trace_out = opts->GetString("trace-out");
  if (!trace_out.empty()) {
    obs::SetTracingEnabled(true);
  }
  // The process budget defaults from $MRS_MEMORY_BUDGET; an explicit flag
  // wins.
  std::string budget_text = opts->GetString("mrs-memory-budget");
  if (!budget_text.empty() && budget_text != "0") {
    Result<int64_t> budget = ParseByteSize(budget_text);
    if (!budget.ok()) {
      std::fprintf(stderr, "error: --mrs-memory-budget: %s\n",
                   budget.status().ToString().c_str());
      return 2;
    }
    MemoryBudget::Process().set_limit(*budget);
  }

  Status init = program->Init(*opts);
  if (!init.ok()) {
    std::fprintf(stderr, "error: %s\n", init.ToString().c_str());
    return 2;
  }

  std::string impl = opts->GetString("mrs-impl", "serial");
  Stopwatch watch;
  Status status;
  if (impl == "serial" || impl == "thread" || impl == "mockparallel" ||
      impl == "masterslave") {
    RunConfig config;
    config.impl = impl;
    config.num_slaves = static_cast<int>(opts->GetInt("mrs-num-slaves", 2));
    config.tasks_per_slave =
        static_cast<int>(opts->GetInt("mrs-tasks-per-slave", 2));
    config.num_workers = static_cast<int>(opts->GetInt("mrs-workers", 0));
    config.tmpdir = opts->GetString("mrs-tmpdir");
    status = RunProgram(factory, program.get(), config);
  } else if (impl == "master") {
    status = RunMasterProcess(program.get());
  } else if (impl == "slave") {
    status = RunSlaveProcess(program.get());
  } else if (impl == "bypass") {
    status = program->Bypass();
  } else {
    std::fprintf(stderr, "error: unknown --mrs-impl '%s'\n", impl.c_str());
    return 2;
  }
  if (opts->GetBool("mrs-timing")) {
    std::fprintf(stderr, "[mrs] %s run took %.3f s\n", impl.c_str(),
                 watch.ElapsedSeconds());
  }
  if (!trace_out.empty()) {
    if (obs::WriteChromeTraceFile(trace_out)) {
      std::fprintf(stderr, "[mrs] wrote %zu trace spans to %s\n",
                   obs::TraceBuffer::Instance().size(), trace_out.c_str());
    } else {
      std::fprintf(stderr, "[mrs] failed to write trace file %s\n",
                   trace_out.c_str());
    }
  }
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace mrs
