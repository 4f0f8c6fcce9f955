// Cluster assembly: the master/slave Runner and the in-process launcher.
//
// MasterRunner adapts a Master to the Runner interface.  ClusterLauncher
// plays the role of the paper's startup scripts (Program 3): it starts the
// master, "waits for the master to start" (the port handshake), and starts
// N slaves — here as threads speaking real XML-RPC over loopback TCP, each
// with its own program instance exactly as separate processes would have.
#pragma once

#include <memory>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/job.h"
#include "core/program.h"
#include "core/runner.h"
#include "rt/master.h"
#include "rt/slave.h"

namespace mrs {

/// Runner facade over a Master (used by both the in-process masterslave
/// implementation and the multi-process master implementation).
class MasterRunner final : public Runner {
 public:
  explicit MasterRunner(Master* master) : master_(master) {}

  void Submit(const DataSetPtr& dataset) override { master_->Submit(dataset); }
  Status Wait(const DataSetPtr& dataset) override {
    return master_->Wait(dataset);
  }
  UrlFetcher fetcher() override { return master_->fetcher(); }
  bool RecoverLostUrl(const std::string& url) override {
    return master_->RecoverLostUrl(url);
  }
  std::string name() const override { return "masterslave"; }
  void Discard(const DataSetPtr& dataset) override {
    master_->Discard(dataset);
  }

 private:
  Master* master_;
};

/// An in-process cluster: one master plus N slave threads.
class ClusterLauncher {
 public:
  struct Config {
    int num_slaves = 2;
    Master::Config master;
    Slave::Config slave;  // master addr is filled in automatically
    /// Inject this many failures into the first slave (tests).
    int first_slave_faults = 0;
    /// Per-slave chaos plans; entry i overrides `slave.faults` for slave
    /// i.  Shorter than num_slaves is fine — the rest keep the default.
    std::vector<Slave::FaultPlan> fault_plans;
  };

  /// Start everything; each slave runs `factory()` initialized with
  /// `opts`, mirroring a fresh process running the same binary.
  static Result<std::unique_ptr<ClusterLauncher>> Start(
      const ProgramFactory& factory, const Options& opts, Config config);

  ~ClusterLauncher();

  Master& master() { return *master_; }

  int num_slaves() const { return static_cast<int>(slaves_.size()); }
  /// Direct handle to slave `i` (chaos tests: Crash(), crashed(), ...).
  Slave& slave(int i) { return *slaves_[static_cast<size_t>(i)]; }

  /// Elastic join: start one more slave (same program factory/options as
  /// Start), optionally with its own chaos plan — may be called while a
  /// job is running.  Returns the new slave's index.  Like the other
  /// mutating methods, callable only from the single controlling thread
  /// (the test body), never concurrently with Shutdown().
  Result<int> AddSlave(const Slave::FaultPlan* faults = nullptr);

  /// Elastic retirement: ask slave `i` to drain.  The master re-homes its
  /// work and releases it; its thread exits once it receives "quit".
  void DrainSlave(int i) { slaves_[static_cast<size_t>(i)]->RequestDrain(); }

  /// Stop the master (slaves collect their quit), then the slaves; join
  /// threads.  Idempotent.
  void Shutdown();

  int64_t TotalTasksExecuted() const;

 private:
  ClusterLauncher() = default;

  /// Start slave `i` from the stored factory/options/template.
  Status StartSlave(int i, const Slave::FaultPlan* faults);

  // Kept for AddSlave: a late joiner is built exactly like the originals.
  ProgramFactory factory_;
  Options opts_;
  Config config_;

  std::unique_ptr<Master> master_;
  std::vector<std::unique_ptr<MapReduce>> slave_programs_;
  std::vector<std::unique_ptr<Slave>> slaves_;
  std::vector<std::thread> slave_threads_;
  bool shutdown_ = false;
};

}  // namespace mrs
