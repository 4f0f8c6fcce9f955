#include "rt/cluster.h"

#include "common/log.h"

namespace mrs {

Result<std::unique_ptr<ClusterLauncher>> ClusterLauncher::Start(
    const ProgramFactory& factory, const Options& opts, Config config) {
  std::unique_ptr<ClusterLauncher> cluster(new ClusterLauncher());
  cluster->factory_ = factory;
  cluster->opts_ = opts;
  cluster->config_ = std::move(config);
  MRS_ASSIGN_OR_RETURN(cluster->master_,
                       Master::Start(cluster->config_.master));

  for (int i = 0; i < cluster->config_.num_slaves; ++i) {
    const Slave::FaultPlan* faults = nullptr;
    if (static_cast<size_t>(i) < cluster->config_.fault_plans.size()) {
      faults = &cluster->config_.fault_plans[static_cast<size_t>(i)];
    }
    MRS_RETURN_IF_ERROR(cluster->StartSlave(i, faults));
  }

  MRS_RETURN_IF_ERROR(cluster->master_->WaitForSlaves(
      cluster->config_.num_slaves, /*timeout=*/30.0));
  return cluster;
}

Status ClusterLauncher::StartSlave(int i, const Slave::FaultPlan* faults) {
  std::unique_ptr<MapReduce> program = factory_();
  MRS_RETURN_IF_ERROR(program->Init(opts_));

  Slave::Config slave_config = config_.slave;
  slave_config.master = master_->addr();
  if (i == 0) {
    slave_config.faults.fail_first_n_tasks = config_.first_slave_faults;
  }
  if (faults != nullptr) slave_config.faults = *faults;
  // Distinct chaos RNG streams per slave.
  slave_config.faults.seed +=
      static_cast<uint64_t>(i) * 0x9e3779b97f4a7c15ull;

  MRS_ASSIGN_OR_RETURN(std::unique_ptr<Slave> slave,
                       Slave::Start(program.get(), slave_config));
  Slave* slave_ptr = slave.get();
  slave_programs_.push_back(std::move(program));
  slaves_.push_back(std::move(slave));
  slave_threads_.emplace_back([slave_ptr] {
    Status status = slave_ptr->Run();
    if (!status.ok()) {
      MRS_LOG(kWarning, "cluster") << "slave loop exited: "
                                   << status.ToString();
    }
  });
  return Status::Ok();
}

Result<int> ClusterLauncher::AddSlave(const Slave::FaultPlan* faults) {
  int i = static_cast<int>(slaves_.size());
  MRS_RETURN_IF_ERROR(StartSlave(i, faults));
  return i;
}

ClusterLauncher::~ClusterLauncher() { Shutdown(); }

void ClusterLauncher::Shutdown() {
  if (shutdown_) return;
  shutdown_ = true;
  // The master first: it answers each slave's next poll with "quit"
  // before it stops serving, so a polling slave exits on its own; Stop
  // then ends any loop that did not poll within the grace.
  master_->Shutdown();
  for (auto& slave : slaves_) slave->Stop();
  for (auto& t : slave_threads_) {
    if (t.joinable()) t.join();
  }
  slaves_.clear();
  slave_programs_.clear();
}

int64_t ClusterLauncher::TotalTasksExecuted() const {
  int64_t total = 0;
  for (const auto& slave : slaves_) total += slave->tasks_executed();
  return total;
}

}  // namespace mrs
