#include "core/job.h"

#include <cstdio>
#include <iterator>

#include "common/log.h"
#include "core/task.h"
#include "fs/file_io.h"
#include "obs/metrics.h"
#include "ser/record.h"

namespace mrs {
namespace {

/// Validate before any runner sees the dataset.  Rejection is sticky
/// through the lineage: an operation over a rejected input is itself
/// rejected without re-running validation, so an iterative program that
/// queues a chain of operations fails as one unit with the root cause.
void ValidateForSubmit(MapReduce* program, const DataSetPtr& input,
                       DataSet* ds) {
  Status valid = input->rejected()
                     ? input->rejected_status()
                     : program->ValidateOperation(ds->kind(), ds->options());
  if (valid.ok()) return;
  ds->MarkRejected(std::move(valid));
  static obs::Counter* rejects =
      obs::Registry::Instance().GetCounter("mrs.analysis.submit_rejects");
  rejects->Inc();
  MRS_LOG(kWarning, "job")
      << "dataset " << ds->id() << " (" << DataSetKindName(ds->kind())
      << " op=" << ds->options().op_name
      << ") rejected at submit: " << ds->rejected_status().message();
}

}  // namespace

Job::Job(MapReduce* program, std::unique_ptr<Runner> runner)
    : program_(program), runner_(std::move(runner)) {}

DataSetPtr Job::LocalData(std::vector<KeyValue> records, int num_splits) {
  int splits = ResolveSplits(num_splits);
  auto ds = std::make_shared<DataSet>(NextId(), DataSetKind::kLocal,
                                      /*num_sources=*/1, splits);
  for (KeyValue& kv : records) {
    int p = ResolvePartition(*program_, kv.key, splits, "Job::LocalData");
    ds->bucket(0, p).Append(std::move(kv));
  }
  for (int p = 0; p < splits; ++p) ds->bucket(0, p).MarkLoaded();
  ds->set_task_state(0, TaskState::kComplete);
  return ds;
}

Result<DataSetPtr> Job::FileData(const std::vector<std::string>& paths) {
  std::vector<std::string> files;
  for (const std::string& path : paths) {
    if (!FileExists(path)) return NotFoundError("no such input: " + path);
    if (IsDirectory(path)) {
      MRS_ASSIGN_OR_RETURN(std::vector<std::string> listing,
                           ListFilesRecursive(path));
      files.insert(files.end(), listing.begin(), listing.end());
    } else {
      files.push_back(path);
    }
  }
  if (files.empty()) return InvalidArgumentError("no input files found");
  auto ds = std::make_shared<DataSet>(NextId(), DataSetKind::kFile,
                                      /*num_sources=*/1,
                                      static_cast<int>(files.size()));
  // Split i is one bucket that EnsureLoaded reads as (line number, line)
  // records when a task or Collect needs it.
  for (size_t i = 0; i < files.size(); ++i) {
    ds->bucket(0, static_cast<int>(i)).set_url("text+file://" + files[i]);
  }
  ds->set_task_state(0, TaskState::kComplete);
  return ds;
}

DataSetPtr Job::MapData(const DataSetPtr& input, DataSetOptions options) {
  if (options.op_name.empty()) options.op_name = "map";
  int splits = ResolveSplits(options.num_splits);
  auto ds = std::make_shared<DataSet>(NextId(), DataSetKind::kMap,
                                      /*num_sources=*/input->num_splits(),
                                      splits);
  options.num_splits = splits;
  *ds->mutable_options() = std::move(options);
  ds->set_input(input);
  ValidateForSubmit(program_, input, ds.get());
  if (ds->rejected()) return ds;
  runner_->Submit(ds);
  return ds;
}

DataSetPtr Job::ReduceData(const DataSetPtr& input, DataSetOptions options) {
  if (options.op_name.empty()) options.op_name = "reduce";
  int splits = ResolveSplits(options.num_splits);
  auto ds = std::make_shared<DataSet>(NextId(), DataSetKind::kReduce,
                                      /*num_sources=*/input->num_splits(),
                                      splits);
  options.num_splits = splits;
  *ds->mutable_options() = std::move(options);
  ds->set_input(input);
  ValidateForSubmit(program_, input, ds.get());
  if (ds->rejected()) return ds;
  runner_->Submit(ds);
  return ds;
}

Status Job::Wait(const DataSetPtr& dataset) {
  // Rejected datasets were never submitted; short-circuit before asking
  // the runner (the serial runner computes lazily inside Wait, so this
  // check is what guarantees zero tasks run for a rejected kernel).
  if (dataset->rejected()) return dataset->rejected_status();
  return runner_->Wait(dataset);
}

Result<std::vector<KeyValue>> Job::Collect(const DataSetPtr& dataset) {
  MRS_RETURN_IF_ERROR(Wait(dataset));
  UrlFetcher fetch = runner_->fetcher();
  std::vector<KeyValue> out;
  for (int split = 0; split < dataset->num_splits(); ++split) {
    for (int source = 0; source < dataset->num_sources(); ++source) {
      MRS_RETURN_IF_ERROR(CollectBucket(dataset, source, split, fetch, &out));
    }
  }
  return out;
}

Status Job::CollectBucket(const DataSetPtr& dataset, int source, int split,
                          const UrlFetcher& fetch, std::vector<KeyValue>* out) {
  // The master may invalidate a finished row after Wait returns (lineage
  // recovery after its host died) and re-derive it.  So the bucket is read
  // from a copy taken while its row is complete, and the dataset is waited
  // for again while the row is not complete or when the copy's host is gone.
  constexpr int kMaxRecoveries = 4;
  for (int recoveries = 0;; ++recoveries) {
    std::optional<Bucket> b = dataset->CompletedBucket(source, split);
    Status loaded = b ? b->EnsureLoaded(fetch)
                      : UnavailableError("collect: row " +
                                         std::to_string(source) +
                                         " is being re-derived");
    if (loaded.ok()) {
      std::vector<KeyValue>& records = *b->mutable_records();
      out->insert(out->end(), std::make_move_iterator(records.begin()),
                  std::make_move_iterator(records.end()));
      return Status::Ok();
    }
    if (recoveries == kMaxRecoveries) return loaded;
    if (b) {
      if (b->url().empty() || !runner_->RecoverLostUrl(b->url())) {
        return loaded;
      }
      MRS_LOG(kWarning, "job") << "collect: re-deriving lost bucket "
                               << b->url() << " (" << loaded.ToString() << ")";
    }
    MRS_RETURN_IF_ERROR(Wait(dataset));
  }
}

void Job::Discard(const DataSetPtr& dataset) {
  if (dataset->resident()) {
    // Pinned datasets survive Discard on every runner — this single gate
    // is what "residency honored by all four runners" means for memory
    // reclamation; the masterslave runner additionally keeps slave-side
    // caches until the dataset is unpinned and discarded.
    MRS_LOG(kDebug, "job") << "discard of pinned dataset " << dataset->id()
                           << " ignored (call Unpin first)";
    return;
  }
  runner_->Discard(dataset);
}

void Job::Pin(const DataSetPtr& dataset) { dataset->set_resident(true); }

void Job::Unpin(const DataSetPtr& dataset) { dataset->set_resident(false); }

// ---- MapReduce defaults that need Job --------------------------------

Status MapReduce::InputData(Job& job, DataSetPtr* out) {
  const std::vector<std::string>& args = opts().args();
  if (args.empty()) {
    return InvalidArgumentError(
        "no input files given (pass paths as positional arguments or "
        "override InputData)");
  }
  MRS_ASSIGN_OR_RETURN(*out, job.FileData(args));
  return Status::Ok();
}

Status MapReduce::Run(Job& job) {
  DataSetPtr input;
  MRS_RETURN_IF_ERROR(InputData(job, &input));
  DataSetPtr mapped = job.MapData(input);
  DataSetPtr reduced = job.ReduceData(mapped);
  MRS_ASSIGN_OR_RETURN(std::vector<KeyValue> records, job.Collect(reduced));
  // Collect returns records in bucket order, which depends on the number
  // of splits; sort so the written output is identical across
  // implementations *and* across parallelism settings.
  SortRecords(records);

  std::string text = EncodeTextRecords(records);
  std::string output = opts().GetString("mrs-output");
  if (output.empty()) {
    std::fwrite(text.data(), 1, text.size(), stdout);
  } else {
    MRS_RETURN_IF_ERROR(WriteFileAtomic(output, text));
  }
  return Status::Ok();
}

}  // namespace mrs
