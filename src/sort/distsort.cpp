#include "sort/distsort.h"

#include <algorithm>

#include "rng/mt19937_64.h"

namespace mrs {
namespace sort {

namespace {

// Stream tag for record generation (distinct from any other program's).
constexpr uint64_t kGenTag = 0x64697374736f7274ull;  // "distsort"

constexpr char kAlphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
constexpr uint64_t kAlphabetSize = sizeof(kAlphabet) - 1;

std::string RandomText(MT19937_64* rng, int bytes) {
  std::string s(static_cast<size_t>(bytes), '\0');
  for (char& c : s) c = kAlphabet[rng->NextBounded(kAlphabetSize)];
  return s;
}

}  // namespace

void DistSortProgram::AddOptions(OptionParser* parser) {
  parser->Add("sort-tasks", 0, true, "generator (map) tasks", "8");
  parser->Add("sort-records-per-task", 0, true, "records per task", "1000");
  parser->Add("sort-key-bytes", 0, true, "key width in bytes", "10");
  parser->Add("sort-value-bytes", 0, true, "payload width in bytes", "90");
  parser->Add("sort-splits", 0, true, "output partitions", "4");
}

Status DistSortProgram::Init(const Options& opts) {
  MRS_RETURN_IF_ERROR(MapReduce::Init(opts));
  config.tasks = static_cast<int>(opts.GetInt("sort-tasks", config.tasks));
  config.records_per_task =
      opts.GetInt("sort-records-per-task", config.records_per_task);
  config.key_bytes =
      static_cast<int>(opts.GetInt("sort-key-bytes", config.key_bytes));
  config.value_bytes =
      static_cast<int>(opts.GetInt("sort-value-bytes", config.value_bytes));
  config.reduce_splits =
      static_cast<int>(opts.GetInt("sort-splits", config.reduce_splits));
  if (config.tasks <= 0 || config.records_per_task < 0 ||
      config.key_bytes <= 0 || config.value_bytes < 0) {
    return InvalidArgumentError("distsort: invalid generation parameters");
  }
  BuildSplitterSample();
  return Status::Ok();
}

void DistSortProgram::BuildSplitterSample() {
  // The first sample_per_task records of every task's stream: cheap (a
  // prefix of the generator), deterministic, and identical in every
  // program instance — master, in-process slaves, and separate-process
  // slaves all derive the same ladder from the same seed.
  sample_.clear();
  int64_t per_task =
      std::min<int64_t>(config.sample_per_task, config.records_per_task);
  for (int t = 0; t < config.tasks; ++t) {
    MT19937_64 rng = Random({kGenTag, static_cast<uint64_t>(t)});
    for (int64_t i = 0; i < per_task; ++i) {
      sample_.push_back(RandomText(&rng, config.key_bytes));
      RandomText(&rng, config.value_bytes);  // keep the stream in phase
    }
  }
  std::sort(sample_.begin(), sample_.end());
}

Status DistSortProgram::InputData(Job& job, DataSetPtr* out) {
  // One seed record per generator task: (task index, records to produce).
  std::vector<KeyValue> seeds;
  seeds.reserve(static_cast<size_t>(config.tasks));
  for (int t = 0; t < config.tasks; ++t) {
    seeds.push_back({Value(static_cast<int64_t>(t)),
                     Value(config.records_per_task)});
  }
  *out = job.LocalData(std::move(seeds), config.tasks);
  return Status::Ok();
}

void DistSortProgram::Map(const Value& key, const Value& value,
                          const Emitter& emit) {
  int64_t task = key.AsInt();
  int64_t count = value.AsInt();
  MT19937_64 rng = Random({kGenTag, static_cast<uint64_t>(task)});
  for (int64_t i = 0; i < count; ++i) {
    std::string k = RandomText(&rng, config.key_bytes);
    std::string v = RandomText(&rng, config.value_bytes);
    emit(Value(std::move(k)), Value(std::move(v)));
  }
}

void DistSortProgram::Reduce(const Value& key, const ValueList& values,
                             const ValueEmitter& emit) {
  (void)key;
  for (const Value& v : values) emit(v);
}

int DistSortProgram::Partition(const Value& key, int num_splits) const {
  if (num_splits <= 1) return 0;
  if (!key.is_string() || sample_.empty()) {
    return MapReduce::Partition(key, num_splits);
  }
  // Rank of the key in the sorted sample, scaled to the split count: a
  // quantile ladder.  Monotone in the key, so split index order == key
  // range order at every fan-out.
  size_t rank = static_cast<size_t>(
      std::upper_bound(sample_.begin(), sample_.end(), key.AsString()) -
      sample_.begin());
  size_t idx = rank * static_cast<size_t>(num_splits) / (sample_.size() + 1);
  return static_cast<int>(
      std::min(idx, static_cast<size_t>(num_splits) - 1));
}

Status DistSortProgram::Run(Job& job) {
  DataSetPtr input;
  MRS_RETURN_IF_ERROR(InputData(job, &input));
  DataSetPtr mapped = job.MapData(input);
  DataSetOptions reduce_options;
  reduce_options.num_splits = config.reduce_splits;
  DataSetPtr reduced = job.ReduceData(mapped, reduce_options);
  MRS_ASSIGN_OR_RETURN(result, job.Collect(reduced));
  return Status::Ok();
}

Status DistSortProgram::Bypass() {
  result = ExpectedOutput();
  return Status::Ok();
}

std::vector<KeyValue> DistSortProgram::TaskRecords(int task) const {
  std::vector<KeyValue> records;
  records.reserve(static_cast<size_t>(config.records_per_task));
  MT19937_64 rng = Random({kGenTag, static_cast<uint64_t>(task)});
  for (int64_t i = 0; i < config.records_per_task; ++i) {
    std::string k = RandomText(&rng, config.key_bytes);
    std::string v = RandomText(&rng, config.value_bytes);
    records.push_back({Value(std::move(k)), Value(std::move(v))});
  }
  return records;
}

std::vector<KeyValue> DistSortProgram::ExpectedOutput() const {
  std::vector<KeyValue> all;
  all.reserve(static_cast<size_t>(config.tasks) *
              static_cast<size_t>(config.records_per_task));
  for (int t = 0; t < config.tasks; ++t) {
    std::vector<KeyValue> task = TaskRecords(t);
    all.insert(all.end(), std::make_move_iterator(task.begin()),
               std::make_move_iterator(task.end()));
  }
  std::stable_sort(all.begin(), all.end(), KeyValueLess);
  return all;
}

}  // namespace sort
}  // namespace mrs
