#include "halton/pi_program.h"

#include "common/log.h"

namespace mrs {

void PiEstimatorProgram::AddOptions(OptionParser* parser) {
  parser->Add("pi-samples", 0, true, "total number of sample points",
              "1000000");
  parser->Add("pi-tasks", 0, true, "number of map tasks", "8");
  parser->Add("pi-engine", 0, true, "inner loop engine: native, vm, treewalk",
              "native");
}

Status PiEstimatorProgram::Init(const Options& opts) {
  MRS_RETURN_IF_ERROR(MapReduce::Init(opts));
  if (opts.Has("pi-samples")) {
    samples = opts.GetInt("pi-samples", samples);
    tasks = static_cast<int>(opts.GetInt("pi-tasks", tasks));
    MRS_ASSIGN_OR_RETURN(engine,
                         ParsePiEngine(opts.GetString("pi-engine", "native")));
  }
  if (tasks < 1) tasks = 1;
  return Status::Ok();
}

Status PiEstimatorProgram::InputData(Job& job, DataSetPtr* out) {
  std::vector<KeyValue> ranges;
  int64_t per_task = samples / tasks;
  int64_t remainder = samples % tasks;
  int64_t start = 0;
  for (int t = 0; t < tasks; ++t) {
    int64_t count = per_task + (t < remainder ? 1 : 0);
    ranges.push_back(KeyValue{
        Value(static_cast<int64_t>(t)),
        Value(ValueList{Value(start), Value(count)})});
    start += count;
  }
  *out = job.LocalData(std::move(ranges), tasks);
  return Status::Ok();
}

PiKernel* PiEstimatorProgram::ThreadLocalKernel() {
  // One kernel per (thread, engine): map tasks may run concurrently on a
  // shared program instance, and the VM/tree-walk kernels are stateful.
  thread_local std::unique_ptr<PiKernel> kernels[kNumPiEngines];
  auto slot = static_cast<size_t>(engine);
  if (kernels[slot] == nullptr) {
    Result<std::unique_ptr<PiKernel>> kernel = PiKernel::Create(engine);
    if (!kernel.ok()) {
      MRS_LOG(kError, "pi") << "kernel creation failed: "
                            << kernel.status().ToString();
      return nullptr;
    }
    kernels[slot] = std::move(kernel).value();
  }
  return kernels[slot].get();
}

void PiEstimatorProgram::Map(const Value& key, const Value& value,
                             const Emitter& emit) {
  (void)key;
  const ValueList& range = value.AsList();
  uint64_t start = static_cast<uint64_t>(range[0].AsInt());
  uint64_t count = static_cast<uint64_t>(range[1].AsInt());
  PiKernel* kernel = ThreadLocalKernel();
  if (kernel == nullptr) return;
  Result<uint64_t> counted = kernel->CountInside(start, count);
  if (counted.ok()) {
    emit(Value(int64_t{0}),
         Value(ValueList{Value(static_cast<int64_t>(*counted)),
                         Value(static_cast<int64_t>(count))}));
  }
}

void PiEstimatorProgram::Reduce(const Value& key, const ValueList& values,
                                const ValueEmitter& emit) {
  (void)key;
  int64_t total_inside = 0;
  int64_t total = 0;
  for (const Value& v : values) {
    total_inside += v.AsList()[0].AsInt();
    total += v.AsList()[1].AsInt();
  }
  emit(Value(ValueList{Value(total_inside), Value(total)}));
}

Status PiEstimatorProgram::Run(Job& job) {
  DataSetPtr input;
  MRS_RETURN_IF_ERROR(InputData(job, &input));
  DataSetPtr mapped = job.MapData(input);
  DataSetOptions reduce_options;
  reduce_options.num_splits = 1;
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

Status PiEstimatorProgram::Bypass() {
  MRS_ASSIGN_OR_RETURN(std::unique_ptr<PiKernel> kernel,
                       PiKernel::Create(engine));
  MRS_ASSIGN_OR_RETURN(uint64_t counted,
                       kernel->CountInside(0, static_cast<uint64_t>(samples)));
  inside = static_cast<int64_t>(counted);
  estimate = EstimatePi(counted, static_cast<uint64_t>(samples));
  return Status::Ok();
}

}  // namespace mrs
