// Micro-benchmarks (google-benchmark) for the substrate hot paths: value
// serialization, the record format, payload checksums, sort+group, the
// map and reduce task bodies, XML-RPC framing, Halton generation, and the
// MiniPy engines — the per-sample rates behind Fig 3.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench/bench_util.h"
#include "halton/halton.h"
#include "halton/pi_kernel.h"
#include "http/message.h"
#include "interp/treewalk.h"
#include "interp/vm.h"
#include "rng/mt19937_64.h"
#include "core/task.h"
#include "ser/record.h"
#include "xmlrpc/protocol.h"

namespace mrs {
namespace {

/// kIntValue: 100 distinct short keys with int values (a word count).
/// kDistSort: DistSort's record, a 10-byte key and a 90-byte string value
/// drawn from its 62-letter alphabet (sort/distsort.cpp).
enum class Shape { kIntValue, kDistSort };

std::string RandomText(MT19937_64* rng, int n) {
  static constexpr char kAlphabet[] =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
  std::string s(static_cast<size_t>(n), '\0');
  for (char& c : s) c = kAlphabet[rng->NextBounded(62)];
  return s;
}

std::vector<KeyValue> MakeRecords(int n, Shape shape = Shape::kIntValue) {
  std::vector<KeyValue> records;
  records.reserve(n);
  MT19937_64 rng(7);
  for (int i = 0; i < n; ++i) {
    if (shape == Shape::kDistSort) {
      records.push_back(
          KeyValue{Value(RandomText(&rng, 10)), Value(RandomText(&rng, 90))});
      continue;
    }
    records.push_back(KeyValue{
        Value("key" + std::to_string(rng.NextBounded(100))),
        Value(static_cast<int64_t>(rng.NextU64()))});
  }
  return records;
}

void BM_EncodeBinaryRecords(benchmark::State& state) {
  auto records = MakeRecords(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeBinaryRecords(records));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EncodeBinaryRecords)->Arg(100)->Arg(10000);

void BM_DecodeBinaryRecords(benchmark::State& state, Shape shape) {
  std::string encoded = EncodeBinaryRecords(
      MakeRecords(static_cast<int>(state.range(0)), shape));
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecodeBinaryRecords(encoded));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK_CAPTURE(BM_DecodeBinaryRecords, int_value, Shape::kIntValue)
    ->Arg(100)
    ->Arg(10000);
BENCHMARK_CAPTURE(BM_DecodeBinaryRecords, distsort, Shape::kDistSort)
    ->Arg(10000);

// The checksum layer: every bucket payload is hashed once per spill write
// and once per verifying read.  ContentChecksum is XXH64; Fnv1aChecksum is
// the form a data server still computes for peers that predate XXH64.
std::string RandomBytes(int64_t n) {
  std::string data(static_cast<size_t>(n), '\0');
  MT19937_64 rng(11);
  for (char& c : data) c = static_cast<char>(rng.NextU64());
  return data;
}

void BM_ContentChecksum(benchmark::State& state) {
  const std::string data = RandomBytes(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(ContentChecksum(data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ContentChecksum)->Arg(64 << 10)->Arg(1 << 20);

void BM_Fnv1aChecksum(benchmark::State& state) {
  const std::string data = RandomBytes(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(Fnv1aChecksum(data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Fnv1aChecksum)->Arg(64 << 10)->Arg(1 << 20);

void BM_SortGroup(benchmark::State& state, Shape shape) {
  auto records = MakeRecords(static_cast<int>(state.range(0)), shape);
  ReduceFn sum = [](const Value&, const ValueList& values,
                    const ValueEmitter& emit) {
    int64_t s = 0;
    for (const Value& v : values) s += v.AsInt();
    emit(Value(s));
  };
  // DistSort's reduce passes every value through.
  ReduceFn identity = [](const Value&, const ValueList& values,
                         const ValueEmitter& emit) {
    for (const Value& v : values) emit(v);
  };
  const ReduceFn& reduce = shape == Shape::kDistSort ? identity : sum;
  for (auto _ : state) {
    auto copy = records;
    benchmark::DoNotOptimize(SortGroupApply(std::move(copy), reduce));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK_CAPTURE(BM_SortGroup, int_value, Shape::kIntValue)
    ->Arg(1000)
    ->Arg(100000);
BENCHMARK_CAPTURE(BM_SortGroup, distsort, Shape::kDistSort)->Arg(100000);

// The record sort behind every sorted spill, staged fetch and combine, at
// the sizes of one DistSort spill in a budgeted parallel (250 records) and
// serial (2,500) run, beside the std::stable_sort it replaced.
void BM_SortRecords(benchmark::State& state, bool stable_sort) {
  const auto records =
      MakeRecords(static_cast<int>(state.range(0)), Shape::kDistSort);
  for (auto _ : state) {
    state.PauseTiming();
    auto copy = records;
    state.ResumeTiming();
    if (stable_sort) {
      std::stable_sort(copy.begin(), copy.end(), KeyValueLess);
    } else {
      SortRecords(copy);
    }
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK_CAPTURE(BM_SortRecords, index, false)->Arg(250)->Arg(2500);
BENCHMARK_CAPTURE(BM_SortRecords, stable_sort, true)->Arg(250)->Arg(2500);

// The task funnel (core/task.h), unbudgeted: a word count over 200k
// records with 20k distinct string keys, partitioned 4 ways.
class FunnelCount : public MapReduce {
 public:
  void Map(const Value&, const Value& word, const Emitter& emit) override {
    emit(word, Value(int64_t{1}));
  }
  void Reduce(const Value&, const ValueList& values,
              const ValueEmitter& emit) override {
    int64_t s = 0;
    for (const Value& v : values) s += v.AsInt();
    emit(Value(s));
  }
};

/// Map input (index, word) or, with `word_keys`, reduce input (word, 1).
std::vector<KeyValue> FunnelRecords(bool word_keys) {
  std::vector<KeyValue> records;
  records.reserve(200000);
  MT19937_64 rng(13);
  for (int64_t i = 0; i < 200000; ++i) {
    Value word("word" + std::to_string(rng.NextBounded(20000)));
    records.push_back(word_keys ? KeyValue{std::move(word), Value(int64_t{1})}
                                : KeyValue{Value(i), std::move(word)});
  }
  return records;
}

void BM_RunMapTask(benchmark::State& state) {
  FunnelCount program;
  const std::vector<KeyValue> input = FunnelRecords(/*word_keys=*/false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunMapTask(program, DataSetOptions(), 4, input));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(input.size()));
}
BENCHMARK(BM_RunMapTask)->Unit(benchmark::kMillisecond);

void BM_RunReduceTask(benchmark::State& state) {
  FunnelCount program;
  const std::vector<KeyValue> input = FunnelRecords(/*word_keys=*/true);
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<KeyValue> copy = input;
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        RunReduceTask(program, DataSetOptions(), 4, std::move(copy)));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(input.size()));
}
BENCHMARK(BM_RunReduceTask)->Unit(benchmark::kMillisecond);

void BM_XmlRpcCallRoundTrip(benchmark::State& state) {
  xmlrpc::MethodCall call;
  call.method = "task_done";
  call.params = {XmlRpcValue(int64_t{1}), XmlRpcValue(int64_t{42}),
                 XmlRpcValue("http://127.0.0.1:1234/bucket/1/2/3")};
  for (auto _ : state) {
    std::string wire = xmlrpc::BuildCall(call);
    benchmark::DoNotOptimize(xmlrpc::ParseCall(wire));
  }
}
BENCHMARK(BM_XmlRpcCallRoundTrip);

void BM_HaltonNext(benchmark::State& state) {
  Halton2D points;
  double x, y;
  for (auto _ : state) {
    points.Next(&x, &y);
    benchmark::DoNotOptimize(x);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HaltonNext);

void BM_PiKernel(benchmark::State& state, PiEngine engine) {
  auto kernel = PiKernel::Create(engine);
  if (!kernel.ok()) {
    state.SkipWithError("kernel creation failed");
    return;
  }
  uint64_t start = 0;
  const uint64_t chunk = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize((*kernel)->CountInside(start, chunk));
    start += chunk;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(chunk));
}
BENCHMARK_CAPTURE(BM_PiKernel, native, PiEngine::kNative)->Arg(10000);
BENCHMARK_CAPTURE(BM_PiKernel, vm_pypy, PiEngine::kVm)->Arg(1000);
BENCHMARK_CAPTURE(BM_PiKernel, treewalk_python, PiEngine::kTreeWalk)
    ->Arg(1000);

void BM_MiniPyFib(benchmark::State& state, bool use_vm) {
  const char* src =
      "def fib(n):\n    if n < 2:\n        return n\n"
      "    return fib(n - 1) + fib(n - 2)\n";
  minipy::TreeWalker walker;
  minipy::Vm vm;
  if (use_vm) {
    if (!vm.LoadSource(src).ok()) {
      state.SkipWithError("load failed");
      return;
    }
  } else if (!walker.LoadSource(src).ok()) {
    state.SkipWithError("load failed");
    return;
  }
  std::vector<minipy::PyValue> args = {minipy::PyValue(int64_t{15})};
  for (auto _ : state) {
    if (use_vm) {
      benchmark::DoNotOptimize(vm.Call("fib", args));
    } else {
      benchmark::DoNotOptimize(walker.Call("fib", args));
    }
  }
}
BENCHMARK_CAPTURE(BM_MiniPyFib, vm, true);
BENCHMARK_CAPTURE(BM_MiniPyFib, treewalk, false);

void BM_MT19937_64(benchmark::State& state) {
  MT19937_64 rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextU64());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MT19937_64);

/// DistSort's draw, bound 62: as the compile-time constant RandomText
/// passes, and as a run-time value the compiler cannot fold.
enum class Bound { kConstant, kRuntime };

template <Bound kBound>
void BM_NextBounded(benchmark::State& state) {
  MT19937_64 rng(42);
  const uint64_t bound = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    if constexpr (kBound == Bound::kConstant) {
      benchmark::DoNotOptimize(rng.NextBounded(62));
    } else {
      benchmark::DoNotOptimize(rng.NextBounded(bound));
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_NextBounded, Bound::kConstant)->Arg(62);
BENCHMARK_TEMPLATE(BM_NextBounded, Bound::kRuntime)->Arg(62);

/// One DistSort record's text: a 10-byte key and a 90-byte value.
void BM_DistSortRecordText(benchmark::State& state) {
  MT19937_64 rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RandomText(&rng, 10));
    benchmark::DoNotOptimize(RandomText(&rng, 90));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DistSortRecordText);

}  // namespace
}  // namespace mrs

// BENCHMARK_MAIN() expanded so the bench can emit its machine-readable
// result line after the google-benchmark run.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  size_t ran = benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  mrs::bench::EmitBenchJson(
      "bench_micro", {{"benchmarks_run", static_cast<double>(ran)}});
  return 0;
}
