#include "core/thread_runner.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <iterator>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "core/program.h"
#include "core/task.h"
#include "fs/spill.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mrs {

namespace {

/// A worker combine buffer flushes once it holds this many records.  Big
/// enough that a flush amortizes its sort, small enough that a reduce's
/// input does not pool on one worker.
constexpr size_t kCombineFlushRecords = 32768;

obs::Counter* TasksCounter() {
  static obs::Counter* c =
      obs::Registry::Instance().GetCounter("mrs.thread.tasks");
  return c;
}
obs::Counter* MorselCounter() {
  static obs::Counter* c =
      obs::Registry::Instance().GetCounter("mrs.thread.morsels");
  return c;
}
/// Downstream tasks submitted while their upstream stage still had
/// unfinished task bodies — the pipelining the per-split gating buys.
obs::Counter* PipelinedCounter() {
  static obs::Counter* c =
      obs::Registry::Instance().GetCounter("mrs.thread.pipelined_submits");
  return c;
}
obs::Counter* DepositCounter() {
  static obs::Counter* c =
      obs::Registry::Instance().GetCounter("mrs.shuffle.deposits");
  return c;
}
obs::Counter* CombineInCounter() {
  static obs::Counter* c =
      obs::Registry::Instance().GetCounter("mrs.shuffle.combine_in");
  return c;
}
obs::Counter* CombineOutCounter() {
  static obs::Counter* c =
      obs::Registry::Instance().GetCounter("mrs.shuffle.combine_out");
  return c;
}
obs::Histogram* LockWaitHistogram() {
  static obs::Histogram* h =
      obs::Registry::Instance().GetHistogram("mrs.shuffle.lock_wait_s");
  return h;
}

/// Acquire a stripe lock, recording the wait in the contended case only:
/// the uncontended fast path stays a single try_lock, and the
/// "mrs.shuffle.lock_wait_s" histogram reads as a pure contention signal.
std::unique_lock<std::mutex> LockStripe(std::mutex& mu) {
  std::unique_lock<std::mutex> lock(mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    if (obs::MetricsEnabled()) {
      Stopwatch watch;
      lock.lock();
      LockWaitHistogram()->Observe(watch.ElapsedSeconds());
    } else {
      lock.lock();
    }
  }
  return lock;
}

/// Sharded, lock-striped shuffle staging area between two adjacent
/// pipeline stages, with a per-split count of outstanding deposits.
/// Upstream tasks Deposit their output bucket for a split as soon as they
/// finish (possibly many at once, hence the stripe locks) and then Arrive;
/// the split whose count reaches zero has all its input staged, so its
/// consumer task can be submitted immediately — no stage-level barrier.
/// The downstream task Takes everything merged in source-index order —
/// exactly the order GatherInputRecords produces for the serial runner,
/// which is what keeps order-sensitive (map) consumers byte-identical.
class ShuffleBoard {
 public:
  explicit ShuffleBoard(int num_splits)
      : num_splits_(num_splits),
        pending_(static_cast<size_t>(num_splits)),
        remaining_(std::make_unique<std::atomic<int>[]>(
            static_cast<size_t>(num_splits))) {}

  /// Expected deposit-arrivals per split (the upstream pending task
  /// count); rows already complete are pre-deposited and not counted.
  void InitExpected(int per_split) {
    for (int p = 0; p < num_splits_; ++p) {
      remaining_[static_cast<size_t>(p)].store(per_split,
                                               std::memory_order_relaxed);
    }
  }

  /// Raise every split's expectation by `n` (a task fanning out into
  /// morsels delivers one arrival per morsel instead of one).  Callers
  /// must still hold an undelivered arrival so no count can be zero.
  void AddExpected(int n) {
    for (int p = 0; p < num_splits_; ++p) {
      remaining_[static_cast<size_t>(p)].fetch_add(n,
                                                   std::memory_order_acq_rel);
    }
  }

  /// Stage a copy of an upstream output bucket.  Spilled buckets carry
  /// their run metadata instead of records, so staging one costs no
  /// memory — the consumer streams the runs from disk.
  void Deposit(int source, int split, Bucket bucket) {
    Slot slot{source, std::move(bucket)};
    {
      std::unique_lock<std::mutex> lock = LockStripe(stripes_[StripeOf(split)]);
      pending_[static_cast<size_t>(split)].push_back(std::move(slot));
    }
    DepositCounter()->Inc();
  }

  /// Record `n` completed deposit-arrivals on every split; appends each
  /// split whose count reached zero with this call to *ready (exactly one
  /// caller observes the zero crossing).
  void ArriveAll(int n, std::vector<int>* ready) {
    for (int p = 0; p < num_splits_; ++p) {
      if (remaining_[static_cast<size_t>(p)].fetch_sub(
              n, std::memory_order_acq_rel) == n) {
        ready->push_back(p);
      }
    }
  }

  /// All staged buckets for `split`, in source order.  Destructive: each
  /// split is taken exactly once, by its consumer task.
  std::vector<Bucket> Take(int split) {
    std::vector<Slot> slots;
    {
      std::unique_lock<std::mutex> lock = LockStripe(stripes_[StripeOf(split)]);
      slots.swap(pending_[static_cast<size_t>(split)]);
    }
    std::sort(slots.begin(), slots.end(),
              [](const Slot& a, const Slot& b) { return a.source < b.source; });
    std::vector<Bucket> out;
    out.reserve(slots.size());
    for (Slot& s : slots) out.push_back(std::move(s.bucket));
    return out;
  }

  int num_splits() const { return num_splits_; }

 private:
  struct Slot {
    int source;
    Bucket bucket;
  };

  static constexpr size_t kStripes = 16;
  size_t StripeOf(int split) const {
    return static_cast<size_t>(split) % kStripes;
  }

  const int num_splits_;
  std::vector<std::vector<Slot>> pending_;  // per destination split
  std::unique_ptr<std::atomic<int>[]> remaining_;  // per destination split
  std::array<std::mutex, kStripes> stripes_;
};

}  // namespace

/// Records a worker accumulated from the map rows it produced, waiting to
/// be combined and deposited as one bucket per destination split.  `units`
/// counts the upstream arrivals this buffer withholds until its flush.
struct ThreadRunner::CombineBuffer {
  std::vector<std::vector<KeyValue>> per_split;
  size_t records = 0;
  int units = 0;
};

/// One dataset of the chain under execution.
struct ThreadRunner::Stage {
  explicit Stage(DataSetPtr dataset) : ds(std::move(dataset)) {}

  DataSetPtr ds;
  Stage* downstream = nullptr;
  Stage* upstream = nullptr;
  /// Staged input deposited by the upstream stage (owns the per-split
  /// deposit counts gating this stage's tasks); null for the first stage,
  /// whose tasks read their (already complete) input directly.
  std::unique_ptr<ShuffleBoard> board;
  /// Sources still to execute (tasks already complete are excluded).
  std::vector<int> pending;
  /// wanted[s]: this stage has a pending task for split s (ready splits
  /// not wanted are re-runs whose task already completed).
  std::vector<char> wanted;
  /// This stage's tasks not yet completed; the body that takes it to zero
  /// closes the stage (flushes downstream combine buffers).
  std::atomic<int> bodies_remaining{0};
  /// Source ids for deposits that do not correspond to one upstream task
  /// row (worker combine flushes, morsel partials); starts past the real
  /// source range.
  std::atomic<int> next_synth_source{0};
  /// Worker-side combining of this stage's input edge: set when this
  /// stage is a reduce fed by a combiner-equipped map and no memory
  /// budget is active.
  ReduceFn combiner;
  std::vector<std::unique_ptr<CombineBuffer>> buffers;  // one per worker

  bool combining() const { return static_cast<bool>(combiner); }
};

/// A first-stage map task split into independently stealable chunks.
struct ThreadRunner::MorselGroup {
  Stage* stage = nullptr;
  int source = 0;
  /// Downstream is a reduce: each morsel deposits its raw partial buckets
  /// directly (multiset semantics) so reduces start before assembly.
  bool deposit_partials = false;
  std::vector<std::vector<KeyValue>> chunks;  // input slices, morsel order
  std::vector<std::vector<Bucket>> rows;      // per-morsel output rows
  std::atomic<int> remaining{0};
  std::atomic<bool> failed{false};
};

/// Book-keeping shared by every work unit of one Wait call.
struct ThreadRunner::ChainContext {
  std::mutex mu;
  std::condition_variable cv;
  Status error;                    // guarded by mu
  std::atomic<bool> failed{false};
  std::atomic<int> outstanding{0};
  std::vector<std::unique_ptr<Stage>> stages;
};

ThreadRunner::ThreadRunner(MapReduce* program, int num_workers,
                           int morsel_records)
    : program_(program) {
  if (num_workers <= 0) {
    unsigned hw = std::thread::hardware_concurrency();
    num_workers = hw == 0 ? 1 : static_cast<int>(hw);
  }
  if (morsel_records < 0) {
    morsel_records =
        static_cast<int>(program->opts().GetInt("mrs-morsel-records", 0));
  }
  morsel_records_ = morsel_records;
  pool_ = std::make_unique<WorkStealingPool>(static_cast<size_t>(num_workers));
}

ThreadRunner::~ThreadRunner() { pool_->Shutdown(); }

Status ThreadRunner::Wait(const DataSetPtr& dataset) {
  if (!dataset) return InvalidArgumentError("null dataset");
  if (dataset->IsSourceData() || dataset->Complete()) return Status::Ok();
  return RunChain(dataset);
}

Status ThreadRunner::RunChain(const DataSetPtr& dataset) {
  // Deepest incomplete dataset first; the first stage's input is complete
  // (or source data) by construction.
  std::vector<DataSetPtr> chain;
  for (DataSetPtr ds = dataset; ds && !ds->IsSourceData() && !ds->Complete();
       ds = ds->input()) {
    chain.push_back(ds);
  }
  if (chain.empty()) return Status::Ok();
  std::reverse(chain.begin(), chain.end());

  auto ctx = std::make_shared<ChainContext>();
  ctx->stages.reserve(chain.size());
  for (DataSetPtr& ds : chain) {
    ctx->stages.push_back(std::make_unique<Stage>(std::move(ds)));
  }

  int total = 0;
  for (const std::unique_ptr<Stage>& stage : ctx->stages) {
    DataSet& ds = *stage->ds;
    for (int s = 0; s < ds.num_sources(); ++s) {
      TaskState state = ds.task_state(s);
      if (state == TaskState::kComplete) continue;
      // Stale kRunning/kFailed states from an earlier failed run.
      if (state != TaskState::kPending) ds.ResetTask(s);
      stage->pending.push_back(s);
    }
    stage->bodies_remaining.store(static_cast<int>(stage->pending.size()),
                                  std::memory_order_relaxed);
    total += static_cast<int>(stage->pending.size());
  }

  for (size_t k = 1; k < ctx->stages.size(); ++k) {
    Stage* stage = ctx->stages[k].get();
    Stage* up = ctx->stages[k - 1].get();
    up->downstream = stage;
    stage->upstream = up;
    DataSet& uds = *up->ds;
    stage->board = std::make_unique<ShuffleBoard>(uds.num_splits());
    stage->board->InitExpected(static_cast<int>(up->pending.size()));
    stage->next_synth_source.store(uds.num_sources(),
                                   std::memory_order_relaxed);
    stage->wanted.assign(static_cast<size_t>(stage->ds->num_sources()), 0);
    for (int s : stage->pending) stage->wanted[static_cast<size_t>(s)] = 1;
    // Rows the upstream dataset already has (re-runs after a failure)
    // are staged up front; live tasks deposit theirs as they complete.
    for (int s = 0; s < uds.num_sources(); ++s) {
      if (uds.task_state(s) != TaskState::kComplete) continue;
      for (int p = 0; p < uds.num_splits(); ++p) {
        stage->board->Deposit(s, p, uds.bucket(s, p));
      }
    }
    // Worker-side combining of this edge.  Only a reduce consumer may see
    // cross-task-combined input (it sorts by (key, value), so output
    // depends only on the input multiset and the combiner contract
    // reduce ∘ partial-combine = reduce); an order-sensitive map consumer
    // keeps the plain one-deposit-per-task path.  Budgeted runs also keep
    // the plain path: spilled buckets travel as run metadata, which a
    // record buffer cannot absorb.
    if (stage->ds->kind() == DataSetKind::kReduce &&
        uds.kind() == DataSetKind::kMap && uds.options().use_combiner &&
        !MemoryBudget::Process().active()) {
      Result<ReduceFn> combiner = FindCombiner(*program_, uds.options());
      if (combiner.ok()) {
        stage->combiner = *std::move(combiner);
        stage->buffers.reserve(pool_->num_threads());
        for (size_t w = 0; w < pool_->num_threads(); ++w) {
          auto buf = std::make_unique<CombineBuffer>();
          buf->per_split.resize(static_cast<size_t>(uds.num_splits()));
          stage->buffers.push_back(std::move(buf));
        }
      }
    }
  }

  if (total == 0) return Status::Ok();
  ctx->outstanding.store(total, std::memory_order_relaxed);
  Stage* first = ctx->stages.front().get();
  for (int s : first->pending) SubmitTask(ctx, first, s);

  std::unique_lock<std::mutex> lock(ctx->mu);
  ctx->cv.wait(lock, [&] {
    return ctx->outstanding.load(std::memory_order_acquire) == 0;
  });
  return ctx->failed.load(std::memory_order_acquire) ? ctx->error
                                                     : Status::Ok();
}

void ThreadRunner::SubmitTask(const std::shared_ptr<ChainContext>& ctx,
                              Stage* stage, int source) {
  if (!pool_->Submit(
          [this, ctx, stage, source] { RunTaskBody(ctx, stage, source); })) {
    // Pool shut down under us (runner being destroyed): run inline so
    // the chain's counters still drain and Wait cannot hang.
    RunTaskBody(ctx, stage, source);
  }
}

void ThreadRunner::RunTaskBody(const std::shared_ptr<ChainContext>& ctx,
                               Stage* stage, int source) {
  if (!ctx->failed.load(std::memory_order_acquire) &&
      stage->ds->TryClaimTask(source)) {
    if (!TryMorselFanOut(ctx, stage, source)) {
      Result<std::vector<Bucket>> row = ExecuteTask(stage, source);
      if (row.ok()) {
        CompleteTask(ctx, stage, source, &*row, /*arrivals_delivered=*/false);
      } else {
        FailTask(ctx, stage, source, row.status());
        CompleteTask(ctx, stage, source, nullptr,
                     /*arrivals_delivered=*/false);
      }
    }
    // Morsel fan-out: the group's last morsel completes the task.
  } else {
    // Failure drain (or lost claim): still propagate arrivals and close
    // bookkeeping so downstream tasks get submitted and Wait cannot hang.
    CompleteTask(ctx, stage, source, nullptr, /*arrivals_delivered=*/false);
  }
  FinishUnit(ctx);
}

void ThreadRunner::FailTask(const std::shared_ptr<ChainContext>& ctx,
                            Stage* stage, int source, Status status) {
  stage->ds->set_task_state(source, TaskState::kFailed);
  std::lock_guard<std::mutex> lock(ctx->mu);
  if (!ctx->failed.exchange(true, std::memory_order_acq_rel)) {
    ctx->error = std::move(status);
  }
}

void ThreadRunner::CompleteTask(const std::shared_ptr<ChainContext>& ctx,
                                Stage* stage, int source,
                                std::vector<Bucket>* row,
                                bool arrivals_delivered) {
  Stage* down = stage->downstream;
  int num_splits = stage->ds->num_splits();
  if (down != nullptr && !arrivals_delivered) {
    bool withheld = false;
    if (row != nullptr && down->combining()) {
      int w = pool_->CurrentWorkerIndex();
      if (w >= 0) {
        CombineBuffer& buf = *down->buffers[static_cast<size_t>(w)];
        for (int p = 0; p < num_splits; ++p) {
          const std::vector<KeyValue>& recs =
              (*row)[static_cast<size_t>(p)].records();
          if (recs.empty()) continue;
          std::vector<KeyValue>& dest = buf.per_split[static_cast<size_t>(p)];
          dest.insert(dest.end(), recs.begin(), recs.end());
          buf.records += recs.size();
        }
        ++buf.units;
        withheld = true;
        if (buf.records >= kCombineFlushRecords) {
          FlushCombineBuffer(ctx, down, &buf);
        }
      }
    }
    if (!withheld) {
      if (row != nullptr) {
        // Deposit every split — an empty bucket may still carry spill-run
        // metadata, and an order-sensitive consumer merges by source.
        for (int p = 0; p < num_splits; ++p) {
          down->board->Deposit(source, p, (*row)[static_cast<size_t>(p)]);
        }
      }
      Arrive(ctx, down, 1);
    }
  }
  if (row != nullptr) {
    stage->ds->SetRow(source, std::move(*row));
    TasksCounter()->Inc();
  }
  // Stage close: the body that finishes last flushes every worker's
  // combine buffer so withheld arrivals drain.  fetch_sub's acq_rel
  // ordering makes all workers' buffer writes visible to the closer.
  if (stage->bodies_remaining.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
      down != nullptr && down->combining()) {
    for (const std::unique_ptr<CombineBuffer>& buf : down->buffers) {
      FlushCombineBuffer(ctx, down, buf.get());
    }
  }
}

void ThreadRunner::Arrive(const std::shared_ptr<ChainContext>& ctx,
                          Stage* consumer, int n) {
  std::vector<int> ready;
  consumer->board->ArriveAll(n, &ready);
  if (ready.empty()) return;
  if (consumer->upstream != nullptr &&
      consumer->upstream->bodies_remaining.load(std::memory_order_acquire) >
          0) {
    PipelinedCounter()->Inc(static_cast<int64_t>(ready.size()));
  }
  for (int s : ready) {
    if (consumer->wanted[static_cast<size_t>(s)]) {
      SubmitTask(ctx, consumer, s);
    }
  }
}

void ThreadRunner::FlushCombineBuffer(const std::shared_ptr<ChainContext>& ctx,
                                      Stage* consumer, CombineBuffer* buf) {
  if (buf->units == 0) return;
  int held = buf->units;
  buf->units = 0;
  if (buf->records > 0) {
    CombineInCounter()->Inc(static_cast<int64_t>(buf->records));
    buf->records = 0;
    int synth =
        consumer->next_synth_source.fetch_add(1, std::memory_order_relaxed);
    int64_t out_records = 0;
    for (size_t p = 0; p < buf->per_split.size(); ++p) {
      std::vector<KeyValue>& recs = buf->per_split[p];
      if (recs.empty()) continue;
      // The combiner is user code: a throw fails the chain, not the
      // process.
      Result<std::vector<KeyValue>> combined =
          CatchUserExceptions("combiner", [&] {
            return SortGroupApply(std::move(recs), consumer->combiner);
          });
      recs = std::vector<KeyValue>();
      if (!combined.ok()) {
        std::lock_guard<std::mutex> lock(ctx->mu);
        if (!ctx->failed.exchange(true, std::memory_order_acq_rel)) {
          ctx->error = combined.status();
        }
        continue;
      }
      out_records += static_cast<int64_t>(combined->size());
      Bucket b(synth, static_cast<int>(p));
      *b.mutable_records() = *std::move(combined);
      b.MarkLoaded();
      consumer->board->Deposit(synth, static_cast<int>(p), std::move(b));
    }
    CombineOutCounter()->Inc(out_records);
  }
  // Withheld arrivals drain even on a combiner failure so the chain
  // cannot hang.
  Arrive(ctx, consumer, held);
}

bool ThreadRunner::TryMorselFanOut(const std::shared_ptr<ChainContext>& ctx,
                                   Stage* stage, int source) {
  // Morsels apply to first-stage map tasks only (that is where oversized
  // file/local splits live); budgeted runs keep the whole-task path, whose
  // spill machinery owns large inputs.
  if (morsel_records_ <= 0 || stage->board != nullptr ||
      stage->ds->kind() != DataSetKind::kMap ||
      MemoryBudget::Process().active()) {
    return false;
  }
  DataSetPtr in = stage->ds->input();
  if (!in) return false;
  Result<std::vector<KeyValue>> input =
      GatherInputRecords(*in, source, LocalFetch);
  if (!input.ok()) {
    FailTask(ctx, stage, source, input.status());
    CompleteTask(ctx, stage, source, nullptr, /*arrivals_delivered=*/false);
    return true;
  }
  size_t threshold = static_cast<size_t>(morsel_records_);
  size_t n = input->size();
  size_t morsels = threshold == 0 ? 1 : (n + threshold - 1) / threshold;
  if (morsels < 2) return false;  // small task: run whole

  auto group = std::make_shared<MorselGroup>();
  group->stage = stage;
  group->source = source;
  group->deposit_partials =
      stage->downstream != nullptr &&
      stage->downstream->ds->kind() == DataSetKind::kReduce;
  group->chunks.reserve(morsels);
  std::vector<KeyValue>& all = *input;
  for (size_t start = 0; start < n; start += threshold) {
    size_t end = std::min(n, start + threshold);
    auto first = all.begin() + static_cast<std::ptrdiff_t>(start);
    auto last = all.begin() + static_cast<std::ptrdiff_t>(end);
    group->chunks.emplace_back(std::make_move_iterator(first),
                               std::make_move_iterator(last));
  }
  group->rows.resize(group->chunks.size());
  group->remaining.store(static_cast<int>(group->chunks.size()),
                         std::memory_order_relaxed);
  if (group->deposit_partials) {
    // This task now delivers one arrival per morsel instead of one; its
    // own (still undelivered) arrival keeps every split's count positive
    // while the expectation is raised, so no split can hit zero early.
    stage->downstream->board->AddExpected(
        static_cast<int>(group->chunks.size()) - 1);
  }
  MorselCounter()->Inc(static_cast<int64_t>(group->chunks.size()));
  ctx->outstanding.fetch_add(static_cast<int>(group->chunks.size()),
                             std::memory_order_acq_rel);
  for (size_t i = 0; i < group->chunks.size(); ++i) {
    if (!pool_->Submit([this, ctx, group, i] { RunMorsel(ctx, group, i); })) {
      RunMorsel(ctx, group, i);
    }
  }
  return true;
}

void ThreadRunner::RunMorsel(const std::shared_ptr<ChainContext>& ctx,
                             const std::shared_ptr<MorselGroup>& group,
                             size_t index) {
  Stage* stage = group->stage;
  DataSet& ds = *stage->ds;
  bool produced = false;
  if (!ctx->failed.load(std::memory_order_acquire)) {
    obs::ScopedSpan span(ds.options().op_name, "morsel");
    span.set_task(ds.id(), group->source);
    DataSetOptions opts = ds.options();
    // The per-task combiner runs once over the assembled row (keeping it
    // byte-identical to the serial runner's); raw morsel output is what
    // feeds the reduce board early.
    opts.use_combiner = false;
    Result<std::vector<Bucket>> row = CatchUserExceptions("task", [&] {
      return RunMapTask(*program_, opts, ds.num_splits(),
                        group->chunks[index], nullptr);
    });
    if (row.ok()) {
      group->rows[index] = *std::move(row);
      produced = true;
      if (group->deposit_partials) {
        Stage* down = stage->downstream;
        int synth =
            down->next_synth_source.fetch_add(1, std::memory_order_relaxed);
        for (int p = 0; p < ds.num_splits(); ++p) {
          Bucket& b = group->rows[index][static_cast<size_t>(p)];
          if (b.records().empty()) continue;
          down->board->Deposit(synth, p, b);
        }
      }
    } else {
      FailTask(ctx, stage, group->source, row.status());
    }
  }
  if (!produced) group->failed.store(true, std::memory_order_release);
  group->chunks[index].clear();
  group->chunks[index].shrink_to_fit();
  if (group->deposit_partials) Arrive(ctx, stage->downstream, 1);
  if (group->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    FinalizeMorselGroup(ctx, group);
  }
  FinishUnit(ctx);
}

void ThreadRunner::FinalizeMorselGroup(
    const std::shared_ptr<ChainContext>& ctx,
    const std::shared_ptr<MorselGroup>& group) {
  Stage* stage = group->stage;
  DataSet& ds = *stage->ds;
  if (group->failed.load(std::memory_order_acquire)) {
    ds.set_task_state(group->source, TaskState::kFailed);
    CompleteTask(ctx, stage, group->source, nullptr, group->deposit_partials);
    return;
  }
  // Assemble the task's row: concatenate morsel partials in morsel order
  // (reproducing the serial emission order per bucket), then apply the
  // per-task combiner once — byte-identical to RunMapTask on the whole
  // input.
  Result<std::vector<Bucket>> row = CatchUserExceptions(
      "task", [&]() -> Result<std::vector<Bucket>> {
        int num_splits = ds.num_splits();
        std::vector<Bucket> out;
        out.reserve(static_cast<size_t>(num_splits));
        for (int p = 0; p < num_splits; ++p) out.emplace_back(0, p);
        for (std::vector<Bucket>& partial : group->rows) {
          for (int p = 0; p < num_splits; ++p) {
            out[static_cast<size_t>(p)].Absorb(
                std::move(partial[static_cast<size_t>(p)]));
          }
        }
        if (ds.options().use_combiner) {
          MRS_ASSIGN_OR_RETURN(ReduceFn combiner,
                               FindCombiner(*program_, ds.options()));
          for (Bucket& b : out) {
            if (b.records().empty()) continue;
            MRS_ASSIGN_OR_RETURN(
                *b.mutable_records(),
                SortGroupApply(std::move(*b.mutable_records()), combiner));
          }
        }
        for (Bucket& b : out) b.MarkLoaded();
        return out;
      });
  if (row.ok()) {
    CompleteTask(ctx, stage, group->source, &*row, group->deposit_partials);
  } else {
    FailTask(ctx, stage, group->source, row.status());
    CompleteTask(ctx, stage, group->source, nullptr, group->deposit_partials);
  }
}

void ThreadRunner::FinishUnit(const std::shared_ptr<ChainContext>& ctx) {
  if (ctx->outstanding.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(ctx->mu);
    ctx->cv.notify_all();
  }
}

Result<std::vector<Bucket>> ThreadRunner::ExecuteTask(Stage* stage,
                                                      int source) {
  DataSet& ds = *stage->ds;
  obs::ScopedSpan span(ds.options().op_name,
                       ds.kind() == DataSetKind::kMap ? "map" : "reduce");
  span.set_task(ds.id(), source);

  std::optional<TaskSpillContext> spill =
      NewTaskSpillContext("thread", ds.id(), source);
  const TaskSpillContext* spill_ptr = spill ? &*spill : nullptr;
  return CatchUserExceptions("task", [&]() -> Result<std::vector<Bucket>> {
    if (stage->board) {
      return RunTaskOnBuckets(*program_, ds.kind(), ds.options(),
                              ds.num_splits(), stage->board->Take(source),
                              LocalFetch, spill_ptr);
    }
    return RunTaskOnDataSet(*program_, ds, source, LocalFetch, spill_ptr);
  });
}

}  // namespace mrs
