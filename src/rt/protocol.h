// Master/slave wire protocol (XML-RPC method schemas).
//
// The control channel mirrors Mrs: slaves know only the master's host:port;
// they sign in, long-poll for task assignments, and report completion with
// the URLs of the buckets they produced.  Intermediate data never touches
// the master — peers fetch it directly from the producing slave's built-in
// HTTP server (paper §IV-B).
//
// Methods served by the master at /RPC2:
//   signin(host, data_port[, ping_interval]) -> {slave_id, manifest}
//   get_task(slave_id)                       -> assignment | {kind:"wait"} | {kind:"quit"}
//   task_done(slave_id, dataset_id, source, urls[, attempt])   -> {}
//   task_failed(slave_id, dataset_id, source, message, bad_url[, attempt]) -> {}
//   ping(slave_id)                           -> {}
//   drain(slave_id)                          -> {}
//
// signin admits a slave at any time, including mid-job (elastic
// membership): the master health-checks the advertised data server with a
// GET /status probe before admission, and the reply's `manifest` array
// describes every registered dataset ({dataset_id, op, kind, sources,
// splits, complete}) so a late joiner knows the job it entered.  The
// optional ping_interval (seconds) lets the master scale that slave's
// death threshold to max(slave_timeout, missed_ping_limit * interval).
//
// drain asks the master to retire the calling slave gracefully: no new
// work is assigned, its hosted buckets are re-executed elsewhere through
// lineage, and its next get_task poll answers "quit" (the release).  A
// draining slave that never polls again is reaped at the drain deadline.
//
// task_failed's optional trailing attempt number (the assignment's 1-based
// attempt) makes failure charging idempotent: the transport may deliver a
// report more than once (client-side retry after a lost response), and the
// master charges each attempt at most once by taking the max rather than
// incrementing per delivery.  Old slaves omit it and keep the old
// increment-per-report behaviour.  task_done carries the same attempt
// number; completion dedup needs no arithmetic (the first row to land wins
// and the completed-state guard drops the rest — whether a transport
// retry or the losing twin of a speculative race), so the value is
// informational.
//
// Fault-recovery semantics: the URLs reported via task_done double as the
// job's lineage record — the master notes which slave's data server hosts
// each completed row.  task_failed's bad_url names an input bucket the
// slave could not fetch after retries; the master reacts by invalidating
// the producing tasks (usually the whole dead host's output set) and
// requeueing them, and such environmental failures are not charged
// against the reporting task's attempt budget.  ping doubles as the
// liveness signal: every message from a slave refreshes it, the master
// declares a slave lost at the first event past its silence threshold,
// and a presumed-lost slave that polls again is revived.
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "core/dataset.h"
#include "core/task.h"
#include "xmlrpc/value.h"

namespace mrs {

/// A task assignment sent master -> slave.
struct TaskAssignment {
  int dataset_id = 0;
  DataSetKind kind = DataSetKind::kMap;  // kMap or kReduce
  int source = 0;
  /// 1-based execution attempt for this task (prior failures + 1); carried
  /// so slave-side trace spans are labelled per attempt.
  int attempt = 1;
  int num_splits = 1;
  DataSetOptions options;
  std::vector<TaskInputPart> inputs;
  /// Iterative/BSP residency (optional, empty = classic assignment).  When
  /// the task's input dataset is pinned resident, the master stamps its
  /// stable cache key ("r/<input_dataset_id>/<split>") here.  The slave
  /// caches the decoded input under that key after loading it, and on
  /// later supersteps the master sends the key with *no* input parts
  /// (`resident_cached` true) so only the per-round broadcast delta —
  /// carried in `options.broadcast` — crosses the wire.
  std::string resident_key;
  /// True when the master believes the slave already caches resident_key
  /// and has therefore omitted the input parts.
  bool resident_cached = false;

  XmlRpcValue ToRpc() const;
  static Result<TaskAssignment> FromRpc(const XmlRpcValue& v);
};

/// The bad_url scheme a slave uses to report a resident-cache miss (the
/// master promised a cached input the slave no longer has, e.g. after a
/// restart).  The master treats it as environmental — clears the slave's
/// cache bit, re-sends full inputs on the next attempt, and charges no
/// attempt budget.
inline constexpr char kResidentMissScheme[] = "resident://";

/// Encode/decode inline record sets for RPC transport (base64 of the
/// binary record format).
XmlRpcValue RecordsToRpc(const std::vector<KeyValue>& records);
Result<std::vector<KeyValue>> RecordsFromRpc(const XmlRpcValue& v);

}  // namespace mrs
