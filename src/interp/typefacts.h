// Type facts for verified MiniPy bytecode: the data model, the exact
// operator result-type tables, and the linear re-checker.
//
// The flow-sensitive *inference* (fixpoint over the CFG) lives in
// analysis/typeinfer.h; what it produces is a TypeFactTable — a claimed
// type for every local and stack slot at every reachable pc, plus a
// per-function entry guard (parameter types + global types the function
// relies on) and a return type.  The VM never trusts those claims:
// CheckTypeFacts re-verifies the whole table in one linear pass (the
// classic stack-map-table split — expensive fixpoint at produce time,
// cheap local check at consume time), and the typed execution tier
// (interp/typedtier.h) is built only from facts that passed the check.
//
// Soundness contract: a claimed type over-approximates every runtime
// value that can occupy that slot *given the function's entry guard
// holds* — which the VM establishes dynamically before entering typed
// code (and falls back to the generic loop when it does not).  Claims
// about instructions that raise are vacuous: a frame that errors
// produces no value for the claim to describe.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "interp/bytecode.h"

namespace mrs {
namespace minipy {

/// The inference lattice.  kBottom = unreachable / no value yet; kTop =
/// any value.  Join of two distinct concrete types is kTop (flat lattice).
enum class ValueType : uint8_t {
  kBottom = 0,
  kNone,
  kBool,
  kInt,
  kFloat,
  kStr,
  kList,
  kTop,
};

inline bool IsConcreteType(ValueType t) {
  return t != ValueType::kBottom && t != ValueType::kTop;
}
inline bool IsNumericType(ValueType t) {
  return t == ValueType::kBool || t == ValueType::kInt ||
         t == ValueType::kFloat;
}

inline ValueType JoinType(ValueType a, ValueType b) {
  if (a == b) return a;
  if (a == ValueType::kBottom) return b;
  if (b == ValueType::kBottom) return a;
  return ValueType::kTop;
}

/// a ⊑ b in the flat lattice.
inline bool TypeLe(ValueType a, ValueType b) {
  return a == b || a == ValueType::kBottom || b == ValueType::kTop;
}

ValueType TypeOf(const PyValue& v);

std::string_view TypeDisplayName(ValueType t);  // "int", "float", ...

// ---------------------------------------------------------------------------
// Result-type tables.  Each mirrors ApplyBinary/ApplyUnary/the VM op
// exactly: the result is the join over every concrete operand pair
// admitted by the abstract operands (which makes the tables monotone by
// construction), and *guaranteed_error is set when every such pair
// raises — the static signature of a guaranteed TypeError (MPY501/502).

ValueType BinaryResultType(BinOp op, ValueType a, ValueType b,
                           bool* guaranteed_error = nullptr);
ValueType UnaryResultType(UnOp op, ValueType v,
                          bool* guaranteed_error = nullptr);
ValueType IndexResultType(ValueType base, ValueType index,
                          bool* guaranteed_error = nullptr);
ValueType LenResultType(ValueType v, bool* guaranteed_error = nullptr);
/// kStoreIndex validity (no result value).
void StoreIndexCheck(ValueType base, ValueType index, bool* guaranteed_error);
/// Builtins (len/abs/int/float/str/bool/min/max/range/append/print).
/// Unknown (host) functions return kTop and never guarantee an error.
ValueType BuiltinResultType(const std::string& name,
                            const std::vector<ValueType>& args,
                            bool* guaranteed_error = nullptr);

// ---------------------------------------------------------------------------
// Fact model.

struct TypeRow {
  bool reachable = false;
  std::vector<ValueType> locals;  // size == num_locals when reachable
  std::vector<ValueType> stack;   // operand stack, bottom first
};

struct FunctionFacts {
  /// Entry guard on parameters (size == num_params).  The typed tier
  /// checks TypeOf(arg) ⊑ params[i] at frame entry and deopts on
  /// mismatch; every row below is conditional on this guard.
  std::vector<ValueType> params;
  /// Return type under the guard (join over every kReturn/kReturnNone).
  ValueType ret = ValueType::kTop;
  /// Global slots this function reads, with the type assumed for each —
  /// part of the entry guard, checked against live global values.
  /// Sorted by slot, unique.  Slots read but not listed are typed kTop.
  std::vector<std::pair<int32_t, ValueType>> global_reads;
  /// Per-pc claims; size == code.size().  Unreachable rows are empty.
  std::vector<TypeRow> rows;

  ValueType GlobalType(int32_t slot) const {
    for (const auto& [s, t] : global_reads) {
      if (s == slot) return t;
    }
    return ValueType::kTop;
  }
};

/// Parallel to CompiledModule::functions (top-level code carries no facts:
/// it runs once, on the generic loop, and is where globals are born).
struct TypeFactTable {
  std::vector<FunctionFacts> functions;
};

/// True when caller's entry guard implies callee's global guard — the
/// condition (besides exact parameter-type match) under which a call
/// result may be claimed as callee.ret rather than kTop.  Used
/// identically by inference, the checker, and the typed-tier translator.
bool GlobalGuardCovered(const FunctionFacts& caller,
                        const FunctionFacts& callee);

// ---------------------------------------------------------------------------
// Shared abstract transfer.  Both the inference fixpoint and the linear
// checker step instructions through this, so a divergence between
// "what inference believes" and "what the checker accepts" cannot exist.

struct AbstractState {
  std::vector<ValueType> locals;
  std::vector<ValueType> stack;
};

struct TransferHooks {
  /// Result type of kCallUser on function `fn_index` with these static
  /// argument types.  Inference plugs in-progress summaries in; the
  /// checker plugs the claimed table in.
  std::function<ValueType(int fn_index, const std::vector<ValueType>& args)>
      call_result;
  /// Type of a global slot at kLoadGlobal (kTop when unknown).
  std::function<ValueType(int32_t slot)> global_type;
  /// True when `name` resolves to a host function in the consuming VM —
  /// host functions shadow builtins at dispatch, so their results must
  /// be typed kTop no matter what the name suggests.
  std::function<bool(const std::string& name)> is_host;
};

/// Per-local "may be read before any store on some path from entry" —
/// a forward may-analysis over the CFG.  A local for which this is false
/// can be typed kBottom at function entry (its default-constructed None
/// is provably never observed), which keeps loop-carried locals that are
/// assigned inside the loop body at a concrete type instead of None⊔T=⊤.
/// Inference and the checker must build entry states with the SAME rule,
/// so both call this.
std::vector<bool> LocalsReadBeforeAssign(const CompiledFunction& fn);

/// The shared entry-state rule: parameters per the guard, other locals
/// kNone when possibly read unassigned, kBottom otherwise.
AbstractState EntryState(const CompiledFunction& fn,
                         const std::vector<ValueType>& params);

struct TransferStep {
  /// (successor pc, state on entry to it).  pc == code.size() means
  /// execution falls off the end (the VM returns None there).  A
  /// guaranteed-error instruction has no successors: the frame aborts.
  std::vector<std::pair<int, AbstractState>> successors;
  bool returns = false;
  ValueType return_type = ValueType::kBottom;
  bool guaranteed_error = false;
};

/// Abstractly execute fn.code[pc] from `in`.  Fails (InvalidArgument) on
/// structural impossibilities — stack underflow against the claimed row,
/// bad operand shape — which the checker converts into rejection.  The
/// caller guarantees `module` is verified (operand indices in bounds).
Result<TransferStep> TransferInstruction(const CompiledModule& module,
                                         const CompiledFunction& fn, int pc,
                                         const AbstractState& in,
                                         const TransferHooks& hooks);

/// Linear, non-fixpoint re-check of every claim in `table` against
/// `module` (which must already be bytecode-verified).  O(code size ×
/// slots).  `host_names` is the consuming VM's registered host-function
/// set: claims about builtins a host function shadows fail the check.
/// On success the table is safe to build the typed tier from; any
/// failure means the table was corrupted or forged and must be
/// discarded — never "partially trusted".
Status CheckTypeFacts(const CompiledModule& module, const TypeFactTable& table,
                      const std::set<std::string>& host_names = {});

}  // namespace minipy
}  // namespace mrs
