// Typed, unboxed execution tier for MiniPy bytecode.
//
// BuildTypedModule translates each function whose checked type facts
// prove it monomorphically numeric into a register-style instruction
// stream over raw 8-byte slots (int64 or double, no PyValue boxing, no
// shared_ptr traffic).  The translation is a one-pass abstract
// "descriptor" walk of the stack machine: loads push descriptors
// instead of emitting code, so LOAD_LOCAL/LOAD_CONST feeding an ADD
// collapse into one three-address instruction (the superinstruction
// fusion the ROADMAP asks for), compare+branch pairs fuse into a single
// conditional branch, and a store retargets its producer's destination
// instead of emitting a move.
//
// Safety model: claims come from a TypeFactTable that passed
// CheckTypeFacts, and are conditional on the function's entry guard
// (parameter types + global types).  The VM checks the guard at every
// boundary into typed code and falls back to the generic loop when it
// fails (counted in mrs.vm.deopts) — so a function like add(a, b)
// inferred (int, int) still computes 1.5 + 2.0 correctly, just slowly.
// Functions the translator cannot prove out (lists, strings, kPow,
// builtins, type joins to ⊤) are simply left ineligible; ineligibility
// is always semantics-preserving.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "interp/bytecode.h"
#include "interp/typefacts.h"

namespace mrs {
namespace minipy {

/// One unboxed value: int64 for int/bool (bools are 0/1), double for
/// float.  Which member is live is static, proven per slot per pc by the
/// checked facts — this is exactly the representation UBSan watches.
union Slot {
  int64_t i;
  double d;
};

enum class TOp : uint8_t {
  kLoadI,   // a = dst, imm.i           (also bool/None materialization)
  kLoadF,   // a = dst, imm.d
  kMov,     // a = dst, b = src         (raw 8-byte copy, type-agnostic)
  kCvtIF,   // a.d = double(b.i)        (int operand feeding a float op)
  kLoadGI,  // a.i = AsInt(globals[b])  (guard proved int/bool)
  kLoadGF,  // a.d = AsFloat(globals[b])

  // Three-address arithmetic: a = b OP c.
  kAddI, kSubI, kMulI,
  kFloorDivI, kModI,  // zero-checked: "division by zero"/"modulo by zero"
  kDivIF,             // int / int -> double (true division, zero-checked)
  kAddF, kSubF, kMulF,
  kFloorDivF, kModF,  // float floor-div / fmod semantics, zero-checked
  kDivF,

  // Constant-folded right operand: a = b OP imm.  Emitted only where the
  // constant makes the op total (divisor consts are never 0 here — a
  // constant-zero divisor keeps the register form and its runtime error).
  kAddIC, kSubIC, kMulIC,
  kFloorDivIC, kModIC, kDivIFC,   // imm.i != 0 by construction
  kRSubIC,                        // a = imm.i - b
  kAddFC, kSubFC, kMulFC, kDivFC, // imm.d != 0.0 for kDivFC
  kRSubFC, kRDivFC,               // imm.d OP b (slot divisor zero-checked)

  kNegI, kNegF,  // a = -b
  kNotI,         // a.i = (b.i == 0)
  kNotF,         // a.i = (b.d == 0.0)

  // Compares: a.i = bool(b CMP c) with cmp in TInstr::cmp.  The int form
  // requires both operands proven int (or both bool); every mixed or
  // float comparison goes through doubles, matching ApplyBinary's
  // int/float split exactly.
  kCmpI, kCmpF,
  kCmpIC, kCmpFC,  // right operand in imm

  // Control flow.  Branch targets are typed-code indices (a).
  kJump,
  kBrFalseI,  // jump when b.i == 0
  kBrFalseF,  // jump when b.d == 0.0
  kBrTrueI,
  kBrTrueF,
  // Fused compare-and-branch: jump when (b CMP c/imm) is FALSE — the
  // negation is applied to the *result*, not the operator, so NaN
  // comparisons branch exactly like kCmp*+kBrFalseI would.
  kBrCmpFalseI, kBrCmpFalseF,
  kBrCmpFalseIC, kBrCmpFalseFC,

  // Calls.  Arguments sit in consecutive slots starting at c; the result
  // lands in a.  kCallT enters another typed function directly (guard
  // statically proven); kCallG boxes the arguments, runs the generic
  // path, and unboxes the result with a defensive type check (b indexes
  // TypedFunction::generic_calls).
  kCallT,
  kCallG,

  kRet,      // return slot b
  kRetImm,   // return imm (typed by the function's ret)
  kRetNone,
};

struct TInstr {
  TOp op;
  BinOp cmp = BinOp::kEq;  // kCmp*/kBrCmp* comparison operator
  int32_t a = 0;
  int32_t b = 0;
  int32_t c = 0;
  Slot imm{0};
};

/// Metadata for a call that leaves the typed tier (kCallG).
struct GenericCallInfo {
  int fn_index = 0;
  std::vector<ValueType> arg_types;  // claimed — how to box each slot
  ValueType result_type = ValueType::kTop;  // claimed — unbox + verify
};

struct TypedFunction {
  bool eligible = false;
  std::string name;
  int num_params = 0;
  int num_locals = 0;
  int num_slots = 0;  // locals + operand-stack area
  ValueType ret = ValueType::kNone;
  /// Entry guard (== FunctionFacts::params / global_reads of the checked
  /// table); the VM re-checks these against live values on every entry
  /// from outside typed code.
  std::vector<ValueType> param_types;
  std::vector<std::pair<int32_t, ValueType>> global_guard;
  std::vector<TInstr> code;
  std::vector<GenericCallInfo> generic_calls;
};

struct TypedModule {
  std::vector<TypedFunction> functions;  // parallel to module.functions
};

/// Translate every provably-numeric function.  `table` must have passed
/// CheckTypeFacts against `module`; functions that fail any eligibility
/// rule come back with eligible == false (and empty code).
TypedModule BuildTypedModule(const CompiledModule& module,
                             const TypeFactTable& table);

/// True when `args`/live globals satisfy the function's entry guard.
bool TypedGuardAccepts(const TypedFunction& fn,
                       const std::vector<PyValue>& args,
                       const std::vector<PyValue>& globals);

}  // namespace minipy
}  // namespace mrs
