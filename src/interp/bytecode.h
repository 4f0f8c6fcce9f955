// MiniPy bytecode: instruction set and compiled-function model.
//
// The VM is the repo's "PyPy" stand-in: same language, same semantics, but
// compiled name resolution (slot-indexed locals and globals), switch
// dispatch, and an unboxed typed tier for provably numeric functions — the
// properties that make a tracing JIT fast on numeric loops, minus the
// actual JIT.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "interp/pyvalue.h"

namespace mrs {
namespace minipy {

enum class Op : uint8_t {
  kLoadConst,    // a: constant index
  kLoadLocal,    // a: slot
  kStoreLocal,   // a: slot
  kLoadGlobal,   // a: global slot
  kStoreGlobal,  // a: global slot
  kBinary,       // a: BinOp (not and/or)
  kUnary,        // a: UnOp
  kJump,         // a: absolute target
  kJumpIfFalse,  // a: target; pops condition
  kJumpIfFalsePeek,  // a: target; 'and': jump keeping value, else pop
  kJumpIfTruePeek,   // a: target; 'or'
  kPop,
  kCallUser,     // a: function index, b: argc
  kCallBuiltin,  // a: name-constant index, b: argc
  kReturn,       // pops return value
  kReturnNone,
  kBuildList,    // a: element count
  kIndex,        // stack: base, index -> value
  kStoreIndex,   // stack: base, index, value ->
  kLen,          // stack: list -> int (for-loop desugaring)
};

struct Instruction {
  Op op;
  int32_t a = 0;
  int32_t b = 0;
  /// Source line (1-based) of the statement/expression that emitted this
  /// instruction; 0 when unknown.  Debug info only — execution never reads
  /// it, diagnostics (analysis/typeinfer.h) do.
  int32_t line = 0;
};

struct CompiledFunction {
  std::string name;
  int num_params = 0;
  int num_locals = 0;
  std::vector<Instruction> code;
  std::vector<PyValue> constants;
  /// Maximum operand-stack depth, computed by the bytecode verifier
  /// (interp/verifier.h).  0 until verified.
  int max_stack = 0;
  /// Slot -> source name (params first, then assigned names, then $hiddenN
  /// loop temporaries).  Debug info for diagnostics; size == num_locals.
  std::vector<std::string> local_names;
};

struct TypeFactTable;  // interp/typefacts.h

struct CompiledModule {
  std::vector<CompiledFunction> functions;   // user functions
  CompiledFunction top_level;                // module init code
  std::vector<std::string> global_names;     // slot -> name
  /// Set by VerifyAndMark after the bytecode verifier proved every frame
  /// well-formed (operands in bounds, jump targets valid, stack depths
  /// consistent).  The VM's dispatch loop carries no per-instruction
  /// bounds checks, so Vm::LoadModule refuses modules that do not pass
  /// verification — the verified bit is what keeps the unchecked
  /// dispatch loop on trusted frames only.
  bool verified = false;
  /// Optional per-function type facts (interp/typefacts.h), produced by
  /// analysis/typeinfer.h and *re-checked* by CheckTypeFacts before the VM
  /// builds its typed tier from them.  A module with no table (or a table
  /// that fails the check) still runs — on the generic loop only.
  std::shared_ptr<const TypeFactTable> type_facts;
  int FunctionIndex(const std::string& name) const {
    for (size_t i = 0; i < functions.size(); ++i) {
      if (functions[i].name == name) return static_cast<int>(i);
    }
    return -1;
  }
};

}  // namespace minipy
}  // namespace mrs
