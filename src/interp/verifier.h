// MiniPy bytecode verifier.
//
// The VM's dispatch loop (vm.cpp) indexes constants, locals, globals and
// the operand stack without bounds checks — that is what keeps the
// dispatch loop fast.  The verifier makes that safe: an abstract
// interpretation over each function proves, before any instruction runs,
// that every operand index is in bounds, every jump lands inside the
// function, the operand stack never underflows, and every control-flow
// merge point sees one consistent stack depth.  Modules that pass are
// stamped `verified` (with per-function max_stack); Vm::LoadModule refuses
// everything else, so a malformed or corrupted frame is rejected with a
// diagnostic instead of crashing the process.
//
// Issue codes are stable (MBC5xx) and surface through mrs::analysis
// diagnostics and the mrs_lint CLI:
//   MBC501  unknown opcode
//   MBC502  operand out of bounds (constant/local/global/function index)
//   MBC503  jump target out of bounds
//   MBC504  operand stack underflow
//   MBC505  inconsistent stack depth at a merge point
//   MBC506  malformed call (bad argc, unknown builtin, non-string callee)
//   MBC507  invalid function metadata (params/locals counts)
//   MBC508  empty function (no instructions)
#pragma once

#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "interp/bytecode.h"

namespace mrs {
namespace minipy {

struct VerifyIssue {
  std::string code;      // "MBC5xx"
  std::string function;  // function name ("__main__" for top-level code)
  int pc = -1;           // instruction index within the function, -1 = n/a
  std::string message;

  std::string ToString() const;
};

/// Verify every function of `module` (including top-level code).
/// `host_functions` extends the builtin namespace with VM host functions
/// (e.g. "emit") that kCallBuiltin may legally name.  Returns all issues
/// found; empty means the module is well-formed.
std::vector<VerifyIssue> VerifyCompiledModule(
    const CompiledModule& module,
    const std::set<std::string>& host_functions = {});

/// Verify and, on success, fill in each function's max_stack and set
/// module.verified.  On failure returns InvalidArgument carrying the
/// first few issues.
Status VerifyAndMark(CompiledModule& module,
                     const std::set<std::string>& host_functions = {});

}  // namespace minipy
}  // namespace mrs
