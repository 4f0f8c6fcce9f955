// Flow-sensitive type/shape inference for verified MiniPy bytecode.
//
// Abstract interpretation over the flat lattice of interp/typefacts.h,
// run to a fixpoint over each function's CFG (worklist, join at merges),
// with whole-module summary iteration for calls.  Two consumers:
//
//   1. The VM's typed tier: InferTypeFacts produces the TypeFactTable the
//      VM re-checks (CheckTypeFacts) and compiles unboxed code from.
//   2. mrs_lint / AnalyzeKernelSource: MPY5xx diagnostics (guaranteed
//      TypeErrors, int/float accumulator mixing) and inferred per-function
//      signatures for --json.
//
// Guard strategy: a parameter's entry-guard type is the join of the
// argument types at every static MiniPy call site.  When that join is
// uninformative (no call sites — host-called functions — or conflicting
// sites), the guard *speculates* int: MiniPy kernels overwhelmingly take
// index/count parameters, and a wrong speculation is harmless — the
// runtime guard just fails and the call runs on the generic loop.
// Diagnostics, by contrast, are computed from a caller-agnostic pass
// (parameters typed ⊤) so speculation can never produce a false positive.
#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "interp/typefacts.h"

namespace mrs {
namespace analysis {

struct InferredSignature {
  std::string name;
  std::vector<minipy::ValueType> params;  // entry-guard types
  minipy::ValueType ret = minipy::ValueType::kTop;
  /// True when at least one parameter guard was speculated rather than
  /// derived from static call sites.
  bool speculative = false;
};

struct TypeInference {
  /// Null when the module is unverified or inference found the bytecode
  /// internally inconsistent (which a verified module never is).
  std::shared_ptr<const minipy::TypeFactTable> table;
  /// MPY501 (guaranteed-TypeError operation), MPY502 (builtin call that
  /// always fails), MPY503 (int/float accumulator mixing) — all warnings.
  std::vector<Diagnostic> diagnostics;
  /// One per module function, in function order.
  std::vector<InferredSignature> signatures;
};

TypeInference InferTypeFacts(const minipy::CompiledModule& module,
                             const std::set<std::string>& host_names);

}  // namespace analysis
}  // namespace mrs
