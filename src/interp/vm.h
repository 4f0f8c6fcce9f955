// MiniPy bytecode VM — the "PyPy" stand-in.
//
// The dispatch loop carries no per-instruction bounds checks; instead,
// LoadModule runs the bytecode verifier (interp/verifier.h) on any module
// not already stamped `verified` and refuses malformed frames outright.
// Only verified modules ever reach RunFunction, which is what keeps the
// unchecked dispatch loop both fast and safe.
//
// On top of the generic loop sits the typed tier: when a loaded module
// carries a TypeFactTable (produced by analysis/typeinfer, re-checked
// here by CheckTypeFacts — never trusted), provably-numeric functions are
// translated to unboxed register code (interp/typedtier.h).  Every entry
// into typed code from boxed code re-checks the function's entry guard
// against the live arguments and globals; a failed guard falls back to
// the generic loop and increments mrs.vm.deopts.  A module without a
// table, or whose table fails the check (counted in
// mrs.vm.type_facts_rejected), simply runs generic-only.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "interp/bytecode.h"
#include "interp/compiler.h"
#include "interp/typedtier.h"

namespace mrs {
namespace minipy {

class Vm {
 public:
  /// A host-provided function callable from MiniPy like a builtin (e.g.
  /// the kernel `emit`).  Receives the evaluated arguments.
  using HostFn = std::function<Result<PyValue>(std::vector<PyValue>& args)>;

  /// Make `name` callable from MiniPy code.  Must be registered before
  /// LoadModule/LoadSource so the compiler and verifier accept the name.
  void RegisterHost(std::string name, HostFn fn);

  /// Install a compiled module and execute its top-level code.  Modules
  /// not already verified are run through the bytecode verifier first;
  /// malformed frames are rejected (InvalidArgument), never executed.
  Status LoadModule(std::shared_ptr<CompiledModule> module);
  Status LoadSource(std::string_view source);

  /// Call a module-level function by name.
  Result<PyValue> Call(const std::string& function, std::vector<PyValue> args);

  Result<PyValue> GetGlobal(const std::string& name) const;

  /// Disable the typed tier for this VM before LoadModule (differential
  /// tests force the generic loop this way; the MRS_NO_TYPED_TIER env
  /// var does the same for every VM in the process).
  void set_typed_tier_enabled(bool enabled) { typed_enabled_ = enabled; }

  /// True when `name` was translated into the typed tier of the loaded
  /// module (facts present, checked, and the function proved eligible).
  bool HasTypedFunction(const std::string& name) const;

 private:
  Result<PyValue> RunFunction(const CompiledFunction& fn,
                              std::vector<PyValue> args);
  /// Typed-or-generic call dispatch: guard-check against live values,
  /// enter typed code on success, deopt to RunFunction otherwise.
  Result<PyValue> DispatchCall(int fn_index, std::vector<PyValue> args);
  Status RunTypedFunction(const TypedFunction& tfn, Slot* frame, Slot* ret);
  /// kCallG (and arena-exhausted kCallT): box slots, run boxed dispatch,
  /// unbox the result with a defensive check against the claimed type.
  Status BoxedCallFromTyped(const TypedFunction& tfn, int gc_index,
                            int32_t first, Slot* frame, Slot* out);

  std::shared_ptr<CompiledModule> module_;
  std::vector<PyValue> globals_;
  std::map<std::string, HostFn> host_;

  TypedModule typed_;
  /// Frame arena for typed calls.  Sized once when the tier is built and
  /// never reallocated afterwards (live frames hold raw pointers into
  /// it); exhaustion falls back to boxed calls, never fails.
  std::vector<Slot> arena_;
  size_t arena_used_ = 0;
  bool typed_enabled_ = true;
};

}  // namespace minipy
}  // namespace mrs
