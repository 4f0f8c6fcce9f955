// The π-estimation inner loop under each "language" (paper Fig 3).
//
//   kNative   — C++ (the paper's ctypes C module)
//   kVm       — MiniPy bytecode VM, generic loop only (the paper's PyPy)
//   kVmTyped  — MiniPy bytecode VM with the typed, unboxed tier enabled
//               (analysis/typeinfer.h facts gate unboxed execution)
//   kTreeWalk — MiniPy tree-walking interpreter (the paper's pure Python)
//
// All engines count Halton points inside the quarter circle; the MiniPy
// engines execute HaltonPiMiniPySource().  kNative uses the incremental
// Halton generator; the MiniPy engines use the direct radical inverse, so
// counts may differ by floating-point hair on boundary points —
// EstimatePi agreement is asserted to 1e-3 in tests, not bit equality.
// kVm and kVmTyped, by contrast, are asserted *bit-identical*: the typed
// tier is an execution strategy, never a semantics change.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "common/status.h"
#include "halton/halton.h"

namespace mrs {

enum class PiEngine { kNative, kVm, kVmTyped, kTreeWalk };
/// Number of engines, for arrays indexed by PiEngine (kTreeWalk is last).
inline constexpr size_t kNumPiEngines =
    static_cast<size_t>(PiEngine::kTreeWalk) + 1;

/// Parse "native" / "vm" / "vm-typed" / "treewalk" (aliases: "c", "pypy",
/// "typed", "python").
Result<PiEngine> ParsePiEngine(const std::string& name);
std::string_view PiEngineName(PiEngine engine);

/// A per-thread π kernel.  Not thread-safe: create one per worker.
class PiKernel {
 public:
  static Result<std::unique_ptr<PiKernel>> Create(PiEngine engine);
  virtual ~PiKernel() = default;

  /// Count points with indices (start, start+count] inside the circle.
  virtual Result<uint64_t> CountInside(uint64_t start, uint64_t count) = 0;

  virtual PiEngine engine() const = 0;
};

}  // namespace mrs
