// MiniPy runtime values and shared operator semantics.
//
// Both engines — the tree-walking interpreter ("CPython" stand-in) and the
// bytecode VM ("PyPy" stand-in) — operate on PyValue and must agree
// exactly; the operator semantics follow Python: / is true division,
// // floors, % takes the sign of the divisor, int+int stays int.
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "interp/ast.h"

namespace mrs {
namespace minipy {

class PyValue;
using PyList = std::vector<PyValue>;

class PyValue {
 public:
  enum class Type : uint8_t { kNone, kBool, kInt, kFloat, kString, kList };

  PyValue() : type_(Type::kNone) {}
  static PyValue Bool(bool b) {
    PyValue v;
    v.type_ = Type::kBool;
    v.int_ = b ? 1 : 0;
    return v;
  }
  PyValue(int64_t i) : type_(Type::kInt), int_(i) {}       // NOLINT
  PyValue(double d) : type_(Type::kFloat), float_(d) {}    // NOLINT
  PyValue(std::string s)                                    // NOLINT
      : type_(Type::kString), str_(std::make_shared<std::string>(std::move(s))) {}
  PyValue(PyList list)                                      // NOLINT
      : type_(Type::kList), list_(std::make_shared<PyList>(std::move(list))) {}

  Type type() const { return type_; }
  bool is_none() const { return type_ == Type::kNone; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_int() const { return type_ == Type::kInt; }
  bool is_float() const { return type_ == Type::kFloat; }
  bool is_numeric() const {
    return type_ == Type::kInt || type_ == Type::kFloat || type_ == Type::kBool;
  }
  bool is_string() const { return type_ == Type::kString; }
  bool is_list() const { return type_ == Type::kList; }

  /// The value of an int or a bool.  A float converts only through
  /// PyToInt, which checks its range.
  int64_t AsInt() const { return int_; }
  double AsFloat() const { return type_ == Type::kFloat ? float_ : static_cast<double>(int_); }
  bool AsBool() const;  // Python truthiness
  const std::string& AsString() const { return *str_; }
  PyList& AsList() { return *list_; }
  const PyList& AsList() const { return *list_; }
  const std::shared_ptr<PyList>& list_ptr() const { return list_; }

  /// Python repr-ish rendering for str()/print and error messages.
  std::string Repr() const;

  std::string_view TypeName() const;

 private:
  Type type_;
  int64_t int_ = 0;
  double float_ = 0.0;
  std::shared_ptr<std::string> str_;
  std::shared_ptr<PyList> list_;
};

/// Apply a binary operator with Python semantics.  kAnd/kOr are handled by
/// the engines (short-circuit) and rejected here.
Result<PyValue> ApplyBinary(BinOp op, const PyValue& a, const PyValue& b);

/// Apply a unary operator.
Result<PyValue> ApplyUnary(UnOp op, const PyValue& v);

/// Structural equality (used by == and tests).
bool PyEquals(const PyValue& a, const PyValue& b);

/// Built-in functions shared by both engines: len, abs, int, float, str,
/// bool, min, max, range, append, print.  Returns NotFound for unknown
/// names so engines can fall through to user functions.
Result<PyValue> CallBuiltin(const std::string& name,
                            std::vector<PyValue>& args);
bool IsBuiltin(const std::string& name);

/// The int `v` stands for where MiniPy needs one: int(), range() bounds
/// and subscripts.  A float truncates toward zero; NaN, the infinities and
/// floats outside int64 have no int value and are an OutOfRange error,
/// "cannot convert float <repr> to int", on every engine.  This is the
/// only float-to-int conversion in MiniPy.
Result<int64_t> PyToInt(const PyValue& v);

// Exact integer semantics shared by ApplyBinary, the builtins and the
// typed tier, the only places any engine does int arithmetic.  Every
// result wraps as in two's complement (modulo 2^64), so a kernel that
// overflows gets one defined answer on every engine: INT64_MAX + 1 and
// -INT64_MIN are INT64_MIN.
inline int64_t PyAddInt(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}
inline int64_t PySubInt(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}
inline int64_t PyMulInt(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) *
                              static_cast<uint64_t>(b));
}
inline int64_t PyNegInt(int64_t a) { return PySubInt(0, a); }
// Python floor division and sign-of-divisor modulo (callers reject
// b == 0).  INT64_MIN // -1, the one quotient that overflows, wraps
// (INT64_MIN, remainder 0) instead of trapping.
inline int64_t PyFloorDivInt(int64_t a, int64_t b) {
  if (b == -1) return PyNegInt(a);
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}
inline int64_t PyModInt(int64_t a, int64_t b) {
  if (b == -1) return 0;
  int64_t m = a % b;
  if (m != 0 && ((m < 0) != (b < 0))) m += b;
  return m;
}
/// Python float modulo (sign of the divisor), shared by ApplyBinary and
/// the typed tier so both produce bit-identical doubles.
inline double PyFModFloat(double a, double b) {
  double m = std::fmod(a, b);
  if (m != 0.0 && ((m < 0.0) != (b < 0.0))) m += b;
  return m;
}

}  // namespace minipy
}  // namespace mrs
