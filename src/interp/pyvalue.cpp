#include "interp/pyvalue.h"

#include <cmath>
#include <cstdio>

#include "common/strings.h"

namespace mrs {
namespace minipy {

bool PyValue::AsBool() const {
  switch (type_) {
    case Type::kNone: return false;
    case Type::kBool:
    case Type::kInt: return int_ != 0;
    case Type::kFloat: return float_ != 0.0;
    case Type::kString: return !str_->empty();
    case Type::kList: return !list_->empty();
  }
  return false;
}

std::string_view PyValue::TypeName() const {
  switch (type_) {
    case Type::kNone: return "NoneType";
    case Type::kBool: return "bool";
    case Type::kInt: return "int";
    case Type::kFloat: return "float";
    case Type::kString: return "str";
    case Type::kList: return "list";
  }
  return "?";
}

std::string PyValue::Repr() const {
  switch (type_) {
    case Type::kNone: return "None";
    case Type::kBool: return int_ != 0 ? "True" : "False";
    case Type::kInt: return std::to_string(int_);
    case Type::kFloat: {
      std::string s = StrPrintf("%.12g", float_);
      if (s.find('.') == std::string::npos &&
          s.find('e') == std::string::npos &&
          s.find("inf") == std::string::npos &&
          s.find("nan") == std::string::npos) {
        s += ".0";
      }
      return s;
    }
    case Type::kString: return *str_;
    case Type::kList: {
      std::string out = "[";
      for (size_t i = 0; i < list_->size(); ++i) {
        if (i > 0) out += ", ";
        out += (*list_)[i].Repr();
      }
      return out + "]";
    }
  }
  return "?";
}

namespace {

Status TypeError(std::string_view what, const PyValue& a, const PyValue& b) {
  return InvalidArgumentError("unsupported operand types for " +
                              std::string(what) + ": " +
                              std::string(a.TypeName()) + " and " +
                              std::string(b.TypeName()));
}

int CompareNumeric(const PyValue& a, const PyValue& b) {
  if (a.is_int() && b.is_int()) {  // exact beyond 2^53, as the typed tier
    int64_t x = a.AsInt();
    int64_t y = b.AsInt();
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  double x = a.AsFloat();
  double y = b.AsFloat();
  if (x < y) return -1;
  if (x > y) return 1;
  return 0;
}

}  // namespace

Result<int64_t> PyToInt(const PyValue& v) {
  if (!v.is_float()) return v.AsInt();
  // Every double in [-2^63, 2^63) truncates into int64; NaN fails both
  // comparisons, and is named without the sign its bits happen to carry.
  const double d = v.AsFloat();
  if (d >= -0x1p63 && d < 0x1p63) return static_cast<int64_t>(d);
  return OutOfRangeError("cannot convert float " +
                         (std::isnan(d) ? std::string("nan") : v.Repr()) +
                         " to int");
}

bool PyEquals(const PyValue& a, const PyValue& b) {
  if (a.is_numeric() && b.is_numeric()) {
    if (a.is_int() && b.is_int()) return a.AsInt() == b.AsInt();
    return a.AsFloat() == b.AsFloat();
  }
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case PyValue::Type::kNone: return true;
    case PyValue::Type::kString: return a.AsString() == b.AsString();
    case PyValue::Type::kList: {
      const PyList& la = a.AsList();
      const PyList& lb = b.AsList();
      if (la.size() != lb.size()) return false;
      for (size_t i = 0; i < la.size(); ++i) {
        if (!PyEquals(la[i], lb[i])) return false;
      }
      return true;
    }
    default: return false;
  }
}

Result<PyValue> ApplyBinary(BinOp op, const PyValue& a, const PyValue& b) {
  switch (op) {
    case BinOp::kAdd:
      if (a.is_numeric() && b.is_numeric()) {
        if (a.is_float() || b.is_float()) return PyValue(a.AsFloat() + b.AsFloat());
        return PyValue(PyAddInt(a.AsInt(), b.AsInt()));
      }
      if (a.is_string() && b.is_string()) return PyValue(a.AsString() + b.AsString());
      if (a.is_list() && b.is_list()) {
        PyList out = a.AsList();
        out.insert(out.end(), b.AsList().begin(), b.AsList().end());
        return PyValue(std::move(out));
      }
      return TypeError("+", a, b);
    case BinOp::kSub:
      if (a.is_numeric() && b.is_numeric()) {
        if (a.is_float() || b.is_float()) return PyValue(a.AsFloat() - b.AsFloat());
        return PyValue(PySubInt(a.AsInt(), b.AsInt()));
      }
      return TypeError("-", a, b);
    case BinOp::kMul:
      if (a.is_numeric() && b.is_numeric()) {
        if (a.is_float() || b.is_float()) return PyValue(a.AsFloat() * b.AsFloat());
        return PyValue(PyMulInt(a.AsInt(), b.AsInt()));
      }
      return TypeError("*", a, b);
    case BinOp::kDiv:
      if (a.is_numeric() && b.is_numeric()) {
        if (b.AsFloat() == 0.0) return InvalidArgumentError("division by zero");
        return PyValue(a.AsFloat() / b.AsFloat());
      }
      return TypeError("/", a, b);
    case BinOp::kFloorDiv:
      if (a.is_numeric() && b.is_numeric()) {
        if (a.is_float() || b.is_float()) {
          if (b.AsFloat() == 0.0) return InvalidArgumentError("division by zero");
          return PyValue(std::floor(a.AsFloat() / b.AsFloat()));
        }
        if (b.AsInt() == 0) return InvalidArgumentError("division by zero");
        return PyValue(PyFloorDivInt(a.AsInt(), b.AsInt()));
      }
      return TypeError("//", a, b);
    case BinOp::kMod:
      if (a.is_numeric() && b.is_numeric()) {
        if (a.is_float() || b.is_float()) {
          if (b.AsFloat() == 0.0) return InvalidArgumentError("modulo by zero");
          return PyValue(PyFModFloat(a.AsFloat(), b.AsFloat()));
        }
        if (b.AsInt() == 0) return InvalidArgumentError("modulo by zero");
        return PyValue(PyModInt(a.AsInt(), b.AsInt()));
      }
      return TypeError("%", a, b);
    case BinOp::kPow:
      if (a.is_numeric() && b.is_numeric()) {
        if (a.is_int() && b.is_int() && b.AsInt() >= 0) {
          int64_t base = a.AsInt();
          int64_t exp = b.AsInt();
          int64_t out = 1;
          while (exp > 0) {
            if (exp & 1) out = PyMulInt(out, base);
            base = PyMulInt(base, base);
            exp >>= 1;
          }
          return PyValue(out);
        }
        return PyValue(std::pow(a.AsFloat(), b.AsFloat()));
      }
      return TypeError("**", a, b);
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kGt:
    case BinOp::kGe: {
      int c;
      if (a.is_numeric() && b.is_numeric()) {
        c = CompareNumeric(a, b);
      } else if (a.is_string() && b.is_string()) {
        c = a.AsString().compare(b.AsString());
        c = c < 0 ? -1 : (c > 0 ? 1 : 0);
      } else {
        return TypeError("comparison", a, b);
      }
      bool r = false;
      if (op == BinOp::kLt) r = c < 0;
      if (op == BinOp::kLe) r = c <= 0;
      if (op == BinOp::kGt) r = c > 0;
      if (op == BinOp::kGe) r = c >= 0;
      return PyValue::Bool(r);
    }
    case BinOp::kEq:
      return PyValue::Bool(PyEquals(a, b));
    case BinOp::kNe:
      return PyValue::Bool(!PyEquals(a, b));
    case BinOp::kAnd:
    case BinOp::kOr:
      return InternalError("and/or must short-circuit in the engine");
  }
  return InternalError("unknown binary operator");
}

Result<PyValue> ApplyUnary(UnOp op, const PyValue& v) {
  if (op == UnOp::kNot) return PyValue::Bool(!v.AsBool());
  // kNeg
  if (v.is_int() || v.is_bool()) return PyValue(PyNegInt(v.AsInt()));
  if (v.is_float()) return PyValue(-v.AsFloat());
  return InvalidArgumentError("bad operand type for unary -: " +
                              std::string(v.TypeName()));
}

bool IsBuiltin(const std::string& name) {
  static const char* kNames[] = {"len", "abs", "int",   "float", "str", "bool",
                                 "min", "max", "range", "append", "print"};
  for (const char* n : kNames) {
    if (name == n) return true;
  }
  return false;
}

Result<PyValue> CallBuiltin(const std::string& name,
                            std::vector<PyValue>& args) {
  auto arity = [&](size_t n) -> Status {
    if (args.size() != n) {
      return InvalidArgumentError(name + "() takes " + std::to_string(n) +
                                  " arguments, got " +
                                  std::to_string(args.size()));
    }
    return Status::Ok();
  };
  if (name == "len") {
    MRS_RETURN_IF_ERROR(arity(1));
    if (args[0].is_string()) {
      return PyValue(static_cast<int64_t>(args[0].AsString().size()));
    }
    if (args[0].is_list()) {
      return PyValue(static_cast<int64_t>(args[0].AsList().size()));
    }
    return InvalidArgumentError("object has no len()");
  }
  if (name == "abs") {
    MRS_RETURN_IF_ERROR(arity(1));
    if (args[0].is_int() || args[0].is_bool()) {
      int64_t v = args[0].AsInt();
      return PyValue(v < 0 ? PyNegInt(v) : v);
    }
    if (args[0].is_float()) return PyValue(std::fabs(args[0].AsFloat()));
    return InvalidArgumentError("bad operand for abs()");
  }
  if (name == "int") {
    MRS_RETURN_IF_ERROR(arity(1));
    if (args[0].is_numeric()) {
      MRS_ASSIGN_OR_RETURN(int64_t i, PyToInt(args[0]));
      return PyValue(i);
    }
    if (args[0].is_string()) {
      auto v = ParseInt64(Trim(args[0].AsString()));
      if (!v.has_value()) return InvalidArgumentError("bad int literal");
      return PyValue(*v);
    }
    return InvalidArgumentError("bad operand for int()");
  }
  if (name == "float") {
    MRS_RETURN_IF_ERROR(arity(1));
    if (args[0].is_numeric()) return PyValue(args[0].AsFloat());
    if (args[0].is_string()) {
      auto v = ParseDouble(Trim(args[0].AsString()));
      if (!v.has_value()) return InvalidArgumentError("bad float literal");
      return PyValue(*v);
    }
    return InvalidArgumentError("bad operand for float()");
  }
  if (name == "str") {
    MRS_RETURN_IF_ERROR(arity(1));
    return PyValue(args[0].Repr());
  }
  if (name == "bool") {
    MRS_RETURN_IF_ERROR(arity(1));
    return PyValue::Bool(args[0].AsBool());
  }
  if (name == "min" || name == "max") {
    if (args.empty()) return InvalidArgumentError(name + "() needs arguments");
    std::vector<PyValue>* items = &args;
    if (args.size() == 1 && args[0].is_list()) items = &args[0].AsList();
    if (items->empty()) return InvalidArgumentError(name + "() of empty list");
    PyValue best = (*items)[0];
    for (size_t i = 1; i < items->size(); ++i) {
      MRS_ASSIGN_OR_RETURN(
          PyValue less, ApplyBinary(BinOp::kLt, (*items)[i], best));
      bool take = less.AsBool();
      if (name == "max") take = !take && !PyEquals((*items)[i], best);
      if (take) best = (*items)[i];
    }
    return best;
  }
  if (name == "range") {
    if (args.empty() || args.size() > 3) {
      return InvalidArgumentError("range() takes 1-3 arguments");
    }
    // range(stop), range(start, stop) or range(start, stop, step).
    int64_t bounds[3] = {0, 0, 1};
    const size_t first = args.size() == 1 ? 1 : 0;
    for (size_t i = 0; i < args.size(); ++i) {
      MRS_ASSIGN_OR_RETURN(bounds[first + i], PyToInt(args[i]));
    }
    const int64_t start = bounds[0], stop = bounds[1], step = bounds[2];
    if (step == 0) return InvalidArgumentError("range() step must not be 0");
    // Stop at the last element instead of stepping past it, so no step
    // leaves int64: `left` is the exact distance to `stop` as unsigned.
    const uint64_t stride = step > 0 ? static_cast<uint64_t>(step)
                                     : 0 - static_cast<uint64_t>(step);
    PyList out;
    for (int64_t i = start; step > 0 ? i < stop : i > stop; i += step) {
      out.push_back(PyValue(i));
      const uint64_t left =
          step > 0 ? static_cast<uint64_t>(stop) - static_cast<uint64_t>(i)
                   : static_cast<uint64_t>(i) - static_cast<uint64_t>(stop);
      if (left <= stride) break;
    }
    return PyValue(std::move(out));
  }
  if (name == "append") {
    MRS_RETURN_IF_ERROR(arity(2));
    if (!args[0].is_list()) {
      return InvalidArgumentError("append() first argument must be a list");
    }
    args[0].AsList().push_back(args[1]);
    return PyValue();
  }
  if (name == "print") {
    std::string line;
    for (size_t i = 0; i < args.size(); ++i) {
      if (i > 0) line += ' ';
      line += args[i].Repr();
    }
    line += '\n';
    std::fwrite(line.data(), 1, line.size(), stdout);
    return PyValue();
  }
  return NotFoundError("no builtin named " + name);
}

}  // namespace minipy
}  // namespace mrs
