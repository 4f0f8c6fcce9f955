#include "interp/treewalk.h"

#include "interp/parser.h"

namespace mrs {
namespace minipy {

Status TreeWalker::ErrorAt(int line, const std::string& message) const {
  return InvalidArgumentError("line " + std::to_string(line) + ": " + message);
}

Status TreeWalker::LoadSource(std::string_view source) {
  MRS_ASSIGN_OR_RETURN(std::shared_ptr<Module> module, Parse(source));
  return LoadModule(std::move(module));
}

Status TreeWalker::LoadModule(std::shared_ptr<Module> module) {
  modules_.push_back(module);
  Frame top;  // module top level: locals are the globals
  PyValue ret;
  for (const StmtPtr& stmt : module->body) {
    if (stmt->kind == Stmt::Kind::kDef) {
      functions_[stmt->target] = FunctionDef{stmt.get()};
      continue;
    }
    MRS_ASSIGN_OR_RETURN(Flow flow, Exec(*stmt, &top, &ret));
    if (flow != Flow::kNormal) {
      return ErrorAt(stmt->line, "invalid control flow at module level");
    }
  }
  // Module-level assignments become globals.
  for (auto& [name, value] : top.locals) globals_[name] = value;
  return Status::Ok();
}

Result<PyValue> TreeWalker::GetGlobal(const std::string& name) const {
  auto it = globals_.find(name);
  if (it == globals_.end()) return NotFoundError("no global named " + name);
  return it->second;
}

Result<PyValue> TreeWalker::Call(const std::string& function,
                                 std::vector<PyValue> args) {
  auto it = functions_.find(function);
  if (it == functions_.end()) {
    return NotFoundError("no function named " + function);
  }
  return CallFunction(it->second, std::move(args));
}

Result<PyValue> TreeWalker::CallFunction(const FunctionDef& fn,
                                         std::vector<PyValue> args) {
  const Stmt& def = *fn.def;
  if (args.size() != def.params.size()) {
    return ErrorAt(def.line,
                   def.target + "() takes " +
                       std::to_string(def.params.size()) + " arguments, got " +
                       std::to_string(args.size()));
  }
  Frame frame;
  for (size_t i = 0; i < args.size(); ++i) {
    frame.locals[def.params[i]] = std::move(args[i]);
  }
  PyValue ret;
  MRS_ASSIGN_OR_RETURN(Flow flow, ExecBlock(def.body, &frame, &ret));
  if (flow == Flow::kBreak || flow == Flow::kContinue) {
    return ErrorAt(def.line, "break/continue outside loop");
  }
  return ret;  // None if no return executed
}

Result<TreeWalker::Flow> TreeWalker::ExecBlock(
    const std::vector<StmtPtr>& body, Frame* frame, PyValue* return_value) {
  for (const StmtPtr& stmt : body) {
    MRS_ASSIGN_OR_RETURN(Flow flow, Exec(*stmt, frame, return_value));
    if (flow != Flow::kNormal) return flow;
  }
  return Flow::kNormal;
}

Result<TreeWalker::Flow> TreeWalker::Exec(const Stmt& stmt, Frame* frame,
                                          PyValue* return_value) {
  switch (stmt.kind) {
    case Stmt::Kind::kExpr: {
      MRS_ASSIGN_OR_RETURN(PyValue v, Eval(*stmt.expr, frame));
      (void)v;
      return Flow::kNormal;
    }
    case Stmt::Kind::kAssign: {
      MRS_ASSIGN_OR_RETURN(PyValue value, Eval(*stmt.expr, frame));
      if (stmt.index_base != nullptr) {
        MRS_ASSIGN_OR_RETURN(PyValue base, Eval(*stmt.index_base, frame));
        MRS_ASSIGN_OR_RETURN(PyValue index, Eval(*stmt.index_expr, frame));
        if (!base.is_list() || !index.is_numeric()) {
          return ErrorAt(stmt.line, "invalid subscript assignment");
        }
        Result<int64_t> checked = PyToInt(index);
        if (!checked.ok()) {
          return ErrorAt(stmt.line, checked.status().message());
        }
        int64_t i = *checked;
        PyList& list = base.AsList();
        if (i < 0) i += static_cast<int64_t>(list.size());
        if (i < 0 || i >= static_cast<int64_t>(list.size())) {
          return ErrorAt(stmt.line, "list index out of range");
        }
        list[static_cast<size_t>(i)] = std::move(value);
      } else {
        frame->locals[stmt.target] = std::move(value);
      }
      return Flow::kNormal;
    }
    case Stmt::Kind::kAugAssign: {
      auto it = frame->locals.find(stmt.target);
      PyValue current;
      if (it != frame->locals.end()) {
        current = it->second;
      } else {
        auto git = globals_.find(stmt.target);
        if (git == globals_.end()) {
          return ErrorAt(stmt.line, "name '" + stmt.target + "' is not defined");
        }
        current = git->second;
      }
      MRS_ASSIGN_OR_RETURN(PyValue rhs, Eval(*stmt.expr, frame));
      MRS_ASSIGN_OR_RETURN(PyValue result,
                           ApplyBinary(stmt.aug_op, current, rhs));
      frame->locals[stmt.target] = std::move(result);
      return Flow::kNormal;
    }
    case Stmt::Kind::kReturn: {
      if (stmt.expr != nullptr) {
        MRS_ASSIGN_OR_RETURN(*return_value, Eval(*stmt.expr, frame));
      } else {
        *return_value = PyValue();
      }
      return Flow::kReturn;
    }
    case Stmt::Kind::kIf: {
      for (size_t arm = 0; arm < stmt.arm_conds.size(); ++arm) {
        MRS_ASSIGN_OR_RETURN(PyValue cond, Eval(*stmt.arm_conds[arm], frame));
        if (cond.AsBool()) {
          return ExecBlock(stmt.arm_bodies[arm], frame, return_value);
        }
      }
      if (!stmt.else_body.empty()) {
        return ExecBlock(stmt.else_body, frame, return_value);
      }
      return Flow::kNormal;
    }
    case Stmt::Kind::kWhile: {
      while (true) {
        MRS_ASSIGN_OR_RETURN(PyValue cond, Eval(*stmt.cond, frame));
        if (!cond.AsBool()) break;
        MRS_ASSIGN_OR_RETURN(Flow flow,
                             ExecBlock(stmt.body, frame, return_value));
        if (flow == Flow::kReturn) return Flow::kReturn;
        if (flow == Flow::kBreak) break;
      }
      return Flow::kNormal;
    }
    case Stmt::Kind::kFor: {
      MRS_ASSIGN_OR_RETURN(PyValue iterable, Eval(*stmt.cond, frame));
      if (!iterable.is_list()) {
        return ErrorAt(stmt.line, "for loop requires a list");
      }
      // Iterate over a snapshot reference; mutation during iteration is
      // visible (like Python), so index by position.
      std::shared_ptr<PyList> list = iterable.list_ptr();
      for (size_t i = 0; i < list->size(); ++i) {
        frame->locals[stmt.target] = (*list)[i];
        MRS_ASSIGN_OR_RETURN(Flow flow,
                             ExecBlock(stmt.body, frame, return_value));
        if (flow == Flow::kReturn) return Flow::kReturn;
        if (flow == Flow::kBreak) break;
      }
      return Flow::kNormal;
    }
    case Stmt::Kind::kBreak:
      return Flow::kBreak;
    case Stmt::Kind::kContinue:
      return Flow::kContinue;
    case Stmt::Kind::kPass:
      return Flow::kNormal;
    case Stmt::Kind::kDef:
      functions_[stmt.target] = FunctionDef{&stmt};
      return Flow::kNormal;
  }
  return InternalError("unknown statement kind");
}

Result<PyValue> TreeWalker::Eval(const Expr& expr, Frame* frame) {
  switch (expr.kind) {
    case Expr::Kind::kIntLit:
      return PyValue(expr.int_value);
    case Expr::Kind::kFloatLit:
      return PyValue(expr.float_value);
    case Expr::Kind::kStringLit:
      return PyValue(expr.name);
    case Expr::Kind::kBoolLit:
      return PyValue::Bool(expr.bool_value);
    case Expr::Kind::kNoneLit:
      return PyValue();
    case Expr::Kind::kName: {
      auto it = frame->locals.find(expr.name);
      if (it != frame->locals.end()) return it->second;
      auto git = globals_.find(expr.name);
      if (git != globals_.end()) return git->second;
      return ErrorAt(expr.line, "name '" + expr.name + "' is not defined");
    }
    case Expr::Kind::kBinary: {
      if (expr.bin_op == BinOp::kAnd || expr.bin_op == BinOp::kOr) {
        MRS_ASSIGN_OR_RETURN(PyValue lhs, Eval(*expr.lhs, frame));
        bool truthy = lhs.AsBool();
        if (expr.bin_op == BinOp::kAnd && !truthy) return lhs;
        if (expr.bin_op == BinOp::kOr && truthy) return lhs;
        return Eval(*expr.rhs, frame);
      }
      MRS_ASSIGN_OR_RETURN(PyValue lhs, Eval(*expr.lhs, frame));
      MRS_ASSIGN_OR_RETURN(PyValue rhs, Eval(*expr.rhs, frame));
      Result<PyValue> out = ApplyBinary(expr.bin_op, lhs, rhs);
      if (!out.ok()) return ErrorAt(expr.line, out.status().message());
      return out;
    }
    case Expr::Kind::kUnary: {
      MRS_ASSIGN_OR_RETURN(PyValue operand, Eval(*expr.lhs, frame));
      Result<PyValue> out = ApplyUnary(expr.un_op, operand);
      if (!out.ok()) return ErrorAt(expr.line, out.status().message());
      return out;
    }
    case Expr::Kind::kCall: {
      std::vector<PyValue> args;
      args.reserve(expr.args.size());
      for (const ExprPtr& arg : expr.args) {
        MRS_ASSIGN_OR_RETURN(PyValue v, Eval(*arg, frame));
        args.push_back(std::move(v));
      }
      auto it = functions_.find(expr.name);
      if (it != functions_.end()) {
        return CallFunction(it->second, std::move(args));
      }
      if (IsBuiltin(expr.name)) {
        Result<PyValue> out = CallBuiltin(expr.name, args);
        if (!out.ok()) return ErrorAt(expr.line, out.status().message());
        return out;
      }
      return ErrorAt(expr.line, "no function named '" + expr.name + "'");
    }
    case Expr::Kind::kListLit: {
      PyList items;
      items.reserve(expr.args.size());
      for (const ExprPtr& elem : expr.args) {
        MRS_ASSIGN_OR_RETURN(PyValue v, Eval(*elem, frame));
        items.push_back(std::move(v));
      }
      return PyValue(std::move(items));
    }
    case Expr::Kind::kIndex: {
      MRS_ASSIGN_OR_RETURN(PyValue base, Eval(*expr.lhs, frame));
      MRS_ASSIGN_OR_RETURN(PyValue index, Eval(*expr.rhs, frame));
      if (!index.is_numeric()) {
        return ErrorAt(expr.line, "list index must be an integer");
      }
      Result<int64_t> checked = PyToInt(index);
      if (!checked.ok()) {
        return ErrorAt(expr.line, checked.status().message());
      }
      int64_t i = *checked;
      if (base.is_list()) {
        const PyList& list = base.AsList();
        if (i < 0) i += static_cast<int64_t>(list.size());
        if (i < 0 || i >= static_cast<int64_t>(list.size())) {
          return ErrorAt(expr.line, "list index out of range");
        }
        return list[static_cast<size_t>(i)];
      }
      if (base.is_string()) {
        const std::string& s = base.AsString();
        if (i < 0) i += static_cast<int64_t>(s.size());
        if (i < 0 || i >= static_cast<int64_t>(s.size())) {
          return ErrorAt(expr.line, "string index out of range");
        }
        return PyValue(std::string(1, s[static_cast<size_t>(i)]));
      }
      return ErrorAt(expr.line, "object is not subscriptable");
    }
  }
  return InternalError("unknown expression kind");
}

}  // namespace minipy
}  // namespace mrs
