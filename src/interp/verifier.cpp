#include "interp/verifier.h"

#include <deque>

namespace mrs {
namespace minipy {

std::string VerifyIssue::ToString() const {
  std::string out = code + " in " + function;
  if (pc >= 0) out += " at pc " + std::to_string(pc);
  out += ": " + message;
  return out;
}

namespace {

constexpr int kMaxOp = static_cast<int>(Op::kLen);
constexpr int kMaxBinOp = static_cast<int>(BinOp::kOr);
constexpr int kMaxUnOp = static_cast<int>(UnOp::kNot);

class FunctionVerifier {
 public:
  FunctionVerifier(const CompiledModule& module, const CompiledFunction& fn,
                   const std::set<std::string>& hosts,
                   std::vector<VerifyIssue>* issues)
      : module_(module), fn_(fn), hosts_(hosts), issues_(issues) {}

  /// Returns the function's maximum operand-stack depth, or -1 on any
  /// issue.
  int Run() {
    size_t before = issues_->size();
    if (fn_.num_params < 0 || fn_.num_locals < 0 ||
        fn_.num_params > fn_.num_locals) {
      Issue("MBC507", -1,
            "invalid locals layout: " + std::to_string(fn_.num_params) +
                " params, " + std::to_string(fn_.num_locals) + " locals");
    }
    // Operand/target bounds hold for every instruction, reachable or not:
    // a frame with garbage anywhere is untrusted, and checking everything
    // keeps the mutated-frame corpus honest.
    for (size_t pc = 0; pc < fn_.code.size(); ++pc) {
      CheckStatic(static_cast<int>(pc), fn_.code[pc]);
    }
    // The compiler ends every function with a return, so an empty one is a
    // corrupt frame — and SimulateStack starts by reading instruction 0.
    if (fn_.code.empty()) {
      Issue("MBC508", -1, "empty function: no instructions");
    }
    if (issues_->size() != before) return -1;
    return SimulateStack() ? max_stack_ : -1;
  }

 private:
  void Issue(const char* code, int pc, std::string message) {
    issues_->push_back(VerifyIssue{code, fn_.name, pc, std::move(message)});
  }

  bool InBounds(int32_t v, size_t size) {
    return v >= 0 && static_cast<size_t>(v) < size;
  }

  void CheckStatic(int pc, const Instruction& ins) {
    int op = static_cast<int>(ins.op);
    if (op < 0 || op > kMaxOp) {
      Issue("MBC501", pc, "unknown opcode " + std::to_string(op));
      return;
    }
    switch (ins.op) {
      case Op::kLoadConst:
        if (!InBounds(ins.a, fn_.constants.size())) {
          Issue("MBC502", pc,
                "constant index " + std::to_string(ins.a) + " out of bounds");
        }
        break;
      case Op::kLoadLocal:
      case Op::kStoreLocal:
        if (!InBounds(ins.a, static_cast<size_t>(fn_.num_locals))) {
          Issue("MBC502", pc,
                "local slot " + std::to_string(ins.a) + " out of bounds");
        }
        break;
      case Op::kLoadGlobal:
      case Op::kStoreGlobal:
        if (!InBounds(ins.a, module_.global_names.size())) {
          Issue("MBC502", pc,
                "global slot " + std::to_string(ins.a) + " out of bounds");
        }
        break;
      case Op::kBinary:
        if (ins.a < 0 || ins.a > kMaxBinOp) {
          Issue("MBC502", pc, "invalid binary op " + std::to_string(ins.a));
        }
        break;
      case Op::kUnary:
        if (ins.a < 0 || ins.a > kMaxUnOp) {
          Issue("MBC502", pc, "invalid unary op " + std::to_string(ins.a));
        }
        break;
      case Op::kJump:
      case Op::kJumpIfFalse:
      case Op::kJumpIfFalsePeek:
      case Op::kJumpIfTruePeek:
        // Target == code size is legal: the dispatch loop exits and the
        // frame returns None, exactly like falling off the end.
        if (ins.a < 0 || static_cast<size_t>(ins.a) > fn_.code.size()) {
          Issue("MBC503", pc,
                "jump target " + std::to_string(ins.a) + " out of bounds");
        }
        break;
      case Op::kCallUser: {
        if (!InBounds(ins.a, module_.functions.size())) {
          Issue("MBC502", pc,
                "function index " + std::to_string(ins.a) + " out of bounds");
          break;
        }
        const CompiledFunction& callee =
            module_.functions[static_cast<size_t>(ins.a)];
        if (ins.b < 0 || ins.b != callee.num_params) {
          Issue("MBC506", pc,
                "call to " + callee.name + " with " + std::to_string(ins.b) +
                    " args, expects " + std::to_string(callee.num_params));
        }
        break;
      }
      case Op::kCallBuiltin: {
        if (!InBounds(ins.a, fn_.constants.size()) ||
            !fn_.constants[static_cast<size_t>(ins.a)].is_string()) {
          Issue("MBC506", pc, "builtin callee is not a string constant");
          break;
        }
        const std::string& name =
            fn_.constants[static_cast<size_t>(ins.a)].AsString();
        if (!IsBuiltin(name) && hosts_.find(name) == hosts_.end()) {
          Issue("MBC506", pc, "unknown builtin '" + name + "'");
        }
        if (ins.b < 0) {
          Issue("MBC506", pc, "negative argc " + std::to_string(ins.b));
        }
        break;
      }
      case Op::kBuildList:
        if (ins.a < 0) {
          Issue("MBC502", pc,
                "negative list length " + std::to_string(ins.a));
        }
        break;
      default:
        break;  // no operands
    }
  }

  /// Abstract interpretation: propagate the operand-stack depth along all
  /// control-flow edges from entry.  Every reachable instruction gets
  /// exactly one depth; disagreement at a merge is MBC505, dipping below
  /// zero is MBC504.
  bool SimulateStack() {
    const size_t n = fn_.code.size();
    std::vector<int> depth_at(n + 1, -1);  // -1 = not yet reached
    std::deque<size_t> worklist;
    depth_at[0] = 0;
    worklist.push_back(0);
    size_t before = issues_->size();

    auto flow = [&](size_t target, int depth) {
      if (depth_at[target] == -1) {
        depth_at[target] = depth;
        if (target < n) worklist.push_back(target);
      } else if (depth_at[target] != depth) {
        Issue("MBC505", static_cast<int>(target),
              "inconsistent stack depth at merge: " +
                  std::to_string(depth_at[target]) + " vs " +
                  std::to_string(depth));
      }
    };

    while (!worklist.empty() && issues_->size() == before) {
      size_t pc = worklist.front();
      worklist.pop_front();
      int depth = depth_at[pc];
      const Instruction& ins = fn_.code[pc];

      auto need = [&](int k) {
        if (depth < k) {
          Issue("MBC504", static_cast<int>(pc),
                "stack underflow: depth " + std::to_string(depth) +
                    ", need " + std::to_string(k));
          return false;
        }
        return true;
      };
      auto note = [&](int d) {
        if (d > max_stack_) max_stack_ = d;
      };

      switch (ins.op) {
        case Op::kLoadConst:
        case Op::kLoadLocal:
        case Op::kLoadGlobal:
          note(depth + 1);
          flow(pc + 1, depth + 1);
          break;
        case Op::kStoreLocal:
        case Op::kStoreGlobal:
        case Op::kPop:
          if (need(1)) flow(pc + 1, depth - 1);
          break;
        case Op::kBinary:
          if (need(2)) flow(pc + 1, depth - 1);
          break;
        case Op::kUnary:
        case Op::kLen:
          if (need(1)) flow(pc + 1, depth);
          break;
        case Op::kJump:
          flow(static_cast<size_t>(ins.a), depth);
          break;
        case Op::kJumpIfFalse:
          if (need(1)) {
            flow(static_cast<size_t>(ins.a), depth - 1);
            flow(pc + 1, depth - 1);
          }
          break;
        case Op::kJumpIfFalsePeek:
        case Op::kJumpIfTruePeek:
          // Branch taken keeps the tested value; fallthrough pops it.
          if (need(1)) {
            flow(static_cast<size_t>(ins.a), depth);
            flow(pc + 1, depth - 1);
          }
          break;
        case Op::kCallUser:
        case Op::kCallBuiltin:
          if (need(ins.b)) {
            note(depth - ins.b + 1);
            flow(pc + 1, depth - ins.b + 1);
          }
          break;
        case Op::kReturn:
          need(1);
          break;  // terminal
        case Op::kReturnNone:
          break;  // terminal
        case Op::kBuildList:
          if (need(ins.a)) {
            note(depth - ins.a + 1);
            flow(pc + 1, depth - ins.a + 1);
          }
          break;
        case Op::kIndex:
          if (need(2)) flow(pc + 1, depth - 1);
          break;
        case Op::kStoreIndex:
          if (need(3)) flow(pc + 1, depth - 3);
          break;
      }
    }
    return issues_->size() == before;
  }

  const CompiledModule& module_;
  const CompiledFunction& fn_;
  const std::set<std::string>& hosts_;
  std::vector<VerifyIssue>* issues_;
  int max_stack_ = 0;
};

int VerifyFunction(const CompiledModule& module, const CompiledFunction& fn,
                   const std::set<std::string>& hosts,
                   std::vector<VerifyIssue>* issues) {
  return FunctionVerifier(module, fn, hosts, issues).Run();
}

}  // namespace

std::vector<VerifyIssue> VerifyCompiledModule(
    const CompiledModule& module, const std::set<std::string>& host_functions) {
  std::vector<VerifyIssue> issues;
  for (const CompiledFunction& fn : module.functions) {
    VerifyFunction(module, fn, host_functions, &issues);
  }
  VerifyFunction(module, module.top_level, host_functions, &issues);
  return issues;
}

Status VerifyAndMark(CompiledModule& module,
                     const std::set<std::string>& host_functions) {
  std::vector<VerifyIssue> issues;
  std::vector<int> depths;
  depths.reserve(module.functions.size());
  for (const CompiledFunction& fn : module.functions) {
    depths.push_back(VerifyFunction(module, fn, host_functions, &issues));
  }
  int top_depth =
      VerifyFunction(module, module.top_level, host_functions, &issues);
  if (!issues.empty()) {
    std::string message = "bytecode verification failed: ";
    size_t show = issues.size() < 3 ? issues.size() : 3;
    for (size_t i = 0; i < show; ++i) {
      if (i > 0) message += "; ";
      message += issues[i].ToString();
    }
    if (issues.size() > show) {
      message += " (+" + std::to_string(issues.size() - show) + " more)";
    }
    return InvalidArgumentError(message);
  }
  for (size_t i = 0; i < module.functions.size(); ++i) {
    module.functions[i].max_stack = depths[i];
  }
  module.top_level.max_stack = top_depth;
  module.verified = true;
  return Status::Ok();
}

}  // namespace minipy
}  // namespace mrs
