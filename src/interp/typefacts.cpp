#include "interp/typefacts.h"

#include <algorithm>
#include <array>

namespace mrs {
namespace minipy {

namespace {

constexpr std::array<ValueType, 6> kConcreteTypes = {
    ValueType::kNone, ValueType::kBool, ValueType::kInt,
    ValueType::kFloat, ValueType::kStr, ValueType::kList};

/// Concrete types admitted by an abstract operand.
std::vector<ValueType> Concretize(ValueType t) {
  if (t == ValueType::kBottom) return {};
  if (t == ValueType::kTop) {
    return {kConcreteTypes.begin(), kConcreteTypes.end()};
  }
  return {t};
}

/// int op int stays int, any float makes float; operands known numeric.
ValueType NumericResult(ValueType a, ValueType b) {
  if (a == ValueType::kFloat || b == ValueType::kFloat) {
    return ValueType::kFloat;
  }
  return ValueType::kInt;  // bool arithmetic yields int (0/1)
}

/// Result of `op` on two *concrete* operand types; kBottom + error=true
/// when that pairing always raises.  Mirrors ApplyBinary exactly.
ValueType ConcreteBinaryResult(BinOp op, ValueType a, ValueType b,
                               bool* error) {
  *error = false;
  const bool num = IsNumericType(a) && IsNumericType(b);
  switch (op) {
    case BinOp::kAdd:
      if (num) return NumericResult(a, b);
      if (a == ValueType::kStr && b == ValueType::kStr) return ValueType::kStr;
      if (a == ValueType::kList && b == ValueType::kList) {
        return ValueType::kList;
      }
      break;
    case BinOp::kSub:
    case BinOp::kMul:
      if (num) return NumericResult(a, b);
      break;
    case BinOp::kDiv:
      if (num) return ValueType::kFloat;  // true division
      break;
    case BinOp::kFloorDiv:
    case BinOp::kMod:
      if (num) return NumericResult(a, b);
      break;
    case BinOp::kPow:
      if (num) {
        // int ** int is int for exponent >= 0 but float below — the sign
        // is dynamic, so the static result is the join.
        if (a == ValueType::kInt && b == ValueType::kInt) {
          return ValueType::kTop;
        }
        return ValueType::kFloat;
      }
      break;
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kGt:
    case BinOp::kGe:
      if (num || (a == ValueType::kStr && b == ValueType::kStr)) {
        return ValueType::kBool;
      }
      break;
    case BinOp::kEq:
    case BinOp::kNe:
      return ValueType::kBool;  // equality never raises
    case BinOp::kAnd:
    case BinOp::kOr:
      break;  // must short-circuit in the engine; reaching here raises
  }
  *error = true;
  return ValueType::kBottom;
}

ValueType ConcreteUnaryResult(UnOp op, ValueType v, bool* error) {
  *error = false;
  if (op == UnOp::kNot) return ValueType::kBool;  // truthiness never raises
  if (v == ValueType::kInt || v == ValueType::kBool) return ValueType::kInt;
  if (v == ValueType::kFloat) return ValueType::kFloat;
  *error = true;
  return ValueType::kBottom;
}

ValueType ConcreteIndexResult(ValueType base, ValueType index, bool* error) {
  *error = false;
  if (!IsNumericType(index)) {
    *error = true;
    return ValueType::kBottom;
  }
  if (base == ValueType::kList) return ValueType::kTop;  // element type lost
  if (base == ValueType::kStr) return ValueType::kStr;
  *error = true;
  return ValueType::kBottom;
}

ValueType ConcreteLenResult(ValueType v, bool* error) {
  *error = false;
  if (v == ValueType::kList || v == ValueType::kStr) return ValueType::kInt;
  *error = true;
  return ValueType::kBottom;
}

/// Join `concrete_fn` over every concrete pairing admitted by (a, b).
/// guaranteed_error = every pairing raises (and at least one exists).
template <typename Fn>
ValueType JoinOverPairs(ValueType a, ValueType b, bool* guaranteed_error,
                        Fn&& concrete_fn) {
  ValueType result = ValueType::kBottom;
  bool any = false;
  bool all_error = true;
  for (ValueType ca : Concretize(a)) {
    for (ValueType cb : Concretize(b)) {
      any = true;
      bool err = false;
      ValueType r = concrete_fn(ca, cb, &err);
      if (err) continue;
      all_error = false;
      result = JoinType(result, r);
    }
  }
  if (guaranteed_error != nullptr) *guaranteed_error = any && all_error;
  return result;
}

template <typename Fn>
ValueType JoinOverSingles(ValueType v, bool* guaranteed_error,
                          Fn&& concrete_fn) {
  ValueType result = ValueType::kBottom;
  bool any = false;
  bool all_error = true;
  for (ValueType cv : Concretize(v)) {
    any = true;
    bool err = false;
    ValueType r = concrete_fn(cv, &err);
    if (err) continue;
    all_error = false;
    result = JoinType(result, r);
  }
  if (guaranteed_error != nullptr) *guaranteed_error = any && all_error;
  return result;
}

}  // namespace

ValueType TypeOf(const PyValue& v) {
  switch (v.type()) {
    case PyValue::Type::kNone: return ValueType::kNone;
    case PyValue::Type::kBool: return ValueType::kBool;
    case PyValue::Type::kInt: return ValueType::kInt;
    case PyValue::Type::kFloat: return ValueType::kFloat;
    case PyValue::Type::kString: return ValueType::kStr;
    case PyValue::Type::kList: return ValueType::kList;
  }
  return ValueType::kTop;
}

std::string_view TypeDisplayName(ValueType t) {
  switch (t) {
    case ValueType::kBottom: return "<unreachable>";
    case ValueType::kNone: return "NoneType";
    case ValueType::kBool: return "bool";
    case ValueType::kInt: return "int";
    case ValueType::kFloat: return "float";
    case ValueType::kStr: return "str";
    case ValueType::kList: return "list";
    case ValueType::kTop: return "any";
  }
  return "?";
}

ValueType BinaryResultType(BinOp op, ValueType a, ValueType b,
                           bool* guaranteed_error) {
  return JoinOverPairs(a, b, guaranteed_error,
                       [op](ValueType ca, ValueType cb, bool* err) {
                         return ConcreteBinaryResult(op, ca, cb, err);
                       });
}

ValueType UnaryResultType(UnOp op, ValueType v, bool* guaranteed_error) {
  return JoinOverSingles(v, guaranteed_error,
                         [op](ValueType cv, bool* err) {
                           return ConcreteUnaryResult(op, cv, err);
                         });
}

ValueType IndexResultType(ValueType base, ValueType index,
                          bool* guaranteed_error) {
  return JoinOverPairs(base, index, guaranteed_error,
                       ConcreteIndexResult);
}

ValueType LenResultType(ValueType v, bool* guaranteed_error) {
  return JoinOverSingles(v, guaranteed_error, ConcreteLenResult);
}

void StoreIndexCheck(ValueType base, ValueType index, bool* guaranteed_error) {
  JoinOverPairs(base, index, guaranteed_error,
                [](ValueType cb, ValueType ci, bool* err) {
                  *err = !(cb == ValueType::kList && IsNumericType(ci));
                  return ValueType::kNone;
                });
}

ValueType BuiltinResultType(const std::string& name,
                            const std::vector<ValueType>& args,
                            bool* guaranteed_error) {
  if (guaranteed_error != nullptr) *guaranteed_error = false;
  auto arity_is = [&](size_t n) { return args.size() == n; };
  if (name == "len") {
    if (!arity_is(1)) goto arity_error;
    return LenResultType(args[0], guaranteed_error);
  }
  if (name == "abs") {
    if (!arity_is(1)) goto arity_error;
    return JoinOverSingles(args[0], guaranteed_error,
                           [](ValueType cv, bool* err) {
                             *err = false;
                             if (cv == ValueType::kInt ||
                                 cv == ValueType::kBool) {
                               return ValueType::kInt;
                             }
                             if (cv == ValueType::kFloat) {
                               return ValueType::kFloat;
                             }
                             *err = true;
                             return ValueType::kBottom;
                           });
  }
  if (name == "int" || name == "float") {
    const ValueType out =
        name == "int" ? ValueType::kInt : ValueType::kFloat;
    if (!arity_is(1)) goto arity_error;
    return JoinOverSingles(args[0], guaranteed_error,
                           [out](ValueType cv, bool* err) {
                             // Numeric converts; str may parse (dynamic);
                             // everything else raises.
                             *err = !(IsNumericType(cv) ||
                                      cv == ValueType::kStr);
                             return out;
                           });
  }
  if (name == "str") {
    if (!arity_is(1)) goto arity_error;
    if (args[0] == ValueType::kBottom) return ValueType::kBottom;
    return ValueType::kStr;
  }
  if (name == "bool") {
    if (!arity_is(1)) goto arity_error;
    if (args[0] == ValueType::kBottom) return ValueType::kBottom;
    return ValueType::kBool;
  }
  if (name == "min" || name == "max") {
    if (args.empty()) goto arity_error;
    // min/max return one of their arguments (or a list element).  A
    // single-list form or any non-numeric/unknown argument degrades to
    // kTop; otherwise the result is the join of the argument types.
    ValueType join = ValueType::kBottom;
    for (ValueType t : args) {
      if (!IsNumericType(t)) return ValueType::kTop;
      join = JoinType(join, t);
    }
    if (args.size() == 1) return args[0];  // min(x) == x for numeric x
    return join;
  }
  if (name == "range") {
    if (args.empty() || args.size() > 3) goto arity_error;
    return ValueType::kList;
  }
  if (name == "append") {
    if (!arity_is(2)) goto arity_error;
    if (guaranteed_error != nullptr) {
      // append() demands a list first argument.
      *guaranteed_error = IsConcreteType(args[0]) &&
                          args[0] != ValueType::kList;
    }
    return ValueType::kNone;
  }
  if (name == "print") {
    return ValueType::kNone;  // any arity
  }
  return ValueType::kTop;  // unknown (host) function
arity_error:
  if (guaranteed_error != nullptr) *guaranteed_error = true;
  return ValueType::kBottom;
}

bool GlobalGuardCovered(const FunctionFacts& caller,
                        const FunctionFacts& callee) {
  for (const auto& [slot, need] : callee.global_reads) {
    if (!TypeLe(caller.GlobalType(slot), need)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Transfer.

namespace {

Status Underflow(const CompiledFunction& fn, int pc) {
  return InvalidArgumentError("type facts: " + fn.name + " pc " +
                              std::to_string(pc) +
                              ": claimed stack underflows instruction");
}

}  // namespace

std::vector<bool> LocalsReadBeforeAssign(const CompiledFunction& fn) {
  const int n = static_cast<int>(fn.code.size());
  const size_t nlocals = static_cast<size_t>(fn.num_locals);
  std::vector<bool> observed(nlocals, false);
  if (n == 0 || nlocals == 0) return observed;

  // Forward may-analysis: per pc, which locals might still be unassigned
  // on some path reaching it.  Merge is OR; parameters start assigned.
  std::vector<std::vector<bool>> maybe(static_cast<size_t>(n));
  std::vector<bool> entry(nlocals, true);
  for (int i = 0; i < fn.num_params && i < fn.num_locals; ++i) {
    entry[static_cast<size_t>(i)] = false;
  }
  std::vector<int> worklist;
  auto join_into = [&](int pc, const std::vector<bool>& st) -> bool {
    std::vector<bool>& row = maybe[static_cast<size_t>(pc)];
    if (row.empty()) {
      row = st;
      return true;
    }
    bool changed = false;
    for (size_t i = 0; i < nlocals; ++i) {
      if (st[i] && !row[i]) {
        row[i] = true;
        changed = true;
      }
    }
    return changed;
  };
  join_into(0, entry);
  worklist.push_back(0);
  while (!worklist.empty()) {
    int pc = worklist.back();
    worklist.pop_back();
    std::vector<bool> st = maybe[static_cast<size_t>(pc)];
    const Instruction& ins = fn.code[static_cast<size_t>(pc)];
    std::vector<int> succs;
    switch (ins.op) {
      case Op::kLoadLocal:
        if (st[static_cast<size_t>(ins.a)]) {
          observed[static_cast<size_t>(ins.a)] = true;
        }
        succs.push_back(pc + 1);
        break;
      case Op::kStoreLocal:
        st[static_cast<size_t>(ins.a)] = false;
        succs.push_back(pc + 1);
        break;
      case Op::kJump:
        succs.push_back(ins.a);
        break;
      case Op::kJumpIfFalse:
      case Op::kJumpIfFalsePeek:
      case Op::kJumpIfTruePeek:
        succs.push_back(ins.a);
        succs.push_back(pc + 1);
        break;
      case Op::kReturn:
      case Op::kReturnNone:
        break;
      default:
        succs.push_back(pc + 1);
        break;
    }
    for (int succ : succs) {
      if (succ < 0 || succ >= n) continue;  // fall-off-end reads nothing
      if (join_into(succ, st)) worklist.push_back(succ);
    }
  }
  return observed;
}

AbstractState EntryState(const CompiledFunction& fn,
                         const std::vector<ValueType>& params) {
  AbstractState entry;
  entry.locals.assign(static_cast<size_t>(fn.num_locals), ValueType::kNone);
  std::vector<bool> observed = LocalsReadBeforeAssign(fn);
  for (int i = 0; i < fn.num_locals; ++i) {
    if (!observed[static_cast<size_t>(i)]) {
      entry.locals[static_cast<size_t>(i)] = ValueType::kBottom;
    }
  }
  for (size_t i = 0; i < params.size(); ++i) {
    entry.locals[i] = params[i];
  }
  return entry;
}

Result<TransferStep> TransferInstruction(const CompiledModule& module,
                                         const CompiledFunction& fn, int pc,
                                         const AbstractState& in,
                                         const TransferHooks& hooks) {
  const Instruction& ins = fn.code[static_cast<size_t>(pc)];
  TransferStep step;
  AbstractState st = in;
  const int next = pc + 1;

  auto pop = [&](ValueType* out) -> bool {
    if (st.stack.empty()) return false;
    *out = st.stack.back();
    st.stack.pop_back();
    return true;
  };
  auto push = [&](ValueType t) { st.stack.push_back(t); };
  auto flow_to = [&](int target) {
    step.successors.emplace_back(target, st);
  };
  auto abort_frame = [&] {
    step.guaranteed_error = true;
    step.successors.clear();
  };

  switch (ins.op) {
    case Op::kLoadConst:
      push(TypeOf(fn.constants[static_cast<size_t>(ins.a)]));
      flow_to(next);
      break;
    case Op::kLoadLocal:
      push(st.locals[static_cast<size_t>(ins.a)]);
      flow_to(next);
      break;
    case Op::kStoreLocal: {
      ValueType v;
      if (!pop(&v)) return Underflow(fn, pc);
      st.locals[static_cast<size_t>(ins.a)] = v;
      flow_to(next);
      break;
    }
    case Op::kLoadGlobal:
      push(hooks.global_type ? hooks.global_type(ins.a) : ValueType::kTop);
      flow_to(next);
      break;
    case Op::kStoreGlobal: {
      ValueType v;
      if (!pop(&v)) return Underflow(fn, pc);
      flow_to(next);
      break;
    }
    case Op::kBinary: {
      ValueType b, a;
      if (!pop(&b) || !pop(&a)) return Underflow(fn, pc);
      bool err = false;
      ValueType r = BinaryResultType(static_cast<BinOp>(ins.a), a, b, &err);
      if (err) {
        abort_frame();
        break;
      }
      push(r);
      flow_to(next);
      break;
    }
    case Op::kUnary: {
      ValueType v;
      if (!pop(&v)) return Underflow(fn, pc);
      bool err = false;
      ValueType r = UnaryResultType(static_cast<UnOp>(ins.a), v, &err);
      if (err) {
        abort_frame();
        break;
      }
      push(r);
      flow_to(next);
      break;
    }
    case Op::kJump:
      flow_to(ins.a);
      break;
    case Op::kJumpIfFalse: {
      ValueType v;
      if (!pop(&v)) return Underflow(fn, pc);
      flow_to(ins.a);
      flow_to(next);
      break;
    }
    case Op::kJumpIfFalsePeek:
    case Op::kJumpIfTruePeek: {
      if (st.stack.empty()) return Underflow(fn, pc);
      flow_to(ins.a);  // branch taken: value stays on the stack
      st.stack.pop_back();
      flow_to(next);  // fall through: value popped
      break;
    }
    case Op::kPop: {
      ValueType v;
      if (!pop(&v)) return Underflow(fn, pc);
      flow_to(next);
      break;
    }
    case Op::kCallUser: {
      const CompiledFunction& callee =
          module.functions[static_cast<size_t>(ins.a)];
      const int argc = ins.b;
      if (argc != callee.num_params) {
        abort_frame();  // arity mismatch raises at runtime
        break;
      }
      if (static_cast<size_t>(argc) > st.stack.size()) {
        return Underflow(fn, pc);
      }
      std::vector<ValueType> args(st.stack.end() - argc, st.stack.end());
      st.stack.resize(st.stack.size() - static_cast<size_t>(argc));
      push(hooks.call_result ? hooks.call_result(ins.a, args)
                             : ValueType::kTop);
      flow_to(next);
      break;
    }
    case Op::kCallBuiltin: {
      const std::string& name =
          fn.constants[static_cast<size_t>(ins.a)].AsString();
      const int argc = ins.b;
      if (static_cast<size_t>(argc) > st.stack.size()) {
        return Underflow(fn, pc);
      }
      std::vector<ValueType> args(st.stack.end() - argc, st.stack.end());
      st.stack.resize(st.stack.size() - static_cast<size_t>(argc));
      if (hooks.is_host && hooks.is_host(name)) {
        push(ValueType::kTop);
        flow_to(next);
        break;
      }
      bool err = false;
      ValueType r = BuiltinResultType(name, args, &err);
      if (err) {
        abort_frame();
        break;
      }
      push(r);
      flow_to(next);
      break;
    }
    case Op::kReturn: {
      ValueType v;
      if (!pop(&v)) return Underflow(fn, pc);
      step.returns = true;
      step.return_type = v;
      break;
    }
    case Op::kReturnNone:
      step.returns = true;
      step.return_type = ValueType::kNone;
      break;
    case Op::kBuildList: {
      if (static_cast<size_t>(ins.a) > st.stack.size()) {
        return Underflow(fn, pc);
      }
      st.stack.resize(st.stack.size() - static_cast<size_t>(ins.a));
      push(ValueType::kList);
      flow_to(next);
      break;
    }
    case Op::kIndex: {
      ValueType index, base;
      if (!pop(&index) || !pop(&base)) return Underflow(fn, pc);
      bool err = false;
      ValueType r = IndexResultType(base, index, &err);
      if (err) {
        abort_frame();
        break;
      }
      push(r);
      flow_to(next);
      break;
    }
    case Op::kStoreIndex: {
      ValueType value, index, base;
      if (!pop(&value) || !pop(&index) || !pop(&base)) {
        return Underflow(fn, pc);
      }
      bool err = false;
      StoreIndexCheck(base, index, &err);
      if (err) {
        abort_frame();
        break;
      }
      flow_to(next);
      break;
    }
    case Op::kLen: {
      ValueType v;
      if (!pop(&v)) return Underflow(fn, pc);
      bool err = false;
      ValueType r = LenResultType(v, &err);
      if (err) {
        abort_frame();
        break;
      }
      push(r);
      flow_to(next);
      break;
    }
  }
  return step;
}

// ---------------------------------------------------------------------------
// The linear checker.

namespace {

bool StateLeRow(const AbstractState& st, const TypeRow& row) {
  if (!row.reachable) return false;
  if (st.locals.size() != row.locals.size()) return false;
  if (st.stack.size() != row.stack.size()) return false;
  for (size_t i = 0; i < st.locals.size(); ++i) {
    if (!TypeLe(st.locals[i], row.locals[i])) return false;
  }
  for (size_t i = 0; i < st.stack.size(); ++i) {
    if (!TypeLe(st.stack[i], row.stack[i])) return false;
  }
  return true;
}

Status CheckFunctionFacts(const CompiledModule& module,
                          const TypeFactTable& table, size_t fn_index,
                          const std::set<std::string>& host_names) {
  const CompiledFunction& fn = module.functions[fn_index];
  const FunctionFacts& facts = table.functions[fn_index];
  auto reject = [&](const std::string& why) {
    return InvalidArgumentError("type facts rejected: " + fn.name + ": " +
                                why);
  };

  if (static_cast<int>(facts.params.size()) != fn.num_params) {
    return reject("params arity mismatch");
  }
  if (fn.num_params > fn.num_locals) return reject("params exceed locals");
  if (facts.rows.size() != fn.code.size()) return reject("rows size mismatch");
  int32_t prev_slot = -1;
  for (const auto& [slot, type] : facts.global_reads) {
    if (slot <= prev_slot) return reject("global reads not sorted/unique");
    if (slot < 0 ||
        static_cast<size_t>(slot) >= module.global_names.size()) {
      return reject("global read slot out of range");
    }
    prev_slot = slot;
    (void)type;
  }

  TransferHooks hooks;
  hooks.global_type = [&facts](int32_t slot) {
    return facts.GlobalType(slot);
  };
  hooks.call_result = [&table, &facts](int callee_index,
                                       const std::vector<ValueType>& args) {
    const FunctionFacts& callee =
        table.functions[static_cast<size_t>(callee_index)];
    if (args == callee.params && GlobalGuardCovered(facts, callee)) {
      return callee.ret;
    }
    return ValueType::kTop;
  };
  hooks.is_host = [&host_names](const std::string& name) {
    return host_names.count(name) > 0;
  };

  if (fn.code.empty()) {
    // Empty code falls off the end immediately: returns None.
    if (!TypeLe(ValueType::kNone, facts.ret)) return reject("ret excludes None");
    return Status::Ok();
  }

  // Entry: parameters per the guard; other locals None (the VM
  // default-constructs them) unless provably never read unassigned, in
  // which case kBottom — the shared EntryState rule.
  AbstractState entry = EntryState(fn, facts.params);
  if (!StateLeRow(entry, facts.rows[0])) {
    return reject("entry state not covered by pc 0 row");
  }

  const int code_size = static_cast<int>(fn.code.size());
  for (int pc = 0; pc < code_size; ++pc) {
    const TypeRow& row = facts.rows[static_cast<size_t>(pc)];
    if (!row.reachable) continue;
    if (static_cast<int>(row.locals.size()) != fn.num_locals) {
      return reject("pc " + std::to_string(pc) + ": bad locals arity");
    }
    if (static_cast<int>(row.stack.size()) > fn.max_stack) {
      return reject("pc " + std::to_string(pc) + ": stack exceeds max_stack");
    }
    AbstractState in{row.locals, row.stack};
    Result<TransferStep> step =
        TransferInstruction(module, fn, pc, in, hooks);
    if (!step.ok()) return step.status();
    if (step->returns && !TypeLe(step->return_type, facts.ret)) {
      return reject("pc " + std::to_string(pc) +
                    ": return type not covered by claimed ret");
    }
    for (const auto& [succ, state] : step->successors) {
      if (succ < 0 || succ > code_size) {
        return reject("pc " + std::to_string(pc) + ": successor out of range");
      }
      if (succ == code_size) {
        // Fall off the end: the VM returns None there.
        if (!TypeLe(ValueType::kNone, facts.ret)) {
          return reject("implicit return not covered by claimed ret");
        }
        continue;
      }
      if (!StateLeRow(state, facts.rows[static_cast<size_t>(succ)])) {
        return reject("pc " + std::to_string(pc) + " -> " +
                      std::to_string(succ) + ": claim does not cover flow");
      }
    }
  }
  return Status::Ok();
}

}  // namespace

Status CheckTypeFacts(const CompiledModule& module, const TypeFactTable& table,
                      const std::set<std::string>& host_names) {
  if (!module.verified) {
    return FailedPreconditionError(
        "type facts: module must pass the bytecode verifier first");
  }
  if (table.functions.size() != module.functions.size()) {
    return InvalidArgumentError("type facts rejected: function count " +
                                std::to_string(table.functions.size()) +
                                " != module " +
                                std::to_string(module.functions.size()));
  }
  // Global-type stability: an entry guard is checked once, on entry, so a
  // global it constrains must not change type afterwards.  Claims about
  // what a function stores are conditional on *its* guard — and a deopted
  // (guard-failed) frame runs the same kStoreGlobal generically — so the
  // only acceptable proof is syntactic: no function stores to a guarded
  // slot at all.  Top-level stores are fine; top-level runs once, at
  // load, before any guard is ever evaluated.
  std::set<int32_t> guarded;
  for (const FunctionFacts& f : table.functions) {
    for (const auto& [slot, t] : f.global_reads) {
      if (t != ValueType::kTop) guarded.insert(slot);
    }
  }
  if (!guarded.empty()) {
    for (const CompiledFunction& fn : module.functions) {
      for (const Instruction& ins : fn.code) {
        if (ins.op == Op::kStoreGlobal && guarded.count(ins.a) > 0) {
          return InvalidArgumentError(
              "type facts rejected: " + fn.name + " stores global '" +
              module.global_names[static_cast<size_t>(ins.a)] +
              "' whose type another guard relies on");
        }
      }
    }
  }
  for (size_t i = 0; i < module.functions.size(); ++i) {
    MRS_RETURN_IF_ERROR(CheckFunctionFacts(module, table, i, host_names));
  }
  return Status::Ok();
}

}  // namespace minipy
}  // namespace mrs
