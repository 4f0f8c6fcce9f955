#include "interp/vm.h"

#include <cmath>
#include <cstdlib>

#include "interp/verifier.h"
#include "obs/metrics.h"

namespace mrs {
namespace minipy {

namespace {

// Slot capacity of the typed-frame arena (512 KiB).  Deep enough for
// thousands of typed frames; beyond that, calls degrade to the boxed path.
constexpr size_t kArenaSlots = 1 << 16;

obs::Counter* DeoptCounter() {
  static obs::Counter* c =
      obs::Registry::Instance().GetCounter("mrs.vm.deopts");
  return c;
}
obs::Counter* TypedCallCounter() {
  static obs::Counter* c =
      obs::Registry::Instance().GetCounter("mrs.vm.typed_calls");
  return c;
}
obs::Counter* FactsRejectedCounter() {
  static obs::Counter* c =
      obs::Registry::Instance().GetCounter("mrs.vm.type_facts_rejected");
  return c;
}

bool EvalCmpI(BinOp op, int64_t x, int64_t y) {
  switch (op) {
    case BinOp::kLt: return x < y;
    case BinOp::kLe: return x <= y;
    case BinOp::kGt: return x > y;
    case BinOp::kGe: return x >= y;
    case BinOp::kEq: return x == y;
    case BinOp::kNe: return x != y;
    default: return false;
  }
}

bool EvalCmpF(BinOp op, double x, double y) {
  switch (op) {
    case BinOp::kLt: return x < y;
    case BinOp::kLe: return x <= y;
    case BinOp::kGt: return x > y;
    case BinOp::kGe: return x >= y;
    case BinOp::kEq: return x == y;
    case BinOp::kNe: return x != y;
    default: return false;
  }
}

PyValue BoxSlot(ValueType t, Slot s) {
  switch (t) {
    case ValueType::kInt: return PyValue(s.i);
    case ValueType::kBool: return PyValue::Bool(s.i != 0);
    case ValueType::kFloat: return PyValue(s.d);
    default: return PyValue();  // None (and vacuous bottom claims)
  }
}

}  // namespace

void Vm::RegisterHost(std::string name, HostFn fn) {
  host_[std::move(name)] = std::move(fn);
}

Status Vm::LoadSource(std::string_view source) {
  CompileOptions options;
  for (const auto& [name, fn] : host_) options.host_functions.insert(name);
  MRS_ASSIGN_OR_RETURN(std::shared_ptr<CompiledModule> module,
                       CompileSource(source, options));
  return LoadModule(std::move(module));
}

Status Vm::LoadModule(std::shared_ptr<CompiledModule> module) {
  if (!module->verified) {
    std::set<std::string> hosts;
    for (const auto& [name, fn] : host_) hosts.insert(name);
    MRS_RETURN_IF_ERROR(VerifyAndMark(*module, hosts));
  }
  module_ = std::move(module);
  globals_.assign(module_->global_names.size(), PyValue());
  // Top-level code always runs generic: globals are still being born, so
  // no guard could be stable yet.
  typed_.functions.clear();
  arena_used_ = 0;
  Result<PyValue> init = RunFunction(module_->top_level, {});
  if (!init.ok()) return init.status();

  const char* no_typed = std::getenv("MRS_NO_TYPED_TIER");
  if (!typed_enabled_ || (no_typed != nullptr && *no_typed != '\0') ||
      module_->type_facts == nullptr) {
    return Status::Ok();
  }
  std::set<std::string> hosts;
  for (const auto& [name, fn] : host_) hosts.insert(name);
  Status facts_ok = CheckTypeFacts(*module_, *module_->type_facts, hosts);
  if (!facts_ok.ok()) {
    // Corrupted or forged table: discard entirely, run generic-only.
    FactsRejectedCounter()->Inc();
    return Status::Ok();
  }
  typed_ = BuildTypedModule(*module_, *module_->type_facts);
  bool any = false;
  for (const TypedFunction& fn : typed_.functions) any |= fn.eligible;
  if (any && arena_.empty()) arena_.resize(kArenaSlots);
  return Status::Ok();
}

Result<PyValue> Vm::GetGlobal(const std::string& name) const {
  for (size_t i = 0; i < module_->global_names.size(); ++i) {
    if (module_->global_names[i] == name) return globals_[i];
  }
  return NotFoundError("no global named " + name);
}

bool Vm::HasTypedFunction(const std::string& name) const {
  if (module_ == nullptr) return false;
  int index = module_->FunctionIndex(name);
  if (index < 0 || static_cast<size_t>(index) >= typed_.functions.size()) {
    return false;
  }
  return typed_.functions[static_cast<size_t>(index)].eligible;
}

Result<PyValue> Vm::Call(const std::string& function,
                         std::vector<PyValue> args) {
  if (module_ == nullptr) return FailedPreconditionError("no module loaded");
  int index = module_->FunctionIndex(function);
  if (index < 0) return NotFoundError("no function named " + function);
  const CompiledFunction& fn = module_->functions[static_cast<size_t>(index)];
  if (static_cast<int>(args.size()) != fn.num_params) {
    return InvalidArgumentError(function + "() takes " +
                                std::to_string(fn.num_params) +
                                " arguments, got " +
                                std::to_string(args.size()));
  }
  return DispatchCall(index, std::move(args));
}

Result<PyValue> Vm::DispatchCall(int fn_index, std::vector<PyValue> args) {
  const CompiledFunction& fn =
      module_->functions[static_cast<size_t>(fn_index)];
  if (static_cast<size_t>(fn_index) < typed_.functions.size()) {
    const TypedFunction& tfn =
        typed_.functions[static_cast<size_t>(fn_index)];
    if (tfn.eligible) {
      if (!TypedGuardAccepts(tfn, args, globals_)) {
        // Live values violate the inferred signature: fall back to the
        // generic loop for this call (results stay identical, just slow).
        DeoptCounter()->Inc();
      } else if (arena_used_ + static_cast<size_t>(tfn.num_slots) <=
                 arena_.size()) {
        TypedCallCounter()->Inc();
        Slot* frame = arena_.data() + arena_used_;
        arena_used_ += static_cast<size_t>(tfn.num_slots);
        for (size_t i = 0; i < args.size(); ++i) {
          if (tfn.param_types[i] == ValueType::kFloat) {
            frame[i].d = args[i].AsFloat();
          } else {
            frame[i].i = args[i].AsInt();
          }
        }
        Slot r;
        r.i = 0;
        Status st = RunTypedFunction(tfn, frame, &r);
        arena_used_ -= static_cast<size_t>(tfn.num_slots);
        if (!st.ok()) return st;
        return BoxSlot(tfn.ret, r);
      }
      // Arena exhausted (pathological recursion): boxed fallback below.
    }
  }
  return RunFunction(fn, std::move(args));
}

Status Vm::BoxedCallFromTyped(const TypedFunction& tfn, int gc_index,
                              int32_t first, Slot* frame, Slot* out) {
  const GenericCallInfo& gc =
      tfn.generic_calls[static_cast<size_t>(gc_index)];
  std::vector<PyValue> args;
  args.reserve(gc.arg_types.size());
  for (size_t i = 0; i < gc.arg_types.size(); ++i) {
    args.push_back(BoxSlot(gc.arg_types[i], frame[first + static_cast<int>(i)]));
  }
  Result<PyValue> r = DispatchCall(gc.fn_index, std::move(args));
  if (!r.ok()) return r.status();
  const PyValue& v = r.value();
  // The claimed result type passed CheckTypeFacts, so a mismatch here
  // means a checker bug, not bad input — but slots must never be
  // reinterpreted, so verify before unboxing.
  if (!TypeLe(TypeOf(v), gc.result_type)) {
    return InternalError("typed tier: " + tfn.name +
                         ": call result type drifted from checked facts");
  }
  if (gc.result_type == ValueType::kFloat) {
    out->d = v.AsFloat();
  } else {
    out->i = v.AsInt();
  }
  return Status::Ok();
}

// Computed-goto dispatch where the compiler supports labels-as-values
// (GCC/Clang); portable switch loop otherwise.  Handler bodies are shared
// between both via the OP/NEXT/JUMP_TO macros.
#if defined(__GNUC__) || defined(__clang__)
#define MRS_TYPED_COMPUTED_GOTO 1
#endif

Status Vm::RunTypedFunction(const TypedFunction& tfn, Slot* frame,
                            Slot* ret) {
  for (int i = tfn.num_params; i < tfn.num_slots; ++i) frame[i].i = 0;
  const TInstr* code = tfn.code.data();
  const TInstr* ins = code;
  auto runtime_error = [&](const char* message) {
    return InvalidArgumentError("in " + tfn.name + ": " + message);
  };

#ifdef MRS_TYPED_COMPUTED_GOTO
#define OP(name) lbl_##name:
#define NEXT()                                     \
  do {                                             \
    ++ins;                                         \
    goto* kLabels[static_cast<size_t>(ins->op)];   \
  } while (0)
#define JUMP_TO(target)                            \
  do {                                             \
    ins = code + (target);                         \
    goto* kLabels[static_cast<size_t>(ins->op)];   \
  } while (0)
  // Order must match enum class TOp exactly.
  static const void* kLabels[] = {
      &&lbl_kLoadI, &&lbl_kLoadF, &&lbl_kMov, &&lbl_kCvtIF, &&lbl_kLoadGI,
      &&lbl_kLoadGF, &&lbl_kAddI, &&lbl_kSubI, &&lbl_kMulI,
      &&lbl_kFloorDivI, &&lbl_kModI, &&lbl_kDivIF, &&lbl_kAddF,
      &&lbl_kSubF, &&lbl_kMulF, &&lbl_kFloorDivF, &&lbl_kModF, &&lbl_kDivF,
      &&lbl_kAddIC, &&lbl_kSubIC, &&lbl_kMulIC, &&lbl_kFloorDivIC,
      &&lbl_kModIC, &&lbl_kDivIFC, &&lbl_kRSubIC, &&lbl_kAddFC,
      &&lbl_kSubFC, &&lbl_kMulFC, &&lbl_kDivFC, &&lbl_kRSubFC,
      &&lbl_kRDivFC, &&lbl_kNegI, &&lbl_kNegF, &&lbl_kNotI, &&lbl_kNotF,
      &&lbl_kCmpI, &&lbl_kCmpF, &&lbl_kCmpIC, &&lbl_kCmpFC, &&lbl_kJump,
      &&lbl_kBrFalseI, &&lbl_kBrFalseF, &&lbl_kBrTrueI, &&lbl_kBrTrueF,
      &&lbl_kBrCmpFalseI, &&lbl_kBrCmpFalseF, &&lbl_kBrCmpFalseIC,
      &&lbl_kBrCmpFalseFC, &&lbl_kCallT, &&lbl_kCallG, &&lbl_kRet,
      &&lbl_kRetImm, &&lbl_kRetNone,
  };
  goto* kLabels[static_cast<size_t>(ins->op)];
#else
#define OP(name) case TOp::name:
#define NEXT()   \
  do {           \
    ++ins;       \
    continue;    \
  } while (0)
#define JUMP_TO(target)     \
  do {                      \
    ins = code + (target);  \
    continue;               \
  } while (0)
  for (;;) {
    switch (ins->op) {
#endif

  OP(kLoadI) { frame[ins->a] = ins->imm; } NEXT();
  OP(kLoadF) { frame[ins->a] = ins->imm; } NEXT();
  OP(kMov) { frame[ins->a] = frame[ins->b]; } NEXT();
  OP(kCvtIF) { frame[ins->a].d = static_cast<double>(frame[ins->b].i); }
  NEXT();
  OP(kLoadGI) {
    frame[ins->a].i = globals_[static_cast<size_t>(ins->b)].AsInt();
  }
  NEXT();
  OP(kLoadGF) {
    frame[ins->a].d = globals_[static_cast<size_t>(ins->b)].AsFloat();
  }
  NEXT();

  OP(kAddI) {
    frame[ins->a].i = PyAddInt(frame[ins->b].i, frame[ins->c].i);
  }
  NEXT();
  OP(kSubI) {
    frame[ins->a].i = PySubInt(frame[ins->b].i, frame[ins->c].i);
  }
  NEXT();
  OP(kMulI) {
    frame[ins->a].i = PyMulInt(frame[ins->b].i, frame[ins->c].i);
  }
  NEXT();
  OP(kFloorDivI) {
    const int64_t y = frame[ins->c].i;
    if (y == 0) return runtime_error("division by zero");
    frame[ins->a].i = PyFloorDivInt(frame[ins->b].i, y);
  }
  NEXT();
  OP(kModI) {
    const int64_t y = frame[ins->c].i;
    if (y == 0) return runtime_error("modulo by zero");
    frame[ins->a].i = PyModInt(frame[ins->b].i, y);
  }
  NEXT();
  OP(kDivIF) {
    const int64_t y = frame[ins->c].i;
    if (y == 0) return runtime_error("division by zero");
    frame[ins->a].d =
        static_cast<double>(frame[ins->b].i) / static_cast<double>(y);
  }
  NEXT();
  OP(kAddF) { frame[ins->a].d = frame[ins->b].d + frame[ins->c].d; } NEXT();
  OP(kSubF) { frame[ins->a].d = frame[ins->b].d - frame[ins->c].d; } NEXT();
  OP(kMulF) { frame[ins->a].d = frame[ins->b].d * frame[ins->c].d; } NEXT();
  OP(kFloorDivF) {
    const double y = frame[ins->c].d;
    if (y == 0.0) return runtime_error("division by zero");
    frame[ins->a].d = std::floor(frame[ins->b].d / y);
  }
  NEXT();
  OP(kModF) {
    const double y = frame[ins->c].d;
    if (y == 0.0) return runtime_error("modulo by zero");
    frame[ins->a].d = PyFModFloat(frame[ins->b].d, y);
  }
  NEXT();
  OP(kDivF) {
    const double y = frame[ins->c].d;
    if (y == 0.0) return runtime_error("division by zero");
    frame[ins->a].d = frame[ins->b].d / y;
  }
  NEXT();

  OP(kAddIC) {
    frame[ins->a].i = PyAddInt(frame[ins->b].i, ins->imm.i);
  }
  NEXT();
  OP(kSubIC) {
    frame[ins->a].i = PySubInt(frame[ins->b].i, ins->imm.i);
  }
  NEXT();
  OP(kMulIC) {
    frame[ins->a].i = PyMulInt(frame[ins->b].i, ins->imm.i);
  }
  NEXT();
  OP(kFloorDivIC) {
    frame[ins->a].i = PyFloorDivInt(frame[ins->b].i, ins->imm.i);
  }
  NEXT();
  OP(kModIC) { frame[ins->a].i = PyModInt(frame[ins->b].i, ins->imm.i); }
  NEXT();
  OP(kDivIFC) {
    frame[ins->a].d = static_cast<double>(frame[ins->b].i) /
                      static_cast<double>(ins->imm.i);
  }
  NEXT();
  OP(kRSubIC) {
    frame[ins->a].i = PySubInt(ins->imm.i, frame[ins->b].i);
  }
  NEXT();
  OP(kAddFC) { frame[ins->a].d = frame[ins->b].d + ins->imm.d; } NEXT();
  OP(kSubFC) { frame[ins->a].d = frame[ins->b].d - ins->imm.d; } NEXT();
  OP(kMulFC) { frame[ins->a].d = frame[ins->b].d * ins->imm.d; } NEXT();
  OP(kDivFC) { frame[ins->a].d = frame[ins->b].d / ins->imm.d; } NEXT();
  OP(kRSubFC) { frame[ins->a].d = ins->imm.d - frame[ins->b].d; } NEXT();
  OP(kRDivFC) {
    const double y = frame[ins->b].d;
    if (y == 0.0) return runtime_error("division by zero");
    frame[ins->a].d = ins->imm.d / y;
  }
  NEXT();

  OP(kNegI) { frame[ins->a].i = PyNegInt(frame[ins->b].i); } NEXT();
  OP(kNegF) { frame[ins->a].d = -frame[ins->b].d; } NEXT();
  OP(kNotI) { frame[ins->a].i = frame[ins->b].i == 0 ? 1 : 0; } NEXT();
  OP(kNotF) { frame[ins->a].i = frame[ins->b].d == 0.0 ? 1 : 0; } NEXT();

  OP(kCmpI) {
    frame[ins->a].i =
        EvalCmpI(ins->cmp, frame[ins->b].i, frame[ins->c].i) ? 1 : 0;
  }
  NEXT();
  OP(kCmpF) {
    frame[ins->a].i =
        EvalCmpF(ins->cmp, frame[ins->b].d, frame[ins->c].d) ? 1 : 0;
  }
  NEXT();
  OP(kCmpIC) {
    frame[ins->a].i = EvalCmpI(ins->cmp, frame[ins->b].i, ins->imm.i) ? 1 : 0;
  }
  NEXT();
  OP(kCmpFC) {
    frame[ins->a].i = EvalCmpF(ins->cmp, frame[ins->b].d, ins->imm.d) ? 1 : 0;
  }
  NEXT();

  OP(kJump) { JUMP_TO(ins->a); }
  OP(kBrFalseI) {
    if (frame[ins->b].i == 0) JUMP_TO(ins->a);
  }
  NEXT();
  OP(kBrFalseF) {
    if (frame[ins->b].d == 0.0) JUMP_TO(ins->a);
  }
  NEXT();
  OP(kBrTrueI) {
    if (frame[ins->b].i != 0) JUMP_TO(ins->a);
  }
  NEXT();
  OP(kBrTrueF) {
    if (frame[ins->b].d != 0.0) JUMP_TO(ins->a);
  }
  NEXT();
  OP(kBrCmpFalseI) {
    if (!EvalCmpI(ins->cmp, frame[ins->b].i, frame[ins->c].i)) {
      JUMP_TO(ins->a);
    }
  }
  NEXT();
  OP(kBrCmpFalseF) {
    if (!EvalCmpF(ins->cmp, frame[ins->b].d, frame[ins->c].d)) {
      JUMP_TO(ins->a);
    }
  }
  NEXT();
  OP(kBrCmpFalseIC) {
    if (!EvalCmpI(ins->cmp, frame[ins->b].i, ins->imm.i)) JUMP_TO(ins->a);
  }
  NEXT();
  OP(kBrCmpFalseFC) {
    if (!EvalCmpF(ins->cmp, frame[ins->b].d, ins->imm.d)) JUMP_TO(ins->a);
  }
  NEXT();

  OP(kCallT) {
    const TypedFunction& callee =
        typed_.functions[static_cast<size_t>(ins->b)];
    if (arena_used_ + static_cast<size_t>(callee.num_slots) <=
        arena_.size()) {
      Slot* child = arena_.data() + arena_used_;
      arena_used_ += static_cast<size_t>(callee.num_slots);
      for (int i = 0; i < callee.num_params; ++i) {
        child[i] = frame[ins->c + i];
      }
      Slot r;
      r.i = 0;
      Status st = RunTypedFunction(callee, child, &r);
      arena_used_ -= static_cast<size_t>(callee.num_slots);
      if (!st.ok()) return st;
      frame[ins->a] = r;
    } else {
      // Arena exhausted: same call, boxed (imm.i holds the metadata).
      Status st = BoxedCallFromTyped(tfn, static_cast<int>(ins->imm.i),
                                     ins->c, frame, &frame[ins->a]);
      if (!st.ok()) return st;
    }
  }
  NEXT();
  OP(kCallG) {
    Status st = BoxedCallFromTyped(tfn, ins->b, ins->c, frame,
                                   &frame[ins->a]);
    if (!st.ok()) return st;
  }
  NEXT();

  OP(kRet) {
    *ret = frame[ins->b];
    return Status::Ok();
  }
  OP(kRetImm) {
    *ret = ins->imm;
    return Status::Ok();
  }
  OP(kRetNone) { return Status::Ok(); }

#ifndef MRS_TYPED_COMPUTED_GOTO
    }
    return InternalError("typed tier: invalid opcode");
  }
#endif
#undef OP
#undef NEXT
#undef JUMP_TO
}

Result<PyValue> Vm::RunFunction(const CompiledFunction& fn,
                                std::vector<PyValue> args) {
  std::vector<PyValue> locals(static_cast<size_t>(fn.num_locals));
  for (size_t i = 0; i < args.size(); ++i) locals[i] = std::move(args[i]);
  std::vector<PyValue> stack;
  // The verifier computed the exact peak operand depth, so one reservation
  // covers the whole frame (LoadModule guarantees max_stack is filled in).
  stack.reserve(fn.max_stack > 0 ? static_cast<size_t>(fn.max_stack) : 16);

  const Instruction* code = fn.code.data();
  size_t pc = 0;
  const size_t code_size = fn.code.size();

  auto runtime_error = [&](const std::string& message) {
    return InvalidArgumentError("in " + fn.name + ": " + message);
  };

  while (pc < code_size) {
    const Instruction& ins = code[pc++];
    switch (ins.op) {
      case Op::kLoadConst:
        stack.push_back(fn.constants[static_cast<size_t>(ins.a)]);
        break;
      case Op::kLoadLocal:
        stack.push_back(locals[static_cast<size_t>(ins.a)]);
        break;
      case Op::kStoreLocal:
        locals[static_cast<size_t>(ins.a)] = std::move(stack.back());
        stack.pop_back();
        break;
      case Op::kLoadGlobal: {
        PyValue& g = globals_[static_cast<size_t>(ins.a)];
        stack.push_back(g);
        break;
      }
      case Op::kStoreGlobal:
        globals_[static_cast<size_t>(ins.a)] = std::move(stack.back());
        stack.pop_back();
        break;
      case Op::kBinary: {
        PyValue b = std::move(stack.back());
        stack.pop_back();
        PyValue& a = stack.back();
        Result<PyValue> out = ApplyBinary(static_cast<BinOp>(ins.a), a, b);
        if (!out.ok()) return runtime_error(out.status().message());
        a = std::move(out).value();
        break;
      }
      case Op::kUnary: {
        Result<PyValue> out =
            ApplyUnary(static_cast<UnOp>(ins.a), stack.back());
        if (!out.ok()) return runtime_error(out.status().message());
        stack.back() = std::move(out).value();
        break;
      }
      case Op::kJump:
        pc = static_cast<size_t>(ins.a);
        break;
      case Op::kJumpIfFalse: {
        bool truthy = stack.back().AsBool();
        stack.pop_back();
        if (!truthy) pc = static_cast<size_t>(ins.a);
        break;
      }
      case Op::kJumpIfFalsePeek:
        if (!stack.back().AsBool()) {
          pc = static_cast<size_t>(ins.a);
        } else {
          stack.pop_back();
        }
        break;
      case Op::kJumpIfTruePeek:
        if (stack.back().AsBool()) {
          pc = static_cast<size_t>(ins.a);
        } else {
          stack.pop_back();
        }
        break;
      case Op::kPop:
        stack.pop_back();
        break;
      case Op::kCallUser: {
        const CompiledFunction& callee =
            module_->functions[static_cast<size_t>(ins.a)];
        int argc = ins.b;
        if (argc != callee.num_params) {
          return runtime_error(callee.name + "() takes " +
                               std::to_string(callee.num_params) +
                               " arguments, got " + std::to_string(argc));
        }
        std::vector<PyValue> call_args(
            std::make_move_iterator(stack.end() - argc),
            std::make_move_iterator(stack.end()));
        stack.resize(stack.size() - static_cast<size_t>(argc));
        // Dispatch through the typed tier: generic frames calling an
        // eligible function still get unboxed execution when the live
        // arguments pass its guard.
        Result<PyValue> out = DispatchCall(ins.a, std::move(call_args));
        if (!out.ok()) return out;
        stack.push_back(std::move(out).value());
        break;
      }
      case Op::kCallBuiltin: {
        const std::string& name =
            fn.constants[static_cast<size_t>(ins.a)].AsString();
        int argc = ins.b;
        std::vector<PyValue> call_args(
            std::make_move_iterator(stack.end() - argc),
            std::make_move_iterator(stack.end()));
        stack.resize(stack.size() - static_cast<size_t>(argc));
        // Host functions (kernel `emit`) shadow nothing: real builtin
        // names always resolve first at compile time, and host_ is empty
        // outside kernel VMs, so plain modules pay one branch here.
        if (!host_.empty()) {
          auto it = host_.find(name);
          if (it != host_.end()) {
            Result<PyValue> out = it->second(call_args);
            if (!out.ok()) return runtime_error(out.status().message());
            stack.push_back(std::move(out).value());
            break;
          }
        }
        Result<PyValue> out = CallBuiltin(name, call_args);
        if (!out.ok()) return runtime_error(out.status().message());
        stack.push_back(std::move(out).value());
        break;
      }
      case Op::kReturn:
        return std::move(stack.back());
      case Op::kReturnNone:
        return PyValue();
      case Op::kBuildList: {
        PyList items(std::make_move_iterator(stack.end() - ins.a),
                     std::make_move_iterator(stack.end()));
        stack.resize(stack.size() - static_cast<size_t>(ins.a));
        stack.push_back(PyValue(std::move(items)));
        break;
      }
      case Op::kIndex: {
        PyValue index = std::move(stack.back());
        stack.pop_back();
        PyValue& base = stack.back();
        if (!index.is_numeric()) return runtime_error("index must be integer");
        Result<int64_t> checked = PyToInt(index);
        if (!checked.ok()) return runtime_error(checked.status().message());
        int64_t i = *checked;
        if (base.is_list()) {
          const PyList& list = base.AsList();
          if (i < 0) i += static_cast<int64_t>(list.size());
          if (i < 0 || i >= static_cast<int64_t>(list.size())) {
            return runtime_error("list index out of range");
          }
          base = list[static_cast<size_t>(i)];
        } else if (base.is_string()) {
          const std::string& s = base.AsString();
          if (i < 0) i += static_cast<int64_t>(s.size());
          if (i < 0 || i >= static_cast<int64_t>(s.size())) {
            return runtime_error("string index out of range");
          }
          base = PyValue(std::string(1, s[static_cast<size_t>(i)]));
        } else {
          return runtime_error("object is not subscriptable");
        }
        break;
      }
      case Op::kStoreIndex: {
        PyValue value = std::move(stack.back());
        stack.pop_back();
        PyValue index = std::move(stack.back());
        stack.pop_back();
        PyValue base = std::move(stack.back());
        stack.pop_back();
        if (!base.is_list() || !index.is_numeric()) {
          return runtime_error("invalid subscript assignment");
        }
        Result<int64_t> checked = PyToInt(index);
        if (!checked.ok()) return runtime_error(checked.status().message());
        int64_t i = *checked;
        PyList& list = base.AsList();
        if (i < 0) i += static_cast<int64_t>(list.size());
        if (i < 0 || i >= static_cast<int64_t>(list.size())) {
          return runtime_error("list index out of range");
        }
        list[static_cast<size_t>(i)] = std::move(value);
        break;
      }
      case Op::kLen: {
        PyValue& v = stack.back();
        if (v.is_list()) {
          v = PyValue(static_cast<int64_t>(v.AsList().size()));
        } else if (v.is_string()) {
          v = PyValue(static_cast<int64_t>(v.AsString().size()));
        } else {
          return runtime_error("object has no len()");
        }
        break;
      }
    }
  }
  return PyValue();
}

}  // namespace minipy
}  // namespace mrs
