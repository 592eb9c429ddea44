#include "query/vm.hpp"

#include <cmath>
#include <stdexcept>

namespace sdl::vm {

const char* trap_message(Trap t) {
  switch (t) {
    case Trap::None: return "sdl: no trap";
    case Trap::Unbound: return "sdl: read of unbound variable";
    case Trap::TypeError: return "sdl: type error in expression";
    case Trap::DivZero: return "sdl: division by zero";
    case Trap::Overflow: return "sdl: integer overflow in division";
    case Trap::NoRegistry: return "sdl: no function registry for call";
    case Trap::UnknownFn: return "sdl: unknown function";
    case Trap::HostError: return "sdl: host function rejected arguments";
  }
  return "sdl: bad trap";
}

namespace {

/// Integer exponent above which a**b cannot fit in int64 for any |base|>1
/// (2**63 already overflows), so the loop is pointless: go straight to
/// std::pow. Bounds the Pow loop at 62 iterations.
constexpr std::int64_t kPowIterCap = 62;

Trap pow_checked(const Value& a, const Value& b, Value& out) {
  if (!a.is_number() || !b.is_number()) return Trap::TypeError;
  if (a.is_int() && b.is_int() && b.as_int() >= 0) {
    const std::int64_t base = a.as_int();
    const std::int64_t exp = b.as_int();
    // |base| <= 1 closed forms: the old loop ran `exp` times even though
    // the answer is immediate — and `exp` is attacker-controlled.
    if (base == 0) { out = std::int64_t{exp == 0 ? 1 : 0}; return Trap::None; }
    if (base == 1) { out = std::int64_t{1}; return Trap::None; }
    if (base == -1) { out = std::int64_t{(exp & 1) != 0 ? -1 : 1}; return Trap::None; }
    if (exp <= kPowIterCap) {
      std::int64_t r = 1;
      bool wrapped = false;
      for (std::int64_t i = 0; i < exp && !wrapped; ++i) {
        wrapped = __builtin_mul_overflow(r, base, &r);
      }
      if (!wrapped) { out = r; return Trap::None; }
      // fall through: widen to double like the other overflowing ops
    }
  }
  out = std::pow(a.as_number(), b.as_number());
  return Trap::None;
}

}  // namespace

Trap arith_checked(Expr::Op op, const Value& a, const Value& b, Value& out) {
  const bool both_int = a.is_int() && b.is_int();
  switch (op) {
    case Expr::Op::Add:
      if (both_int) {
        std::int64_t r;
        if (!__builtin_add_overflow(a.as_int(), b.as_int(), &r)) {
          out = r;
          return Trap::None;
        }
      }
      if (!a.is_number() || !b.is_number()) return Trap::TypeError;
      out = a.as_number() + b.as_number();
      return Trap::None;
    case Expr::Op::Sub:
      if (both_int) {
        std::int64_t r;
        if (!__builtin_sub_overflow(a.as_int(), b.as_int(), &r)) {
          out = r;
          return Trap::None;
        }
      }
      if (!a.is_number() || !b.is_number()) return Trap::TypeError;
      out = a.as_number() - b.as_number();
      return Trap::None;
    case Expr::Op::Mul:
      if (both_int) {
        std::int64_t r;
        if (!__builtin_mul_overflow(a.as_int(), b.as_int(), &r)) {
          out = r;
          return Trap::None;
        }
      }
      if (!a.is_number() || !b.is_number()) return Trap::TypeError;
      out = a.as_number() * b.as_number();
      return Trap::None;
    case Expr::Op::Div:
      if (both_int) {
        if (b.as_int() == 0) return Trap::DivZero;
        // INT64_MIN / -1 is the one quotient int64 cannot hold; the x86
        // idiv raises #DE (SIGFPE) for it, exactly like divide-by-zero.
        if (a.as_int() == INT64_MIN && b.as_int() == -1) return Trap::Overflow;
        out = a.as_int() / b.as_int();
        return Trap::None;
      }
      if (!a.is_number() || !b.is_number()) return Trap::TypeError;
      out = a.as_number() / b.as_number();
      return Trap::None;
    case Expr::Op::Mod:
      if (!both_int) return Trap::TypeError;
      if (b.as_int() == 0) return Trap::DivZero;
      // INT64_MIN % -1 raises the same #DE as the division, despite the
      // mathematical remainder being 0 — reject it the same way.
      if (a.as_int() == INT64_MIN && b.as_int() == -1) return Trap::Overflow;
      out = a.as_int() % b.as_int();
      return Trap::None;
    case Expr::Op::Pow:
      return pow_checked(a, b, out);
    default:
      return Trap::TypeError;
  }
}

Trap compare_checked(Expr::Op op, const Value& a, const Value& b, bool& out) {
  if (op == Expr::Op::Eq || op == Expr::Op::Ne) {
    bool equal;
    if (a.is_number() && b.is_number()) {
      equal = a.as_number() == b.as_number();
    } else {
      equal = a == b;
    }
    out = op == Expr::Op::Eq ? equal : !equal;
    return Trap::None;
  }
  int c = 0;
  if (!Value::numeric_compare_opt(a, b, c)) return Trap::TypeError;
  switch (op) {
    case Expr::Op::Lt: out = c < 0; return Trap::None;
    case Expr::Op::Le: out = c <= 0; return Trap::None;
    case Expr::Op::Gt: out = c > 0; return Trap::None;
    case Expr::Op::Ge: out = c >= 0; return Trap::None;
    default: return Trap::TypeError;
  }
}

Trap negate_checked(const Value& a, Value& out) {
  if (a.is_int()) {
    std::int64_t r;
    if (!__builtin_sub_overflow(std::int64_t{0}, a.as_int(), &r)) {
      out = r;
      return Trap::None;
    }
    out = -static_cast<double>(a.as_int());  // -INT64_MIN widens
    return Trap::None;
  }
  if (!a.is_number()) return Trap::TypeError;
  out = -a.as_double();
  return Trap::None;
}

Trap truthy_checked(const Value& v, bool& out) {
  if (!v.is_bool()) return Trap::TypeError;
  out = v.as_bool();
  return Trap::None;
}

EvalResult run(const ExprProgram& prog, const Env& env,
               const FunctionRegistry* fns, std::span<Value> regs) {
  // Operand fetch: negative indices address the constant pool.
  const auto operand = [&](std::int32_t idx) -> const Value& {
    return idx >= 0 ? regs[static_cast<std::size_t>(idx)]
                    : prog.consts[static_cast<std::size_t>(-1 - idx)];
  };

  EvalResult result;
  std::size_t pc = 0;
  const std::size_t n = prog.code.size();
  while (pc < n) {
    const Instr& in = prog.code[pc];
    switch (in.op) {
      case Instr::Op::LoadVar: {
        if (in.a < 0 || static_cast<std::size_t>(in.a) >= env.size()) {
          result.trap = Trap::Unbound;
          return result;
        }
        const Value& v = env[static_cast<std::size_t>(in.a)];
        if (v.is_nil()) {
          result.trap = Trap::Unbound;
          return result;
        }
        regs[static_cast<std::size_t>(in.dst)] = v;
        break;
      }
      case Instr::Op::Move:
        regs[static_cast<std::size_t>(in.dst)] = operand(in.a);
        break;
      case Instr::Op::Neg: {
        Value out;
        if (const Trap t = negate_checked(operand(in.a), out); t != Trap::None) {
          result.trap = t;
          return result;
        }
        regs[static_cast<std::size_t>(in.dst)] = std::move(out);
        break;
      }
      case Instr::Op::Test: {
        bool b;
        if (const Trap t = truthy_checked(operand(in.a), b); t != Trap::None) {
          result.trap = t;
          return result;
        }
        regs[static_cast<std::size_t>(in.dst)] = b;
        break;
      }
      case Instr::Op::NotOp: {
        bool b;
        if (const Trap t = truthy_checked(operand(in.a), b); t != Trap::None) {
          result.trap = t;
          return result;
        }
        regs[static_cast<std::size_t>(in.dst)] = !b;
        break;
      }
      case Instr::Op::Add: case Instr::Op::Sub: case Instr::Op::Mul:
      case Instr::Op::Div: case Instr::Op::Mod: case Instr::Op::Pow: {
        static constexpr Expr::Op kMap[] = {Expr::Op::Add, Expr::Op::Sub,
                                            Expr::Op::Mul, Expr::Op::Div,
                                            Expr::Op::Mod, Expr::Op::Pow};
        const Expr::Op eop =
            kMap[static_cast<int>(in.op) - static_cast<int>(Instr::Op::Add)];
        Value out;
        if (const Trap t = arith_checked(eop, operand(in.a), operand(in.b), out);
            t != Trap::None) {
          result.trap = t;
          return result;
        }
        regs[static_cast<std::size_t>(in.dst)] = std::move(out);
        break;
      }
      case Instr::Op::Eq: case Instr::Op::Ne: case Instr::Op::Lt:
      case Instr::Op::Le: case Instr::Op::Gt: case Instr::Op::Ge: {
        static constexpr Expr::Op kMap[] = {Expr::Op::Eq, Expr::Op::Ne,
                                            Expr::Op::Lt, Expr::Op::Le,
                                            Expr::Op::Gt, Expr::Op::Ge};
        const Expr::Op eop =
            kMap[static_cast<int>(in.op) - static_cast<int>(Instr::Op::Eq)];
        bool out;
        if (const Trap t =
                compare_checked(eop, operand(in.a), operand(in.b), out);
            t != Trap::None) {
          result.trap = t;
          return result;
        }
        regs[static_cast<std::size_t>(in.dst)] = out;
        break;
      }
      case Instr::Op::JumpIfFalse:
        if (!regs[static_cast<std::size_t>(in.a)].as_bool()) {
          pc = static_cast<std::size_t>(in.b);
          continue;
        }
        break;
      case Instr::Op::JumpIfTrue:
        if (regs[static_cast<std::size_t>(in.a)].as_bool()) {
          pc = static_cast<std::size_t>(in.b);
          continue;
        }
        break;
      case Instr::Op::Call: {
        if (fns == nullptr) {
          result.trap = Trap::NoRegistry;
          return result;
        }
        const FunctionRegistry::Fn* fn =
            fns->lookup(prog.fn_names[static_cast<std::size_t>(in.fn)]);
        if (fn == nullptr) {
          result.trap = Trap::UnknownFn;
          return result;
        }
        const std::span<const Value> args =
            regs.subspan(static_cast<std::size_t>(in.a),
                         static_cast<std::size_t>(in.b));
        try {
          regs[static_cast<std::size_t>(in.dst)] = (*fn)(args);
        } catch (const std::invalid_argument&) {
          // Expr::eval parity: a host function rejecting its arguments is
          // a guard-reject, not an abort. Anything else propagates.
          result.trap = Trap::HostError;
          return result;
        }
        break;
      }
      case Instr::Op::Return:
        result.value = operand(in.a);
        return result;
    }
    ++pc;
  }
  result.trap = Trap::TypeError;  // fell off the end: malformed program
  return result;
}

bool run_guard(const ExprProgram& prog, const Env& env,
               const FunctionRegistry* fns, std::span<Value> regs) {
  const EvalResult r = run(prog, env, fns, regs);
  if (r.trap != Trap::None) return false;
  bool b;
  return truthy_checked(r.value, b) == Trap::None && b;
}

}  // namespace sdl::vm
