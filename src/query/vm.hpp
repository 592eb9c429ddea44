// The query VM: a small register machine that executes expression
// bytecode compiled by src/query/compile.{hpp,cpp} — every guard and every
// computed pattern term a query evaluates.
//
// The tree evaluator (Expr::eval in expr.cpp, used for actions) reports
// errors by throwing std::invalid_argument. Query matching rejects far more
// candidates than it accepts, so the VM replaces both the throw and the
// shared_ptr tree walk: one flat instruction array per expression,
// evaluated left-to-right into a caller-provided register file, with a
// `Trap` result code in place of the exception — the hot path never throws.
//
// Trap semantics mirror Expr::eval's std::invalid_argument cases
// one-for-one (see arith_checked below, which BOTH evaluators call so the
// overflow fixes cannot diverge between them). Host-function calls are the
// only place the VM still catches: a registered function that throws
// std::invalid_argument becomes Trap::HostError; any other exception
// propagates, exactly as it would out of Expr::eval.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "query/expr.hpp"

namespace sdl::vm {

/// Why an evaluation could not produce a value. Every enumerator below
/// corresponds to a std::invalid_argument site in Expr::eval.
enum class Trap : std::uint8_t {
  None = 0,
  Unbound,    // read of an unbound (Nil) or unresolved variable
  TypeError,  // arithmetic/ordering/truthiness on incompatible kinds
  DivZero,    // integer division or mod by zero
  Overflow,   // INT64_MIN / -1 and INT64_MIN % -1 (the only non-recoverable
              // integer overflow: every other overflow widens to double)
  NoRegistry, // Call with no FunctionRegistry supplied
  UnknownFn,  // Call target not registered
  HostError,  // registered function threw std::invalid_argument
};

/// Human-readable trap description (Expr::eval error-message parity).
[[nodiscard]] const char* trap_message(Trap t);

// ---- Checked scalar operations (shared by Expr::eval and the VM) ----
//
// Overflow fixes live here so both evaluators inherit them:
//  * Div/Mod reject b == 0 AND the INT64_MIN / -1 pair that hardware-traps.
//  * Add/Sub/Mul detect signed wrap with __builtin_*_overflow and widen the
//    result to double instead of wrapping (previously UB).
//  * Pow caps the integer fast path (|base| > 1, exponent <= 62) and falls
//    back to std::pow on overflow or large exponents — no unbounded loop.

/// out <- a (op) b for Add/Sub/Mul/Div/Mod/Pow. Trap::None on success.
[[nodiscard]] Trap arith_checked(Expr::Op op, const Value& a, const Value& b,
                                 Value& out);

/// out <- a (op) b for Eq/Ne/Lt/Le/Gt/Ge, with Expr::eval's semantics:
/// Eq/Ne are numeric across Int/Double and structural otherwise (never
/// trap); orderings use Value::numeric_compare and trap on mixed
/// non-numeric kinds.
[[nodiscard]] Trap compare_checked(Expr::Op op, const Value& a, const Value& b,
                                   bool& out);

/// out <- -a. Int negation of INT64_MIN widens to double (previously UB).
[[nodiscard]] Trap negate_checked(const Value& a, Value& out);

/// out <- SDL truthiness of v: Bool is itself, everything else traps.
[[nodiscard]] Trap truthy_checked(const Value& v, bool& out);

// ---- Expression bytecode ----

/// One instruction. Operand encoding for `a`/`b` value operands: index
/// >= 0 addresses the register file; index < 0 addresses the constant pool
/// as consts[-1 - idx] (constants are pooled once at compile time — the VM
/// never materialises them per evaluation).
struct Instr {
  enum class Op : std::uint8_t {
    LoadVar,   // r[dst] <- env[a]; traps Unbound on Nil or a < 0
    Move,      // r[dst] <- operand a
    Neg,       // r[dst] <- -operand a        (negate_checked)
    Test,      // r[dst] <- truthy(operand a) (traps on non-bool)
    NotOp,     // r[dst] <- !truthy(operand a)
    Add, Sub, Mul, Div, Mod, Pow,  // r[dst] <- a (op) b (arith_checked)
    Eq, Ne, Lt, Le, Gt, Ge,        // r[dst] <- a (op) b (compare_checked)
    JumpIfFalse,  // if !r[a].as_bool() goto b   (a always holds a Bool:
    JumpIfTrue,   //   the compiler only jumps on Test/NotOp results)
    Call,      // r[dst] <- fns[fn](r[a] .. r[a+b-1])
    Return,    // result <- operand a; halt
  };

  Op op;
  std::int32_t dst = 0;
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int32_t fn = -1;  // Call: index into ExprProgram::fn_names
};

/// A compiled expression: straight-line code with short-circuit jumps,
/// ending in Return. Immutable after compilation; evaluation state lives
/// entirely in the caller's register span, so one program may be executed
/// concurrently from many threads.
struct ExprProgram {
  std::vector<Instr> code;
  std::vector<Value> consts;
  std::vector<std::string> fn_names;
  int num_regs = 0;

  [[nodiscard]] bool empty() const { return code.empty(); }
};

/// Result of running an ExprProgram.
struct EvalResult {
  Trap trap = Trap::None;
  Value value;  // meaningful iff trap == None
};

/// Executes `prog` against `env`. `regs` must provide at least
/// prog.num_regs slots; contents on entry are ignored.
[[nodiscard]] EvalResult run(const ExprProgram& prog, const Env& env,
                             const FunctionRegistry* fns,
                             std::span<Value> regs);

/// Guard execution: run + truthiness of the result. Returns false on ANY
/// trap: a guard that cannot be evaluated rejects the candidate.
[[nodiscard]] bool run_guard(const ExprProgram& prog, const Env& env,
                             const FunctionRegistry* fns,
                             std::span<Value> regs);

}  // namespace sdl::vm
