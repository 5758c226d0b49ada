// Abstract syntax for the LTL core of PSL used by the paper (Def. II.1),
// extended with the paper's next_eps^tau operator (Def. III.3) and with
// PSL clock contexts / TLM transaction contexts.
//
// Expressions are immutable and shared (shared_ptr<const Expr>): rewriting
// passes build new trees that reuse unchanged subtrees.
#ifndef REPRO_PSL_AST_H_
#define REPRO_PSL_AST_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace repro::psl {

// Evaluation times for next_eps are expressed in nanoseconds (Def. III.3).
using TimeNs = uint64_t;

enum class ExprKind {
  kConstTrue,
  kConstFalse,
  kAtom,        // comparison over design signals
  kNot,         // general negation (reduced to atoms by NNF)
  kAnd,
  kOr,
  kImplies,     // a -> b, sugar for !a || b (removed by NNF)
  kNext,        // next[n](p), n >= 1 clock events
  kNextEps,     // next_eps^tau(p): p must hold at an event exactly eps ns
                // after the position where this operator fires (Def. III.3)
  kUntil,       // p until q (weak) / p until! q (strong)
  kRelease,     // p release q (weak)
  kAlways,      // always p == false release p
  kEventually,  // eventually! p == true until! p (strong)
  kAbort,       // p abort b: PSL async reset -- a pending p is discharged
                // the moment the boolean b holds: to true for `abort`, to
                // false for `abort!` (strong == true). The strong variant
                // arises from negation: !(p abort b) == (!p) abort! b.
};

// Comparison operator of an atomic proposition.
enum class CmpOp { kTruthy, kEq, kNe, kLt, kLe, kGt, kGe };

// Atomic proposition over design observables: either the truthiness of a
// signal (`rdy`), or a comparison of a signal against a constant or another
// signal (`indata == 0`, `out != expected`).
struct Atom {
  std::string lhs;
  CmpOp op = CmpOp::kTruthy;
  bool rhs_is_signal = false;
  std::string rhs_signal;
  uint64_t rhs_value = 0;

  bool operator==(const Atom&) const = default;
};

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

struct Expr {
  ExprKind kind;

  // kAtom
  Atom atom;
  // kNext: number of events to skip (n in next[n]).
  uint32_t next_count = 1;
  // kNextEps: position index tau and required evaluation time eps (ns).
  uint32_t tau = 0;
  TimeNs eps = 0;
  // kUntil / kEventually: strong variant (until! / eventually!).
  bool strong = false;

  // Children: unary operators use only lhs.
  ExprPtr lhs;
  ExprPtr rhs;
};

// ---- Factory functions -----------------------------------------------------

ExprPtr const_true();
ExprPtr const_false();
ExprPtr atom(Atom a);
// Convenience: truthy signal atom.
ExprPtr sig(std::string name);
// Convenience: comparison against a constant.
ExprPtr cmp(std::string lhs, CmpOp op, uint64_t value);
ExprPtr not_(ExprPtr p);
ExprPtr and_(ExprPtr a, ExprPtr b);
ExprPtr or_(ExprPtr a, ExprPtr b);
ExprPtr implies(ExprPtr a, ExprPtr b);
ExprPtr next(uint32_t n, ExprPtr p);
ExprPtr next_eps(uint32_t tau, TimeNs eps, ExprPtr p);
ExprPtr until(ExprPtr a, ExprPtr b, bool strong = false);
ExprPtr release(ExprPtr a, ExprPtr b);
ExprPtr always(ExprPtr p);
ExprPtr eventually(ExprPtr p);
// p abort b (resolve_true) / p abort! b; b must be boolean.
ExprPtr abort_(ExprPtr p, ExprPtr b, bool strong = false);

// ---- Queries ---------------------------------------------------------------

// Structural equality.
bool equal(const ExprPtr& a, const ExprPtr& b);

// True if the expression contains no temporal operator (pure boolean layer).
bool is_boolean(const ExprPtr& e);

// True if `e` is an atom or a negated atom (a literal in NNF terms).
bool is_literal(const ExprPtr& e);

// Collects the names of all design signals referenced by `e`.
std::set<std::string> referenced_signals(const ExprPtr& e);

// The signals `e` references that `available` does not list, in name
// order; empty for a null expression.
std::vector<std::string> unbound_signals(
    const ExprPtr& e, const std::vector<std::string>& available);

// Number of nodes, for diagnostics and benchmarks.
size_t node_count(const ExprPtr& e);

// Largest total next/next_eps depth along any path: for next it accumulates
// event counts, for next_eps nanoseconds are reported separately by
// max_eps(). Used to size checker instance pools (Sec. IV).
uint32_t max_next_depth(const ExprPtr& e);
TimeNs max_eps(const ExprPtr& e);

// True if `e` contains at least one kNext / kNextEps / kUntil / kRelease /
// kAlways / kEventually operator.
bool has_temporal(const ExprPtr& e);

// ---- Printing --------------------------------------------------------------

// Renders the expression in the concrete syntax accepted by the parser:
//   always (!(ds && indata == 0) || next[17](out != 0))
//   next_e[1,170](out != 0)
std::string to_string(const ExprPtr& e);

// ---- Contexts and properties ------------------------------------------------

// PSL clock context: the @ expression of an RTL property (Sec. III-A).
struct ClockContext {
  enum class Kind { kTrue, kClk, kClkPos, kClkNeg };
  Kind kind = Kind::kTrue;
  // Optional boolean guard (`clock_expr && var_expr` form of Def. III.2).
  ExprPtr guard;  // nullptr when absent

  bool operator==(const ClockContext& other) const {
    return kind == other.kind && equal(guard, other.guard);
  }
};

std::string to_string(const ClockContext& c);

// TLM transaction context (Def. III.2): the basic context Tb evaluates the
// property at the end of every transaction; an optional guard restricts it.
struct TransactionContext {
  ExprPtr guard;  // nullptr when absent

  bool operator==(const TransactionContext& other) const {
    return equal(guard, other.guard);
  }
};

std::string to_string(const TransactionContext& c);

// An RTL property: formula plus clock context.
struct RtlProperty {
  std::string name;
  ExprPtr formula;
  ClockContext context;
};

// A TLM property: formula plus transaction context.
struct TlmProperty {
  std::string name;
  ExprPtr formula;
  TransactionContext context;
};

std::string to_string(const RtlProperty& p);
std::string to_string(const TlmProperty& p);

}  // namespace repro::psl

#endif  // REPRO_PSL_AST_H_
