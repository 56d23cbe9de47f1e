// The one definition of the RTL operators' semantics.
//
// Every consumer of the netlist IR — the builder, elaborate, the linter,
// the Verilog writer, and the bit-level evaluators (bit-blaster, ternary
// abstract interpreter, compiled simulator) — reads an operator's name,
// Verilog token, operand shape, width rule and bit function from the table
// below instead of restating them. Adding an operator means one table row
// plus each evaluator's leaf for it.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>

#include "rtl/logic.hpp"

namespace la1::rtl {

using NetId = int;
using ExprId = int;
using MemId = int;
using ProcId = int;

inline constexpr int kInvalidId = -1;

class Module;
struct Expr;

enum class Op {
  kConst,   // literal LVec
  kNet,     // reference to a net's value
  kNot,     // bitwise
  kAnd,
  kOr,
  kXor,
  kRedAnd,  // reductions -> width 1
  kRedOr,
  kRedXor,
  kEq,      // width 1
  kNe,      // width 1
  kMux,     // a = 1-bit select, b = then, c = else
  kConcat,  // parts, MSB-first
  kSlice,   // bits [lo, lo+width) of a
  kAdd,
  kSub,
  kMemRead  // combinational memory read: mem[a]
};

inline constexpr int kOpCount = static_cast<int>(Op::kMemRead) + 1;

/// Which Expr fields an operator reads, and so its width rule:
///   kLeaf     no operands; a literal's or the referenced net's width
///   kUnary    a; the result is a's width
///   kBinary   a, b of equal width; the result is that width
///   kReduce   a; the result is 1 bit
///   kCompare  a, b of equal width; the result is 1 bit
///   kMux      a 1-bit select, b/c equal-width branches; the result is b's
///   kConcat   one or more parts, MSB first; the result is their sum
///   kSlice    a; bits [lo, lo + width) lie inside a
///   kMemRead  a = address; the result is the memory's word width
enum class Shape : std::uint8_t {
  kLeaf,
  kUnary,
  kBinary,
  kReduce,
  kCompare,
  kMux,
  kConcat,
  kSlice,
  kMemRead,
};

/// The two-input gate of the bitwise family and the reductions.
enum class Gate : std::uint8_t { kNone, kAnd, kOr, kXor };

struct OpInfo {
  const char* name;     // spelling in lint findings and reports
  const char* verilog;  // operator token; "" where the writer has its own form
  Shape shape;
  Gate gate;                    // kNone outside the bitwise family/reductions
  Logic (*bit)(Logic, Logic);   // four-state function of `gate`
  Logic identity;               // the gate's neutral value (reduction seed)
};

inline constexpr OpInfo kOpTable[kOpCount] = {
    {"const", "", Shape::kLeaf, Gate::kNone, nullptr, Logic::kX},
    {"net", "", Shape::kLeaf, Gate::kNone, nullptr, Logic::kX},
    {"not", "~", Shape::kUnary, Gate::kNone, nullptr, Logic::kX},
    {"and", "&", Shape::kBinary, Gate::kAnd, logic_and, Logic::k1},
    {"or", "|", Shape::kBinary, Gate::kOr, logic_or, Logic::k0},
    {"xor", "^", Shape::kBinary, Gate::kXor, logic_xor, Logic::k0},
    {"red_and", "&", Shape::kReduce, Gate::kAnd, logic_and, Logic::k1},
    {"red_or", "|", Shape::kReduce, Gate::kOr, logic_or, Logic::k0},
    {"red_xor", "^", Shape::kReduce, Gate::kXor, logic_xor, Logic::k0},
    {"eq", "==", Shape::kCompare, Gate::kNone, nullptr, Logic::kX},
    {"ne", "!=", Shape::kCompare, Gate::kNone, nullptr, Logic::kX},
    {"mux", "", Shape::kMux, Gate::kNone, nullptr, Logic::kX},
    {"concat", "", Shape::kConcat, Gate::kNone, nullptr, Logic::kX},
    {"slice", "", Shape::kSlice, Gate::kNone, nullptr, Logic::kX},
    {"add", "+", Shape::kBinary, Gate::kNone, nullptr, Logic::kX},
    {"sub", "-", Shape::kBinary, Gate::kNone, nullptr, Logic::kX},
    {"mem_read", "", Shape::kMemRead, Gate::kNone, nullptr, Logic::kX},
};

inline constexpr const OpInfo& op_info(Op op) {
  return kOpTable[static_cast<int>(op)];
}

/// Visits the operand ids `e` holds (a, b, c, then the concat parts), in
/// that order; `f` takes an ExprId (const or mutable with `e`).
template <typename E, typename F>
void for_each_operand(E& e, F&& f) {
  for (auto* id : {&e.a, &e.b, &e.c}) {
    if (*id != kInvalidId) f(*id);
  }
  for (auto& part : e.parts) f(part);
}

/// The width `e`'s operator gives its result inside `m`: a slice's own
/// width as given, and `e.width` unchanged when a reference is missing.
int result_width(const Module& m, const Expr& e);

/// Why `e` breaks its operator's width rule against the operands, nets and
/// memories of `m`; empty when the widths are fine.
std::string width_violation(const Module& m, const Expr& e);

}  // namespace la1::rtl
