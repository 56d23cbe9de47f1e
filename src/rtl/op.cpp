#include "rtl/op.hpp"

#include "rtl/netlist.hpp"

namespace la1::rtl {

namespace {

bool has_expr(const Module& m, ExprId id) {
  return id >= 0 && id < m.expr_count();
}

std::string bits(int n) { return std::to_string(n); }

bool references_exist(const Module& m, const Expr& e) {
  bool exist = true;
  for_each_operand(e, [&](ExprId id) { exist = exist && has_expr(m, id); });
  if (e.op == Op::kNet) return exist && e.net >= 0 && e.net < m.net_count();
  if (e.op == Op::kMemRead) {
    return exist && e.mem >= 0 &&
           e.mem < static_cast<int>(m.memories().size());
  }
  return exist;
}

/// The first operand, net or memory id of `e` that `m` does not hold.
std::string missing_reference(const Module& m, const Expr& e) {
  std::string missing;
  for_each_operand(e, [&](ExprId id) {
    if (missing.empty() && !has_expr(m, id)) {
      missing = "operand expr#" + std::to_string(id) + " does not exist";
    }
  });
  if (!missing.empty()) return missing;
  if (e.op == Op::kNet) {
    return "net #" + std::to_string(e.net) + " does not exist";
  }
  return "memory #" + std::to_string(e.mem) + " does not exist";
}

}  // namespace

int result_width(const Module& m, const Expr& e) {
  if (!references_exist(m, e)) return e.width;
  const auto width = [&m](ExprId id) { return m.expr(id).width; };
  switch (op_info(e.op).shape) {
    case Shape::kLeaf:
      return e.op == Op::kConst ? e.literal.width() : m.net(e.net).width;
    case Shape::kUnary:
    case Shape::kBinary:
      return width(e.a);
    case Shape::kReduce:
    case Shape::kCompare:
      return 1;
    case Shape::kMux:
      return width(e.b);
    case Shape::kConcat: {
      int sum = 0;
      for (ExprId p : e.parts) sum += width(p);
      return sum;
    }
    case Shape::kSlice:
      return e.width;
    case Shape::kMemRead:
      return m.memories()[static_cast<std::size_t>(e.mem)].width;
  }
  return e.width;
}

std::string width_violation(const Module& m, const Expr& e) {
  if (!references_exist(m, e)) return missing_reference(m, e);
  const auto width = [&m](ExprId id) { return m.expr(id).width; };

  switch (op_info(e.op).shape) {
    case Shape::kLeaf:
      if (e.op == Op::kConst) {
        if (e.literal.width() == e.width) return {};
        return "literal is " + bits(e.literal.width()) + " bits, node says " +
               bits(e.width);
      }
      if (m.net(e.net).width == e.width) return {};
      return "references " + bits(e.width) + " bits of " +
             bits(m.net(e.net).width) + "-bit net " + m.net(e.net).name;
    case Shape::kUnary:
      if (width(e.a) == e.width) return {};
      return "operand/result width mismatch";
    case Shape::kBinary:
      if (width(e.a) == width(e.b) && width(e.a) == e.width) return {};
      return "operands are " + bits(width(e.a)) + " and " + bits(width(e.b)) +
             " bits, result says " + bits(e.width);
    case Shape::kReduce:
      if (e.width == 1) return {};
      return "reduction must be 1 bit";
    case Shape::kCompare:
      if (width(e.a) != width(e.b)) {
        return "comparison of " + bits(width(e.a)) + " vs " +
               bits(width(e.b)) + " bits";
      }
      if (e.width == 1) return {};
      return "comparison must be 1 bit";
    case Shape::kMux:
      if (width(e.a) != 1) return "select must be 1 bit";
      if (width(e.b) == width(e.c) && width(e.b) == e.width) return {};
      return "branches are " + bits(width(e.b)) + " and " + bits(width(e.c)) +
             " bits, result says " + bits(e.width);
    case Shape::kConcat: {
      if (e.parts.empty()) return "concat has no parts";
      const int sum = result_width(m, e);
      if (sum == e.width) return {};
      return "parts sum to " + bits(sum) + " bits, result says " +
             bits(e.width);
    }
    case Shape::kSlice:
      if (e.lo >= 0 && e.width > 0 && e.lo + e.width <= width(e.a)) return {};
      return "slice [" + bits(e.lo) + ", " + bits(e.lo + e.width) +
             ") exceeds " + bits(width(e.a)) + "-bit operand";
    case Shape::kMemRead: {
      const Memory& memory = m.memories()[static_cast<std::size_t>(e.mem)];
      if (e.width == memory.width) return {};
      return "reads " + bits(e.width) + " bits from " + bits(memory.width) +
             "-bit memory " + memory.name;
    }
  }
  return {};
}

}  // namespace la1::rtl
