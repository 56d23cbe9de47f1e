#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "rtl/netlist.hpp"
#include "rtl/verilog.hpp"

namespace la1::rtl {
namespace {

TEST(Netlist, BuilderChecksWidths) {
  Module m("t");
  const NetId a = m.input("a", 4);
  const NetId b = m.input("b", 3);
  EXPECT_THROW(m.op_and(m.ref(a), m.ref(b)), std::invalid_argument);
  EXPECT_THROW(m.mux(m.ref(a), m.ref(a), m.ref(a)), std::invalid_argument);
  EXPECT_THROW(m.slice(m.ref(a), 2, 4), std::invalid_argument);
  EXPECT_NO_THROW(m.slice(m.ref(a), 0, 4));
}

TEST(Netlist, DuplicateNamesRejected) {
  Module m("t");
  m.input("x", 1);
  EXPECT_THROW(m.wire("x", 1), std::invalid_argument);
}

TEST(Netlist, DriverRules) {
  Module m("t");
  const NetId in = m.input("in", 1);
  const NetId w = m.wire("w", 1);
  const NetId r = m.reg("r", 1, 0u);
  m.assign(w, m.ref(in));
  EXPECT_THROW(m.assign(w, m.ref(in)), std::invalid_argument);  // double drive
  EXPECT_THROW(m.assign(in, m.ref(w)), std::invalid_argument);  // input target
  EXPECT_THROW(m.assign(r, m.ref(w)), std::invalid_argument);   // reg target
  EXPECT_THROW(m.tristate(w, m.ref(in), m.ref(in)), std::invalid_argument);
}

TEST(Netlist, NonblockingRequiresReg) {
  Module m("t");
  const NetId clk = m.input("clk", 1);
  const NetId w = m.wire("w", 1);
  const NetId r = m.reg("r", 1, 0u);
  const ProcId p = m.process("p", clk, Edge::kPos);
  EXPECT_NO_THROW(m.nonblocking(p, r, m.ref(r)));
  EXPECT_THROW(m.nonblocking(p, w, m.ref(r)), std::invalid_argument);
}

TEST(Netlist, RegInitWidthChecked) {
  Module m("t");
  EXPECT_THROW(m.reg("r", 4, LVec::from_uint(1, 3)), std::invalid_argument);
  const NetId r = m.reg("ok", 4, 5u);
  EXPECT_EQ(*m.net(r).init.to_uint(), 5u);
}

TEST(Netlist, InstanceBindingValidated) {
  Module child("child");
  child.input("a", 2);
  child.output("y", 2);
  Module parent("parent");
  const NetId pa = parent.wire("pa", 2);
  const NetId bad = parent.wire("bad", 3);
  EXPECT_THROW(parent.instantiate("u0", child, {{"nope", pa}}),
               std::invalid_argument);
  EXPECT_THROW(parent.instantiate("u1", child, {{"a", bad}}),
               std::invalid_argument);
  EXPECT_NO_THROW(parent.instantiate("u2", child, {{"a", pa}}));
}

TEST(Netlist, StatsCountStructure) {
  Module m("t");
  const NetId clk = m.input("clk", 1);
  const NetId r = m.reg("r", 8, 0u);
  m.memory("mem", 4, 8);
  const NetId out = m.output("out", 8);
  m.assign(out, m.ref(r));
  const ProcId p = m.process("p", clk, Edge::kPos);
  m.nonblocking(p, r, m.ref(r));
  const auto s = m.stats();
  EXPECT_EQ(s.inputs, 1);
  EXPECT_EQ(s.outputs, 1);
  EXPECT_EQ(s.regs, 1);
  EXPECT_EQ(s.reg_bits, 8);
  EXPECT_EQ(s.memories, 1);
  EXPECT_EQ(s.memory_bits, 32);
  EXPECT_EQ(s.processes, 1);
}

Module make_child() {
  Module child("inv");
  const NetId a = child.input("a", 1);
  const NetId y = child.output("y", 1);
  child.assign(y, child.op_not(child.ref(a)));
  return child;
}

TEST(Elaborate, FlattensHierarchy) {
  const Module child = make_child();
  Module top("top");
  const NetId in = top.input("in", 1);
  const NetId mid = top.wire("mid", 1);
  const NetId out = top.output("out", 1);
  top.instantiate("u0", child, {{"a", in}, {"y", mid}});
  top.instantiate("u1", child, {{"a", mid}, {"y", out}});

  const Module flat = elaborate(top);
  EXPECT_TRUE(flat.instances().empty());
  EXPECT_EQ(flat.assigns().size(), 2u);
  EXPECT_NE(flat.find_net("in"), kInvalidId);
  EXPECT_NE(flat.find_net("mid"), kInvalidId);
  // Internal nets of children get dotted prefixes.
  EXPECT_EQ(flat.find_net("u0.a"), kInvalidId);  // bound ports alias, not copied
}

TEST(ExpandMemories, ReplacesMemoryWithRegs) {
  Module m("t");
  const NetId clk = m.input("clk", 1);
  const NetId addr = m.input("addr", 1);
  const NetId din = m.input("din", 4);
  const NetId wen = m.input("wen", 1);
  const NetId dout = m.output("dout", 4);
  const MemId mem = m.memory("mem", 2, 4);
  const ProcId p = m.process("p", clk, Edge::kPos);
  m.mem_write(p, mem, m.ref(addr), m.ref(din), m.ref(wen));
  m.assign(dout, m.mem_read(mem, m.ref(addr)));

  const Module x = expand_memories(m);
  EXPECT_TRUE(x.memories().empty());
  EXPECT_NE(x.find_net("mem.w0"), kInvalidId);
  EXPECT_NE(x.find_net("mem.w1"), kInvalidId);
}

TEST(Verilog, EmitsModulesOncePerType) {
  const Module child = make_child();
  Module top("top");
  const NetId in = top.input("in", 1);
  const NetId out = top.output("out", 1);
  const NetId mid = top.wire("mid", 1);
  top.instantiate("u0", child, {{"a", in}, {"y", mid}});
  top.instantiate("u1", child, {{"a", mid}, {"y", out}});
  const std::string v = to_verilog(top);
  // Child module body appears once; two instantiations.
  EXPECT_EQ(v.find("module inv"), v.rfind("module inv"));
  EXPECT_NE(v.find("inv u0"), std::string::npos);
  EXPECT_NE(v.find("inv u1"), std::string::npos);
  EXPECT_NE(v.find("module top"), std::string::npos);
}

TEST(Verilog, TristateAndAlwaysBlocks) {
  Module m("t");
  const NetId clk = m.input("clk", 1);
  const NetId en = m.input("en", 1);
  const NetId d = m.input("d", 4);
  const NetId bus = m.output("bus", 4);
  const NetId r = m.reg("r", 4, 0u);
  m.tristate(bus, m.ref(en), m.ref(r));
  const ProcId p = m.process("p", clk, Edge::kPos);
  m.nonblocking(p, r, m.ref(d));
  const std::string v = to_verilog(m);
  EXPECT_NE(v.find("4'bz"), std::string::npos);
  EXPECT_NE(v.find("always @(posedge clk)"), std::string::npos);
  EXPECT_NE(v.find("r <= d"), std::string::npos);
}

TEST(Verilog, SanitizesFlattenedNames) {
  Module child("c");
  const NetId a = child.input("a", 1);
  const NetId y = child.output("y", 1);
  child.assign(y, child.ref(a));
  Module top("top");
  const NetId in = top.input("in", 1);
  const NetId out = top.output("out", 1);
  top.instantiate("u0", child, {{"a", in}, {"y", out}});
  const std::string v = to_verilog(elaborate(top));
  EXPECT_EQ(v.find("u0."), std::string::npos);  // dots replaced
}

Expr node(Op op, ExprId a = kInvalidId, ExprId b = kInvalidId, int width = 0) {
  Expr e;
  e.op = op;
  e.a = a;
  e.b = b;
  e.width = width;
  return e;
}

TEST(OpTable, WidthViolationNamesTheBrokenRule) {
  Module m("t");
  const ExprId a4 = m.ref(m.input("a", 4));
  const ExprId b3 = m.ref(m.input("b", 3));
  Expr e = node(Op::kAnd, a4, b3, 4);
  EXPECT_EQ(width_violation(m, e), "operands are 4 and 3 bits, result says 4");
  e.b = a4;
  EXPECT_EQ(width_violation(m, e), "");
  e.b = 99;
  EXPECT_EQ(width_violation(m, e), "operand expr#99 does not exist");

  EXPECT_EQ(width_violation(m, node(Op::kEq, a4, b3, 1)),
            "comparison of 4 vs 3 bits");
  Expr slice = node(Op::kSlice, b3, kInvalidId, 2);
  slice.lo = 2;
  EXPECT_EQ(width_violation(m, slice), "slice [2, 4) exceeds 3-bit operand");
  EXPECT_EQ(width_violation(m, node(Op::kConcat)), "concat has no parts");
}

TEST(OpTable, BuilderReportsTheOperatorName) {
  Module m("t");
  const ExprId a4 = m.ref(m.input("a", 4));
  const ExprId b3 = m.ref(m.input("b", 3));
  try {
    m.op_xor(a4, b3);
    FAIL() << "width mismatch accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "xor: operands are 4 and 3 bits, result says 4");
  }
  EXPECT_EQ(m.expr(m.red_or(a4)).width, 1);
  EXPECT_EQ(m.expr(m.concat({a4, b3})).width, 7);
}

TEST(OpTable, ForEachOperandVisitsAThenBThenCThenParts) {
  Expr e = node(Op::kMux, 1, 2);
  e.c = 3;
  std::vector<ExprId> seen;
  for_each_operand(e, [&](ExprId id) { seen.push_back(id); });
  EXPECT_EQ(seen, (std::vector<ExprId>{1, 2, 3}));
  Expr cat = node(Op::kConcat);
  cat.parts = {7, 5};
  for_each_operand(cat, [](ExprId& id) { id += 10; });
  EXPECT_EQ(cat.parts, (std::vector<ExprId>{17, 15}));
}

TEST(OpTable, RowsFollowTheEnumOrder) {
  EXPECT_STREQ(op_info(Op::kConst).name, "const");
  EXPECT_STREQ(op_info(Op::kRedXor).name, "red_xor");
  EXPECT_STREQ(op_info(Op::kMemRead).name, "mem_read");
  EXPECT_EQ(op_info(Op::kRedAnd).identity, Logic::k1);
  EXPECT_EQ(op_info(Op::kOr).bit, &logic_or);
}

}  // namespace
}  // namespace la1::rtl
