// Synthesizable-RTL netlist IR.
//
// This is the "Verilog level" of the paper's flow: each LA-1 class maps to a
// module, multi-bank devices instantiate the single-bank modules, and the
// per-bank control/data signals are joined through tristate buffers
// (paper §4.4). The IR is deliberately the synthesizable subset:
//
//   * nets (inputs, outputs, wires) with continuous assignments,
//   * registers updated by edge-triggered processes (nonblocking assigns),
//   * memories with synchronous (optionally byte-enabled) write ports and
//     combinational read ports,
//   * tristate drivers with wire resolution,
//   * module instances (flattened by `elaborate`).
//
// The same IR feeds three consumers: the cycle simulator (`sim.hpp`), the
// Verilog emitter (`verilog.hpp`) and the bit-blaster for symbolic model
// checking (`bitblast.hpp`).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "rtl/logic.hpp"
#include "rtl/op.hpp"

namespace la1::rtl {

enum class NetKind { kInput, kOutput, kWire, kReg };

enum class Edge { kPos, kNeg };

struct Expr {
  Op op = Op::kConst;
  int width = 0;
  NetId net = kInvalidId;   // kNet
  ExprId a = kInvalidId;    // operands
  ExprId b = kInvalidId;
  ExprId c = kInvalidId;
  std::vector<ExprId> parts;  // kConcat
  LVec literal;               // kConst
  int lo = 0;                 // kSlice
  MemId mem = kInvalidId;     // kMemRead
};

struct Net {
  std::string name;
  NetKind kind = NetKind::kWire;
  int width = 1;
  LVec init;  // registers only; X-free init required by the bit-blaster
};

/// target <= expr, committed on the process's clock edge.
struct SeqAssign {
  NetId target = kInvalidId;
  ExprId value = kInvalidId;
};

/// mem[addr] <= data under wen, per-byte lane enables optional (empty = all).
struct MemWrite {
  MemId mem = kInvalidId;
  ExprId addr = kInvalidId;
  ExprId data = kInvalidId;
  ExprId wen = kInvalidId;             // 1-bit write enable
  std::vector<ExprId> byte_enables;    // one 1-bit expr per 8-bit lane
};

struct Process {
  std::string name;
  NetId clock = kInvalidId;
  Edge edge = Edge::kPos;
  std::vector<SeqAssign> assigns;
  std::vector<MemWrite> mem_writes;
};

struct ContAssign {
  NetId target = kInvalidId;
  ExprId value = kInvalidId;
};

struct TriDriver {
  NetId target = kInvalidId;
  ExprId enable = kInvalidId;  // 1-bit
  ExprId value = kInvalidId;
};

struct Memory {
  std::string name;
  int depth = 0;
  int width = 0;
};

struct Instance {
  std::string name;
  const class Module* child = nullptr;
  std::map<std::string, NetId> bindings;  // child port name -> parent net
};

/// One RTL module: a builder-style IR container.
///
/// Construction errors (width mismatches, bad ids, double drivers) throw
/// std::invalid_argument immediately — the netlist is always well-formed
/// once built.
class Module {
 public:
  explicit Module(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  // --- nets -----------------------------------------------------------
  NetId input(const std::string& name, int width);
  NetId output(const std::string& name, int width);
  NetId wire(const std::string& name, int width);
  NetId reg(const std::string& name, int width, LVec init = LVec{});
  NetId reg(const std::string& name, int width, std::uint64_t init_value);

  const Net& net(NetId id) const { return nets_.at(static_cast<std::size_t>(id)); }
  int net_count() const { return static_cast<int>(nets_.size()); }
  NetId find_net(const std::string& name) const;  // kInvalidId if absent

  // --- expressions ------------------------------------------------------
  ExprId lit(const LVec& value);
  ExprId lit_uint(std::uint64_t value, int width);
  ExprId ref(NetId net);
  ExprId ref(const std::string& net_name);
  ExprId op_not(ExprId a);
  ExprId op_and(ExprId a, ExprId b);
  ExprId op_or(ExprId a, ExprId b);
  ExprId op_xor(ExprId a, ExprId b);
  ExprId red_and(ExprId a);
  ExprId red_or(ExprId a);
  ExprId red_xor(ExprId a);
  ExprId eq(ExprId a, ExprId b);
  ExprId ne(ExprId a, ExprId b);
  ExprId mux(ExprId sel, ExprId then_e, ExprId else_e);
  ExprId concat(const std::vector<ExprId>& parts_msb_first);
  ExprId slice(ExprId a, int lo, int width);
  ExprId add(ExprId a, ExprId b);
  ExprId sub(ExprId a, ExprId b);
  ExprId mem_read(MemId mem, ExprId addr);

  const Expr& expr(ExprId id) const { return exprs_.at(static_cast<std::size_t>(id)); }
  int expr_count() const { return static_cast<int>(exprs_.size()); }

  // --- structure --------------------------------------------------------
  void assign(NetId target, ExprId value);
  void tristate(NetId target, ExprId enable, ExprId value);
  ProcId process(const std::string& name, NetId clock, Edge edge);
  void nonblocking(ProcId proc, NetId target_reg, ExprId value);
  MemId memory(const std::string& name, int depth, int width);
  void mem_write(ProcId proc, MemId mem, ExprId addr, ExprId data, ExprId wen,
                 std::vector<ExprId> byte_enables = {});
  void instantiate(const std::string& name, const Module& child,
                   std::map<std::string, NetId> bindings);

  // --- mutation (fault injection) ---------------------------------------
  // In-place rewrites of existing structure, with the same width/kind
  // validation as the builders. `src/fault` uses these to derive mutants
  // from an elaborated module; they keep the netlist well-formed (the
  // single-driver bookkeeping is preserved because the driven net set never
  // changes — only the driving expressions do).
  /// Replaces the continuous assignment driving `target`.
  void rewrite_assign(NetId target, ExprId value);
  /// Rewrites the driver of `target` through `fn(old_value)`.
  void map_assign(NetId target, const std::function<ExprId(ExprId)>& fn);
  /// Replaces every nonblocking assignment to `target_reg`.
  void rewrite_nonblocking(NetId target_reg, ExprId value);
  /// Rewrites every nonblocking assignment to `target_reg` through `fn`.
  void map_nonblocking(NetId target_reg,
                       const std::function<ExprId(ExprId)>& fn);
  /// Removes every nonblocking assignment to `target_reg`; the register then
  /// holds its reset value forever (a dropped-update fault).
  void drop_nonblocking(NetId target_reg);
  /// Overrides a register's reset value.
  void set_reg_init(NetId target_reg, LVec init);

  const std::vector<Net>& nets() const { return nets_; }
  const std::vector<ContAssign>& assigns() const { return assigns_; }
  const std::vector<TriDriver>& tristates() const { return tristates_; }
  const std::vector<Process>& processes() const { return processes_; }
  const std::vector<Memory>& memories() const { return memories_; }
  const std::vector<Instance>& instances() const { return instances_; }

  /// Structural statistics, used by the Figure-1 bench.
  struct Stats {
    int inputs = 0;
    int outputs = 0;
    int wires = 0;
    int regs = 0;
    int reg_bits = 0;
    int memories = 0;
    int memory_bits = 0;
    int assigns = 0;
    int tristate_drivers = 0;
    int processes = 0;
    int instances = 0;
    int exprs = 0;
  };
  Stats stats() const;

 private:
  friend ExprId copy_expr(Module& out, Expr e,
                          const std::vector<NetId>& netmap,
                          const std::vector<MemId>& memmap,
                          const std::vector<ExprId>& exprmap);
  int expr_width(ExprId id) const;
  void check_bit(ExprId a, const char* what) const;
  /// Appends `e` with the width its operator's rule gives it; throws
  /// std::invalid_argument when the operands break that rule.
  ExprId push(Expr e);
  NetId add_net(const std::string& name, NetKind kind, int width, LVec init);

  std::string name_;
  std::vector<Net> nets_;
  std::map<std::string, NetId> net_by_name_;
  std::vector<Expr> exprs_;
  std::vector<ContAssign> assigns_;
  std::vector<TriDriver> tristates_;
  std::vector<Process> processes_;
  std::vector<Memory> memories_;
  std::vector<Instance> instances_;
  std::vector<bool> net_driven_;  // single continuous driver check
};

/// Walks the expression DAG under `root`, visiting each node once, and
/// inserts every net a kNet leaf references into `reads` (when non-null);
/// memory reads contribute their address subtree. `visited` persists
/// across calls, so walking several roots with one set visits shared
/// subtrees once and leaves the set holding every node reached. The sets
/// are the result: visit order is unspecified.
void collect_reads(const Module& m, ExprId root, std::set<ExprId>& visited,
                   std::set<NetId>* reads);

/// Flattens all instances into a single hierarchy-free module with
/// dot-separated names (`bank0.rp.state`). Tristate groups are preserved.
Module elaborate(const Module& top);

/// Rewrites every memory into per-word registers (decoded write muxes) and
/// each kMemRead into a read mux over those registers. Precondition for the
/// bit-blaster; practical only for the small depths the model checker uses.
Module expand_memories(const Module& flat);

}  // namespace la1::rtl
