#include "rtl/netlist.hpp"

#include <stdexcept>

namespace la1::rtl {

NetId Module::add_net(const std::string& name, NetKind kind, int width,
                      LVec init) {
  if (width <= 0) throw std::invalid_argument("net width must be positive: " + name);
  if (net_by_name_.count(name) != 0) {
    throw std::invalid_argument("duplicate net name: " + name);
  }
  Net n;
  n.name = name;
  n.kind = kind;
  n.width = width;
  n.init = std::move(init);
  nets_.push_back(std::move(n));
  net_driven_.push_back(false);
  const NetId id = static_cast<NetId>(nets_.size() - 1);
  net_by_name_[name] = id;
  return id;
}

NetId Module::input(const std::string& name, int width) {
  return add_net(name, NetKind::kInput, width, LVec{});
}

NetId Module::output(const std::string& name, int width) {
  return add_net(name, NetKind::kOutput, width, LVec{});
}

NetId Module::wire(const std::string& name, int width) {
  return add_net(name, NetKind::kWire, width, LVec{});
}

NetId Module::reg(const std::string& name, int width, LVec init) {
  if (init.width() == 0) init = LVec::zeros(width);
  if (init.width() != width) {
    throw std::invalid_argument("reg init width mismatch: " + name);
  }
  return add_net(name, NetKind::kReg, width, std::move(init));
}

NetId Module::reg(const std::string& name, int width, std::uint64_t init_value) {
  return reg(name, width, LVec::from_uint(init_value, width));
}

NetId Module::find_net(const std::string& name) const {
  auto it = net_by_name_.find(name);
  return it == net_by_name_.end() ? kInvalidId : it->second;
}

int Module::expr_width(ExprId id) const {
  return exprs_.at(static_cast<std::size_t>(id)).width;
}

void Module::check_bit(ExprId a, const char* what) const {
  if (expr_width(a) != 1) {
    throw std::invalid_argument(std::string("expected 1-bit operand in ") + what);
  }
}

ExprId Module::push(Expr e) {
  e.width = result_width(*this, e);
  if (const std::string why = width_violation(*this, e); !why.empty()) {
    throw std::invalid_argument(std::string(op_info(e.op).name) + ": " + why);
  }
  exprs_.push_back(std::move(e));
  return static_cast<ExprId>(exprs_.size() - 1);
}

namespace {
Expr node(Op op, ExprId a = kInvalidId, ExprId b = kInvalidId,
          ExprId c = kInvalidId) {
  Expr e;
  e.op = op;
  e.a = a;
  e.b = b;
  e.c = c;
  return e;
}
}  // namespace

ExprId Module::lit(const LVec& value) {
  Expr e = node(Op::kConst);
  e.literal = value;
  return push(std::move(e));
}

ExprId Module::lit_uint(std::uint64_t value, int width) {
  return lit(LVec::from_uint(value, width));
}

ExprId Module::ref(NetId net_id) {
  Expr e = node(Op::kNet);
  e.net = net_id;
  return push(std::move(e));
}

ExprId Module::ref(const std::string& net_name) {
  const NetId id = find_net(net_name);
  if (id == kInvalidId) throw std::invalid_argument("no such net: " + net_name);
  return ref(id);
}

ExprId Module::op_not(ExprId a) { return push(node(Op::kNot, a)); }
ExprId Module::op_and(ExprId a, ExprId b) { return push(node(Op::kAnd, a, b)); }
ExprId Module::op_or(ExprId a, ExprId b) { return push(node(Op::kOr, a, b)); }
ExprId Module::op_xor(ExprId a, ExprId b) { return push(node(Op::kXor, a, b)); }
ExprId Module::red_and(ExprId a) { return push(node(Op::kRedAnd, a)); }
ExprId Module::red_or(ExprId a) { return push(node(Op::kRedOr, a)); }
ExprId Module::red_xor(ExprId a) { return push(node(Op::kRedXor, a)); }
ExprId Module::eq(ExprId a, ExprId b) { return push(node(Op::kEq, a, b)); }
ExprId Module::ne(ExprId a, ExprId b) { return push(node(Op::kNe, a, b)); }
ExprId Module::add(ExprId a, ExprId b) { return push(node(Op::kAdd, a, b)); }
ExprId Module::sub(ExprId a, ExprId b) { return push(node(Op::kSub, a, b)); }

ExprId Module::mux(ExprId sel, ExprId then_e, ExprId else_e) {
  return push(node(Op::kMux, sel, then_e, else_e));
}

ExprId Module::concat(const std::vector<ExprId>& parts_msb_first) {
  Expr e = node(Op::kConcat);
  e.parts = parts_msb_first;
  return push(std::move(e));
}

ExprId Module::slice(ExprId a, int lo, int width) {
  Expr e = node(Op::kSlice, a);
  e.width = width;
  e.lo = lo;
  return push(std::move(e));
}

ExprId Module::mem_read(MemId mem, ExprId addr) {
  Expr e = node(Op::kMemRead, addr);
  e.mem = mem;
  return push(std::move(e));
}

void Module::assign(NetId target, ExprId value) {
  const Net& n = net(target);
  if (n.kind == NetKind::kInput) {
    throw std::invalid_argument("cannot assign input net: " + n.name);
  }
  if (n.kind == NetKind::kReg) {
    throw std::invalid_argument("cannot continuously assign reg: " + n.name);
  }
  if (n.width != expr_width(value)) {
    throw std::invalid_argument("assign width mismatch on " + n.name);
  }
  if (net_driven_[static_cast<std::size_t>(target)]) {
    throw std::invalid_argument("multiple continuous drivers on " + n.name);
  }
  net_driven_[static_cast<std::size_t>(target)] = true;
  assigns_.push_back(ContAssign{target, value});
}

void Module::tristate(NetId target, ExprId enable, ExprId value) {
  const Net& n = net(target);
  check_bit(enable, "tristate enable");
  if (n.width != expr_width(value)) {
    throw std::invalid_argument("tristate width mismatch on " + n.name);
  }
  if (net_driven_[static_cast<std::size_t>(target)]) {
    throw std::invalid_argument("tristate on continuously-driven net " + n.name);
  }
  tristates_.push_back(TriDriver{target, enable, value});
}

ProcId Module::process(const std::string& name, NetId clock, Edge edge) {
  if (net(clock).width != 1) {
    throw std::invalid_argument("clock must be 1 bit: " + net(clock).name);
  }
  Process p;
  p.name = name;
  p.clock = clock;
  p.edge = edge;
  processes_.push_back(std::move(p));
  return static_cast<ProcId>(processes_.size() - 1);
}

void Module::nonblocking(ProcId proc, NetId target_reg, ExprId value) {
  const Net& n = net(target_reg);
  if (n.kind != NetKind::kReg) {
    throw std::invalid_argument("nonblocking target must be a reg: " + n.name);
  }
  if (n.width != expr_width(value)) {
    throw std::invalid_argument("nonblocking width mismatch on " + n.name);
  }
  processes_.at(static_cast<std::size_t>(proc))
      .assigns.push_back(SeqAssign{target_reg, value});
}

MemId Module::memory(const std::string& name, int depth, int width) {
  if (depth <= 0 || width <= 0) throw std::invalid_argument("bad memory shape");
  Memory m;
  m.name = name;
  m.depth = depth;
  m.width = width;
  memories_.push_back(std::move(m));
  return static_cast<MemId>(memories_.size() - 1);
}

void Module::mem_write(ProcId proc, MemId mem, ExprId addr, ExprId data,
                       ExprId wen, std::vector<ExprId> byte_enables) {
  const Memory& m = memories_.at(static_cast<std::size_t>(mem));
  if (expr_width(data) != m.width) {
    throw std::invalid_argument("mem write data width mismatch: " + m.name);
  }
  check_bit(wen, "mem write enable");
  for (ExprId be : byte_enables) check_bit(be, "byte enable");
  if (!byte_enables.empty() &&
      m.width % static_cast<int>(byte_enables.size()) != 0) {
    throw std::invalid_argument("byte enable count mismatch: " + m.name);
  }
  MemWrite w;
  w.mem = mem;
  w.addr = addr;
  w.data = data;
  w.wen = wen;
  w.byte_enables = std::move(byte_enables);
  processes_.at(static_cast<std::size_t>(proc)).mem_writes.push_back(std::move(w));
}

void Module::instantiate(const std::string& name, const Module& child,
                         std::map<std::string, NetId> bindings) {
  for (const auto& [port, parent_net] : bindings) {
    const NetId child_net = child.find_net(port);
    if (child_net == kInvalidId) {
      throw std::invalid_argument("instance " + name + ": no port " + port +
                                  " in " + child.name());
    }
    const Net& cn = child.net(child_net);
    if (cn.kind != NetKind::kInput && cn.kind != NetKind::kOutput) {
      throw std::invalid_argument("instance " + name + ": " + port +
                                  " is not a port");
    }
    if (cn.width != net(parent_net).width) {
      throw std::invalid_argument("instance " + name + ": width mismatch on " +
                                  port);
    }
  }
  Instance inst;
  inst.name = name;
  inst.child = &child;
  inst.bindings = std::move(bindings);
  instances_.push_back(std::move(inst));
}

void Module::rewrite_assign(NetId target, ExprId value) {
  const Net& n = net(target);
  if (n.width != expr_width(value)) {
    throw std::invalid_argument("rewrite_assign width mismatch on " + n.name);
  }
  for (ContAssign& a : assigns_) {
    if (a.target == target) {
      a.value = value;
      return;
    }
  }
  throw std::invalid_argument("rewrite_assign: no continuous driver on " +
                              n.name);
}

void Module::map_assign(NetId target,
                        const std::function<ExprId(ExprId)>& fn) {
  for (ContAssign& a : assigns_) {
    if (a.target == target) {
      const ExprId replacement = fn(a.value);
      const Net& n = net(target);
      if (n.width != expr_width(replacement)) {
        throw std::invalid_argument("map_assign width mismatch on " + n.name);
      }
      a.value = replacement;
      return;
    }
  }
  throw std::invalid_argument("map_assign: no continuous driver on " +
                              net(target).name);
}

void Module::rewrite_nonblocking(NetId target_reg, ExprId value) {
  const Net& n = net(target_reg);
  if (n.kind != NetKind::kReg) {
    throw std::invalid_argument("rewrite_nonblocking target must be a reg: " +
                                n.name);
  }
  if (n.width != expr_width(value)) {
    throw std::invalid_argument("rewrite_nonblocking width mismatch on " +
                                n.name);
  }
  bool found = false;
  for (Process& p : processes_) {
    for (SeqAssign& a : p.assigns) {
      if (a.target == target_reg) {
        a.value = value;
        found = true;
      }
    }
  }
  if (!found) {
    throw std::invalid_argument("rewrite_nonblocking: reg never assigned: " +
                                n.name);
  }
}

void Module::map_nonblocking(NetId target_reg,
                             const std::function<ExprId(ExprId)>& fn) {
  const Net& n = net(target_reg);
  if (n.kind != NetKind::kReg) {
    throw std::invalid_argument("map_nonblocking target must be a reg: " +
                                n.name);
  }
  bool found = false;
  for (Process& p : processes_) {
    for (SeqAssign& a : p.assigns) {
      if (a.target == target_reg) {
        const ExprId replacement = fn(a.value);
        if (n.width != expr_width(replacement)) {
          throw std::invalid_argument("map_nonblocking width mismatch on " +
                                      n.name);
        }
        a.value = replacement;
        found = true;
      }
    }
  }
  if (!found) {
    throw std::invalid_argument("map_nonblocking: reg never assigned: " +
                                n.name);
  }
}

void Module::drop_nonblocking(NetId target_reg) {
  const Net& n = net(target_reg);
  if (n.kind != NetKind::kReg) {
    throw std::invalid_argument("drop_nonblocking target must be a reg: " +
                                n.name);
  }
  bool found = false;
  for (Process& p : processes_) {
    for (std::size_t i = p.assigns.size(); i-- > 0;) {
      if (p.assigns[i].target == target_reg) {
        p.assigns.erase(p.assigns.begin() + static_cast<std::ptrdiff_t>(i));
        found = true;
      }
    }
  }
  if (!found) {
    throw std::invalid_argument("drop_nonblocking: reg never assigned: " +
                                n.name);
  }
}

void Module::set_reg_init(NetId target_reg, LVec init) {
  Net& n = nets_.at(static_cast<std::size_t>(target_reg));
  if (n.kind != NetKind::kReg) {
    throw std::invalid_argument("set_reg_init target must be a reg: " + n.name);
  }
  if (init.width() != n.width) {
    throw std::invalid_argument("set_reg_init width mismatch on " + n.name);
  }
  n.init = std::move(init);
}

Module::Stats Module::stats() const {
  Stats s;
  for (const Net& n : nets_) {
    switch (n.kind) {
      case NetKind::kInput: ++s.inputs; break;
      case NetKind::kOutput: ++s.outputs; break;
      case NetKind::kWire: ++s.wires; break;
      case NetKind::kReg:
        ++s.regs;
        s.reg_bits += n.width;
        break;
    }
  }
  for (const Memory& m : memories_) {
    ++s.memories;
    s.memory_bits += m.depth * m.width;
  }
  s.assigns = static_cast<int>(assigns_.size());
  s.tristate_drivers = static_cast<int>(tristates_.size());
  s.processes = static_cast<int>(processes_.size());
  s.instances = static_cast<int>(instances_.size());
  s.exprs = static_cast<int>(exprs_.size());
  return s;
}

void collect_reads(const Module& m, ExprId root, std::set<ExprId>& visited,
                   std::set<NetId>* reads) {
  if (root == kInvalidId || !visited.insert(root).second) return;
  const Expr& e = m.expr(root);
  if (e.op == Op::kNet) {
    if (reads != nullptr) reads->insert(e.net);
    return;
  }
  for_each_operand(e, [&](ExprId id) { collect_reads(m, id, visited, reads); });
}

}  // namespace la1::rtl
