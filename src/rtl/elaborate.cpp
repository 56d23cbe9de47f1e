// Hierarchy flattening and memory expansion.
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "rtl/netlist.hpp"

namespace la1::rtl {

/// Copies `e` into `out` with its net, memory and operand ids remapped
/// (operands through `exprmap`, which must already hold them).
ExprId copy_expr(Module& out, Expr e, const std::vector<NetId>& netmap,
                 const std::vector<MemId>& memmap,
                 const std::vector<ExprId>& exprmap) {
  if (e.net != kInvalidId) e.net = netmap[static_cast<std::size_t>(e.net)];
  if (e.mem != kInvalidId) e.mem = memmap[static_cast<std::size_t>(e.mem)];
  for_each_operand(e, [&exprmap](ExprId& id) {
    id = exprmap[static_cast<std::size_t>(id)];
  });
  return out.push(std::move(e));
}

namespace {

/// Copies `m` into `out` with `prefix`-qualified names. `portmap` maps child
/// port names to nets that already exist in `out`; everything else is
/// created fresh. Recurses into instances.
void flatten_into(Module& out, const Module& m, const std::string& prefix,
                  const std::map<std::string, NetId>& portmap) {
  const bool is_top = prefix.empty();

  std::vector<NetId> netmap(static_cast<std::size_t>(m.net_count()), kInvalidId);
  for (NetId id = 0; id < m.net_count(); ++id) {
    const Net& n = m.net(id);
    auto bound = portmap.find(n.name);
    if (bound != portmap.end()) {
      netmap[static_cast<std::size_t>(id)] = bound->second;
      continue;
    }
    const std::string name = prefix + n.name;
    switch (n.kind) {
      case NetKind::kInput:
        netmap[static_cast<std::size_t>(id)] =
            is_top ? out.input(name, n.width) : out.wire(name, n.width);
        break;
      case NetKind::kOutput:
        netmap[static_cast<std::size_t>(id)] =
            is_top ? out.output(name, n.width) : out.wire(name, n.width);
        break;
      case NetKind::kWire:
        netmap[static_cast<std::size_t>(id)] = out.wire(name, n.width);
        break;
      case NetKind::kReg:
        netmap[static_cast<std::size_t>(id)] = out.reg(name, n.width, n.init);
        break;
    }
  }

  std::vector<MemId> memmap;
  memmap.reserve(m.memories().size());
  for (const Memory& mem : m.memories()) {
    memmap.push_back(out.memory(prefix + mem.name, mem.depth, mem.width));
  }

  // Expressions reference only lower-id operands (builder order), so one
  // forward pass suffices.
  std::vector<ExprId> exprmap;
  exprmap.reserve(static_cast<std::size_t>(m.expr_count()));
  for (ExprId id = 0; id < m.expr_count(); ++id) {
    exprmap.push_back(copy_expr(out, m.expr(id), netmap, memmap, exprmap));
  }
  auto mapped = [&exprmap](ExprId id) {
    return id == kInvalidId ? kInvalidId : exprmap[static_cast<std::size_t>(id)];
  };

  for (const ContAssign& a : m.assigns()) {
    out.assign(netmap[static_cast<std::size_t>(a.target)], mapped(a.value));
  }
  for (const TriDriver& t : m.tristates()) {
    out.tristate(netmap[static_cast<std::size_t>(t.target)], mapped(t.enable),
                 mapped(t.value));
  }
  for (const Process& p : m.processes()) {
    const ProcId proc = out.process(
        prefix + p.name, netmap[static_cast<std::size_t>(p.clock)], p.edge);
    for (const SeqAssign& sa : p.assigns) {
      out.nonblocking(proc, netmap[static_cast<std::size_t>(sa.target)],
                      mapped(sa.value));
    }
    for (const MemWrite& w : p.mem_writes) {
      std::vector<ExprId> bes;
      bes.reserve(w.byte_enables.size());
      for (ExprId be : w.byte_enables) bes.push_back(mapped(be));
      out.mem_write(proc, memmap[static_cast<std::size_t>(w.mem)], mapped(w.addr),
                    mapped(w.data), mapped(w.wen), std::move(bes));
    }
  }

  for (const Instance& inst : m.instances()) {
    std::map<std::string, NetId> child_ports;
    for (const auto& [port, parent_net] : inst.bindings) {
      child_ports[port] = netmap[static_cast<std::size_t>(parent_net)];
    }
    flatten_into(out, *inst.child, prefix + inst.name + ".", child_ports);
  }
}

}  // namespace

Module elaborate(const Module& top) {
  Module out(top.name());
  flatten_into(out, top, "", {});
  return out;
}

Module expand_memories(const Module& flat) {
  if (!flat.instances().empty()) {
    throw std::invalid_argument("expand_memories requires a flat module");
  }
  Module out(flat.name());

  // Nets copy 1:1 (same ids).
  for (NetId id = 0; id < flat.net_count(); ++id) {
    const Net& n = flat.net(id);
    switch (n.kind) {
      case NetKind::kInput: out.input(n.name, n.width); break;
      case NetKind::kOutput: out.output(n.name, n.width); break;
      case NetKind::kWire: out.wire(n.name, n.width); break;
      case NetKind::kReg: out.reg(n.name, n.width, n.init); break;
    }
  }

  // One register per memory word.
  std::vector<std::vector<NetId>> words(flat.memories().size());
  for (std::size_t mi = 0; mi < flat.memories().size(); ++mi) {
    const Memory& mem = flat.memories()[mi];
    words[mi].reserve(static_cast<std::size_t>(mem.depth));
    for (int w = 0; w < mem.depth; ++w) {
      words[mi].push_back(
          out.reg(mem.name + ".w" + std::to_string(w), mem.width,
                  LVec::zeros(mem.width)));
    }
  }

  std::vector<NetId> same_net(static_cast<std::size_t>(flat.net_count()));
  std::iota(same_net.begin(), same_net.end(), 0);
  std::vector<ExprId> exprmap;
  exprmap.reserve(static_cast<std::size_t>(flat.expr_count()));
  for (ExprId id = 0; id < flat.expr_count(); ++id) {
    const Expr& e = flat.expr(id);
    if (e.op != Op::kMemRead) {
      exprmap.push_back(copy_expr(out, e, same_net, {}, exprmap));
      continue;
    }
    // Read mux chain over the word registers; out-of-range addresses
    // select the last word (model-checking configs size the address
    // exactly, so the case never arises there).
    const Memory& mem = flat.memories()[static_cast<std::size_t>(e.mem)];
    const std::vector<NetId>& word = words[static_cast<std::size_t>(e.mem)];
    const ExprId addr = exprmap[static_cast<std::size_t>(e.a)];
    const int aw = flat.expr(e.a).width;
    ExprId acc = out.ref(word.back());
    for (int w = mem.depth - 2; w >= 0; --w) {
      const ExprId sel =
          out.eq(addr, out.lit_uint(static_cast<std::uint64_t>(w), aw));
      acc = out.mux(sel, out.ref(word[static_cast<std::size_t>(w)]), acc);
    }
    exprmap.push_back(acc);
  }
  auto mapped = [&exprmap](ExprId id) {
    return id == kInvalidId ? kInvalidId : exprmap[static_cast<std::size_t>(id)];
  };

  for (const ContAssign& a : flat.assigns()) out.assign(a.target, mapped(a.value));
  for (const TriDriver& t : flat.tristates()) {
    out.tristate(t.target, mapped(t.enable), mapped(t.value));
  }

  for (const Process& p : flat.processes()) {
    const ProcId proc = out.process(p.name, p.clock, p.edge);
    for (const SeqAssign& sa : p.assigns) {
      out.nonblocking(proc, sa.target, mapped(sa.value));
    }
    // Expand each memory write into per-word next-value muxes; successive
    // writes in one process compose in order (later wins).
    std::map<MemId, std::vector<ExprId>> next_words;
    for (const MemWrite& w : p.mem_writes) {
      const Memory& mem = flat.memories()[static_cast<std::size_t>(w.mem)];
      auto& nw = next_words[w.mem];
      if (nw.empty()) {
        for (NetId word : words[static_cast<std::size_t>(w.mem)]) {
          nw.push_back(out.ref(word));
        }
      }
      const ExprId addr = mapped(w.addr);
      const int aw = flat.expr(w.addr).width;
      const ExprId wen = mapped(w.wen);
      for (int wi = 0; wi < mem.depth; ++wi) {
        const ExprId hit = out.op_and(
            wen,
            out.eq(addr, out.lit_uint(static_cast<std::uint64_t>(wi), aw)));
        ExprId& cur = nw[static_cast<std::size_t>(wi)];
        if (w.byte_enables.empty()) {
          cur = out.mux(hit, mapped(w.data), cur);
        } else {
          std::vector<ExprId> lanes_msb_first;
          const int lanes = static_cast<int>(w.byte_enables.size());
          const int lw = mem.width / lanes;
          for (int lane = lanes - 1; lane >= 0; --lane) {
            const ExprId lane_on = out.op_and(
                hit, mapped(w.byte_enables[static_cast<std::size_t>(lane)]));
            lanes_msb_first.push_back(
                out.mux(lane_on, out.slice(mapped(w.data), lane * lw, lw),
                        out.slice(cur, lane * lw, lw)));
          }
          cur = out.concat(lanes_msb_first);
        }
      }
    }
    for (const auto& [mem_id, nw] : next_words) {
      for (std::size_t wi = 0; wi < nw.size(); ++wi) {
        out.nonblocking(proc, words[static_cast<std::size_t>(mem_id)][wi], nw[wi]);
      }
    }
  }

  return out;
}

}  // namespace la1::rtl
