#include "plan/rules.hpp"

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

namespace la1::plan {
namespace {

using lint::LintReport;
using lint::Severity;

std::string live_bits_suffix(const XSafety& xs, rtl::NetId net) {
  const BitSafety& bs = xs.nets[static_cast<std::size_t>(net)];
  std::string bits;
  for (std::size_t b = 0; b < bs.cls.size(); ++b) {
    if (bs.cls[b] != BitClass::kXLive) continue;
    if (!bits.empty()) bits += ",";
    bits += std::to_string(b);
  }
  return bits;
}

void report_hotpath_reads(const rtl::Module& m, const XSafety& xs,
                          const std::set<rtl::NetId>& reads,
                          const std::string& target_kind,
                          const std::string& target_name, LintReport& report) {
  for (rtl::NetId net : reads) {
    if (!xs.net_any_live(net)) continue;
    report.add(kRuleXLiveHotpath, Severity::kError, target_name,
               target_kind + " logic reads x-live net '" + m.net(net).name +
                   "' (bits " + live_bits_suffix(xs, net) +
                   "): the X/Z sideband lands on the per-cycle hot path");
  }
}

/// Same leaf-or-negation expression. The builder does not hash-cons, so
/// two `ref(en)` calls yield distinct ExprIds; compare the small shapes
/// (net reference, literal, negation chains) by structure instead.
bool same_simple_expr(const rtl::Module& m, rtl::ExprId a, rtl::ExprId b) {
  if (a == b) return true;
  if (a == rtl::kInvalidId || b == rtl::kInvalidId) return false;
  const rtl::Expr& ea = m.expr(a);
  const rtl::Expr& eb = m.expr(b);
  if (ea.op != eb.op) return false;
  switch (ea.op) {
    case rtl::Op::kNet:
      return ea.net == eb.net;
    case rtl::Op::kConst:
      return ea.literal == eb.literal;
    case rtl::Op::kNot:
      return same_simple_expr(m, ea.a, eb.a);
    default:
      return false;
  }
}

/// Structurally `a == !b` or `b == !a` — the one exclusivity pattern the
/// abstract domain cannot see (both sides evaluate to {0,1}).
bool structurally_exclusive(const rtl::Module& m, rtl::ExprId a,
                            rtl::ExprId b) {
  const rtl::Expr& ea = m.expr(a);
  const rtl::Expr& eb = m.expr(b);
  return (ea.op == rtl::Op::kNot && same_simple_expr(m, ea.a, b)) ||
         (eb.op == rtl::Op::kNot && same_simple_expr(m, eb.a, a));
}

}  // namespace

LintReport check_x_live_hotpath(const rtl::Module& flat, const XSafety& xs) {
  LintReport report;
  for (const rtl::Process& p : flat.processes()) {
    for (const rtl::SeqAssign& sa : p.assigns) {
      // Registers count as reads too: an x-live register on a next-state
      // path needs the sideband as well.
      std::set<rtl::ExprId> visited;
      std::set<rtl::NetId> reads;
      rtl::collect_reads(flat, sa.value, visited, &reads);
      report_hotpath_reads(flat, xs, reads, "next-state",
                           flat.net(sa.target).name, report);
    }
    for (const rtl::MemWrite& mw : p.mem_writes) {
      std::set<rtl::ExprId> visited;
      std::set<rtl::NetId> reads;
      rtl::collect_reads(flat, mw.addr, visited, &reads);
      rtl::collect_reads(flat, mw.data, visited, &reads);
      rtl::collect_reads(flat, mw.wen, visited, &reads);
      for (rtl::ExprId be : mw.byte_enables) {
        rtl::collect_reads(flat, be, visited, &reads);
      }
      report_hotpath_reads(flat, xs, reads, "memory-write",
                           flat.memories()[static_cast<std::size_t>(mw.mem)]
                               .name,
                           report);
    }
  }
  return report;
}

LintReport check_port_conflicts(const rtl::Module& flat,
                                const dfa::Facts& facts) {
  LintReport report;
  dfa::AbsEvaluator ev(flat, facts.nets, facts.mems);

  struct Port {
    const rtl::MemWrite* write;
    std::string process;
  };
  std::map<std::tuple<rtl::MemId, rtl::NetId, rtl::Edge>, std::vector<Port>>
      groups;
  for (const rtl::Process& p : flat.processes()) {
    for (const rtl::MemWrite& mw : p.mem_writes) {
      groups[{mw.mem, p.clock, p.edge}].push_back(Port{&mw, p.name});
    }
  }

  for (const auto& [key, ports] : groups) {
    if (ports.size() < 2) continue;
    const rtl::Memory& mem =
        flat.memories()[static_cast<std::size_t>(std::get<0>(key))];
    for (std::size_t i = 0; i < ports.size(); ++i) {
      for (std::size_t j = i + 1; j < ports.size(); ++j) {
        const rtl::ExprId wi = ports[i].write->wen;
        const rtl::ExprId wj = ports[j].write->wen;
        // Provably exclusive: either enable abstractly never 1, or the
        // pair is structurally en / !en.
        if (!(ev.eval(wi)[0] & dfa::kAbs1)) continue;
        if (!(ev.eval(wj)[0] & dfa::kAbs1)) continue;
        if (structurally_exclusive(flat, wi, wj)) continue;
        report.add(kRulePortConflict, Severity::kError, mem.name,
                   "write ports in '" + ports[i].process + "' and '" +
                       ports[j].process +
                       "' share a clock edge with enables not provably "
                       "exclusive: the lowered single-port store drops one "
                       "write");
      }
    }
  }
  return report;
}

LintReport check_tristate_lowering(const rtl::Module& flat,
                                   const dfa::Facts& facts) {
  LintReport report;
  dfa::AbsEvaluator ev(flat, facts.nets, facts.mems);
  for (const rtl::TriDriver& td : flat.tristates()) {
    const dfa::AbsBit en = ev.eval(td.enable)[0];
    if (!dfa::abs_may_xz(en)) continue;
    report.add(kRuleTristateLower, Severity::kError, flat.net(td.target).name,
               "tristate enable can be X/Z: the bus cannot lower to a "
               "two-state select chain");
  }
  return report;
}

LintReport check_schedule_order(const rtl::Module& flat,
                                const std::vector<rtl::SchedNode>& order) {
  LintReport report;
  const rtl::TopoSchedule canon = rtl::topo_schedule(flat);
  for (const std::vector<rtl::NetId>& cycle : canon.comb_cycles) {
    report.add(kRuleSchedDiverge, Severity::kError,
               flat.net(cycle.front()).name,
               "combinational cycle: no dependency-valid evaluation order "
               "exists");
  }

  std::map<rtl::NetId, std::size_t> canon_of;
  for (std::size_t i = 0; i < canon.nodes.size(); ++i) {
    canon_of[canon.nodes[i].target] = i;
  }
  std::map<rtl::NetId, std::size_t> pos;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const rtl::NetId t = order[i].target;
    if (!canon_of.count(t)) {
      report.add(kRuleSchedDiverge, Severity::kError, flat.net(t).name,
                 "scheduled node is not a combinational producer of the "
                 "module");
      continue;
    }
    if (!pos.emplace(t, i).second) {
      report.add(kRuleSchedDiverge, Severity::kError, flat.net(t).name,
                 "net is scheduled more than once");
    }
  }
  for (const auto& [t, ci] : canon_of) {
    if (!pos.count(t)) {
      report.add(kRuleSchedDiverge, Severity::kError, flat.net(t).name,
                 "combinational producer missing from the schedule");
    }
  }
  if (!canon.acyclic()) return report;

  for (const auto& [t, p] : pos) {
    const std::size_t ci = canon_of.at(t);
    for (int dep : canon.deps[ci]) {
      const rtl::NetId dt = canon.nodes[static_cast<std::size_t>(dep)].target;
      const auto it = pos.find(dt);
      if (it != pos.end() && it->second >= p) {
        report.add(kRuleSchedDiverge, Severity::kError, flat.net(t).name,
                   "scheduled before its dependency '" + flat.net(dt).name +
                       "': evaluation would read a stale value");
      }
    }
  }
  return report;
}

}  // namespace la1::plan
