#include "lint/seq_lint.hpp"

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dfa/abstract.hpp"
#include "dfa/sweep.hpp"

namespace la1::lint {
namespace {

/// Nets referenced (through kNet) by any expression of the module.
std::set<rtl::NetId> read_nets(const rtl::Module& m) {
  std::set<rtl::ExprId> visited;
  std::set<rtl::NetId> read;
  auto mark = [&](rtl::ExprId root) {
    rtl::collect_reads(m, root, visited, &read);
  };
  for (const rtl::ContAssign& ca : m.assigns()) mark(ca.value);
  for (const rtl::TriDriver& td : m.tristates()) {
    mark(td.enable);
    mark(td.value);
  }
  for (const rtl::Process& p : m.processes()) {
    for (const rtl::SeqAssign& sa : p.assigns) mark(sa.value);
    for (const rtl::MemWrite& mw : p.mem_writes) {
      mark(mw.addr);
      mark(mw.data);
      mark(mw.wen);
      for (rtl::ExprId be : mw.byte_enables) mark(be);
    }
  }
  return read;
}

/// "net[3]" -> "net"; names without a bit suffix pass through.
std::string base_name(const std::string& bit_name) {
  const std::size_t pos = bit_name.rfind('[');
  return pos == std::string::npos ? bit_name : bit_name.substr(0, pos);
}

/// Elaboration prefix of a flattened name: "bank0.s0_addr" -> "bank0",
/// un-dotted names -> "".
std::string instance_of(const std::string& name) {
  const std::size_t dot = name.find('.');
  return dot == std::string::npos ? std::string() : name.substr(0, dot);
}

/// Does the expression reference at least one net?
bool reads_any_net(const rtl::Module& m, rtl::ExprId root) {
  std::set<rtl::ExprId> visited;
  std::set<rtl::NetId> reads;
  rtl::collect_reads(m, root, visited, &reads);
  return !reads.empty();
}

void sweep_rules(const rtl::Module& flat, LintReport& report) {
  // The sweep needs the blasted FSM; modules the blaster rejects (comb
  // loops, X inits, clocks into logic) simply skip this rule — the
  // structural linter already reports those defects.
  dfa::InvariantSet invariants;
  try {
    const rtl::Module expanded = rtl::expand_memories(flat);
    std::vector<rtl::ClockStep> schedule;
    for (const rtl::Process& p : expanded.processes()) {
      const rtl::ClockStep step{p.clock, p.edge};
      bool seen = false;
      for (const rtl::ClockStep& s : schedule) {
        seen |= s.clock == step.clock && s.edge == step.edge;
      }
      if (!seen) schedule.push_back(step);
    }
    if (schedule.empty()) return;
    invariants = dfa::sweep(rtl::bitblast(expanded, schedule));
  } catch (const std::exception&) {
    return;
  }

  const std::set<rtl::NetId> read = read_nets(flat);
  auto reported_reg = [&](const std::string& base) {
    // Only registers of the pre-expansion netlist that something actually
    // reads; memory-expansion words and write-only observation taps are
    // redundant by design, not by defect.
    const rtl::NetId id = flat.find_net(base);
    if (id == rtl::kInvalidId) return false;
    if (flat.net(id).kind != rtl::NetKind::kReg) return false;
    return read.count(id) != 0;
  };

  std::set<std::pair<std::string, std::string>> seen_pairs;
  for (const dfa::Invariant& inv : invariants.invariants()) {
    if (inv.kind == dfa::Invariant::Kind::kConst) continue;  // NET-CONST's job
    const std::string a = base_name(inv.a);
    const std::string b = base_name(inv.b);
    if (a == b) continue;  // intra-register structure (packed parity bits)
    // Registers of *different* elaborated instances mirror each other by
    // construction whenever the instances share input buses (the N-bank
    // replication): equivalence across instances is the architecture, not
    // a defect.
    if (instance_of(a) != instance_of(b)) continue;
    if (!reported_reg(a) || !reported_reg(b)) continue;
    if (!seen_pairs.insert({a, b}).second) continue;
    const bool complement = inv.kind == dfa::Invariant::Kind::kComplement;
    report.add("NET-EQUIV-REG", Severity::kWarning, b,
               std::string("register provably ") +
                   (complement ? "complementary to" : "equivalent to") +
                   " register '" + a + "' in every reachable state; one of " +
                   "the pair is redundant");
  }
}

}  // namespace

LintReport lint_sequential(const rtl::Module& m) {
  const bool hierarchical = !m.instances().empty();
  const rtl::Module flat = hierarchical ? rtl::elaborate(m) : m;

  LintReport report;
  const dfa::Facts facts = dfa::analyze(flat);

  for (rtl::NetId id = 0; id < flat.net_count(); ++id) {
    const rtl::Net& n = flat.net(id);
    if (n.kind != rtl::NetKind::kReg) continue;
    rtl::LVec value;
    if (facts.net_constant(id, &value)) {
      report.add("NET-CONST", Severity::kWarning, n.name,
                 "register provably stuck at " + value.to_string() +
                     " in every reachable state");
    } else if (facts.net_x_forever(id)) {
      report.add("NET-X-RESET", Severity::kError, n.name,
                 "register is X out of reset and provably never recovers a "
                 "defined value");
    }
  }

  for (const rtl::ContAssign& ca : flat.assigns()) {
    const rtl::Expr& e = flat.expr(ca.value);
    if (e.op == rtl::Op::kConst || e.op == rtl::Op::kNet) continue;
    if (!reads_any_net(flat, ca.value)) continue;
    rtl::LVec value;
    if (facts.net_constant(ca.target, &value)) {
      report.add("NET-DEAD-LOGIC", Severity::kWarning,
                 flat.net(ca.target).name,
                 "combinational cone provably evaluates to " +
                     value.to_string() + " in every reachable state");
    }
  }

  sweep_rules(flat, report);
  return report;
}

}  // namespace la1::lint
