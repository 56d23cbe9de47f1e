#include "lint/netlist_lint.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "rtl/schedule.hpp"
#include "rtl/verilog.hpp"

namespace la1::lint {

namespace {

using rtl::Edge;
using rtl::Expr;
using rtl::ExprId;
using rtl::kInvalidId;
using rtl::Module;
using rtl::Net;
using rtl::NetId;
using rtl::NetKind;
using rtl::Op;

int ceil_log2(int n) {
  int bits = 0;
  while ((1 << bits) < n) ++bits;
  return bits == 0 ? 1 : bits;  // depth 1 still needs one address bit
}

/// Walks all analyses over one flat module.
class NetlistLinter {
 public:
  explicit NetlistLinter(const Module& m) : m_(&m) {}

  LintReport run() {
    index();
    check_drivers();
    check_usage();
    check_widths();
    check_comb_loops();
    check_resets();
    check_clocks();
    check_cdc();
    check_name_collisions();
    return std::move(report_);
  }

 private:
  // --- shared indexes ---------------------------------------------------

  void index() {
    const int nets = m_->net_count();
    cont_drivers_.assign(static_cast<std::size_t>(nets), 0);
    tri_drivers_.assign(static_cast<std::size_t>(nets), 0);
    used_in_logic_.assign(static_cast<std::size_t>(nets), false);
    is_clock_.assign(static_cast<std::size_t>(nets), false);
    adj_.assign(static_cast<std::size_t>(nets), {});

    for (const auto& a : m_->assigns()) {
      ++cont_drivers_[static_cast<std::size_t>(a.target)];
      add_comb_edges(a.target, {a.value});
      mark_used({a.value});
    }
    for (const auto& t : m_->tristates()) {
      ++tri_drivers_[static_cast<std::size_t>(t.target)];
      add_comb_edges(t.target, {t.enable, t.value});
      mark_used({t.enable, t.value});
    }
    for (std::size_t pi = 0; pi < m_->processes().size(); ++pi) {
      const auto& p = m_->processes()[pi];
      is_clock_[static_cast<std::size_t>(p.clock)] = true;
      for (const auto& sa : p.assigns) {
        reg_writers_[sa.target].push_back(static_cast<int>(pi));
        mark_used({sa.value});
      }
      for (const auto& w : p.mem_writes) {
        std::vector<ExprId> roots = {w.addr, w.data, w.wen};
        for (ExprId be : w.byte_enables) roots.push_back(be);
        mark_used(roots);
      }
    }
  }

  /// Nets referenced combinationally by `roots` (kMemRead contributes its
  /// address: the read port is combinational in the address, while the
  /// memory contents are state and break the path).
  void collect_refs(const std::vector<ExprId>& roots,
                    std::vector<NetId>& out) const {
    std::vector<ExprId> stack(roots);
    std::set<ExprId> seen;
    while (!stack.empty()) {
      const ExprId id = stack.back();
      stack.pop_back();
      if (id == kInvalidId || !seen.insert(id).second) continue;
      const Expr& e = m_->expr(id);
      if (e.op == Op::kNet) {
        out.push_back(e.net);
        continue;
      }
      if (e.a != kInvalidId) stack.push_back(e.a);
      if (e.op != Op::kMemRead) {  // b/c/parts unused by kMemRead
        if (e.b != kInvalidId) stack.push_back(e.b);
        if (e.c != kInvalidId) stack.push_back(e.c);
        for (ExprId p : e.parts) stack.push_back(p);
      }
    }
  }

  void add_comb_edges(NetId target, const std::vector<ExprId>& roots) {
    std::vector<NetId> refs;
    collect_refs(roots, refs);
    auto& edges = adj_[static_cast<std::size_t>(target)];
    edges.insert(edges.end(), refs.begin(), refs.end());
  }

  void mark_used(const std::vector<ExprId>& roots) {
    std::vector<NetId> refs;
    collect_refs(roots, refs);
    for (NetId n : refs) used_in_logic_[static_cast<std::size_t>(n)] = true;
  }

  // --- rules ------------------------------------------------------------

  void check_drivers() {
    for (NetId id = 0; id < m_->net_count(); ++id) {
      const Net& n = m_->net(id);
      const int cont = cont_drivers_[static_cast<std::size_t>(id)];
      const int tri = tri_drivers_[static_cast<std::size_t>(id)];
      if (cont > 0 && tri > 0) {
        report_.add("NET-MULTI-DRIVE", Severity::kError, n.name,
                    "net has a continuous assign and " + std::to_string(tri) +
                        " tristate driver(s); the assign always drives, so "
                        "every enabled tristate conflicts");
      }
      if (tri > 0 && n.kind == NetKind::kInput) {
        report_.add("NET-MULTI-DRIVE", Severity::kError, n.name,
                    "tristate driver on an input net fights the testbench "
                    "driver");
      }
      if (tri > 0 && n.kind == NetKind::kReg) {
        report_.add("NET-MULTI-DRIVE", Severity::kError, n.name,
                    "tristate driver on a register; registers are driven by "
                    "their process");
      }
    }
    for (const auto& [reg, writers] : reg_writers_) {
      const Net& n = m_->net(reg);
      std::set<int> distinct(writers.begin(), writers.end());
      if (distinct.size() > 1) {
        std::set<std::pair<NetId, Edge>> domains;
        for (int pi : distinct) {
          const auto& p = m_->processes()[static_cast<std::size_t>(pi)];
          domains.insert({p.clock, p.edge});
        }
        if (domains.size() > 1) {
          // The DDR set/clear idiom (write on K, clear on K#) is the normal
          // shape of this design's taps: the domains never fire on the same
          // edge, so the commits cannot race. Surface it as a note so real
          // CDC design review can find these registers.
          report_.add("NET-MIXED-CLOCK", Severity::kInfo, n.name,
                      "register is written from " +
                          std::to_string(distinct.size()) +
                          " processes in different clock/edge domains (DDR "
                          "set/clear idiom); confirm the edges never "
                          "coincide");
        } else {
          report_.add("NET-MULTI-DRIVE", Severity::kError, n.name,
                      "register is written from " +
                          std::to_string(distinct.size()) +
                          " processes on the same clock; simultaneous commits "
                          "race");
        }
      }
      if (writers.size() > distinct.size()) {
        report_.add("NET-DUP-NB", Severity::kWarning, n.name,
                    "register is assigned more than once in one process; the "
                    "last nonblocking assignment silently wins");
      }
    }
  }

  void check_usage() {
    for (NetId id = 0; id < m_->net_count(); ++id) {
      const Net& n = m_->net(id);
      const std::size_t i = static_cast<std::size_t>(id);
      const bool driven = cont_drivers_[i] > 0 || tri_drivers_[i] > 0 ||
                          n.kind == NetKind::kInput ||
                          (n.kind == NetKind::kReg &&
                           reg_writers_.count(id) != 0);
      const bool observed =
          used_in_logic_[i] || is_clock_[i] || n.kind == NetKind::kOutput;
      if (!driven && n.kind != NetKind::kReg) {
        // A driverless wire/output floats at X and poisons every reader.
        report_.add("NET-UNDRIVEN", observed ? Severity::kError : Severity::kWarning,
                    n.name,
                    observed
                        ? "net has no driver but is read (or exported); it "
                          "injects X into the design"
                        : "net has no driver");
      }
      if (!observed) {
        // An unread reg is often a deliberate observation tap (properties
        // and OVL monitors sample registered taps by name, invisibly to the
        // netlist), so it is a note; an unread driven wire is dead logic.
        const bool maybe_tap =
            n.kind == NetKind::kInput || n.kind == NetKind::kReg;
        report_.add("NET-UNUSED",
                    maybe_tap ? Severity::kInfo : Severity::kWarning, n.name,
                    n.kind == NetKind::kInput
                        ? "input pin is never sampled"
                        : (n.kind == NetKind::kReg
                               ? "register is never read by the netlist "
                                 "(verification tap or dead state)"
                               : "net is never read, exported, or used as a "
                                 "clock"));
      }
    }
  }

  int width_of(ExprId id) const { return m_->expr(id).width; }

  void expr_width_error(ExprId id, const std::string& why) {
    report_.add("NET-WIDTH", Severity::kError,
                "expr#" + std::to_string(id) + "(" +
                    rtl::op_info(m_->expr(id).op).name + ")",
                why);
  }

  void check_mem_addr(ExprId addr, rtl::MemId mem, const char* port) {
    const auto& memory = m_->memories()[static_cast<std::size_t>(mem)];
    const int aw = width_of(addr);
    const int need = ceil_log2(memory.depth);
    if (aw > need) {
      report_.add("NET-MEM-ADDR", Severity::kError, memory.name,
                  std::string(port) + " address is " + std::to_string(aw) +
                      " bits but depth " + std::to_string(memory.depth) +
                      " needs only " + std::to_string(need) +
                      "; out-of-range addresses alias silently");
    } else if (aw < need) {
      report_.add("NET-MEM-ADDR", Severity::kWarning, memory.name,
                  std::string(port) + " address is " + std::to_string(aw) +
                      " bits but depth " + std::to_string(memory.depth) +
                      " needs " + std::to_string(need) +
                      "; upper words are unreachable");
    }
  }

  /// Every expression against its operator's width rule (rtl/op.hpp). The
  /// builder enforces the same rule at construction; the unchecked memory
  /// address ports get their own NET-MEM-ADDR rule.
  void check_widths() {
    for (ExprId id = 0; id < m_->expr_count(); ++id) {
      const Expr& e = m_->expr(id);
      if (const std::string why = rtl::width_violation(*m_, e); !why.empty()) {
        expr_width_error(id, why);
      }
      if (e.op == Op::kMemRead) check_mem_addr(e.a, e.mem, "read port");
    }

    // Structural sinks: target widths must match their value expressions.
    for (const auto& a : m_->assigns()) {
      if (m_->net(a.target).width != width_of(a.value)) {
        report_.add("NET-WIDTH", Severity::kError, m_->net(a.target).name,
                    "continuous assign width mismatch");
      }
    }
    for (const auto& t : m_->tristates()) {
      if (m_->net(t.target).width != width_of(t.value)) {
        report_.add("NET-WIDTH", Severity::kError, m_->net(t.target).name,
                    "tristate value width mismatch");
      }
      if (width_of(t.enable) != 1) {
        report_.add("NET-WIDTH", Severity::kError, m_->net(t.target).name,
                    "tristate enable must be 1 bit");
      }
    }
    for (const auto& p : m_->processes()) {
      for (const auto& sa : p.assigns) {
        if (m_->net(sa.target).width != width_of(sa.value)) {
          report_.add("NET-WIDTH", Severity::kError, m_->net(sa.target).name,
                      "nonblocking assign width mismatch in process " + p.name);
        }
      }
      for (const auto& w : p.mem_writes) {
        const auto& memory = m_->memories()[static_cast<std::size_t>(w.mem)];
        if (width_of(w.data) != memory.width) {
          report_.add("NET-WIDTH", Severity::kError, memory.name,
                      "write data is " + std::to_string(width_of(w.data)) +
                          " bits into a " + std::to_string(memory.width) +
                          "-bit memory");
        }
        check_mem_addr(w.addr, w.mem, "write port");
      }
    }
  }

  void check_comb_loops() {
    // Shared Tarjan SCC (rtl/schedule.hpp) over the net dependency graph;
    // registers never appear as combinational targets, so they naturally
    // break cycles.
    for (const std::vector<int>& scc :
         rtl::strongly_connected_components(adj_)) {
      report_scc(scc);
    }
  }

  void report_scc(const std::vector<NetId>& scc) {
    bool cyclic = scc.size() > 1;
    if (!cyclic) {
      const std::size_t v = static_cast<std::size_t>(scc.front());
      for (NetId w : adj_[v]) cyclic = cyclic || w == scc.front();
    }
    if (!cyclic) return;
    std::ostringstream msg;
    msg << "combinational loop through " << scc.size() << " net(s): ";
    const std::size_t shown = std::min<std::size_t>(scc.size(), 8);
    for (std::size_t i = 0; i < shown; ++i) {
      if (i != 0) msg << " -> ";
      msg << m_->net(scc[i]).name;
    }
    if (scc.size() > shown) msg << " -> ...";
    report_.add("NET-COMB-LOOP", Severity::kError, m_->net(scc.front()).name,
                msg.str());
  }

  void check_resets() {
    for (NetId id = 0; id < m_->net_count(); ++id) {
      const Net& n = m_->net(id);
      if (n.kind != NetKind::kReg) continue;
      bool defined = true;
      for (int b = 0; b < n.init.width(); ++b) {
        defined = defined && rtl::is_01(n.init.bit(b));
      }
      if (!defined) {
        report_.add("NET-NO-RESET", Severity::kError, n.name,
                    "register init contains X/Z bits (" + n.init.to_string() +
                        "); the bit-blaster requires a defined reset value");
      }
    }
  }

  void check_clocks() {
    for (NetId id = 0; id < m_->net_count(); ++id) {
      const std::size_t i = static_cast<std::size_t>(id);
      if (!is_clock_[i]) continue;
      if (cont_drivers_[i] > 0 || tri_drivers_[i] > 0 ||
          m_->net(id).kind == NetKind::kReg) {
        report_.add("NET-GATED-CLOCK", Severity::kWarning, m_->net(id).name,
                    "process clock is driven by internal logic; gated/derived "
                    "clocks are outside the edge-schedule model");
      }
      if (used_in_logic_[i]) {
        report_.add("NET-GATED-CLOCK", Severity::kWarning, m_->net(id).name,
                    "clock net is also sampled as data; the bit-blaster "
                    "rejects clocks feeding combinational logic");
      }
    }
  }

  void check_cdc() {
    // Clock domain of each register (single-writer regs only; multi-writer
    // regs already carry a NET-MULTI-DRIVE or NET-MIXED-CLOCK finding).
    std::map<NetId, NetId> reg_clock;
    for (const auto& [reg, writers] : reg_writers_) {
      std::set<int> distinct(writers.begin(), writers.end());
      if (distinct.size() == 1) {
        reg_clock[reg] =
            m_->processes()[static_cast<std::size_t>(*distinct.begin())].clock;
      }
    }
    for (const auto& p : m_->processes()) {
      // Direct references, then transitively through combinational drivers.
      std::vector<ExprId> roots;
      for (const auto& sa : p.assigns) roots.push_back(sa.value);
      for (const auto& w : p.mem_writes) {
        roots.push_back(w.addr);
        roots.push_back(w.data);
        roots.push_back(w.wen);
        for (ExprId be : w.byte_enables) roots.push_back(be);
      }
      std::vector<NetId> frontier;
      collect_refs(roots, frontier);
      std::set<NetId> seen(frontier.begin(), frontier.end());
      while (!frontier.empty()) {
        const NetId net = frontier.back();
        frontier.pop_back();
        for (NetId src : adj_[static_cast<std::size_t>(net)]) {
          if (seen.insert(src).second) frontier.push_back(src);
        }
      }
      std::set<NetId> foreign_clocks;
      std::map<NetId, NetId> example;  // foreign clock -> sampled reg
      for (NetId net : seen) {
        auto it = reg_clock.find(net);
        if (it != reg_clock.end() && it->second != p.clock &&
            foreign_clocks.insert(it->second).second) {
          example[it->second] = net;
        }
      }
      for (NetId clk : foreign_clocks) {
        report_.add("NET-CDC", Severity::kInfo, p.name,
                    "process on " + m_->net(p.clock).name + " samples " +
                        m_->net(example[clk]).name + " clocked by " +
                        m_->net(clk).name +
                        "; intended for DDR pairs, otherwise a synchronizer "
                        "is required");
      }
    }
  }

  void check_name_collisions() {
    std::map<std::string, std::string> first;  // sanitized -> original
    auto claim = [&](const std::string& name, const char* what) {
      const std::string s = rtl::verilog_base_name(name);
      auto [it, fresh] = first.emplace(s, name);
      if (!fresh && it->second != name) {
        report_.add("NET-NAME-COLLISION", Severity::kWarning, name,
                    std::string(what) + " sanitizes to '" + s +
                        "', colliding with '" + it->second +
                        "'; the Verilog emitter must rename one");
      }
    };
    for (NetId id = 0; id < m_->net_count(); ++id) {
      claim(m_->net(id).name, "net");
    }
    for (const auto& mem : m_->memories()) claim(mem.name, "memory");
  }

  const Module* m_;
  LintReport report_;

  std::vector<int> cont_drivers_;
  std::vector<int> tri_drivers_;
  std::vector<bool> used_in_logic_;
  std::vector<bool> is_clock_;
  std::map<NetId, std::vector<int>> reg_writers_;  // reg -> process ids
  std::vector<std::vector<NetId>> adj_;  // comb target -> supporting nets
};

}  // namespace

LintReport lint_netlist(const Module& m) {
  if (!m.instances().empty()) {
    const Module flat = rtl::elaborate(m);
    return NetlistLinter(flat).run();
  }
  return NetlistLinter(m).run();
}

}  // namespace la1::lint
