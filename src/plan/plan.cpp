#include "plan/plan.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

#include "util/table.hpp"

namespace la1::plan {
namespace {

/// 64-bit words needed to hold `width` bits — the backend's slot unit.
int words(int width) { return (width + 63) / 64; }

int detect_banks(const rtl::Module& flat) {
  std::set<int> indices;
  for (const rtl::Net& n : flat.nets()) {
    if (n.name.rfind("bank", 0) != 0) continue;
    std::size_t i = 4;
    int idx = 0;
    bool digits = false;
    while (i < n.name.size() && n.name[i] >= '0' && n.name[i] <= '9') {
      idx = idx * 10 + (n.name[i] - '0');
      digits = true;
      ++i;
    }
    if (digits && i < n.name.size() && n.name[i] == '.') indices.insert(idx);
  }
  return static_cast<int>(indices.size());
}

ScheduleSummary summarize_schedule(const rtl::Module& flat,
                                   const rtl::TopoSchedule& sched) {
  ScheduleSummary out;
  out.nodes = static_cast<int>(sched.nodes.size());
  out.depth = sched.depth();

  std::set<rtl::ExprId> comb_visited;
  for (const rtl::SchedNode& node : sched.nodes) {
    for (rtl::ExprId e : node.assign_values) {
      rtl::collect_reads(flat, e, comb_visited, nullptr);
    }
    for (rtl::ExprId e : node.tri_enables) {
      rtl::collect_reads(flat, e, comb_visited, nullptr);
    }
  }
  out.comb_ops = static_cast<int>(comb_visited.size());

  std::set<rtl::ExprId> seq_visited;
  std::set<rtl::NetId> seq_reads;
  for (const rtl::Process& p : flat.processes()) {
    for (const rtl::SeqAssign& sa : p.assigns) {
      rtl::collect_reads(flat, sa.value, seq_visited, &seq_reads);
    }
    for (const rtl::MemWrite& mw : p.mem_writes) {
      rtl::collect_reads(flat, mw.addr, seq_visited, &seq_reads);
      rtl::collect_reads(flat, mw.data, seq_visited, &seq_reads);
      rtl::collect_reads(flat, mw.wen, seq_visited, &seq_reads);
      for (rtl::ExprId be : mw.byte_enables) {
        rtl::collect_reads(flat, be, seq_visited, &seq_reads);
      }
    }
  }
  out.seq_ops = static_cast<int>(seq_visited.size());

  // Inputs, registers and memory arrays stay resident for the whole
  // evaluation; combinational targets are temporaries a liveness-driven
  // allocator can recycle.
  for (const rtl::Net& n : flat.nets()) {
    if (n.kind == rtl::NetKind::kInput || n.kind == rtl::NetKind::kReg) {
      out.resident_slots += words(n.width);
    }
  }
  for (const rtl::Memory& mem : flat.memories()) {
    out.resident_slots += mem.depth * words(mem.width);
  }

  // Liveness interval per scheduled target: defined at its node index,
  // dead after its last combinational reader — unless a process, an output
  // port or nothing at all reads it, which pins it to the end of the pass
  // (observable or owed to the sequential step).
  const std::size_t n_nodes = sched.nodes.size();
  std::map<rtl::NetId, std::size_t> def_at;
  for (std::size_t i = 0; i < n_nodes; ++i) def_at[sched.nodes[i].target] = i;
  std::map<rtl::NetId, std::size_t> last_use;
  for (const auto& [net, i] : def_at) last_use[net] = i;
  for (std::size_t i = 0; i < n_nodes; ++i) {
    for (rtl::NetId r : sched.reads[i]) {
      const auto it = last_use.find(r);
      if (it != last_use.end() && i > it->second) it->second = i;
    }
  }
  for (const auto& [net, i] : def_at) {
    const rtl::Net& n = flat.net(net);
    const bool observable =
        n.kind == rtl::NetKind::kOutput || seq_reads.count(net) != 0;
    const bool unread = last_use.at(net) == i;  // no combinational reader
    if (observable || unread) last_use[net] = n_nodes;  // live to the end
  }

  // Greedy allocation sweep: release slots whose interval ended, then
  // place the node's target; the high-water mark is the peak temp count.
  std::vector<std::vector<rtl::NetId>> release_at(n_nodes + 1);
  for (const auto& [net, last] : last_use) {
    if (last < n_nodes) release_at[last + 1].push_back(net);
  }
  int in_use = 0;
  for (std::size_t i = 0; i < n_nodes; ++i) {
    for (rtl::NetId net : release_at[i]) in_use -= words(flat.net(net).width);
    in_use += words(flat.net(sched.nodes[i].target).width);
    if (in_use > out.peak_temp_slots) out.peak_temp_slots = in_use;
  }
  out.peak_slots = out.resident_slots + out.peak_temp_slots;
  return out;
}

CostModel build_cost(const ScheduleSummary& sched, int edges_per_cycle,
                     const CompilePlan::BitCounts& all_bits) {
  CostModel cost;
  // The interpreter (and the compiled backend) settles the cloud once per
  // clock edge and runs every process expression once per round.
  cost.ops_per_cycle = static_cast<double>(sched.comb_ops) *
                           std::max(edges_per_cycle, 1) +
                       static_cast<double>(sched.seq_ops);
  cost.slot_pressure = sched.peak_slots;
  cost.x_sideband_fraction =
      all_bits.total() == 0
          ? 0.0
          : static_cast<double>(all_bits.live) /
                static_cast<double>(all_bits.total());
  cost.predicted = cost.ops_per_cycle * (1.0 + cost.x_sideband_fraction);
  return cost;
}

NetSafetySummary summarize_bits(std::string name, int width, bool is_state,
                                const BitSafety& bs) {
  NetSafetySummary s;
  s.net = std::move(name);
  s.width = width;
  s.is_state = is_state;
  s.classes.reserve(bs.cls.size());
  for (std::size_t b = 0; b < bs.cls.size(); ++b) {
    s.classes.push_back(to_char(bs.cls[b]));
    if (bs.settle[b] > s.settle) s.settle = bs.settle[b];
  }
  return s;
}

util::Json counts_json(const CompilePlan::BitCounts& c) {
  util::Json j = util::Json::object();
  j.set("proven", c.proven);
  j.set("transient", c.transient);
  j.set("live", c.live);
  j.set("total", c.total());
  return j;
}

const util::Json& need(const util::Json& j, const std::string& key) {
  const util::Json* v = j.find(key);
  if (v == nullptr) {
    throw std::invalid_argument("CompilePlan JSON missing key: " + key);
  }
  return *v;
}

std::string pct(double fraction) {
  return util::fmt_double(100.0 * fraction, 1) + "%";
}

}  // namespace

CompilePlan::BitCounts CompilePlan::bit_counts(bool state_only) const {
  BitCounts c;
  for (const NetSafetySummary& n : nets) {
    if (state_only && !n.is_state) continue;
    for (char ch : n.classes) {
      if (ch == 'P') ++c.proven;
      else if (ch == 'T') ++c.transient;
      else ++c.live;
    }
  }
  return c;
}

double CompilePlan::two_state_fraction(bool state_only) const {
  const BitCounts c = bit_counts(state_only);
  if (c.total() == 0) return 1.0;
  return static_cast<double>(c.proven) / static_cast<double>(c.total());
}

std::string CompilePlan::render() const {
  std::string out = "Compile plan for '" + target + "'";
  if (banks > 0) out += " (" + std::to_string(banks) + " banks)";
  out += "\n\n";

  const BitCounts all = bit_counts(false);
  const BitCounts state = bit_counts(true);
  util::Table cls({"Class", "All bits", "State bits"});
  cls.add_row({"proven2state", std::to_string(all.proven),
               std::to_string(state.proven)});
  cls.add_row({"x-transient", std::to_string(all.transient),
               std::to_string(state.transient)});
  cls.add_row({"x-live", std::to_string(all.live), std::to_string(state.live)});
  out += cls.render();
  out += "two-state: " + pct(two_state_fraction(false)) + " of all bits, " +
         pct(two_state_fraction(true)) + " of state bits";
  int max_settle = 0;
  for (const NetSafetySummary& n : nets) max_settle = std::max(max_settle, n.settle);
  if (max_settle > 0) {
    out += "; transients settle by cycle " + std::to_string(max_settle);
  }
  out += "\n";
  out += periodic ? "trajectory periodic from cycle " +
                        std::to_string(period_start) + " (" +
                        std::to_string(cycles_analyzed) + " cycles analyzed)\n"
                  : "trajectory did not close a loop (" +
                        std::to_string(cycles_analyzed) +
                        " cycles analyzed); unsettled bits demoted to "
                        "x-live\n";

  out += "\nschedule: " + std::to_string(schedule.nodes) + " nodes, depth " +
         std::to_string(schedule.depth) + ", " +
         std::to_string(schedule.comb_ops) + " comb ops + " +
         std::to_string(schedule.seq_ops) + " seq ops\n";
  out += "slots: " + std::to_string(schedule.resident_slots) + " resident + " +
         std::to_string(schedule.peak_temp_slots) + " peak temps = " +
         std::to_string(schedule.peak_slots) + " peak words\n";
  out += "cost: " + util::fmt_double(cost.ops_per_cycle, 1) +
         " ops/cycle, sideband fraction " +
         util::fmt_double(cost.x_sideband_fraction, 4) + ", predicted " +
         util::fmt_double(cost.predicted, 1) + "\n\n";
  out += findings.empty() ? std::string("no findings\n") : findings.render();
  return out;
}

util::Json CompilePlan::to_json() const {
  util::Json j = util::Json::object();
  j.set("target", target);
  j.set("banks", banks);
  j.set("cycles_analyzed", cycles_analyzed);
  j.set("periodic", periodic);
  j.set("period_start", period_start);

  util::Json two = util::Json::object();
  util::Json net_arr = util::Json::array();
  for (const NetSafetySummary& n : nets) {
    util::Json e = util::Json::object();
    e.set("net", n.net);
    e.set("width", n.width);
    e.set("state", n.is_state);
    e.set("classes", n.classes);
    e.set("settle", n.settle);
    net_arr.push(std::move(e));
  }
  two.set("nets", std::move(net_arr));
  two.set("bits", counts_json(bit_counts(false)));
  two.set("state_bits", counts_json(bit_counts(true)));
  two.set("fraction", two_state_fraction(false));
  two.set("state_fraction", two_state_fraction(true));
  j.set("two_state", std::move(two));

  util::Json s = util::Json::object();
  s.set("nodes", schedule.nodes);
  s.set("depth", schedule.depth);
  s.set("comb_ops", schedule.comb_ops);
  s.set("seq_ops", schedule.seq_ops);
  s.set("resident_slots", schedule.resident_slots);
  s.set("peak_temp_slots", schedule.peak_temp_slots);
  s.set("peak_slots", schedule.peak_slots);
  j.set("schedule", std::move(s));

  util::Json c = util::Json::object();
  c.set("ops_per_cycle", cost.ops_per_cycle);
  c.set("slot_pressure", cost.slot_pressure);
  c.set("x_sideband_fraction", cost.x_sideband_fraction);
  c.set("predicted", cost.predicted);
  j.set("cost", std::move(c));

  j.set("findings", findings.to_json());
  return j;
}

CompilePlan CompilePlan::from_json(const util::Json& j) {
  if (!j.is_object()) {
    throw std::invalid_argument("CompilePlan JSON must be an object");
  }
  CompilePlan p;
  p.target = need(j, "target").as_string();
  p.banks = static_cast<int>(need(j, "banks").as_int());
  p.cycles_analyzed = static_cast<int>(need(j, "cycles_analyzed").as_int());
  p.periodic = need(j, "periodic").as_bool();
  p.period_start = static_cast<int>(need(j, "period_start").as_int());

  const util::Json& two = need(j, "two_state");
  for (const util::Json& e : need(two, "nets").items()) {
    NetSafetySummary n;
    n.net = need(e, "net").as_string();
    n.width = static_cast<int>(need(e, "width").as_int());
    n.is_state = need(e, "state").as_bool();
    n.classes = need(e, "classes").as_string();
    n.settle = static_cast<int>(need(e, "settle").as_int());
    for (char c : n.classes) bit_class_from_char(c);  // validate
    p.nets.push_back(std::move(n));
  }

  const util::Json& s = need(j, "schedule");
  p.schedule.nodes = static_cast<int>(need(s, "nodes").as_int());
  p.schedule.depth = static_cast<int>(need(s, "depth").as_int());
  p.schedule.comb_ops = static_cast<int>(need(s, "comb_ops").as_int());
  p.schedule.seq_ops = static_cast<int>(need(s, "seq_ops").as_int());
  p.schedule.resident_slots =
      static_cast<int>(need(s, "resident_slots").as_int());
  p.schedule.peak_temp_slots =
      static_cast<int>(need(s, "peak_temp_slots").as_int());
  p.schedule.peak_slots = static_cast<int>(need(s, "peak_slots").as_int());

  const util::Json& c = need(j, "cost");
  p.cost.ops_per_cycle = need(c, "ops_per_cycle").as_double();
  p.cost.slot_pressure = need(c, "slot_pressure").as_double();
  p.cost.x_sideband_fraction = need(c, "x_sideband_fraction").as_double();
  p.cost.predicted = need(c, "predicted").as_double();

  p.findings = lint::LintReport::from_json(need(j, "findings"));
  return p;
}

std::vector<rtl::ClockStep> default_schedule(const rtl::Module& flat) {
  std::vector<rtl::ClockStep> schedule;
  for (const rtl::Process& p : flat.processes()) {
    bool known = false;
    for (const rtl::ClockStep& s : schedule) {
      known |= s.clock == p.clock && s.edge == p.edge;
    }
    if (!known) schedule.push_back({p.clock, p.edge});
  }
  return schedule;
}

CompilePlan analyze(const rtl::Module& flat, const PlanOptions& opt) {
  const std::vector<rtl::ClockStep> schedule =
      opt.schedule.empty() ? default_schedule(flat) : opt.schedule;

  const dfa::Facts facts = dfa::analyze(flat);
  XSafetyOptions xopt;
  xopt.max_cycles = opt.max_cycles;
  const XSafety xs = prove_x_safety(flat, schedule, &facts, xopt);
  const rtl::TopoSchedule topo = rtl::topo_schedule(flat);

  CompilePlan p;
  p.target = flat.name();
  p.banks = detect_banks(flat);
  p.cycles_analyzed = xs.cycles_analyzed;
  p.periodic = xs.periodic;
  p.period_start = xs.period_start;

  for (rtl::NetId id = 0; id < flat.net_count(); ++id) {
    const rtl::Net& n = flat.net(id);
    p.nets.push_back(summarize_bits(n.name, n.width,
                                    n.kind == rtl::NetKind::kReg,
                                    xs.nets[static_cast<std::size_t>(id)]));
  }
  for (std::size_t m = 0; m < flat.memories().size(); ++m) {
    const rtl::Memory& mem = flat.memories()[m];
    p.nets.push_back(
        summarize_bits(mem.name + "[*]", mem.width, true, xs.mems[m]));
  }

  p.schedule = summarize_schedule(flat, topo);
  p.cost = build_cost(p.schedule, static_cast<int>(schedule.size()),
                      p.bit_counts(false));

  p.findings.merge(check_x_live_hotpath(flat, xs));
  p.findings.merge(check_port_conflicts(flat, facts));
  p.findings.merge(check_tristate_lowering(flat, facts));
  // Self-check: the planner's own schedule must validate against the
  // dependency graph it was derived from (and surfaces combinational
  // cycles as findings rather than throwing).
  p.findings.merge(check_schedule_order(flat, topo.nodes));
  return p;
}

}  // namespace la1::plan
