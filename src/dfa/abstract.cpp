#include "dfa/abstract.hpp"

#include <cstddef>
#include <map>
#include <stdexcept>
#include <utility>

#include "rtl/logic.hpp"

namespace la1::dfa {
namespace {

using rtl::Logic;

constexpr Logic kMembers[4] = {Logic::k0, Logic::k1, Logic::kX, Logic::kZ};

void join_into(AbsVec& into, const AbsVec& from) {
  for (std::size_t i = 0; i < into.size(); ++i) {
    into[i] = abs_join(into[i], from[i]);
  }
}

/// Joins `from` into `into`, reporting whether anything grew.
bool join_changed(AbsVec& into, const AbsVec& from) {
  bool changed = false;
  for (std::size_t i = 0; i < into.size(); ++i) {
    const AbsBit nb = abs_join(into[i], from[i]);
    if (nb != into[i]) {
      into[i] = nb;
      changed = true;
    }
  }
  return changed;
}

AbsVec abs_all(int width, AbsBit fill) {
  return AbsVec(static_cast<std::size_t>(width), fill);
}

bool abs_is_01(AbsBit b) { return b != 0 && (b & ~kAbs01) == 0; }

AbsBit lift1(AbsBit a, Logic (*op)(Logic)) {
  AbsBit out = 0;
  for (Logic x : kMembers) {
    if (a & abs_of(x)) out = abs_join(out, abs_of(op(x)));
  }
  return out;
}

AbsBit lift2(AbsBit a, AbsBit b, Logic (*op)(Logic, Logic)) {
  AbsBit out = 0;
  for (Logic x : kMembers) {
    if (!(a & abs_of(x))) continue;
    for (Logic y : kMembers) {
      if (b & abs_of(y)) out = abs_join(out, abs_of(op(x, y)));
    }
  }
  return out;
}

void lift2_vec(AbsVec& out, const AbsVec& a, const AbsVec& b,
               Logic (*op)(Logic, Logic)) {
  out.resize(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = lift2(a[i], b[i], op);
}

/// vec_mux's X-select rule as a bit operator: kept when branches agree and
/// are defined, X otherwise.
Logic mux_x_bit(Logic t, Logic f) {
  return (t == f && rtl::is_01(t)) ? t : Logic::kX;
}

bool all_singleton_01(const AbsVec& v) {
  for (AbsBit b : v) {
    if (b != kAbs0 && b != kAbs1) return false;
  }
  return true;
}

rtl::LVec to_lvec(const AbsVec& v) {
  rtl::LVec out = rtl::LVec::xs(static_cast<int>(v.size()));
  for (std::size_t i = 0; i < v.size(); ++i) {
    out.set_bit(static_cast<int>(i), v[i] == kAbs1 ? Logic::k1 : Logic::k0);
  }
  return out;
}

}  // namespace

AbsBit abs_of(Logic v) {
  switch (v) {
    case Logic::k0: return kAbs0;
    case Logic::k1: return kAbs1;
    case Logic::kX: return kAbsX;
    case Logic::kZ: return kAbsZ;
  }
  return kAbsX;
}

bool abs_is_constant(AbsBit b) { return b == kAbs0 || b == kAbs1; }

bool abs_constant_value(AbsBit b) { return b == kAbs1; }

AbsBit abs_lift1(AbsBit a, Logic (*op)(Logic)) { return lift1(a, op); }

AbsBit abs_lift2(AbsBit a, AbsBit b, Logic (*op)(Logic, Logic)) {
  return lift2(a, b, op);
}

AbsVec abs_of_lvec(const rtl::LVec& v) {
  AbsVec out(static_cast<std::size_t>(v.width()));
  for (int i = 0; i < v.width(); ++i) {
    out[static_cast<std::size_t>(i)] = abs_of(v.bit(i));
  }
  return out;
}

AbsEvaluator::AbsEvaluator(const rtl::Module& m, const std::vector<AbsVec>& nets,
                           const std::vector<AbsVec>& mems)
    : BitWalk(m), module_(m), nets_(nets), mems_(mems) {}

/// Abstract vec_eq. Concretely the result is k0 on any defined-bit
/// mismatch, kX if any compared bit is X/Z, else k1; the abstraction adds
/// each outcome exactly when some member valuation produces it.
AbsBit AbsEvaluator::equal(const AbsVec& a, const AbsVec& b) {
  bool may_differ = false;    // some bit admits a defined 0-vs-1 mismatch
  bool may_undef = false;     // some bit has an X/Z member
  bool equal_possible = true; // every bit shares a defined member
  for (std::size_t i = 0; i < a.size(); ++i) {
    const AbsBit x = a[i];
    const AbsBit y = b[i];
    if (abs_is_01(x) && abs_is_01(y) && (x & y) == 0) return kAbs0;
    if ((x & kAbs0 && y & kAbs1) || (x & kAbs1 && y & kAbs0)) may_differ = true;
    if ((x & ~kAbs01) || (y & ~kAbs01)) may_undef = true;
    if (((x & y) & kAbs01) == 0) equal_possible = false;
  }
  AbsBit out = 0;
  if (may_differ) out = abs_join(out, kAbs0);
  if (may_undef) out = abs_join(out, kAbsX);
  if (equal_possible) out = abs_join(out, kAbs1);
  return out;
}

AbsBit AbsEvaluator::mux_bit(AbsBit sel, AbsBit t, AbsBit f) {
  AbsBit out = 0;
  if (sel & kAbs1) out = abs_join(out, t);
  if (sel & kAbs0) out = abs_join(out, f);
  if (sel & (kAbsX | kAbsZ)) out = abs_join(out, lift2(t, f, mux_x_bit));
  return out;
}

AbsVec AbsEvaluator::arith(const rtl::Expr& e) {
  const AbsVec& a = eval(e.a);
  const AbsVec& b = eval(e.b);
  if (all_singleton_01(a) && all_singleton_01(b)) {
    const rtl::LVec r = e.op == rtl::Op::kAdd
                            ? rtl::vec_add(to_lvec(a), to_lvec(b))
                            : rtl::vec_sub(to_lvec(a), to_lvec(b));
    return abs_of_lvec(r);
  }
  // Concretely any X/Z operand bit makes the sum all-X; all-defined
  // valuations produce some (unknown) sum.
  bool any_undef = false;
  bool all_defined_possible = true;
  for (const AbsVec* v : {&a, &b}) {
    for (AbsBit x : *v) {
      if (x & ~kAbs01) any_undef = true;
      if ((x & kAbs01) == 0) all_defined_possible = false;
    }
  }
  AbsBit fill = 0;
  if (all_defined_possible) fill = abs_join(fill, kAbs01);
  if (any_undef) fill = abs_join(fill, kAbsX);
  return abs_all(static_cast<int>(a.size()), fill);
}

AbsVec AbsEvaluator::mem_read(const rtl::Expr& e) {
  const AbsVec& addr = eval(e.a);
  AbsVec out = mems_[static_cast<std::size_t>(e.mem)];
  // The summary covers every word (unwritten words stay {0}, the
  // summary's seed). An X/Z or out-of-range address reads all-X.
  const int depth = module_.memories()[static_cast<std::size_t>(e.mem)].depth;
  std::uint64_t max_addr = 0;
  bool undef_possible = false;
  for (std::size_t i = 0; i < addr.size(); ++i) {
    if (addr[i] & ~kAbs01) undef_possible = true;
    if (addr[i] & kAbs1) max_addr |= 1ull << i;
  }
  if (undef_possible || max_addr >= static_cast<std::uint64_t>(depth)) {
    for (AbsBit& b : out) b = abs_join(b, kAbsX);
  }
  return out;
}

AbsSim::AbsSim(const rtl::Module& flat)
    : module_(&flat), ev_(flat, nets_, mems_) {
  if (!flat.instances().empty()) {
    throw std::invalid_argument("dfa::analyze: module must be elaborated");
  }
  const auto& nets = flat.nets();
  const std::size_t n_nets = nets.size();

  nets_.resize(n_nets);
  mems_.reserve(flat.memories().size());
  for (const rtl::Memory& mem : flat.memories()) {
    // CycleSim zero-initializes every memory word.
    mems_.push_back(abs_all(mem.width, kAbs0));
    state_bits_ += static_cast<std::size_t>(mem.width);
  }

  comb_driven_.assign(n_nets, 0);
  for (const rtl::ContAssign& ca : flat.assigns()) {
    comb_driven_[static_cast<std::size_t>(ca.target)] = 1;
  }
  std::map<rtl::NetId, std::vector<const rtl::TriDriver*>> tri;
  for (const rtl::TriDriver& td : flat.tristates()) {
    comb_driven_[static_cast<std::size_t>(td.target)] = 1;
    tri[td.target].push_back(&td);
  }
  for (auto& [net, drivers] : tri) tri_.emplace_back(net, std::move(drivers));

  regs_.resize(n_nets);
  for (std::size_t i = 0; i < n_nets; ++i) {
    const rtl::Net& n = nets[i];
    if (n.kind != rtl::NetKind::kReg) continue;
    regs_[i] = n.init.width() == n.width ? abs_of_lvec(n.init)
                                         : abs_all(n.width, kAbsX);
    state_bits_ += static_cast<std::size_t>(n.width);
  }
  for (std::size_t i = 0; i < n_nets; ++i) {
    if (comb_driven_[i]) comb_bits_ += static_cast<std::size_t>(nets[i].width);
  }
}

void AbsSim::settle() {
  const auto& nets = module_->nets();
  // Combinationally driven nets relax from bottom; everything else is
  // pinned: inputs to {0,1}, registers to their current set, undriven
  // wires to {X} (CycleSim leaves them at X forever).
  for (std::size_t i = 0; i < nets.size(); ++i) {
    const rtl::Net& n = nets[i];
    if (n.kind == rtl::NetKind::kReg) {
      nets_[i] = regs_[i];
    } else if (n.kind == rtl::NetKind::kInput) {
      nets_[i] = abs_all(n.width, kAbs01);
    } else if (comb_driven_[i]) {
      nets_[i] = abs_all(n.width, 0);  // bottom; relaxation joins upward
    } else {
      nets_[i] = abs_all(n.width, kAbsX);
    }
  }

  // Join-accumulate relaxation: every lifted operator is monotone in set
  // inclusion, so repeated target |= eval converges — on an acyclic netlist
  // to the exact abstract evaluation, on a (defective) combinational loop
  // to a sound over-approximation. The pass cap only guards the loop case:
  // each pass short of the cap grows at least one bit set, and each bit
  // can grow at most 4 times.
  const std::size_t max_passes = 4 * comb_bits_ + 2;
  for (std::size_t pass = 0; pass < max_passes; ++pass) {
    ev_.begin_pass();
    bool changed = false;
    for (const rtl::ContAssign& ca : module_->assigns()) {
      changed |= join_changed(nets_[static_cast<std::size_t>(ca.target)],
                              ev_.eval(ca.value));
    }
    for (const auto& [net, drivers] : tri_) {
      // Mirrors CycleSim's group evaluation: the bus starts all-Z, each
      // driver resolves in; an undriven branch (enable may be 0) leaves
      // the bus as-is, an unknown enable resolves all-X.
      AbsVec bus = abs_all(nets[static_cast<std::size_t>(net)].width, kAbsZ);
      for (const rtl::TriDriver* td : drivers) {
        const AbsBit en = ev_.eval(td->enable)[0];
        const AbsVec val = ev_.eval(td->value);
        AbsVec next(bus.size(), 0);
        if (en & kAbs0) join_into(next, bus);
        if (en & kAbs1) {
          AbsVec r;
          lift2_vec(r, bus, val, rtl::resolve);
          join_into(next, r);
        }
        if (en & (kAbsX | kAbsZ)) {
          AbsVec r;
          lift2_vec(r, bus, abs_all(static_cast<int>(bus.size()), kAbsX),
                    rtl::resolve);
          join_into(next, r);
        }
        bus = std::move(next);
      }
      changed |= join_changed(nets_[static_cast<std::size_t>(net)], bus);
    }
    if (!changed) break;
  }
}

void AbsSim::apply_mem_write(const rtl::MemWrite& mw, bool* changed) {
  // Against the settled pre-edge state. The summary only grows, so "write
  // skipped" needs no action; an unknown write enable or address clobbers
  // concretely, hence joins all-X.
  const AbsBit wen = ev_.eval(mw.wen)[0];
  if (wen == kAbs0) return;
  AbsVec& summary = mems_[static_cast<std::size_t>(mw.mem)];
  const AbsVec& addr = ev_.eval(mw.addr);
  bool addr_undef = false;
  for (AbsBit b : addr) addr_undef |= (b & ~kAbs01) != 0;
  if (wen & kAbs1) {
    AbsVec data = ev_.eval(mw.data);
    if (!mw.byte_enables.empty()) {
      const std::size_t lane = summary.size() / mw.byte_enables.size();
      for (std::size_t l = 0; l < mw.byte_enables.size(); ++l) {
        const AbsBit be = ev_.eval(mw.byte_enables[l])[0];
        for (std::size_t k = 0; k < lane; ++k) {
          AbsBit& d = data[l * lane + k];
          if (!(be & kAbs1)) d = 0;  // lane surely kept: no new value
          if (be & (kAbsX | kAbsZ)) d = abs_join(d, kAbsX);
        }
      }
    }
    if (changed != nullptr) {
      *changed |= join_changed(summary, data);
    } else {
      join_changed(summary, data);
    }
  }
  if ((wen & (kAbsX | kAbsZ)) || addr_undef) {
    bool grew = false;
    for (AbsBit& b : summary) {
      if (!(b & kAbsX)) {
        b = abs_join(b, kAbsX);
        grew = true;
      }
    }
    if (changed != nullptr) *changed |= grew;
  }
}

bool AbsSim::join_all_edges() {
  bool changed = false;

  // Memory writes first, then register updates — the same order analyze
  // has always used, so the fixpoint trajectory is unchanged.
  for (const rtl::Process& p : module_->processes()) {
    for (const rtl::MemWrite& mw : p.mem_writes) {
      apply_mem_write(mw, &changed);
    }
  }

  // Register updates: within one process the last nonblocking assign to a
  // target wins; across processes (different clock edges) and against the
  // held value everything joins, covering any edge schedule.
  for (const rtl::Process& p : module_->processes()) {
    std::map<rtl::NetId, AbsVec> pending;
    for (const rtl::SeqAssign& sa : p.assigns) {
      pending[sa.target] = ev_.eval(sa.value);
    }
    for (const auto& [net, v] : pending) {
      changed |= join_changed(regs_[static_cast<std::size_t>(net)], v);
    }
  }
  return changed;
}

void AbsSim::exact_edge(rtl::NetId clock, rtl::Edge e) {
  // Sample everything against the settled pre-edge state before touching
  // any register set or memory summary, exactly like the interpreter's
  // nonblocking commit.
  std::vector<std::pair<rtl::NetId, AbsVec>> reg_commits;
  std::vector<const rtl::MemWrite*> mem_commits;
  for (const rtl::Process& p : module_->processes()) {
    if (p.clock != clock || p.edge != e) continue;
    for (const rtl::SeqAssign& sa : p.assigns) {
      reg_commits.emplace_back(sa.target, ev_.eval(sa.value));
    }
    for (const rtl::MemWrite& mw : p.mem_writes) {
      // Pre-evaluate while nets_ still holds pre-edge values; the memo
      // keeps these results across the register commits below.
      ev_.eval(mw.wen);
      ev_.eval(mw.addr);
      ev_.eval(mw.data);
      for (rtl::ExprId be : mw.byte_enables) ev_.eval(be);
      mem_commits.push_back(&mw);
    }
  }
  // Later processes overwrite earlier ones, like CycleSim's commit loop.
  for (auto& [target, v] : reg_commits) {
    regs_[static_cast<std::size_t>(target)] = std::move(v);
  }
  for (const rtl::MemWrite* mw : mem_commits) apply_mem_write(*mw, nullptr);
}

bool Facts::net_constant(rtl::NetId id, rtl::LVec* value) const {
  const AbsVec& v = nets[static_cast<std::size_t>(id)];
  if (v.empty() || !all_singleton_01(v)) return false;
  if (value != nullptr) *value = to_lvec(v);
  return true;
}

bool Facts::net_x_forever(rtl::NetId id) const {
  const AbsVec& v = nets[static_cast<std::size_t>(id)];
  if (v.empty()) return false;
  for (AbsBit b : v) {
    if (b != kAbsX) return false;
  }
  return true;
}

Facts analyze(const rtl::Module& flat) {
  AbsSim sim(flat);

  Facts facts;
  // Sequential fixpoint. Register and memory-summary sets only grow, so
  // the iteration count is bounded by the total growth budget.
  const std::size_t max_iter = 4 * sim.state_bits() + 2;
  for (std::size_t iter = 0; iter < max_iter; ++iter) {
    facts.iterations = static_cast<int>(iter) + 1;
    sim.settle();
    if (!sim.join_all_edges()) break;
  }

  // The last settle ran against the final register sets; publish it.
  facts.nets = sim.nets();
  facts.mems = sim.mems();
  return facts;
}

}  // namespace la1::dfa
