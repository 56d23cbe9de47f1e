#include "rtl/bitblast.hpp"

#include <algorithm>
#include <stdexcept>

#include "rtl/bitwalk.hpp"

namespace la1::rtl {

BitGraph::BitGraph() {
  nodes_.push_back(Node{Kind::kConst, -1, -1, -1, -1});  // 0 = FALSE
  nodes_.push_back(Node{Kind::kConst, -1, -1, -1, -1});  // 1 = TRUE
}

int BitGraph::intern(Node n) {
  const auto key = std::make_tuple(static_cast<int>(n.kind), n.a, n.b, n.c, n.var);
  auto [it, inserted] = cache_.try_emplace(key, static_cast<int>(nodes_.size()));
  if (inserted) nodes_.push_back(n);
  return it->second;
}

int BitGraph::var(int var_index) {
  return intern(Node{Kind::kVar, -1, -1, -1, var_index});
}

int BitGraph::not_of(int a) {
  if (a == 0) return 1;
  if (a == 1) return 0;
  const Node& n = node(a);
  if (n.kind == Kind::kNot) return n.a;
  return intern(Node{Kind::kNot, a, -1, -1, -1});
}

int BitGraph::and_of(int a, int b) {
  if (a == 0 || b == 0) return 0;
  if (a == 1) return b;
  if (b == 1) return a;
  if (a == b) return a;
  if (a > b) std::swap(a, b);
  return intern(Node{Kind::kAnd, a, b, -1, -1});
}

int BitGraph::or_of(int a, int b) {
  if (a == 1 || b == 1) return 1;
  if (a == 0) return b;
  if (b == 0) return a;
  if (a == b) return a;
  if (a > b) std::swap(a, b);
  return intern(Node{Kind::kOr, a, b, -1, -1});
}

int BitGraph::xor_of(int a, int b) {
  if (a == 0) return b;
  if (b == 0) return a;
  if (a == 1) return not_of(b);
  if (b == 1) return not_of(a);
  if (a == b) return 0;
  if (a > b) std::swap(a, b);
  return intern(Node{Kind::kXor, a, b, -1, -1});
}

int BitGraph::mux(int sel, int then_n, int else_n) {
  if (sel == 1) return then_n;
  if (sel == 0) return else_n;
  if (then_n == else_n) return then_n;
  return intern(Node{Kind::kMux, sel, then_n, else_n, -1});
}

void BitGraph::support(int id, std::vector<bool>& out) const {
  std::vector<bool> seen(nodes_.size(), false);
  std::vector<int> work{id};
  while (!work.empty()) {
    const int n = work.back();
    work.pop_back();
    if (seen[static_cast<std::size_t>(n)]) continue;
    seen[static_cast<std::size_t>(n)] = true;
    const Node& node = nodes_[static_cast<std::size_t>(n)];
    if (node.kind == Kind::kVar) {
      out[static_cast<std::size_t>(node.var)] = true;
      continue;
    }
    if (node.a >= 0) work.push_back(node.a);
    if (node.b >= 0) work.push_back(node.b);
    if (node.c >= 0) work.push_back(node.c);
  }
}

bool BitGraph::eval(int id, const std::vector<bool>& assignment) const {
  const Node& n = node(id);
  switch (n.kind) {
    case Kind::kConst: return id == 1;
    case Kind::kVar: return assignment.at(static_cast<std::size_t>(n.var));
    case Kind::kNot: return !eval(n.a, assignment);
    case Kind::kAnd: return eval(n.a, assignment) && eval(n.b, assignment);
    case Kind::kOr: return eval(n.a, assignment) || eval(n.b, assignment);
    case Kind::kXor: return eval(n.a, assignment) != eval(n.b, assignment);
    case Kind::kMux:
      return eval(n.a, assignment) ? eval(n.b, assignment)
                                   : eval(n.c, assignment);
  }
  return false;
}

namespace {

class Blaster : public BitWalk<Blaster, int> {
 public:
  Blaster(const Module& m, const std::vector<ClockStep>& schedule)
      : BitWalk(m), m_(&m), schedule_(&schedule) {}

  BitBlast run();

 private:
  friend class BitWalk<Blaster, int>;

  // --- the walk's graph domain ------------------------------------------
  Bits literal(const LVec& v);
  Bits net(NetId id) { return net_fn(id); }
  Bits mem_read(const Expr& e);
  Bits arith(const Expr& e);
  int constant(Logic v) { return out_.graph.constant(v == Logic::k1); }
  int not_bit(int a) { return out_.graph.not_of(a); }
  int gate(const OpInfo& info, int a, int b) {
    BitGraph& g = out_.graph;
    switch (info.gate) {
      case Gate::kAnd: return g.and_of(a, b);
      case Gate::kOr: return g.or_of(a, b);
      default: return g.xor_of(a, b);
    }
  }
  int mux_bit(int sel, int t, int f) { return out_.graph.mux(sel, t, f); }

  const Bits& net_fn(NetId id);
  Bits add_words(const Bits& a, const Bits& b, int carry_in);
  int phase_eq(int step);

  const Module* m_;
  const std::vector<ClockStep>* schedule_;
  BitBlast out_;
  std::vector<Bits> net_memo_;
  std::vector<bool> net_busy_;
  std::vector<int> phase_var_nodes_;
  std::vector<bool> is_clock_;
};

Blaster::Bits Blaster::literal(const LVec& v) {
  if (!v.all_01()) throw std::invalid_argument("bitblast: X/Z literal");
  Bits bits(static_cast<std::size_t>(v.width()));
  for (int i = 0; i < v.width(); ++i) {
    bits[static_cast<std::size_t>(i)] = constant(v.bit(i));
  }
  return bits;
}

Blaster::Bits Blaster::mem_read(const Expr&) {
  throw std::invalid_argument(
      "bitblast: memory not expanded (run expand_memories first)");
}

Blaster::Bits Blaster::arith(const Expr& e) {
  if (e.op == Op::kAdd) return add_words(eval(e.a), eval(e.b), 0);
  Bits nb = eval(e.b);
  for (int& n : nb) n = not_bit(n);
  return add_words(eval(e.a), nb, 1);
}

Blaster::Bits Blaster::add_words(const Bits& a, const Bits& b, int carry_in) {
  BitGraph& g = out_.graph;
  Bits bits(a.size(), 0);
  int carry = g.constant(carry_in != 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const int axb = g.xor_of(a[i], b[i]);
    bits[i] = g.xor_of(axb, carry);
    carry = g.or_of(g.and_of(a[i], b[i]), g.and_of(axb, carry));
  }
  return bits;
}

const Blaster::Bits& Blaster::net_fn(NetId id) {
  Bits& memo = net_memo_[static_cast<std::size_t>(id)];
  if (!memo.empty()) return memo;
  if (net_busy_[static_cast<std::size_t>(id)]) {
    throw std::invalid_argument("bitblast: combinational cycle through " +
                                m_->net(id).name);
  }
  net_busy_[static_cast<std::size_t>(id)] = true;
  const Net& n = m_->net(id);
  if (is_clock_[static_cast<std::size_t>(id)]) {
    throw std::invalid_argument("bitblast: clock net feeds logic: " + n.name);
  }
  Bits bits;
  if (n.kind == NetKind::kReg || n.kind == NetKind::kInput) {
    // Variable bits were allocated up front; find them by name.
    bits.reserve(static_cast<std::size_t>(n.width));
    const auto it = out_.net_bits.find(n.name);
    if (it == out_.net_bits.end()) {
      throw std::logic_error("bitblast: vars not allocated for " + n.name);
    }
    bits = it->second;
  } else {
    // Driven wire/output: continuous assign or tristate group.
    const ContAssign* driver = nullptr;
    for (const ContAssign& a : m_->assigns()) {
      if (a.target == id) {
        driver = &a;
        break;
      }
    }
    if (driver != nullptr) {
      bits = eval(driver->value);
    } else {
      std::vector<const TriDriver*> drivers;
      for (const TriDriver& t : m_->tristates()) {
        if (t.target == id) drivers.push_back(&t);
      }
      if (drivers.empty()) {
        throw std::invalid_argument("bitblast: undriven net " + n.name);
      }
      BitGraph& g = out_.graph;
      bits.assign(static_cast<std::size_t>(n.width), 0);
      std::vector<int> enables;
      for (const TriDriver* t : drivers) {
        const int en = eval(t->enable)[0];
        enables.push_back(en);
        const Bits& v = eval(t->value);
        for (int i = 0; i < n.width; ++i) {
          bits[static_cast<std::size_t>(i)] =
              g.or_of(bits[static_cast<std::size_t>(i)],
                      g.and_of(en, v[static_cast<std::size_t>(i)]));
        }
      }
      // Conflict flag: two enables simultaneously high.
      int conflict = 0;
      for (std::size_t i = 0; i < enables.size(); ++i) {
        for (std::size_t j = i + 1; j < enables.size(); ++j) {
          conflict = g.or_of(conflict, g.and_of(enables[i], enables[j]));
        }
      }
      out_.conflict_bits[n.name] = conflict;
    }
  }
  net_busy_[static_cast<std::size_t>(id)] = false;
  memo = std::move(bits);
  return memo;
}

int Blaster::phase_eq(int step) {
  BitGraph& g = out_.graph;
  int acc = 1;
  // phase bits are little-endian in phase_var_nodes_.
  for (std::size_t i = 0; i < phase_var_nodes_.size(); ++i) {
    const int bit = phase_var_nodes_[i];
    const bool want = ((step >> i) & 1) != 0;
    acc = g.and_of(acc, want ? bit : g.not_of(bit));
  }
  return acc;
}

BitBlast Blaster::run() {
  if (!m_->instances().empty()) {
    throw std::invalid_argument("bitblast: module not elaborated");
  }
  if (!m_->memories().empty()) {
    throw std::invalid_argument("bitblast: memories present; expand first");
  }
  if (schedule_->empty()) throw std::invalid_argument("bitblast: empty schedule");

  net_memo_.resize(static_cast<std::size_t>(m_->net_count()));
  net_busy_.assign(static_cast<std::size_t>(m_->net_count()), false);
  is_clock_.assign(static_cast<std::size_t>(m_->net_count()), false);
  for (const ClockStep& s : *schedule_) {
    is_clock_[static_cast<std::size_t>(s.clock)] = true;
  }

  BitGraph& g = out_.graph;

  // Allocate variables: register bits (state), phase bits (state), then
  // primary-input bits (free). Clock inputs get no variables.
  auto alloc = [&](const std::string& name, bool is_state, bool init) {
    BitVar v;
    v.name = name;
    v.is_state = is_state;
    v.init = init;
    out_.vars.push_back(v);
    const int idx = static_cast<int>(out_.vars.size() - 1);
    (is_state ? out_.state_vars : out_.input_vars).push_back(idx);
    return g.var(idx);
  };

  for (NetId id = 0; id < m_->net_count(); ++id) {
    const Net& n = m_->net(id);
    if (is_clock_[static_cast<std::size_t>(id)]) continue;
    if (n.kind != NetKind::kReg && n.kind != NetKind::kInput) continue;
    if (n.kind == NetKind::kReg && !n.init.all_01()) {
      throw std::invalid_argument("bitblast: register with X init: " + n.name);
    }
    std::vector<int> nodes;
    nodes.reserve(static_cast<std::size_t>(n.width));
    for (int i = 0; i < n.width; ++i) {
      const bool init =
          n.kind == NetKind::kReg && n.init.bit(i) == Logic::k1;
      nodes.push_back(alloc(n.name + "[" + std::to_string(i) + "]",
                            n.kind == NetKind::kReg, init));
    }
    out_.net_bits[n.name] = nodes;
  }

  const int steps = static_cast<int>(schedule_->size());
  out_.phase_count = steps;
  int phase_bits = 0;
  while ((1 << phase_bits) < steps) ++phase_bits;
  for (int i = 0; i < phase_bits; ++i) {
    phase_var_nodes_.push_back(
        alloc("__phase[" + std::to_string(i) + "]", true, false));
  }
  if (phase_bits > 0) out_.net_bits["__phase"] = phase_var_nodes_;

  // Next-state functions. Default: hold.
  out_.next_fn.assign(out_.state_vars.size(), -1);
  std::vector<int> var_to_state(out_.vars.size(), -1);
  for (std::size_t s = 0; s < out_.state_vars.size(); ++s) {
    var_to_state[static_cast<std::size_t>(out_.state_vars[s])] =
        static_cast<int>(s);
    out_.next_fn[s] = g.var(out_.state_vars[s]);
  }

  auto state_index_of = [&](const std::string& net_name, int bit) {
    const auto& nodes = out_.net_bits.at(net_name);
    const int node_id = nodes[static_cast<std::size_t>(bit)];
    return var_to_state[static_cast<std::size_t>(g.node(node_id).var)];
  };

  for (int s = 0; s < steps; ++s) {
    const ClockStep& step = (*schedule_)[static_cast<std::size_t>(s)];
    const int at_phase = phase_bits == 0 ? 1 : phase_eq(s);
    for (const Process& p : m_->processes()) {
      if (p.clock != step.clock || p.edge != step.edge) continue;
      for (const SeqAssign& sa : p.assigns) {
        const Net& target = m_->net(sa.target);
        const Bits& value = eval(sa.value);
        for (int i = 0; i < target.width; ++i) {
          const int si = state_index_of(target.name, i);
          out_.next_fn[static_cast<std::size_t>(si)] =
              g.mux(at_phase, value[static_cast<std::size_t>(i)],
                    out_.next_fn[static_cast<std::size_t>(si)]);
        }
      }
      if (!p.mem_writes.empty()) {
        throw std::invalid_argument("bitblast: memories present; expand first");
      }
    }
  }

  // Phase counter dynamics: phase' = (phase + 1) mod steps.
  for (int i = 0; i < phase_bits; ++i) {
    int next = g.false_node();
    for (int s = 0; s < steps; ++s) {
      const int succ = (s + 1) % steps;
      if (((succ >> i) & 1) != 0) next = g.or_of(next, phase_eq(s));
    }
    const int si = var_to_state[static_cast<std::size_t>(
        g.node(phase_var_nodes_[static_cast<std::size_t>(i)]).var)];
    out_.next_fn[static_cast<std::size_t>(si)] = next;
  }

  // Publish functions for every driven net (for property compilation);
  // genuinely undriven nets (e.g. unbound debug taps) are skipped — anything
  // the next-state logic depends on was already resolved above.
  for (NetId id = 0; id < m_->net_count(); ++id) {
    const Net& n = m_->net(id);
    if (is_clock_[static_cast<std::size_t>(id)]) continue;
    if (out_.net_bits.count(n.name) != 0) continue;
    try {
      out_.net_bits[n.name] = net_fn(id);
    } catch (const std::invalid_argument&) {
      out_.net_bits.erase(n.name);
    }
  }

  return std::move(out_);
}

}  // namespace

BitBlast bitblast(const Module& flat, const std::vector<ClockStep>& schedule) {
  return Blaster(flat, schedule).run();
}

}  // namespace la1::rtl
