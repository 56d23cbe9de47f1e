#include "flow/depgraph.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace la1::flow {

namespace {

constexpr dfa::AbsBit kAbsXZ = dfa::kAbsX | dfa::kAbsZ;

std::uint64_t expr_bit_key(rtl::ExprId e, int bit) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(e)) << 32) |
         static_cast<std::uint32_t>(bit);
}

}  // namespace

DepGraph::DepGraph(const rtl::Module& flat, const dfa::Facts* facts)
    : mod_(&flat), facts_(facts) {
  if (!flat.instances().empty()) {
    throw std::invalid_argument("flow::DepGraph: module must be elaborated");
  }
  // Lay out the node space: every net bit, then one summary word per memory.
  net_base_.resize(static_cast<std::size_t>(flat.net_count()));
  int next = 0;
  for (rtl::NetId id = 0; id < flat.net_count(); ++id) {
    net_base_[static_cast<std::size_t>(id)] = next;
    for (int b = 0; b < flat.net(id).width; ++b) {
      refs_.push_back(BitRef{false, id, b});
    }
    next += flat.net(id).width;
  }
  mem_base_.resize(flat.memories().size());
  for (std::size_t m = 0; m < flat.memories().size(); ++m) {
    mem_base_[m] = next;
    for (int b = 0; b < flat.memories()[m].width; ++b) {
      refs_.push_back(BitRef{true, static_cast<int>(m), b});
    }
    next += flat.memories()[m].width;
  }
  preds_.resize(static_cast<std::size_t>(next));
  succs_.resize(static_cast<std::size_t>(next));

  // Continuous assignments and tristate drivers: combinational edges. A
  // tristate's enable is a control position — it decides whether the value
  // or Z reaches the resolved bus.
  for (const rtl::ContAssign& ca : flat.assigns()) {
    for (int b = 0; b < flat.net(ca.target).width; ++b) {
      walk_seen_.clear();
      collect(ca.value, b, net_bit(ca.target, b), false, false);
    }
  }
  for (const rtl::TriDriver& td : flat.tristates()) {
    for (int b = 0; b < flat.net(td.target).width; ++b) {
      const int to = net_bit(td.target, b);
      walk_seen_.clear();
      collect(td.value, b, to, false, false);
      collect(td.enable, 0, to, true, false);
    }
  }
  // Register updates and memory write ports: sequential edges. Clock nets
  // contribute no edges — the DDR K/K# interleave is abstracted into the
  // seq tag itself, matching dfa::abstract's any-schedule join.
  for (const rtl::Process& p : flat.processes()) {
    for (const rtl::SeqAssign& sa : p.assigns) {
      for (int b = 0; b < flat.net(sa.target).width; ++b) {
        walk_seen_.clear();
        collect(sa.value, b, net_bit(sa.target, b), false, true);
      }
    }
    for (const rtl::MemWrite& mw : p.mem_writes) {
      const rtl::Memory& mem = flat.memories()[static_cast<std::size_t>(mw.mem)];
      const int lanes = mw.byte_enables.empty()
                            ? 1
                            : static_cast<int>(mw.byte_enables.size());
      const int lane_width = mem.width / lanes;
      for (int b = 0; b < mem.width; ++b) {
        const int to = mem_bit(mw.mem, b);
        walk_seen_.clear();
        collect(mw.data, b, to, false, true);
        collect(mw.wen, 0, to, true, true);
        const rtl::Expr& addr = flat.expr(mw.addr);
        for (int ab = 0; ab < addr.width; ++ab) {
          collect(mw.addr, ab, to, true, true);
        }
        if (!mw.byte_enables.empty()) {
          collect(mw.byte_enables[static_cast<std::size_t>(b / lane_width)], 0,
                  to, true, true);
        }
      }
    }
  }

  // Canonicalize and derive the successor adjacency.
  auto edge_less = [](const Edge& a, const Edge& b) {
    if (a.from != b.from) return a.from < b.from;
    if (a.control != b.control) return a.control < b.control;
    return a.seq < b.seq;
  };
  for (std::size_t n = 0; n < preds_.size(); ++n) {
    std::sort(preds_[n].begin(), preds_[n].end(), edge_less);
    preds_[n].erase(std::unique(preds_[n].begin(), preds_[n].end()),
                    preds_[n].end());
    for (const Edge& e : preds_[n]) {
      succs_[static_cast<std::size_t>(e.from)].push_back(
          Edge{static_cast<int>(n), e.control, e.seq});
    }
  }
  for (std::size_t n = 0; n < succs_.size(); ++n) {
    std::sort(succs_[n].begin(), succs_[n].end(), edge_less);
    succs_[n].erase(std::unique(succs_[n].begin(), succs_[n].end()),
                    succs_[n].end());
  }
}

int DepGraph::net_bit(rtl::NetId net, int bit) const {
  return net_base_.at(static_cast<std::size_t>(net)) + bit;
}

int DepGraph::mem_bit(rtl::MemId mem, int bit) const {
  return mem_base_.at(static_cast<std::size_t>(mem)) + bit;
}

std::vector<int> DepGraph::net_bits(rtl::NetId net) const {
  std::vector<int> out;
  for (int b = 0; b < mod_->net(net).width; ++b) out.push_back(net_bit(net, b));
  return out;
}

const DepGraph::BitRef& DepGraph::ref(int node) const {
  return refs_.at(static_cast<std::size_t>(node));
}

std::string DepGraph::node_name(int node) const {
  const BitRef& r = ref(node);
  if (r.is_mem) {
    return mod_->memories()[static_cast<std::size_t>(r.id)].name + "[*][" +
           std::to_string(r.bit) + "]";
  }
  const rtl::Net& n = mod_->net(r.id);
  if (n.width == 1) return n.name;
  return n.name + "[" + std::to_string(r.bit) + "]";
}

const std::vector<DepGraph::Edge>& DepGraph::preds(int node) const {
  return preds_.at(static_cast<std::size_t>(node));
}

const std::vector<DepGraph::Edge>& DepGraph::succs(int node) const {
  return succs_.at(static_cast<std::size_t>(node));
}

int DepGraph::Cone::count() const {
  int n = 0;
  for (char c : in) n += c != 0;
  return n;
}

bool DepGraph::bit_constant(rtl::NetId net, int bit) const {
  if (!facts_) return false;
  const dfa::AbsVec& v = facts_->nets[static_cast<std::size_t>(net)];
  return dfa::abs_is_constant(v[static_cast<std::size_t>(bit)]);
}

dfa::AbsBit DepGraph::eval_abs(rtl::ExprId e, int bit) const {
  const std::uint64_t key = expr_bit_key(e, bit);
  if (auto it = eval_memo_.find(key); it != eval_memo_.end()) {
    return it->second;
  }

  const rtl::Expr& x = mod_->expr(e);
  dfa::AbsBit r = dfa::kAbsTop;
  switch (x.op) {
    case rtl::Op::kConst:
      r = dfa::abs_of(x.literal.bit(bit));
      break;
    case rtl::Op::kNet:
      r = facts_ ? facts_->nets[static_cast<std::size_t>(x.net)]
                             [static_cast<std::size_t>(bit)]
                 : dfa::kAbsTop;
      break;
    case rtl::Op::kNot:
      r = dfa::abs_lift1(eval_abs(x.a, bit), rtl::logic_not);
      break;
    case rtl::Op::kAnd:
    case rtl::Op::kOr:
    case rtl::Op::kXor:
      r = dfa::abs_lift2(eval_abs(x.a, bit), eval_abs(x.b, bit),
                         rtl::op_info(x.op).bit);
      break;
    case rtl::Op::kRedAnd:
    case rtl::Op::kRedOr:
    case rtl::Op::kRedXor: {
      const rtl::Expr& a = mod_->expr(x.a);
      r = eval_abs(x.a, 0);
      for (int i = 1; i < a.width; ++i) {
        r = dfa::abs_lift2(r, eval_abs(x.a, i), rtl::op_info(x.op).bit);
      }
      break;
    }
    case rtl::Op::kEq:
    case rtl::Op::kNe: {
      // And-fold of per-bit xnor lifts: coarser than dfa's vec_eq mirror.
      const rtl::OpInfo& and_row = rtl::op_info(rtl::Op::kAnd);
      const rtl::Expr& a = mod_->expr(x.a);
      r = dfa::abs_of(and_row.identity);
      for (int i = 0; i < a.width; ++i) {
        const dfa::AbsBit same = dfa::abs_lift1(
            dfa::abs_lift2(eval_abs(x.a, i), eval_abs(x.b, i),
                           rtl::op_info(rtl::Op::kXor).bit),
            rtl::logic_not);
        r = dfa::abs_lift2(r, same, and_row.bit);
      }
      if (x.op == rtl::Op::kNe) r = dfa::abs_lift1(r, rtl::logic_not);
      break;
    }
    case rtl::Op::kMux: {
      const dfa::AbsBit sel = eval_abs(x.a, 0);
      if (dfa::abs_is_constant(sel)) {
        r = eval_abs(dfa::abs_constant_value(sel) ? x.b : x.c, bit);
      } else {
        r = static_cast<dfa::AbsBit>(eval_abs(x.b, bit) | eval_abs(x.c, bit));
        if (sel & kAbsXZ) r = static_cast<dfa::AbsBit>(r | dfa::kAbsX);
      }
      break;
    }
    case rtl::Op::kConcat: {
      int acc = 0;
      for (auto it = x.parts.rbegin(); it != x.parts.rend(); ++it) {
        const int w = mod_->expr(*it).width;
        if (bit < acc + w) {
          r = eval_abs(*it, bit - acc);
          break;
        }
        acc += w;
      }
      break;
    }
    case rtl::Op::kSlice:
      r = eval_abs(x.a, x.lo + bit);
      break;
    case rtl::Op::kAdd:
    case rtl::Op::kSub:
      r = dfa::kAbsTop;  // no pruning through arithmetic carries
      break;
    case rtl::Op::kMemRead:
      // Summary word join, plus X for a possibly-undefined address.
      r = facts_ ? static_cast<dfa::AbsBit>(
                       facts_->mems[static_cast<std::size_t>(x.mem)]
                                   [static_cast<std::size_t>(bit)] |
                       dfa::kAbsX)
                 : dfa::kAbsTop;
      break;
  }
  eval_memo_.emplace(key, r);
  return r;
}

void DepGraph::add_edge(int to, int from, bool control, bool seq) {
  preds_[static_cast<std::size_t>(to)].push_back(Edge{from, control, seq});
}

void DepGraph::collect(rtl::ExprId e, int bit, int to, bool control,
                       bool seq) {
  // A bit the abstract interpretation pins to a constant influences nothing
  // downstream: cut the walk here. This also terminates kConst leaves.
  if (dfa::abs_is_constant(eval_abs(e, bit))) return;
  // Shared subexpressions (carry chains especially) are walked once per
  // target bit and control polarity.
  const std::uint64_t seen_key = (expr_bit_key(e, bit) << 1) | (control ? 1 : 0);
  if (!walk_seen_.insert(seen_key).second) return;

  const rtl::Expr& x = mod_->expr(e);
  switch (x.op) {
    case rtl::Op::kConst:
      return;
    case rtl::Op::kNet:
      add_edge(to, net_bit(x.net, bit), control, seq);
      return;
    case rtl::Op::kNot:
      collect(x.a, bit, to, control, seq);
      return;
    case rtl::Op::kAnd:
    case rtl::Op::kOr:
    case rtl::Op::kXor: {
      // A controlling constant was cut above; a neutral constant operand
      // (AND-with-1, OR/XOR-with-0) passes only the other side through.
      const dfa::AbsBit neutral = dfa::abs_of(rtl::op_info(x.op).identity);
      if (eval_abs(x.a, bit) != neutral) collect(x.a, bit, to, control, seq);
      if (eval_abs(x.b, bit) != neutral) collect(x.b, bit, to, control, seq);
      return;
    }
    case rtl::Op::kRedAnd:
    case rtl::Op::kRedOr:
    case rtl::Op::kRedXor: {
      const rtl::Expr& a = mod_->expr(x.a);
      for (int i = 0; i < a.width; ++i) collect(x.a, i, to, control, seq);
      return;
    }
    case rtl::Op::kEq:
    case rtl::Op::kNe: {
      const rtl::Expr& a = mod_->expr(x.a);
      for (int i = 0; i < a.width; ++i) {
        collect(x.a, i, to, control, seq);
        collect(x.b, i, to, control, seq);
      }
      return;
    }
    case rtl::Op::kMux: {
      const dfa::AbsBit sel = eval_abs(x.a, 0);
      if (dfa::abs_is_constant(sel)) {
        // Only the taken branch flows; the select is inert.
        collect(dfa::abs_constant_value(sel) ? x.b : x.c, bit, to, control,
                seq);
      } else {
        collect(x.a, 0, to, true, seq);
        collect(x.b, bit, to, control, seq);
        collect(x.c, bit, to, control, seq);
      }
      return;
    }
    case rtl::Op::kConcat: {
      int acc = 0;
      for (auto it = x.parts.rbegin(); it != x.parts.rend(); ++it) {
        const int w = mod_->expr(*it).width;
        if (bit < acc + w) {
          collect(*it, bit - acc, to, control, seq);
          return;
        }
        acc += w;
      }
      return;
    }
    case rtl::Op::kSlice:
      collect(x.a, x.lo + bit, to, control, seq);
      return;
    case rtl::Op::kAdd:
    case rtl::Op::kSub:
      // Ripple carry: every lower-or-equal bit of both operands.
      for (int i = 0; i <= bit; ++i) {
        collect(x.a, i, to, control, seq);
        collect(x.b, i, to, control, seq);
      }
      return;
    case rtl::Op::kMemRead: {
      const rtl::Expr& a = mod_->expr(x.a);
      for (int i = 0; i < a.width; ++i) collect(x.a, i, to, true, seq);
      add_edge(to, mem_bit(x.mem, bit), control, seq);
      return;
    }
  }
}

DepGraph::Cone DepGraph::traverse(const std::vector<int>& seeds,
                                  const ConeOptions& opt,
                                  bool forward) const {
  constexpr int kInf = std::numeric_limits<int>::max();
  std::vector<int> dist(preds_.size(), kInf);
  std::deque<int> queue;  // 0/1-BFS: comb edges cost 0, seq edges cost 1
  for (int s : seeds) {
    if (dist[static_cast<std::size_t>(s)] != 0) {
      dist[static_cast<std::size_t>(s)] = 0;
      queue.push_front(s);
    }
  }
  while (!queue.empty()) {
    const int n = queue.front();
    queue.pop_front();
    const int d = dist[static_cast<std::size_t>(n)];
    const std::vector<Edge>& edges = forward ? succs_[static_cast<std::size_t>(n)]
                                             : preds_[static_cast<std::size_t>(n)];
    for (const Edge& e : edges) {
      if (opt.data_only && e.control) continue;
      const int nd = d + (e.seq ? 1 : 0);
      if (opt.max_cycles >= 0 && nd > opt.max_cycles) continue;
      if (nd < dist[static_cast<std::size_t>(e.from)]) {
        dist[static_cast<std::size_t>(e.from)] = nd;
        if (e.seq) {
          queue.push_back(e.from);
        } else {
          queue.push_front(e.from);
        }
      }
    }
  }
  Cone cone;
  cone.in.assign(preds_.size(), 0);
  for (std::size_t n = 0; n < dist.size(); ++n) {
    if (dist[n] != kInf) {
      cone.in[n] = 1;
      cone.depth = std::max(cone.depth, dist[n]);
    }
  }
  return cone;
}

DepGraph::Cone DepGraph::fan_in(const std::vector<int>& seeds,
                                const ConeOptions& opt) const {
  return traverse(seeds, opt, /*forward=*/false);
}

DepGraph::Cone DepGraph::fan_out(const std::vector<int>& seeds,
                                 const ConeOptions& opt) const {
  return traverse(seeds, opt, /*forward=*/true);
}

}  // namespace la1::flow
