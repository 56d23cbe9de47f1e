#include "bdd/bdd.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace la1::bdd {

namespace {

// Both tables start at this many slots and double as the arena grows, so a
// fresh Manager stays cheap (every dfa::sweep and small check builds one).
constexpr std::size_t kInitialSlots = 1u << 8;
// Computed-cache cap: 2^20 entries of 20 bytes.
constexpr std::size_t kCacheCap = 1u << 20;

std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t h = (a + 1) * 0x9E3779B97F4A7C15ull;
  h = (h ^ b) * 0xC2B2AE3D27D4EB4Full;
  h = (h ^ c) * 0x165667B19E3779F9ull;
  return h ^ (h >> 31);
}

}  // namespace

Manager::Manager(int var_count)
    : var_count_(var_count),
      buckets_(kInitialSlots, 0),
      cache_(kInitialSlots) {
  if (var_count < 0) throw std::invalid_argument("negative var count");
  // Terminal nodes. var = var_count acts as the "past the last level" rank
  // so ordering comparisons work without special cases.
  nodes_.push_back(Node{var_count, kFalse, kFalse, 1, 0});
  nodes_.push_back(Node{var_count, kTrue, kTrue, 1, 0});
}

std::size_t Manager::bucket(int var, NodeId low, NodeId high) const {
  return static_cast<std::size_t>(
             mix(static_cast<std::uint32_t>(var), low, high)) &
         (buckets_.size() - 1);
}

void Manager::rebuild_chains(std::size_t bucket_count) {
  buckets_.assign(bucket_count, 0);
  for (NodeId id = 2; id < nodes_.size(); ++id) {
    Node& n = nodes_[id];
    if (n.var < 0) continue;
    NodeId& head = buckets_[bucket(n.var, n.low, n.high)];
    n.next = head;
    head = id;
  }
}

NodeId Manager::make(int var, NodeId low, NodeId high) {
  if (low == high) return low;
  NodeId& head = buckets_[bucket(var, low, high)];
  for (NodeId id = head; id != 0; id = nodes_[id].next) {
    const Node& n = nodes_[id];
    if (n.var == var && n.low == low && n.high == high) return id;
  }

  if (node_limit_ != 0 && live_nodes_ >= node_limit_) {
    throw ResourceExhausted{live_nodes_, node_limit_};
  }

  NodeId id;
  if (!free_list_.empty()) {
    id = free_list_.back();
    free_list_.pop_back();
    nodes_[id] = Node{var, low, high, 0, head};
  } else {
    id = static_cast<NodeId>(nodes_.size());
    nodes_.push_back(Node{var, low, high, 0, head});
  }
  head = id;
  ++nodes_[low].refs;
  ++nodes_[high].refs;
  ++live_nodes_;
  ++created_nodes_;
  if (live_nodes_ > peak_live_nodes_) peak_live_nodes_ = live_nodes_;
  if (live_nodes_ > buckets_.size()) rebuild_chains(2 * buckets_.size());
  if (nodes_.size() > cache_.size() && cache_.size() < kCacheCap) grow_cache();
  return id;
}

Manager::CacheEntry& Manager::cache_slot(CacheOp op, NodeId a, NodeId b,
                                         NodeId c) {
  const std::uint64_t h =
      mix((static_cast<std::uint64_t>(a) << 3) | static_cast<std::uint32_t>(op),
          b, c);
  return cache_[static_cast<std::size_t>(h) & (cache_.size() - 1)];
}

bool Manager::cache_find(CacheOp op, NodeId a, NodeId b, NodeId c,
                         NodeId& out) {
  const CacheEntry& e = cache_slot(op, a, b, c);
  if (e.op != op || e.a != a || e.b != b || e.c != c) return false;
  out = e.result;
  return true;
}

void Manager::cache_put(CacheOp op, NodeId a, NodeId b, NodeId c,
                        NodeId result) {
  cache_slot(op, a, b, c) = CacheEntry{op, a, b, c, result};
}

void Manager::grow_cache() {
  std::vector<CacheEntry> old(2 * cache_.size());
  old.swap(cache_);
  for (const CacheEntry& e : old) {
    if (e.op != CacheOp::kEmpty) cache_put(e.op, e.a, e.b, e.c, e.result);
  }
}

std::uint32_t Manager::intern_mask(const std::vector<bool>& mask) {
  return mask_ids_
      .try_emplace(mask, static_cast<std::uint32_t>(mask_ids_.size()))
      .first->second;
}

NodeId Manager::var(int v) { return make(v, kFalse, kTrue); }
NodeId Manager::nvar(int v) { return make(v, kTrue, kFalse); }

int Manager::top_var(NodeId f) const { return nodes_[f].var; }
NodeId Manager::low(NodeId f) const { return nodes_[f].low; }
NodeId Manager::high(NodeId f) const { return nodes_[f].high; }

NodeId Manager::ite(NodeId f, NodeId g, NodeId h) {
  // Terminal cases.
  if (f == kTrue) return g;
  if (f == kFalse) return h;
  if (g == h) return g;
  if (g == kTrue && h == kFalse) return f;

  NodeId out;
  if (cache_find(CacheOp::kIte, f, g, h, out)) return out;

  const int v = std::min(nodes_[f].var, std::min(nodes_[g].var, nodes_[h].var));
  auto cof = [&](NodeId n, bool hi) {
    return nodes_[n].var == v ? (hi ? nodes_[n].high : nodes_[n].low) : n;
  };
  const NodeId lo = ite(cof(f, false), cof(g, false), cof(h, false));
  const NodeId hi = ite(cof(f, true), cof(g, true), cof(h, true));
  out = make(v, lo, hi);
  cache_put(CacheOp::kIte, f, g, h, out);
  return out;
}

NodeId Manager::apply_xor(NodeId f, NodeId g) {
  return ite(f, apply_not(g), g);
}

NodeId Manager::exists_rec(NodeId f, const std::vector<bool>& mask,
                           std::uint32_t mask_id) {
  if (is_const(f)) return f;
  NodeId out;
  if (cache_find(CacheOp::kExists, f, mask_id, 0, out)) return out;
  const Node n = nodes_[f];
  const NodeId lo = exists_rec(n.low, mask, mask_id);
  const NodeId hi = exists_rec(n.high, mask, mask_id);
  out = mask[static_cast<std::size_t>(n.var)] ? apply_or(lo, hi)
                                              : make(n.var, lo, hi);
  cache_put(CacheOp::kExists, f, mask_id, 0, out);
  return out;
}

NodeId Manager::exists(NodeId f, const std::vector<bool>& mask) {
  return exists_rec(f, mask, intern_mask(mask));
}

NodeId Manager::forall(NodeId f, const std::vector<bool>& mask) {
  return apply_not(exists(apply_not(f), mask));
}

NodeId Manager::and_exists_rec(NodeId f, NodeId g, const std::vector<bool>& mask,
                               std::uint32_t mask_id) {
  if (f == kFalse || g == kFalse) return kFalse;
  if (f == kTrue && g == kTrue) return kTrue;
  if (f == kTrue) return exists_rec(g, mask, mask_id);
  if (g == kTrue) return exists_rec(f, mask, mask_id);
  if (f > g) std::swap(f, g);
  NodeId out;
  if (cache_find(CacheOp::kAndExists, f, g, mask_id, out)) return out;

  const int v = std::min(nodes_[f].var, nodes_[g].var);
  auto cof = [&](NodeId n, bool hi) {
    return nodes_[n].var == v ? (hi ? nodes_[n].high : nodes_[n].low) : n;
  };
  const NodeId lo = and_exists_rec(cof(f, false), cof(g, false), mask, mask_id);
  if (mask[static_cast<std::size_t>(v)]) {
    if (lo == kTrue) {
      out = kTrue;  // early termination: OR with TRUE
    } else {
      const NodeId hi =
          and_exists_rec(cof(f, true), cof(g, true), mask, mask_id);
      out = apply_or(lo, hi);
    }
  } else {
    const NodeId hi = and_exists_rec(cof(f, true), cof(g, true), mask, mask_id);
    out = make(v, lo, hi);
  }
  cache_put(CacheOp::kAndExists, f, g, mask_id, out);
  return out;
}

NodeId Manager::and_exists(NodeId f, NodeId g, const std::vector<bool>& mask) {
  return and_exists_rec(f, g, mask, intern_mask(mask));
}

NodeId Manager::rename_rec(NodeId f, const std::vector<int>& rename,
                           std::uint32_t map_id) {
  if (is_const(f)) return f;
  NodeId out;
  if (cache_find(CacheOp::kRename, f, map_id, 0, out)) return out;
  const Node n = nodes_[f];
  const NodeId lo = rename_rec(n.low, rename, map_id);
  const NodeId hi = rename_rec(n.high, rename, map_id);
  out = make(rename[static_cast<std::size_t>(n.var)], lo, hi);
  cache_put(CacheOp::kRename, f, map_id, 0, out);
  return out;
}

NodeId Manager::rename(NodeId f, const std::vector<int>& ren) {
  // Order compatibility is the caller's contract; violating it silently
  // builds a non-canonical DAG, so verify always (cheap). Non-decreasing
  // suffices: equal images are fine when only one of the two variables can
  // occur in f (the checker's quantify-then-rename usage).
  for (std::size_t i = 1; i < ren.size(); ++i) {
    if (ren[i] < ren[i - 1]) {
      throw std::invalid_argument("rename: order-incompatible mapping");
    }
  }
  const std::uint32_t map_id =
      rename_ids_
          .try_emplace(ren, static_cast<std::uint32_t>(rename_ids_.size()))
          .first->second;
  return rename_rec(f, ren, map_id);
}

NodeId Manager::cofactor(NodeId f, int v, bool value) {
  if (is_const(f)) return f;
  const Node n = nodes_[f];
  if (n.var > v) return f;
  if (n.var == v) return value ? n.high : n.low;
  const NodeId var_id = static_cast<NodeId>(v);
  NodeId out;
  if (cache_find(CacheOp::kCofactor, f, var_id, value, out)) return out;
  const NodeId lo = cofactor(n.low, v, value);
  const NodeId hi = cofactor(n.high, v, value);
  out = make(n.var, lo, hi);
  cache_put(CacheOp::kCofactor, f, var_id, value, out);
  return out;
}

bool Manager::eval(NodeId f, const std::vector<bool>& assignment) const {
  while (!is_const(f)) {
    const Node& n = nodes_[f];
    f = assignment[static_cast<std::size_t>(n.var)] ? n.high : n.low;
  }
  return f == kTrue;
}

std::uint64_t Manager::dag_size_rec(NodeId f, std::vector<bool>& seen) const {
  if (seen[f]) return 0;
  seen[f] = true;
  if (is_const(f)) return 1;
  return 1 + dag_size_rec(nodes_[f].low, seen) + dag_size_rec(nodes_[f].high, seen);
}

std::uint64_t Manager::dag_size(NodeId f) const {
  std::vector<bool> seen(nodes_.size(), false);
  return dag_size_rec(f, seen);
}

double Manager::sat_count_rec(NodeId f,
                              std::unordered_map<NodeId, double>& memo) const {
  if (f == kFalse) return 0.0;
  if (f == kTrue) return 1.0;
  auto it = memo.find(f);
  if (it != memo.end()) return it->second;
  const Node& n = nodes_[f];
  auto weight = [&](NodeId child) {
    const int skip = nodes_[child].var - n.var - 1;
    return sat_count_rec(child, memo) * std::pow(2.0, skip);
  };
  // Levels skipped between parent and child double the count per level.
  double count = weight(n.low) + weight(n.high);
  memo[f] = count;
  return count;
}

double Manager::sat_count(NodeId f) const {
  std::unordered_map<NodeId, double> memo;
  if (is_const(f)) {
    return f == kTrue ? std::pow(2.0, var_count_) : 0.0;
  }
  const double below = sat_count_rec(f, memo);
  return below * std::pow(2.0, nodes_[f].var);
}

std::vector<bool> Manager::any_sat(NodeId f) const {
  if (f == kFalse) throw std::invalid_argument("any_sat of FALSE");
  std::vector<bool> out(static_cast<std::size_t>(var_count_), false);
  while (!is_const(f)) {
    const Node& n = nodes_[f];
    if (n.low != kFalse) {
      out[static_cast<std::size_t>(n.var)] = false;
      f = n.low;
    } else {
      out[static_cast<std::size_t>(n.var)] = true;
      f = n.high;
    }
  }
  return out;
}

std::vector<bool> Manager::support(NodeId f) const {
  std::vector<bool> out(static_cast<std::size_t>(var_count_), false);
  std::vector<bool> seen(nodes_.size(), false);
  std::vector<NodeId> work{f};
  while (!work.empty()) {
    const NodeId id = work.back();
    work.pop_back();
    if (seen[id] || is_const(id)) continue;
    seen[id] = true;
    const Node& n = nodes_[id];
    out[static_cast<std::size_t>(n.var)] = true;
    work.push_back(n.low);
    work.push_back(n.high);
  }
  return out;
}

void Manager::ref(NodeId f) { ++nodes_[f].refs; }

void Manager::deref(NodeId f) {
  if (nodes_[f].refs == 0) throw std::logic_error("deref of unreferenced node");
  --nodes_[f].refs;
}

std::uint64_t Manager::collect_garbage() {
  // The computed cache may hold dead operands and results, whose ids the
  // free list hands out again; drop it wholesale.
  std::fill(cache_.begin(), cache_.end(), CacheEntry{});
  std::uint64_t reclaimed = 0;
  // Worklist sweep: free every refs==0 node; freeing may push children to 0.
  std::vector<NodeId> dead;
  for (NodeId id = 2; id < nodes_.size(); ++id) {
    if (nodes_[id].var >= 0 && nodes_[id].refs == 0) dead.push_back(id);
  }
  while (!dead.empty()) {
    const NodeId id = dead.back();
    dead.pop_back();
    Node& n = nodes_[id];
    if (n.var < 0 || n.refs != 0) continue;  // resurrected or already freed
    for (NodeId child : {n.low, n.high}) {
      if (--nodes_[child].refs == 0 && child > kTrue && nodes_[child].var >= 0) {
        dead.push_back(child);
      }
    }
    n.var = -1;  // tombstone
    free_list_.push_back(id);
    --live_nodes_;
    ++reclaimed;
  }
  // Chains of the survivors only, in a table of the same size.
  if (reclaimed != 0) rebuild_chains(buckets_.size());
  return reclaimed;
}

std::uint64_t Manager::memory_bytes() const {
  return nodes_.capacity() * sizeof(Node) +
         buckets_.capacity() * sizeof(NodeId) +
         cache_.capacity() * sizeof(CacheEntry);
}

std::string Manager::to_dot(
    NodeId f, const std::function<std::string(int)>& var_name) const {
  std::ostringstream out;
  out << "digraph bdd {\n  rankdir=TB;\n";
  std::vector<bool> seen(nodes_.size(), false);
  std::vector<NodeId> work{f};
  while (!work.empty()) {
    const NodeId id = work.back();
    work.pop_back();
    if (seen[id]) continue;
    seen[id] = true;
    if (is_const(id)) {
      out << "  n" << id << " [shape=box,label=\"" << (id == kTrue ? 1 : 0)
          << "\"];\n";
      continue;
    }
    const Node& n = nodes_[id];
    out << "  n" << id << " [label=\"" << var_name(n.var) << "\"];\n";
    out << "  n" << id << " -> n" << n.low << " [style=dashed];\n";
    out << "  n" << id << " -> n" << n.high << ";\n";
    work.push_back(n.low);
    work.push_back(n.high);
  }
  out << "}\n";
  return out.str();
}

}  // namespace la1::bdd
