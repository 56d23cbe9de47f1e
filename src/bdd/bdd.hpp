// Reduced Ordered Binary Decision Diagrams.
//
// This is the symbolic engine behind the RuleBase-style model checker
// (paper §5.2, Table 2). It is a classic ROBDD package: a unique table for
// canonicity, an ITE operation, existential / universal quantification,
// variable substitution (compose-by-renaming for the transition-relation
// image), reference-counted garbage collection, and node accounting so the
// benchmark can report "Number of BDDs" and memory the way RuleBase does.
//
// Storage (DESIGN.md §19): the nodes live in one flat arena indexed by
// NodeId. The unique table is a power-of-two array of chain heads; each
// chain runs through the `next` field of the arena slots, so interning a
// node allocates nothing outside the arena. One lossy, direct-mapped
// computed cache, tagged by operation, serves ite, exists, and_exists,
// rename and cofactor; a quantification mask or rename map enters a key as
// a small id interned by content. Both tables start small and double as
// the arena grows, the cache up to a fixed cap. Garbage collection empties
// the cache and rebuilds the chains from the live nodes. A cache miss only
// recomputes a canonical result out of nodes that already exist, so which
// nodes are created, and in what order, never depends on the table sizes.
//
// Node 0 is the constant FALSE, node 1 the constant TRUE. Complement edges
// are not used; negation materializes nodes (simpler invariants, adequate
// for the design sizes in the paper).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace la1::bdd {

using NodeId = std::uint32_t;

inline constexpr NodeId kFalse = 0;
inline constexpr NodeId kTrue = 1;

/// Thrown when a node or memory budget set via `Manager::set_node_limit` is
/// exceeded — the mechanism the Table-2 bench uses to reproduce RuleBase's
/// state explosion at 4 banks.
struct ResourceExhausted {
  std::uint64_t live_nodes = 0;
  std::uint64_t limit = 0;
};

/// The BDD manager: owns all nodes of one variable order.
class Manager {
 public:
  /// Creates a manager with `var_count` variables, order = index order.
  explicit Manager(int var_count);

  int var_count() const { return var_count_; }

  // --- constructors ----------------------------------------------------
  NodeId constant(bool v) const { return v ? kTrue : kFalse; }
  /// The function "variable v" (positive literal).
  NodeId var(int v);
  /// The function "NOT variable v".
  NodeId nvar(int v);

  // --- boolean operations (all reference-neutral: result returned with
  // +1 ref taken by the caller via `ref`, see below) --------------------
  NodeId ite(NodeId f, NodeId g, NodeId h);
  NodeId apply_and(NodeId f, NodeId g) { return ite(f, g, kFalse); }
  NodeId apply_or(NodeId f, NodeId g) { return ite(f, kTrue, g); }
  NodeId apply_xor(NodeId f, NodeId g);
  NodeId apply_not(NodeId f) { return ite(f, kFalse, kTrue); }

  /// Existential quantification over the variables with `true` in `mask`.
  NodeId exists(NodeId f, const std::vector<bool>& mask);
  /// Universal quantification over the masked variables.
  NodeId forall(NodeId f, const std::vector<bool>& mask);
  /// AND followed by existential quantification in one pass — the relational
  /// image workhorse (avoids building the full conjunction).
  NodeId and_exists(NodeId f, NodeId g, const std::vector<bool>& mask);
  /// Simultaneous variable renaming: var v -> var rename[v]. The renaming
  /// must be order-compatible (monotone), which the checker's interleaved
  /// current/next order guarantees.
  NodeId rename(NodeId f, const std::vector<int>& rename);

  /// Restricts variable v to `value` (cofactor).
  NodeId cofactor(NodeId f, int v, bool value);

  // --- inspection --------------------------------------------------------
  bool is_const(NodeId f) const { return f <= kTrue; }
  int top_var(NodeId f) const;
  NodeId low(NodeId f) const;
  NodeId high(NodeId f) const;

  /// Evaluates f under a full assignment.
  bool eval(NodeId f, const std::vector<bool>& assignment) const;

  /// Number of distinct nodes in f (counting terminals once).
  std::uint64_t dag_size(NodeId f) const;

  /// Number of satisfying assignments over all `var_count()` variables.
  double sat_count(NodeId f) const;

  /// One satisfying assignment (minterm); f must not be kFalse.
  std::vector<bool> any_sat(NodeId f) const;

  /// Variables f depends on (true at index v when var v occurs in f).
  std::vector<bool> support(NodeId f) const;

  // --- reference counting / GC -------------------------------------------
  void ref(NodeId f);
  void deref(NodeId f);
  /// Frees dead nodes; returns the number reclaimed.
  std::uint64_t collect_garbage();

  // --- accounting ----------------------------------------------------------
  std::uint64_t live_nodes() const { return live_nodes_; }
  std::uint64_t peak_live_nodes() const { return peak_live_nodes_; }
  std::uint64_t created_nodes() const { return created_nodes_; }
  /// Approximate bytes held by the manager (nodes + tables).
  std::uint64_t memory_bytes() const;

  /// Sets a live-node budget; operations throw ResourceExhausted beyond it.
  /// 0 disables the budget.
  void set_node_limit(std::uint64_t limit) { node_limit_ = limit; }

  /// DOT export for debugging / documentation.
  std::string to_dot(NodeId f, const std::function<std::string(int)>& var_name) const;

 private:
  /// One arena slot. `next` links the slot into its unique-table chain
  /// (0 ends a chain: the terminals are never chained); var == -1 marks a
  /// freed slot waiting on the free list.
  struct Node {
    int var = -1;
    NodeId low = 0;
    NodeId high = 0;
    std::uint32_t refs = 0;
    NodeId next = 0;
  };

  /// Operation tag of a computed-cache entry; kEmpty marks an unused slot.
  enum class CacheOp : std::uint32_t {
    kEmpty,
    kIte,
    kExists,
    kAndExists,
    kRename,
    kCofactor,
  };
  /// Key (op, a, b, c) and result. The operands are node ids, except that
  /// a quantification mask or rename map enters as its interned id and a
  /// cofactor as (f, var, value).
  struct CacheEntry {
    CacheOp op = CacheOp::kEmpty;
    NodeId a = 0;
    NodeId b = 0;
    NodeId c = 0;
    NodeId result = 0;
  };

  NodeId make(int var, NodeId low, NodeId high);
  std::size_t bucket(int var, NodeId low, NodeId high) const;
  void rebuild_chains(std::size_t bucket_count);
  CacheEntry& cache_slot(CacheOp op, NodeId a, NodeId b, NodeId c);
  bool cache_find(CacheOp op, NodeId a, NodeId b, NodeId c, NodeId& out);
  void cache_put(CacheOp op, NodeId a, NodeId b, NodeId c, NodeId result);
  void grow_cache();
  std::uint32_t intern_mask(const std::vector<bool>& mask);
  NodeId exists_rec(NodeId f, const std::vector<bool>& mask,
                    std::uint32_t mask_id);
  NodeId and_exists_rec(NodeId f, NodeId g, const std::vector<bool>& mask,
                        std::uint32_t mask_id);
  NodeId rename_rec(NodeId f, const std::vector<int>& rename,
                    std::uint32_t map_id);
  std::uint64_t dag_size_rec(NodeId f, std::vector<bool>& seen) const;
  double sat_count_rec(NodeId f, std::unordered_map<NodeId, double>& memo) const;

  int var_count_;
  std::vector<Node> nodes_;
  /// Unique table: chain heads, a power of two, at least one per live node.
  std::vector<NodeId> buckets_;
  /// Lossy direct-mapped computed cache, a power of two up to kCacheCap.
  std::vector<CacheEntry> cache_;
  /// Quantification masks and rename maps interned by content, so a key
  /// names the same mask for the manager's lifetime.
  std::unordered_map<std::vector<bool>, std::uint32_t> mask_ids_;
  std::map<std::vector<int>, std::uint32_t> rename_ids_;
  std::vector<NodeId> free_list_;
  std::uint64_t live_nodes_ = 2;
  std::uint64_t peak_live_nodes_ = 2;
  std::uint64_t created_nodes_ = 2;
  std::uint64_t node_limit_ = 0;
};

}  // namespace la1::bdd
