#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "bdd/bdd.hpp"
#include "util/rng.hpp"

namespace la1::bdd {
namespace {

TEST(Bdd, Terminals) {
  Manager m(3);
  EXPECT_EQ(m.constant(false), kFalse);
  EXPECT_EQ(m.constant(true), kTrue);
  EXPECT_TRUE(m.is_const(kFalse));
}

TEST(Bdd, VarAndEval) {
  Manager m(2);
  const NodeId x0 = m.var(0);
  const NodeId x1 = m.nvar(1);
  EXPECT_TRUE(m.eval(x0, {true, false}));
  EXPECT_FALSE(m.eval(x0, {false, true}));
  EXPECT_TRUE(m.eval(x1, {false, false}));
  EXPECT_FALSE(m.eval(x1, {false, true}));
}

TEST(Bdd, Canonicity) {
  Manager m(3);
  // (x0 & x1) | (x1 & x0) must intern to the same node.
  const NodeId a = m.apply_and(m.var(0), m.var(1));
  const NodeId b = m.apply_and(m.var(1), m.var(0));
  EXPECT_EQ(a, b);
  // De Morgan.
  const NodeId lhs = m.apply_not(m.apply_or(m.var(0), m.var(2)));
  const NodeId rhs = m.apply_and(m.apply_not(m.var(0)), m.apply_not(m.var(2)));
  EXPECT_EQ(lhs, rhs);
}

TEST(Bdd, IteBasics) {
  Manager m(2);
  EXPECT_EQ(m.ite(kTrue, m.var(0), m.var(1)), m.var(0));
  EXPECT_EQ(m.ite(kFalse, m.var(0), m.var(1)), m.var(1));
  EXPECT_EQ(m.ite(m.var(0), kTrue, kFalse), m.var(0));
  EXPECT_EQ(m.ite(m.var(0), kFalse, kTrue), m.apply_not(m.var(0)));
}

/// Random-expression property test: the BDD agrees with direct evaluation
/// on every assignment, for every boolean operator.
class BddRandomExpr : public ::testing::TestWithParam<int> {};

TEST_P(BddRandomExpr, MatchesTruthTable) {
  const int vars = 5;
  Manager m(vars);
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));

  // Build a random expression tree as (node, eval-function) pairs.
  using Fn = std::function<bool(unsigned)>;
  std::vector<std::pair<NodeId, Fn>> pool;
  for (int v = 0; v < vars; ++v) {
    pool.emplace_back(m.var(v), [v](unsigned a) { return ((a >> v) & 1u) != 0; });
  }
  for (int step = 0; step < 30; ++step) {
    const auto& [na, fa] = pool[rng.below(pool.size())];
    const auto& [nb, fb] = pool[rng.below(pool.size())];
    const int op = static_cast<int>(rng.below(4));
    NodeId n;
    Fn f;
    switch (op) {
      case 0:
        n = m.apply_and(na, nb);
        f = [fa, fb](unsigned a) { return fa(a) && fb(a); };
        break;
      case 1:
        n = m.apply_or(na, nb);
        f = [fa, fb](unsigned a) { return fa(a) || fb(a); };
        break;
      case 2:
        n = m.apply_xor(na, nb);
        f = [fa, fb](unsigned a) { return fa(a) != fb(a); };
        break;
      default:
        n = m.apply_not(na);
        f = [fa](unsigned a) { return !fa(a); };
        break;
    }
    pool.emplace_back(n, f);
  }

  for (const auto& [node, fn] : pool) {
    double expected_count = 0;
    for (unsigned a = 0; a < (1u << vars); ++a) {
      std::vector<bool> assignment(vars);
      for (int v = 0; v < vars; ++v) assignment[v] = ((a >> v) & 1u) != 0;
      EXPECT_EQ(m.eval(node, assignment), fn(a));
      if (fn(a)) ++expected_count;
    }
    EXPECT_DOUBLE_EQ(m.sat_count(node), expected_count);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddRandomExpr, ::testing::Range(1, 9));

TEST(Bdd, ExistsForall) {
  Manager m(3);
  // f = x0 & x1
  const NodeId f = m.apply_and(m.var(0), m.var(1));
  std::vector<bool> mask{true, false, false};  // quantify x0
  EXPECT_EQ(m.exists(f, mask), m.var(1));
  EXPECT_EQ(m.forall(f, mask), kFalse);
  // forall x0. (x0 | x1) == x1
  const NodeId g = m.apply_or(m.var(0), m.var(1));
  EXPECT_EQ(m.forall(g, mask), m.var(1));
}

TEST(Bdd, AndExistsMatchesComposition) {
  Manager m(4);
  util::Rng rng(99);
  for (int round = 0; round < 20; ++round) {
    // Random small functions f and g.
    NodeId f = m.constant(rng.next_bool());
    NodeId g = m.constant(rng.next_bool());
    for (int i = 0; i < 4; ++i) {
      if (rng.next_bool()) f = m.apply_or(f, m.var(static_cast<int>(rng.below(4))));
      if (rng.next_bool()) f = m.apply_and(f, m.nvar(static_cast<int>(rng.below(4))));
      if (rng.next_bool()) g = m.apply_xor(g, m.var(static_cast<int>(rng.below(4))));
    }
    std::vector<bool> mask(4);
    for (int v = 0; v < 4; ++v) mask[static_cast<std::size_t>(v)] = rng.next_bool();
    EXPECT_EQ(m.and_exists(f, g, mask), m.exists(m.apply_and(f, g), mask));
  }
}

TEST(Bdd, RenameShiftsVariables) {
  Manager m(4);
  // f over vars {0, 2}; rename 0->1, 2->3.
  const NodeId f = m.apply_and(m.var(0), m.apply_not(m.var(2)));
  std::vector<int> ren{1, 1, 3, 3};
  const NodeId g = m.rename(f, ren);
  EXPECT_EQ(g, m.apply_and(m.var(1), m.apply_not(m.var(3))));
}

TEST(Bdd, RenameRejectsInversions) {
  Manager m(4);
  const NodeId f = m.var(1);
  std::vector<int> bad{3, 0, 1, 2};
  EXPECT_THROW(m.rename(f, bad), std::invalid_argument);
}

TEST(Bdd, Cofactor) {
  Manager m(3);
  const NodeId f = m.ite(m.var(0), m.var(1), m.var(2));
  EXPECT_EQ(m.cofactor(f, 0, true), m.var(1));
  EXPECT_EQ(m.cofactor(f, 0, false), m.var(2));
  EXPECT_EQ(m.cofactor(m.var(1), 0, true), m.var(1));  // var below unaffected
}

TEST(Bdd, AnySatSatisfies) {
  Manager m(6);
  util::Rng rng(7);
  NodeId f = kTrue;
  for (int i = 0; i < 6; ++i) {
    f = m.apply_and(f, rng.next_bool() ? m.var(i) : m.nvar(i));
  }
  const auto sat = m.any_sat(f);
  EXPECT_TRUE(m.eval(f, sat));
  EXPECT_THROW(m.any_sat(kFalse), std::invalid_argument);
}

TEST(Bdd, SupportFindsVariables) {
  Manager m(5);
  const NodeId f = m.apply_xor(m.var(1), m.var(3));
  const auto sup = m.support(f);
  EXPECT_FALSE(sup[0]);
  EXPECT_TRUE(sup[1]);
  EXPECT_FALSE(sup[2]);
  EXPECT_TRUE(sup[3]);
}

TEST(Bdd, DagSizeOfVariable) {
  Manager m(3);
  // A single variable: node + two terminals.
  EXPECT_EQ(m.dag_size(m.var(0)), 3u);
  EXPECT_EQ(m.dag_size(kTrue), 1u);
}

TEST(Bdd, GarbageCollection) {
  Manager m(8);
  NodeId keep = m.apply_and(m.var(0), m.var(1));
  m.ref(keep);
  // Create garbage.
  for (int i = 0; i < 100; ++i) {
    NodeId junk = kTrue;
    for (int v = 0; v < 8; ++v) {
      junk = m.apply_xor(junk, m.apply_and(m.var(v), m.var((v + i) % 8)));
    }
  }
  const std::uint64_t before = m.live_nodes();
  const std::uint64_t reclaimed = m.collect_garbage();
  EXPECT_GT(reclaimed, 0u);
  EXPECT_LT(m.live_nodes(), before);
  // The kept function still evaluates correctly and new ops still work.
  EXPECT_TRUE(m.eval(keep, {true, true, false, false, false, false, false, false}));
  EXPECT_EQ(m.apply_and(m.var(0), m.var(1)), keep);
}

/// Truth tables over six variables: bit a of a Table is the function's
/// value under the assignment that sets variable v to bit v of a.
constexpr int kTableVars = 6;
using Table = std::uint64_t;

Table table_of(const Manager& m, NodeId f) {
  Table t = 0;
  for (unsigned a = 0; a < 64; ++a) {
    std::vector<bool> assignment(kTableVars);
    for (int v = 0; v < kTableVars; ++v) assignment[v] = ((a >> v) & 1u) != 0;
    if (m.eval(f, assignment)) t |= Table{1} << a;
  }
  return t;
}

/// The table of f with bit a taken from f's bit `source(a)`.
Table permute(Table f, const std::function<unsigned(unsigned)>& source) {
  Table t = 0;
  for (unsigned a = 0; a < 64; ++a) {
    if (((f >> source(a)) & 1u) != 0) t |= Table{1} << a;
  }
  return t;
}

/// Table{2} is the identity on one bit, read at variable v.
Table var_table(int v) {
  return permute(Table{2}, [v](unsigned a) { return (a >> v) & 1u; });
}

Table exists_table(Table f, const std::vector<bool>& mask) {
  for (int v = 0; v < kTableVars; ++v) {
    if (!mask[static_cast<std::size_t>(v)]) continue;
    f = permute(f, [v](unsigned a) { return a & ~(1u << v); }) |
        permute(f, [v](unsigned a) { return a | (1u << v); });
  }
  return f;
}

Table cofactor_table(Table f, int v, bool value) {
  return permute(f, [v, value](unsigned a) {
    return value ? a | (1u << v) : a & ~(1u << v);
  });
}

/// rename(f, ren) reads variable v of f from variable ren[v].
Table rename_table(Table f, const std::vector<int>& ren) {
  return permute(f, [&ren](unsigned a) {
    unsigned b = 0;
    for (int v = 0; v < kTableVars; ++v) {
      b |= ((a >> ren[static_cast<std::size_t>(v)]) & 1u) << v;
    }
    return b;
  });
}

TEST(Bdd, CollectionLeavesNoStaleCacheEntry) {
  // Collected ids go back on the free list and name new functions; a
  // computed-cache entry that outlived the collection would answer for
  // whatever now lives at its ids. Every cached operation is checked
  // against truth tables before the collection and again on functions
  // built over the reused ids.
  Manager m(kTableVars);
  util::Rng rng(2004);
  const std::vector<bool> mask_a{true, false, true, false, false, true};
  const std::vector<bool> mask_b{false, true, false, true, true, false};
  const std::vector<int> shift{1, 1, 3, 3, 5, 5};

  struct Fn {
    NodeId node;
    Table table;
  };
  // A random function; with `even_only`, over the even variables only, so
  // that `shift` renames it without two variables meeting.
  auto random_fn = [&](bool even_only) {
    auto literal = [&] {
      const int v = static_cast<int>(rng.below(kTableVars / 2)) * 2 +
                    (even_only ? 0 : static_cast<int>(rng.below(2)));
      return Fn{m.var(v), var_table(v)};
    };
    Fn f = literal();
    for (int step = 0; step < 5; ++step) {
      const Fn g = literal();
      const Fn h = literal();
      switch (rng.below(3)) {
        case 0: f = {m.ite(f.node, g.node, h.node),
                     (f.table & g.table) | (~f.table & h.table)}; break;
        case 1: f = {m.apply_xor(f.node, g.node), f.table ^ g.table}; break;
        default: f = {m.apply_or(m.apply_not(f.node), g.node),
                      ~f.table | g.table}; break;
      }
    }
    EXPECT_EQ(table_of(m, f.node), f.table);
    return f;
  };
  auto exercise = [&](const std::vector<Fn>& pool, const std::vector<Fn>& even) {
    for (std::size_t i = 0; i < pool.size(); ++i) {
      const Fn& f = pool[i];
      const Fn& g = pool[(i + 1) % pool.size()];
      const Fn& h = pool[(i + 2) % pool.size()];
      EXPECT_EQ(table_of(m, m.ite(f.node, g.node, h.node)),
                (f.table & g.table) | (~f.table & h.table));
      for (const std::vector<bool>* mask : {&mask_a, &mask_b}) {
        EXPECT_EQ(table_of(m, m.exists(f.node, *mask)),
                  exists_table(f.table, *mask));
        EXPECT_EQ(table_of(m, m.forall(f.node, *mask)),
                  ~exists_table(~f.table, *mask));
        EXPECT_EQ(table_of(m, m.and_exists(f.node, g.node, *mask)),
                  exists_table(f.table & g.table, *mask));
      }
      for (int v = 0; v < kTableVars; ++v) {
        for (const bool value : {false, true}) {
          EXPECT_EQ(table_of(m, m.cofactor(f.node, v, value)),
                    cofactor_table(f.table, v, value));
        }
      }
    }
    for (const Fn& f : even) {
      EXPECT_EQ(table_of(m, m.rename(f.node, shift)),
                rename_table(f.table, shift));
    }
  };
  auto build = [&](std::vector<Fn>& pool, std::vector<Fn>& even) {
    for (int i = 0; i < 12; ++i) pool.push_back(random_fn(false));
    for (int i = 0; i < 6; ++i) even.push_back(random_fn(true));
    exercise(pool, even);
  };

  std::vector<Fn> pool;
  std::vector<Fn> even;
  build(pool, even);
  // What every id meant before the collection (nothing was freed yet, so
  // the ids run from 0 to the creation count).
  std::vector<Table> meant;
  for (NodeId id = 0; id < m.created_nodes(); ++id) {
    meant.push_back(table_of(m, id));
  }
  std::vector<Fn> kept(pool.begin(), pool.begin() + 3);
  for (const Fn& f : kept) m.ref(f.node);
  EXPECT_GT(m.collect_garbage(), 0u);

  std::vector<Fn> pool2 = kept;
  std::vector<Fn> even2;
  build(pool2, even2);
  bool reused = false;
  for (const Fn& f : pool2) {
    reused |= f.node < meant.size() && meant[f.node] != f.table;
  }
  EXPECT_TRUE(reused) << "no function landed on a reused id";
}

TEST(Bdd, AndExistsKeysOnTheMaskContent) {
  // Same operands, different masks: each answer is its own. The masks are
  // temporaries that may share one address, so only their content may
  // enter the cache key.
  Manager m(3);
  const NodeId f = m.apply_and(m.var(0), m.var(1));
  const NodeId g = m.var(2);
  EXPECT_EQ(m.and_exists(f, g, {true, false, false}),
            m.apply_and(m.var(1), m.var(2)));
  EXPECT_EQ(m.and_exists(f, g, {false, true, false}),
            m.apply_and(m.var(0), m.var(2)));
  const NodeId expected[] = {m.apply_and(m.var(1), m.var(2)),
                             m.apply_and(m.var(0), m.var(2)), f};
  for (int round = 0; round < 2; ++round) {
    for (int v = 0; v < 3; ++v) {
      std::vector<bool> mask(3, false);
      mask[static_cast<std::size_t>(v)] = true;
      EXPECT_EQ(m.and_exists(f, g, mask), expected[v]) << "var " << v;
    }
  }
}

TEST(Bdd, NodeLimitThrows) {
  Manager m(16);
  m.set_node_limit(64);
  EXPECT_THROW(
      {
        NodeId f = kTrue;
        for (int v = 0; v < 16; ++v) {
          f = m.apply_xor(f, m.var(v));
        }
      },
      ResourceExhausted);
}

TEST(Bdd, SatCountWide) {
  Manager m(10);
  // x0 | x1: 3/4 of assignments -> 3 * 2^8.
  const NodeId f = m.apply_or(m.var(0), m.var(1));
  EXPECT_DOUBLE_EQ(m.sat_count(f), 3.0 * 256.0);
}

TEST(Bdd, ToDotRenders) {
  Manager m(2);
  const NodeId f = m.apply_and(m.var(0), m.var(1));
  const std::string dot =
      m.to_dot(f, [](int v) { return "x" + std::to_string(v); });
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("x0"), std::string::npos);
}

}  // namespace
}  // namespace la1::bdd
