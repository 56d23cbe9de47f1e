#include <gtest/gtest.h>

#include <cstdio>

#include "proptest.hpp"
#include "psl/dfa.hpp"
#include "psl/parse.hpp"
#include "util/rng.hpp"

namespace la1::psl {
namespace {

class PairEnv : public Env {
 public:
  PairEnv(bool a, bool b) : a_(a), b_(b) {}
  bool sample(const std::string& s) const override {
    if (s == "a") return a_;
    if (s == "b") return b_;
    throw std::invalid_argument("unknown " + s);
  }

 private:
  bool a_, b_;
};

TEST(Dfa, TableShape) {
  const Dfa t = determinize(parse_property("always (a)"));
  EXPECT_EQ(t.atoms().size(), 1u);
  EXPECT_GE(t.state_count(), 2u);
  // Complete over both letters, and nothing beyond them.
  for (std::uint32_t s = 0; s < t.state_count(); ++s) {
    for (std::uint32_t letter = 0; letter < 2; ++letter) {
      EXPECT_LT(t.next(s, letter), t.state_count());
    }
    EXPECT_EQ(t.next(s, 2), Dfa::kUnknown);
  }
}

TEST(Dfa, TooManyAtomsRejected) {
  std::string text = "always (s0";
  for (int i = 1; i < 18; ++i) text += " && s" + std::to_string(i);
  text += ")";
  const PropPtr prop = parse_property(text);
  EXPECT_THROW(determinize(prop), std::invalid_argument);
  EXPECT_THROW(compile_dfa(prop), std::invalid_argument);
  // The lazy automaton itself has no atom limit.
  EXPECT_EQ(Dfa(prop).atoms().size(), 18u);
}

TEST(Dfa, LazyTableFillsOnlyWhatIsStepped) {
  Dfa dfa(parse_property("always (a -> next[1] b)"));
  EXPECT_EQ(dfa.state_count(), 1u);
  EXPECT_EQ(dfa.next(Dfa::kInitial, 1), Dfa::kUnknown);
  const std::uint32_t s = dfa.step(Dfa::kInitial, 1, PairEnv(true, false));
  EXPECT_EQ(dfa.next(Dfa::kInitial, 1), s);
  EXPECT_EQ(dfa.next(Dfa::kInitial, 0), Dfa::kUnknown);
  // A hit does not sample the Env again.
  class NoEnv : public Env {
   public:
    bool sample(const std::string&) const override {
      throw std::logic_error("sampled on a hit");
    }
  };
  EXPECT_EQ(dfa.step(Dfa::kInitial, 1, NoEnv()), s);
}

/// Property sweep: the DFA monitor agrees with the NFA monitor on random
/// traces, for a spread of properties.
class DfaVsNfa : public ::testing::TestWithParam<const char*> {};

TEST_P(DfaVsNfa, VerdictsAgree) {
  const PropPtr prop = parse_property(GetParam());
  auto nfa_monitor = compile(prop);
  auto dfa_monitor = compile_dfa(prop);
  util::Rng rng(4711);
  for (int round = 0; round < 40; ++round) {
    nfa_monitor->reset();
    dfa_monitor->reset();
    for (int t = 0; t < 15; ++t) {
      const bool a = rng.next_bool();
      const bool b = rng.next_bool();
      nfa_monitor->step(PairEnv(a, b));
      dfa_monitor->step(PairEnv(a, b));
      ASSERT_EQ(nfa_monitor->current(), dfa_monitor->current())
          << GetParam() << " diverged at round " << round << " t " << t;
      ASSERT_EQ(nfa_monitor->at_end(), dfa_monitor->at_end())
          << GetParam() << " (at_end) round " << round << " t " << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Properties, DfaVsNfa,
    ::testing::Values("always (a -> next[2] b)", "never {a ; a ; b}",
                      "always ({a ; b} |-> {true ; a})", "a until b",
                      "a until! b", "eventually! b", "a before b",
                      "never {a[*2]}", "always (a -> b)"));

/// Random properties over atoms {a, b, c}, built from the AST
/// constructors; `depth` bounds the nesting of every layer together.
/// Argument evaluation order is unspecified, so which properties a seed
/// draws depends on the compiler; a failure prints its property.
class PropGen {
 public:
  explicit PropGen(util::Rng& rng) : rng_(&rng) {}

  PropPtr prop(int depth) {
    if (depth == 0) return p_bool(bexpr(0));
    const int d = depth - 1;
    switch (pick(12)) {
      case 0: return p_bool(bexpr(d));
      case 1: return p_always(prop(d));
      case 2: return p_never(sere(d));
      case 3:
        return p_suffix_impl(sere(d), sere(d), coin(), coin());
      case 4: return p_next(bexpr(d), count(0));
      case 5: return p_until(bexpr(d), bexpr(d), coin());
      case 6: return p_before(bexpr(d), bexpr(d), coin());
      case 7: return p_eventually(bexpr(d));
      case 8: return p_and({prop(d), prop(d)});
      case 9: return p_impl_next(bexpr(d), count(0), bexpr(d));
      case 10: return p_impl_now(bexpr(d), bexpr(d));
      default:
        return p_next_event(bexpr(d), bexpr(d), count(1), bexpr(d));
    }
  }

 private:
  SerePtr sere(int depth) {
    if (depth == 0) return s_bool(bexpr(0));
    const int d = depth - 1;
    switch (pick(11)) {
      case 0: return s_bool(bexpr(d));
      case 1: return s_concat(sere(d), sere(d));
      case 2: return s_fusion(sere(d), sere(d));
      case 3: return s_or(sere(d), sere(d));
      case 4: return s_and(sere(d), sere(d));
      case 5: {
        const int min = count(0);
        return s_star(sere(d), min, coin() ? -1 : min + count(0));
      }
      case 6: return s_plus(sere(d));
      case 7: return s_rep(bexpr(d), count(0));
      case 8: return s_goto(bexpr(d), count(1));
      case 9: return s_occurs(bexpr(d), count(1));
      default: return s_skip(count(0));
    }
  }

  BExprPtr bexpr(int depth) {
    if (depth == 0 || coin()) {
      switch (pick(8)) {
        case 0: return b_true();
        case 1: return b_false();
        default: return b_sig(std::string(1, "abc"[pick(3)]));
      }
    }
    const int d = depth - 1;
    switch (pick(5)) {
      case 0: return b_not(bexpr(d));
      case 1: return b_and(bexpr(d), bexpr(d));
      case 2: return b_or(bexpr(d), bexpr(d));
      case 3: return b_implies(bexpr(d), bexpr(d));
      default: return b_iff(bexpr(d), bexpr(d));
    }
  }

  int pick(int n) { return static_cast<int>(rng_->below(static_cast<std::uint64_t>(n))); }
  bool coin() { return rng_->next_bool(); }
  int count(int min) { return min + pick(3); }

  util::Rng* rng_;
};

class AbcEnv : public Env {
 public:
  explicit AbcEnv(unsigned bits) : bits_(bits) {}
  bool sample(const std::string& s) const override {
    return ((bits_ >> (s.at(0) - 'a')) & 1u) != 0;
  }

 private:
  unsigned bits_;
};

/// The monitor oracle: the NFA monitor, the lazy DFA monitor and the
/// complete table stepped by hand agree on current() and at_end() after
/// every cycle of random traces, for random properties. Only properties
/// outside the monitorable fragment (compile throws) are skipped.
TEST(Dfa, RandomPropertyOracle) {
  int accepted = 0;
  int rejected = 0;
  util::Rng traces(2718);
  const auto agree = [&](const PropPtr& prop) {
    std::unique_ptr<Monitor> nfa;
    try {
      nfa = compile(prop);
    } catch (const std::invalid_argument&) {
      ++rejected;
      return true;
    }
    ++accepted;
    auto lazy = compile_dfa(prop);
    const Dfa table = determinize(prop);
    for (int round = 0; round < 16; ++round) {
      nfa->reset();
      lazy->reset();
      std::uint32_t state = Dfa::kInitial;
      for (int t = 0; t < 16; ++t) {
        const AbcEnv env(static_cast<unsigned>(traces.below(8)));
        nfa->step(env);
        lazy->step(env);
        std::uint32_t letter = 0;
        for (std::size_t i = 0; i < table.atoms().size(); ++i) {
          if (env.sample(table.atoms()[i])) letter |= 1u << i;
        }
        state = table.next(state, letter);
        const Verdict want = nfa->current();
        const Verdict want_end = nfa->at_end();
        if (lazy->current() != want || table.verdict(state) != want ||
            lazy->at_end() != want_end ||
            table.end_verdict(state) != want_end) {
          ADD_FAILURE() << to_string(*prop) << ": round " << round << " t "
                        << t << " nfa " << to_string(want) << "/"
                        << to_string(want_end) << " lazy "
                        << to_string(lazy->current()) << "/"
                        << to_string(lazy->at_end()) << " table "
                        << to_string(table.verdict(state)) << "/"
                        << to_string(table.end_verdict(state));
          return false;
        }
      }
    }
    return true;
  };
  const auto result = proptest::check<PropPtr>(
      /*seed=*/1729, /*cases=*/300,
      [](util::Rng& rng) { return PropGen(rng).prop(3); }, agree);
  EXPECT_TRUE(result.ok) << "first failing case " << result.failing_case;
  EXPECT_GE(accepted, 200) << rejected << " properties rejected";
  std::printf("oracle: %d properties checked, %d rejected by compile\n",
              accepted, rejected);
}

TEST(Dfa, CloneAndEncode) {
  auto m = compile_dfa(parse_property("always (a -> next[1] b)"));
  m->reset();
  m->step(PairEnv(true, false));
  auto copy = m->clone();
  EXPECT_EQ(m->encode(), copy->encode());
  m->step(PairEnv(false, false));   // violation
  copy->step(PairEnv(false, true)); // satisfied
  EXPECT_EQ(m->current(), Verdict::kFailed);
  EXPECT_EQ(copy->current(), Verdict::kHolds);
  EXPECT_EQ(m->failure_cycle(), 1u);
}

TEST(Dfa, ClonesShareTheTableNotTheState) {
  // A clone stepped along another trace grows the shared table; the
  // original must read exactly what a monitor with a table of its own
  // reads.
  const PropPtr prop = parse_property("always ({a ; b} |-> {true ; a})");
  auto original = compile_dfa(prop);
  auto alone = compile_dfa(prop);
  auto clone = original->clone();
  util::Rng rng(9);
  for (int t = 0; t < 40; ++t) {
    const bool a = rng.next_bool();
    const bool b = rng.next_bool();
    clone->step(PairEnv(rng.next_bool(), rng.next_bool()));
    original->step(PairEnv(a, b));
    alone->step(PairEnv(a, b));
    ASSERT_EQ(original->current(), alone->current()) << "t " << t;
    ASSERT_EQ(original->at_end(), alone->at_end()) << "t " << t;
    ASSERT_EQ(original->failure_cycle(), alone->failure_cycle()) << "t " << t;
    if (t == 20) clone = original->clone();
  }
  EXPECT_EQ(original->current(), Verdict::kFailed);
}

TEST(NextEvent, HoldsAtNthOccurrence) {
  class TriEnv : public Env {
   public:
    TriEnv(bool t, bool b, bool c) : t_(t), b_(b), c_(c) {}
    bool sample(const std::string& s) const override {
      if (s == "t") return t_;
      if (s == "b") return b_;
      if (s == "c") return c_;
      throw std::invalid_argument("unknown " + s);
    }

   private:
    bool t_, b_, c_;
  };

  // next_event(b)[2](c) after each trigger t: c holds at the 2nd b.
  const PropPtr prop = p_next_event(b_sig("t"), b_sig("b"), 2, b_sig("c"));
  auto m = compile(prop);
  auto run = [&](std::vector<std::tuple<bool, bool, bool>> trace) {
    m->reset();
    for (auto [t, b, c] : trace) m->step(TriEnv(t, b, c));
    return m->current();
  };
  // trigger at 0; b at 1 and 3; c at 3 -> holds.
  EXPECT_EQ(run({{true, false, false},
                 {false, true, false},
                 {false, false, false},
                 {false, true, true}}),
            Verdict::kHolds);
  // c absent at the 2nd b -> fails.
  EXPECT_EQ(run({{true, false, false},
                 {false, true, false},
                 {false, false, false},
                 {false, true, false}}),
            Verdict::kFailed);
  // second b never arrives -> still pending.
  EXPECT_EQ(run({{true, false, false}, {false, true, false}}),
            Verdict::kPending);
}

TEST(VUnitParse, FullUnit) {
  const VUnit vunit = parse_vunit(R"(
    vunit la1_read {
      // the Figure-3 contract
      assert P1 : always (a -> next[2] b);
      assume env : never {a && b};
      cover C1 : {a ; true ; b};
    }
  )");
  EXPECT_EQ(vunit.name(), "la1_read");
  ASSERT_EQ(vunit.directives().size(), 3u);
  EXPECT_EQ(vunit.directives()[0].kind, DirectiveKind::kAssert);
  EXPECT_EQ(vunit.directives()[0].name, "P1");
  EXPECT_EQ(vunit.directives()[1].kind, DirectiveKind::kAssume);
  EXPECT_EQ(vunit.directives()[2].kind, DirectiveKind::kCover);
  // The parsed unit runs.
  VUnitRunner runner(vunit);
  runner.step(PairEnv(true, false));
  runner.step(PairEnv(false, false));
  runner.step(PairEnv(false, true));
  EXPECT_EQ(runner.failures(), 0u);
  EXPECT_EQ(runner.cover_count(2), 1u);
}

TEST(VUnitParse, Errors) {
  EXPECT_THROW(parse_vunit("vunit x { assert }"), ParseError);
  EXPECT_THROW(parse_vunit("unit x {}"), ParseError);
  EXPECT_THROW(parse_vunit("vunit x { expect P : a; }"), ParseError);
  EXPECT_THROW(parse_vunit("vunit x { assert P : a }"), ParseError);  // no ';'
}

TEST(VUnitParse, CommentsAnywhere) {
  const VUnit vunit = parse_vunit(
      "// header\nvunit v { assert P : // mid\n always (a); }");
  EXPECT_EQ(vunit.directives().size(), 1u);
}

}  // namespace
}  // namespace la1::psl
