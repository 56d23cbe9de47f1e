#include <gtest/gtest.h>

#include <set>

#include "asml/explore.hpp"
#include "asml/testgen.hpp"
#include "la1/asm_model.hpp"

namespace la1::asml {
namespace {

/// Counter with a branch: Inc wraps; Reset from nonzero.
Machine counter_machine(int n) {
  Machine m("counter");
  m.initial().set("count", Value(0));
  Rule inc;
  inc.name = "Inc";
  inc.update = [n](const State& s, const Args&, UpdateSet& u) {
    u.set("count", Value((s.get_int("count") + 1) % n));
  };
  m.add_rule(std::move(inc));
  Rule reset;
  reset.name = "Reset";
  reset.require = [](const State& s, const Args&) {
    return s.get_int("count") != 0;
  };
  reset.update = [](const State&, const Args&, UpdateSet& u) {
    u.set("count", Value(0));
  };
  m.add_rule(std::move(reset));
  return m;
}

TEST(FireLabel, ParsesArgs) {
  core::AsmConfig cfg;
  const Machine m = core::build_asm_model(cfg);
  State s = m.initial();
  s = m.fire_label("SystemStart", s);
  s = m.fire_label("SimManager_Init", s);
  s = m.fire_label("TickK(true,1,false,0)", s);
  EXPECT_TRUE(s.get_bool("b0.read_start"));
  EXPECT_THROW(m.fire_label("NoSuchRule", s), std::invalid_argument);
}

TEST(FireLabel, RejectsMalformedArguments) {
  core::AsmConfig cfg;
  const Machine m = core::build_asm_model(cfg);
  State s = m.initial();
  s = m.fire_label("SystemStart", s);
  s = m.fire_label("SimManager_Init", s);
  // A partial number, an empty token, a bare minus sign, a trailing comma.
  for (const std::string label :
       {"TickK(true,1x,false,0)", "TickK(true,,false,0)",
        "TickK(true,-,false,0)", "TickK(true,1,false,)"}) {
    try {
      (void)m.fire_label(label, s);
      ADD_FAILURE() << label << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(label), std::string::npos)
          << e.what();
    }
  }
  // Well-formed tokens still parse, a negative number included.
  EXPECT_TRUE(m.fire_label("TickK(true,1,false,0)", s).get_bool("b0.read_start"));
  EXPECT_EQ(m.fire_label("TickK(false,-1,true,1)", s).get_int("wp.beat0"), 1);
}

TEST(TestGen, CoversEveryTransition) {
  const Machine m = counter_machine(5);
  const ExploreResult r = explore(m);
  ASSERT_TRUE(r.complete);
  const TestSuite suite = generate_transition_tests(r.fsm);
  EXPECT_TRUE(suite.complete());
  EXPECT_EQ(suite.transitions_total, r.fsm.transition_count());

  // Replaying each test from the initial state must fire legally and, in
  // aggregate, traverse every FSM transition.
  std::set<std::pair<std::string, std::string>> traversed;  // (state, label)
  for (const auto& test : suite.tests) {
    State s = m.initial();
    for (const std::string& label : test) {
      traversed.emplace(s.encode(), label);
      ASSERT_NO_THROW(s = m.fire_label(label, s)) << label;
    }
  }
  EXPECT_EQ(traversed.size(), r.fsm.transition_count());
}

TEST(TestGen, GreedyChainsAreFewerThanTransitions) {
  const Machine m = counter_machine(8);
  const ExploreResult r = explore(m);
  const TestSuite suite = generate_transition_tests(r.fsm);
  EXPECT_TRUE(suite.complete());
  // A naive per-transition suite would have one test per transition; the
  // greedy walk must do meaningfully better.
  EXPECT_LT(suite.tests.size(), r.fsm.transition_count() / 2);
}

TEST(TestGen, RespectsLengthBound) {
  const Machine m = counter_machine(6);
  const ExploreResult r = explore(m);
  const TestSuite suite = generate_transition_tests(r.fsm, 3);
  for (const auto& test : suite.tests) EXPECT_LE(test.size(), 3u);
  // Transitions out of states farther than 2 steps from the initial state
  // cannot fit inside length-3 tests: Inc/Reset from counts 0..2 only.
  EXPECT_FALSE(suite.complete());
  EXPECT_EQ(suite.transitions_covered, 5u);
  // A generous bound covers everything.
  EXPECT_TRUE(generate_transition_tests(r.fsm, 100).complete());
}

TEST(TestGen, La1SuiteReplaysOnTheAsmModel) {
  core::AsmConfig cfg;
  const Machine m = core::build_asm_model(cfg);
  ExploreConfig ecfg;
  ecfg.max_states = 2000;
  ecfg.max_transitions = 20000;
  const ExploreResult r = explore(m, ecfg);
  const TestSuite suite = generate_transition_tests(r.fsm);
  ASSERT_FALSE(suite.tests.empty());
  // Bounded exploration: transitions leading past the budget may not be
  // coverable, but every generated test must replay cleanly.
  std::size_t steps = 0;
  for (const auto& test : suite.tests) {
    State s = m.initial();
    for (const std::string& label : test) {
      ASSERT_NO_THROW(s = m.fire_label(label, s)) << label;
      ++steps;
    }
  }
  EXPECT_GT(steps, suite.tests.size());
  EXPECT_GT(suite.transitions_covered, 0u);
}

TEST(TestGen, EmptyFsm) {
  Fsm fsm;
  const TestSuite suite = generate_transition_tests(fsm);
  EXPECT_TRUE(suite.tests.empty());
  EXPECT_TRUE(suite.complete());
}

}  // namespace
}  // namespace la1::asml
