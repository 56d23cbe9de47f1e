// Pins the explicit-state checker's counts, verdicts and counterexamples on
// the LA-1 ASM machine, so a change to how states, monitors or successors
// are represented cannot move a number of Table 1 or of the Figure-2 flow.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "asml/explore.hpp"
#include "la1/asm_model.hpp"
#include "mc/explicit.hpp"
#include "psl/dfa.hpp"
#include "psl/parse.hpp"
#include "psl/temporal.hpp"

namespace la1 {
namespace {

/// The flow's ASM model-checking budget (refine::FlowOptions).
constexpr std::size_t kFlowMaxStates = 60000;

struct Pinned {
  std::string name;
  bool holds;
  bool complete;
  std::uint64_t product_states;
  std::uint64_t product_transitions;
  std::uint64_t fsm_states;
};

void expect_pinned(const mc::ExplicitResult& r, const Pinned& p) {
  EXPECT_EQ(r.holds, p.holds) << p.name;
  EXPECT_EQ(r.complete, p.complete) << p.name;
  EXPECT_EQ(r.product_states, p.product_states) << p.name;
  EXPECT_EQ(r.product_transitions, p.product_transitions) << p.name;
  EXPECT_EQ(r.fsm_states, p.fsm_states) << p.name;
}

/// The conjunction of every ASM property, as Table 1 checks it.
psl::PropPtr combined_property(const core::AsmConfig& cfg) {
  std::vector<psl::PropPtr> all;
  for (const auto& [name, p] : core::asm_properties(cfg)) all.push_back(p);
  return psl::p_and(std::move(all));
}

core::AsmConfig banks(int n) {
  core::AsmConfig cfg;
  cfg.banks = n;
  return cfg;
}

TEST(McParity, OneBankPropertiesArePinned) {
  const core::AsmConfig cfg = banks(1);
  const asml::Machine machine = core::build_asm_model(cfg);
  const auto props = core::asm_properties(cfg);
  const std::vector<Pinned> pinned = {
      {"P1_read_latency_b0", true, true, 19459, 198418, 19459},
      {"P2_read_burst_b0", true, true, 19459, 198418, 19459},
      {"P7_no_spurious_b0", true, true, 19459, 198418, 19459},
      {"P3_write_addr_edge", true, true, 19459, 198418, 19459},
      {"P3b_write_commit", true, true, 19459, 198418, 19459},
      {"P4_exclusive_drive", true, true, 19459, 198418, 19459},
  };
  ASSERT_EQ(props.size(), pinned.size());
  mc::ExplicitOptions opt;
  opt.max_states = kFlowMaxStates;
  std::uint64_t states = 0;
  std::uint64_t transitions = 0;
  for (std::size_t i = 0; i < props.size(); ++i) {
    ASSERT_EQ(props[i].first, pinned[i].name);
    const mc::ExplicitResult r = mc::check(machine, props[i].second, opt);
    expect_pinned(r, pinned[i]);
    states += r.product_states;
    transitions += r.product_transitions;
  }
  EXPECT_EQ(states, 116754u);
  EXPECT_EQ(transitions, 1190508u);
}

TEST(McParity, OneBankExplorationIsPinned) {
  const asml::Machine machine = core::build_asm_model(banks(1));
  asml::ExploreConfig ecfg;
  ecfg.max_states = kFlowMaxStates;
  const asml::ExploreResult r = asml::explore(machine, ecfg);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.states, 19459u);
  EXPECT_EQ(r.transitions, 198418u);
  EXPECT_EQ(r.rule_firings, 198418u);
  EXPECT_EQ(r.fsm.node_count(), 19459u);
  EXPECT_EQ(r.fsm.transition_count(), 198418u);
}

TEST(McParity, CheckAllAgreesWithCheck) {
  const core::AsmConfig cfg = banks(1);
  const asml::Machine machine = core::build_asm_model(cfg);
  auto props = core::asm_properties(cfg);
  // A property whose product outgrows the ASM state space, and a failing
  // one, so a counterexample is compared too.
  props.emplace_back("read_history",
                     psl::parse_property(
                         "always (b0.read_start -> next[7] !b0.dout_spurious)"));
  props.emplace_back("wrong_latency",
                     psl::p_impl_next(psl::b_sig("b0.read_start"), 2,
                                      psl::b_sig("b0.dout_valid_k")));
  mc::ExplicitOptions opt;
  opt.max_states = kFlowMaxStates;
  const auto outcomes = mc::check_all(machine, props, opt);
  ASSERT_EQ(outcomes.size(), props.size());
  for (std::size_t i = 0; i < props.size(); ++i) {
    const mc::ExplicitResult r = mc::check(machine, props[i].second, opt);
    EXPECT_EQ(outcomes[i].name, props[i].first);
    EXPECT_EQ(outcomes[i].holds, r.holds) << props[i].first;
    EXPECT_EQ(outcomes[i].complete, r.complete) << props[i].first;
    EXPECT_EQ(outcomes[i].counterexample, r.counterexample) << props[i].first;
  }
  EXPECT_FALSE(outcomes.back().holds);
}

TEST(McParity, TwoBankCombinedTruncationIsPinned) {
  const core::AsmConfig cfg = banks(2);
  const asml::Machine machine = core::build_asm_model(cfg);
  mc::ExplicitOptions opt;
  opt.max_states = 5000;
  const mc::ExplicitResult r =
      mc::check(machine, combined_property(cfg), opt);
  expect_pinned(r, {"combined_2banks", true, false, 5004, 9954, 5004});
}

TEST(McParity, ManyAtomPropertyIsPinned) {
  // More atoms than a complete psl::determinize table takes: the checker
  // steps the lazy psl::Dfa, which has no atom limit.
  const core::AsmConfig cfg = banks(4);
  const psl::PropPtr prop = combined_property(cfg);
  std::set<std::string> atoms;
  psl::collect_signals(*prop, atoms);
  EXPECT_GT(atoms.size(), psl::kMaxDfaAtoms);
  EXPECT_THROW(psl::determinize(prop), std::invalid_argument);
  EXPECT_EQ(psl::Dfa(prop).atoms().size(), atoms.size());

  const asml::Machine machine = core::build_asm_model(cfg);
  mc::ExplicitOptions opt;
  opt.max_states = 3000;
  const mc::ExplicitResult r = mc::check(machine, prop, opt);
  expect_pinned(r, {"combined_4banks", true, false, 3018, 7410, 3018});
}

TEST(McParity, HistoryPropertyProductIsPinned) {
  // The monitor remembers read requests for longer than the ASM pipeline
  // does, so one ASM state pairs with several monitor states.
  const asml::Machine machine = core::build_asm_model(banks(1));
  const auto prop =
      psl::parse_property("always (b0.read_start -> next[7] !b0.dout_spurious)");
  mc::ExplicitOptions opt;
  opt.max_states = kFlowMaxStates;
  const mc::ExplicitResult r = mc::check(machine, prop, opt);
  expect_pinned(r, {"read_history", true, true, 28867, 236050, 19459});
  EXPECT_GT(r.product_states, r.fsm_states);
}

TEST(McParity, MutatedLatencyCounterexampleIsPinned) {
  const asml::Machine machine = core::build_asm_model(banks(1));
  const auto wrong = psl::p_impl_next(psl::b_sig("b0.read_start"), 2,
                                      psl::b_sig("b0.dout_valid_k"));
  mc::ExplicitOptions opt;
  opt.max_states = 40000;
  const mc::ExplicitResult r = mc::check(machine, wrong, opt);
  ASSERT_TRUE(r.violated);
  const std::vector<std::string> expected = {
      "SystemStart", "SimManager_Init", "TickK(true,0,false,0)", "TickKs(0,0)",
      "TickK(false,0,false,0)"};
  EXPECT_EQ(r.counterexample, expected);
  expect_pinned(r, {"wrong_latency", false, false, 112, 199, 112});
}

}  // namespace
}  // namespace la1
