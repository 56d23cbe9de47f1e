// Explicit-state model checking of PSL properties over ASM machines —
// the paper's "model checking using AsmL" (§5.1, Table 1).
//
// The checker runs the AsmL-style exploration and the PSL monitor in
// lock-step as a product construction: a product state is (ASM state,
// monitor state). The monitor carries the paper's (P_status, P_value)
// encoding; a product state with P_status && !P_value is the stop filter,
// and the BFS tree path to it is the counterexample.
//
// Both halves of the product are integers. ASM states are ids of an
// asml::SuccessorGraph; monitor states are states of the property's
// psl::Dfa, the monitor automaton ABV and the symbolic observer also use.
// The letter of an ASM state is its interned valuation of the property's
// atoms, so the Dfa is determinized only for the letters the design
// produces, and each (monitor state, letter) is stepped on a real ASM
// state once.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "asml/machine.hpp"
#include "psl/monitor.hpp"

namespace la1::mc {

/// PSL Env over an ASM state. Signal names resolve as:
///   "loc"        -> boolean location `loc`
///   "loc=value"  -> true iff location `loc` prints as `value`
///                   (enums, ints and words compare by printed form)
class StateEnv : public psl::Env {
 public:
  explicit StateEnv(const asml::State& s) : state_(&s) {}
  bool sample(const std::string& signal) const override;
  void rebind(const asml::State& s) { state_ = &s; }

 private:
  const asml::State* state_;
};

struct ExplicitOptions {
  std::size_t max_states = 1u << 20;       // product-state budget
  std::size_t max_transitions = 1u << 22;
  std::vector<std::string> enabled_rules;  // empty = all
};

struct ExplicitResult {
  bool holds = false;        // no violation in the explored region
  bool complete = false;     // region not truncated by a budget
  bool violated = false;
  std::uint64_t product_states = 0;
  std::uint64_t product_transitions = 0;
  std::uint64_t fsm_states = 0;        // distinct ASM states seen
  double cpu_seconds = 0.0;
  /// Rule labels from the initial state to the violating state.
  std::vector<std::string> counterexample;
};

/// Checks `prop` over the reachable states of `machine`. The monitor samples
/// each ASM state as one evaluation cycle (the initial state is cycle 0).
ExplicitResult check(const asml::Machine& machine, const psl::PropPtr& prop,
                     const ExplicitOptions& options = {});

/// Checks each property over the same machine. The properties share one
/// successor graph, so each ASM transition is fired once, not once per
/// property; every outcome equals that of check() on its own.
struct PropertyOutcome {
  std::string name;
  bool holds = false;
  bool complete = false;
  std::vector<std::string> counterexample;
};

std::vector<PropertyOutcome> check_all(
    const asml::Machine& machine,
    const std::vector<std::pair<std::string, psl::PropPtr>>& props,
    const ExplicitOptions& options = {});

}  // namespace la1::mc
