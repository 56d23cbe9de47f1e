// Reachability exploration ("state space exploration" in AsmL, §5.1).
//
// Breadth-first enumeration of the machine's reachable states under a
// configuration: which rules participate, bounds on states/transitions
// (the generated FSM is an under-approximation when a bound trips, exactly
// as the paper describes), and an optional *stop filter* — the paper's
// counterexample mechanism: exploration halts at the first state where the
// filter holds and the path from the initial state is returned.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "asml/fsm.hpp"
#include "asml/machine.hpp"

namespace la1::asml {

struct ExploreConfig {
  std::size_t max_states = 1u << 20;
  std::size_t max_transitions = 1u << 22;
  /// Rules to explore; empty = all rules of the machine.
  std::vector<std::string> enabled_rules;
  /// Stop condition (P_status && !P_value in the paper's encoding).
  std::function<bool(const State&)> stop_filter;
  /// Keep full states and labelled transitions in the FSM (needed by DOT
  /// export and test generation; disable to save memory on large sweeps).
  bool record_states = true;
};

struct CounterexampleStep {
  std::string label;  // rule(args)
  State state;        // state *after* the step
};

struct ExploreResult {
  Fsm fsm;
  bool complete = false;           // no bound tripped, no filter stop
  bool stopped_on_filter = false;
  std::vector<CounterexampleStep> counterexample;  // filled when stopped
  std::uint64_t states = 0;
  std::uint64_t transitions = 0;
  std::uint64_t rule_firings = 0;
};

ExploreResult explore(const Machine& machine, const ExploreConfig& config = {});

}  // namespace la1::asml
