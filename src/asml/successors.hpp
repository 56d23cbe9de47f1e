// The machine's transition relation as a lazily built graph over integer
// state ids — the one successor engine under exploration (explore.hpp) and
// the explicit-state model checker (mc/explicit.hpp).
//
// States are interned by hashing their values and numbered in the order
// they are first reached; id 0 is the initial state. The enabled
// transitions of a state are fired once, the first time someone asks for
// them, and kept: every later search over the same graph (check_all's
// per-property products) reads them instead of firing rules again.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "asml/machine.hpp"

namespace la1::asml {

class SuccessorGraph {
 public:
  /// One enabled (rule, argument tuple) of a state and the state it leads
  /// to. Rule and tuple index the graph's selected rules and their
  /// enumerated argument tuples.
  struct Edge {
    std::uint32_t rule = 0;
    std::uint32_t tuple = 0;
    std::uint32_t to = 0;
  };

  /// `enabled_rules` selects the participating rules in order; empty means
  /// every rule of the machine. The machine must outlive the graph.
  SuccessorGraph(const Machine& machine,
                 const std::vector<std::string>& enabled_rules);

  /// States interned so far.
  std::size_t size() const { return states_.size(); }
  /// Stays valid for the graph's lifetime.
  const State& state(std::uint32_t id) const { return states_[id]; }

  /// The enabled transitions of `id` in rule-then-tuple order, firing them
  /// on the first call. The span stays valid until the next call.
  std::span<const Edge> edges(std::uint32_t id);

  /// "rule(arg,...)" of an edge.
  std::string label(const Edge& e) const;

 private:
  std::uint32_t intern(State s);

  static constexpr std::uint32_t kUnexpanded = ~std::uint32_t{0};

  const Machine* machine_;
  std::vector<const Rule*> rules_;
  std::vector<std::vector<Args>> tuples_;  // per selected rule

  std::deque<State> states_;             // deque: references stay valid
  std::vector<std::size_t> hashes_;      // State::hash per id
  std::vector<std::uint32_t> table_;     // open addressing over ids
  std::vector<std::uint32_t> first_edge_;  // per id; kUnexpanded until fired
  std::vector<std::uint32_t> edge_count_;
  std::vector<Edge> edges_;
};

}  // namespace la1::asml
