#include "asml/explore.hpp"

#include <algorithm>
#include <deque>

#include "asml/successors.hpp"

namespace la1::asml {

ExploreResult explore(const Machine& machine, const ExploreConfig& config) {
  ExploreResult result;
  SuccessorGraph graph(machine, config.enabled_rules);

  // The graph numbers states in the order this search first reaches them,
  // so the states seen so far are exactly the ids below `seen`.
  std::uint32_t seen = 1;
  std::vector<std::int64_t> parent_state{-1};  // BFS tree for counterexamples
  std::vector<SuccessorGraph::Edge> parent_edge(1);

  auto make_counterexample = [&](std::uint32_t target) {
    std::vector<CounterexampleStep> path;
    for (std::int64_t at = target; parent_state[static_cast<std::size_t>(at)] >= 0;
         at = parent_state[static_cast<std::size_t>(at)]) {
      const auto id = static_cast<std::uint32_t>(at);
      path.push_back(
          CounterexampleStep{graph.label(parent_edge[id]), graph.state(id)});
    }
    std::reverse(path.begin(), path.end());
    return path;
  };

  if (config.record_states) result.fsm.add_state(graph.state(0));
  if (config.stop_filter && config.stop_filter(graph.state(0))) {
    result.stopped_on_filter = true;
    result.states = 1;
    return result;
  }

  std::deque<std::uint32_t> frontier{0};
  bool truncated = false;
  std::uint32_t truncated_in_rule = 0;

  while (!frontier.empty() && !truncated) {
    const std::uint32_t at = frontier.front();
    frontier.pop_front();

    for (const SuccessorGraph::Edge& e : graph.edges(at)) {
      // The state budget lets the rest of the tripping rule's tuples run.
      if (truncated && e.rule != truncated_in_rule) break;
      if (result.transitions >= config.max_transitions) {
        truncated = true;
        break;
      }
      ++result.rule_firings;
      const bool is_new = e.to == seen;
      if (is_new) ++seen;
      ++result.transitions;
      if (config.record_states) {
        if (is_new) result.fsm.add_state(graph.state(e.to));
        result.fsm.add_transition(at, e.to, graph.label(e));
      }

      if (is_new) {
        parent_state.push_back(at);
        parent_edge.push_back(e);
        if (config.stop_filter && config.stop_filter(graph.state(e.to))) {
          result.stopped_on_filter = true;
          result.counterexample = make_counterexample(e.to);
          result.states = seen;
          return result;
        }
        if (seen >= config.max_states) {
          truncated = true;
          truncated_in_rule = e.rule;
        } else {
          frontier.push_back(e.to);
        }
      }
    }
  }

  result.states = seen;
  result.complete = !truncated;
  return result;
}

}  // namespace la1::asml
