#include "mc/explicit.hpp"

#include <algorithm>
#include <deque>
#include <optional>
#include <unordered_map>

#include "asml/successors.hpp"
#include "psl/dfa.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"

namespace la1::mc {

bool StateEnv::sample(const std::string& signal) const {
  const std::size_t eq = signal.find('=');
  if (eq == std::string::npos) return state_->get_bool(signal);
  const std::string loc = std::string(util::trim(signal.substr(0, eq)));
  const std::string want = std::string(util::trim(signal.substr(eq + 1)));
  return state_->get(loc).to_string() == want;
}

namespace {

using asml::SuccessorGraph;

constexpr std::uint32_t kNone = ~std::uint32_t{0};

/// The letter ids of ASM states for one property: each state's valuation
/// of the property's atoms, interned, computed once per state.
class Letters {
 public:
  Letters(const std::vector<std::string>& atoms, const asml::State& layout) {
    for (const std::string& signal : atoms) {
      Atom a;
      const std::size_t eq = signal.find('=');
      const std::string loc =
          eq == std::string::npos
              ? signal
              : std::string(util::trim(signal.substr(0, eq)));
      a.slot = layout.find(loc);
      if (eq != std::string::npos) {
        a.want = std::string(util::trim(signal.substr(eq + 1)));
      }
      atoms_.push_back(std::move(a));
    }
  }

  /// The letter of ASM state `id`. Each atom contributes 0 or 1, or 2
  /// where sampling it throws (a missing or non-boolean location); the
  /// real sample on a Dfa miss then throws the same way whenever the
  /// monitor reads that atom.
  std::uint32_t of(std::uint32_t id, const SuccessorGraph& graph) {
    if (id >= of_.size()) of_.resize(graph.size(), kNone);
    if (of_[id] != kNone) return of_[id];
    const asml::State& s = graph.state(id);
    std::string valuation(atoms_.size(), '2');
    for (std::size_t i = 0; i < atoms_.size(); ++i) {
      const Atom& a = atoms_[i];
      if (!a.slot) continue;
      const asml::Value& v = s[*a.slot];
      if (a.want) {
        valuation[i] = v.to_string() == *a.want ? '1' : '0';
      } else if (v.is_bool()) {
        valuation[i] = v.as_bool() ? '1' : '0';
      }
    }
    const auto [it, inserted] = ids_.try_emplace(
        std::move(valuation), static_cast<std::uint32_t>(ids_.size()));
    of_[id] = it->second;
    return it->second;
  }

 private:
  /// How StateEnv samples an atom: "loc" reads a boolean, "loc=value"
  /// compares the printed value.
  struct Atom {
    std::optional<asml::Slot> slot;  // none: sampling throws
    std::optional<std::string> want;
  };

  std::vector<Atom> atoms_;  // per property atom
  std::unordered_map<std::string, std::uint32_t> ids_;  // valuation -> id
  std::vector<std::uint32_t> of_;  // per ASM id; kNone until computed
};

/// The product of `graph` with the monitor of `prop`, searched breadth
/// first from (initial state, monitor after cycle 0).
ExplicitResult check_product(SuccessorGraph& graph, const psl::PropPtr& prop,
                             const ExplicitOptions& options) {
  util::CpuStopwatch cpu;
  ExplicitResult result;
  psl::Dfa monitor(prop);
  Letters letters(monitor.atoms(), graph.state(0));
  // The monitor `from` after sampling ASM state `to` (one cycle).
  auto step = [&](std::uint32_t from, std::uint32_t to) {
    return monitor.step(from, letters.of(to, graph), StateEnv(graph.state(to)));
  };

  struct ProductState {
    std::uint32_t asm_id = 0;
    std::uint32_t monitor = 0;
    std::int64_t parent = -1;
    SuccessorGraph::Edge via;  // edge from the parent's ASM state
  };
  std::vector<ProductState> states;
  std::unordered_map<std::uint64_t, std::uint32_t> interned;
  std::vector<bool> asm_seen;

  auto intern = [&](const ProductState& p) -> std::pair<std::uint32_t, bool> {
    if (p.asm_id >= asm_seen.size()) asm_seen.resize(graph.size(), false);
    if (!asm_seen[p.asm_id]) {
      asm_seen[p.asm_id] = true;
      ++result.fsm_states;
    }
    const std::uint64_t key =
        static_cast<std::uint64_t>(p.asm_id) << 32 | p.monitor;
    const auto [it, inserted] =
        interned.try_emplace(key, static_cast<std::uint32_t>(states.size()));
    if (inserted) states.push_back(p);
    return {it->second, inserted};
  };

  auto counterexample_to = [&](std::uint32_t target) {
    std::vector<std::string> path;
    for (std::int64_t at = target; states[static_cast<std::size_t>(at)].parent >= 0;
         at = states[static_cast<std::size_t>(at)].parent) {
      path.push_back(graph.label(states[static_cast<std::size_t>(at)].via));
    }
    std::reverse(path.begin(), path.end());
    return path;
  };

  auto finish = [&] {
    result.product_states = states.size();
    result.cpu_seconds = cpu.seconds();
    return result;
  };

  // Initial product state: the monitor samples the initial ASM state
  // (cycle 0), which counts as explored even when it already fails.
  const std::uint32_t initial = step(psl::Dfa::kInitial, 0);
  intern(ProductState{0, initial, -1, {}});
  if (monitor.failed(initial)) {
    result.violated = true;
    return finish();
  }

  std::deque<std::uint32_t> frontier{0};
  bool truncated = false;
  std::uint32_t truncated_in_rule = 0;

  while (!frontier.empty() && !truncated) {
    const std::uint32_t at = frontier.front();
    frontier.pop_front();
    const ProductState from = states[at];  // copy: `states` may reallocate

    for (const SuccessorGraph::Edge& e : graph.edges(from.asm_id)) {
      // The state budget lets the rest of the tripping rule's tuples run.
      if (truncated && e.rule != truncated_in_rule) break;
      if (result.product_transitions >= options.max_transitions) {
        truncated = true;
        break;
      }
      ++result.product_transitions;
      const std::uint32_t next = step(from.monitor, e.to);
      const auto [id, is_new] = intern(ProductState{e.to, next, at, e});
      if (monitor.failed(next)) {
        result.violated = true;
        result.counterexample = counterexample_to(id);
        return finish();
      }
      if (is_new) {
        if (states.size() >= options.max_states) {
          truncated = true;
          truncated_in_rule = e.rule;
        } else {
          frontier.push_back(id);
        }
      }
    }
  }

  result.holds = true;
  result.complete = !truncated;
  return finish();
}

}  // namespace

ExplicitResult check(const asml::Machine& machine, const psl::PropPtr& prop,
                     const ExplicitOptions& options) {
  SuccessorGraph graph(machine, options.enabled_rules);
  return check_product(graph, prop, options);
}

std::vector<PropertyOutcome> check_all(
    const asml::Machine& machine,
    const std::vector<std::pair<std::string, psl::PropPtr>>& props,
    const ExplicitOptions& options) {
  SuccessorGraph graph(machine, options.enabled_rules);
  std::vector<PropertyOutcome> out;
  out.reserve(props.size());
  for (const auto& [name, prop] : props) {
    ExplicitResult r = check_product(graph, prop, options);
    PropertyOutcome o;
    o.name = name;
    o.holds = r.holds;
    o.complete = r.complete;
    o.counterexample = std::move(r.counterexample);
    out.push_back(std::move(o));
  }
  return out;
}

}  // namespace la1::mc
