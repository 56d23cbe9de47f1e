#include "mc/explicit.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <unordered_map>

#include "asml/successors.hpp"
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

/// An Env that lets a monitor sample only its property's atoms, so that a
/// memoized step cannot depend on a signal the letter does not record.
class AtomEnv : public psl::Env {
 public:
  AtomEnv(const std::vector<std::string>& atoms, const asml::State& s)
      : atoms_(&atoms), env_(s) {}
  bool sample(const std::string& signal) const override {
    if (std::find(atoms_->begin(), atoms_->end(), signal) == atoms_->end()) {
      throw std::logic_error("monitor sampled '" + signal +
                             "', which its property does not name");
    }
    return env_.sample(signal);
  }

 private:
  const std::vector<std::string>* atoms_;
  StateEnv env_;
};

/// A property's monitor as a deterministic automaton, built on the fly.
/// States are the distinct Monitor::encode() strings reached; letters are
/// atom valuations of ASM states. A step is computed by cloning the
/// representative monitor and stepping it on the real ASM state (StateEnv),
/// once per (state, letter); later steps are table lookups.
class LazyMonitor {
 public:
  LazyMonitor(const psl::PropPtr& prop, const asml::State& layout)
      : prop_(prop) {
    std::set<std::string> signals;
    psl::collect_signals(*prop, signals);
    for (const std::string& signal : signals) {
      atoms_.push_back(signal);
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
      resolved_.push_back(std::move(a));
    }
  }

  /// The monitor after sampling the initial state (cycle 0).
  std::uint32_t initial(const asml::State& s) {
    auto monitor = psl::compile(prop_);
    monitor->step(AtomEnv(atoms_, s));
    return intern(std::move(monitor));
  }

  /// The monitor `from` after sampling ASM state `to` of `graph`.
  std::uint32_t step(std::uint32_t from, std::uint32_t to,
                     const SuccessorGraph& graph) {
    const std::uint64_t key =
        static_cast<std::uint64_t>(from) << 32 | letter(to, graph);
    const auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    auto monitor = reps_[from]->clone();
    monitor->step(AtomEnv(atoms_, graph.state(to)));
    const std::uint32_t next = intern(std::move(monitor));
    memo_.emplace(key, next);
    return next;
  }

  bool failed(std::uint32_t id) const { return failed_[id]; }

 private:
  /// How StateEnv samples an atom: "loc" reads a boolean, "loc=value"
  /// compares the printed value.
  struct Atom {
    std::optional<asml::Slot> slot;  // none: sampling throws
    std::optional<std::string> want;
  };

  /// Id of the atom valuation of ASM state `id`, computed once per state.
  /// Each atom contributes 0 or 1, or 2 where sampling it throws (a missing
  /// or non-boolean location); the real sample on a memo miss then throws
  /// the same way whenever the monitor reads that atom.
  std::uint32_t letter(std::uint32_t id, const SuccessorGraph& graph) {
    if (id >= letter_of_.size()) letter_of_.resize(graph.size(), kNone);
    if (letter_of_[id] != kNone) return letter_of_[id];
    const asml::State& s = graph.state(id);
    std::string valuation(resolved_.size(), '2');
    for (std::size_t i = 0; i < resolved_.size(); ++i) {
      const Atom& a = resolved_[i];
      if (!a.slot) continue;
      const asml::Value& v = s[*a.slot];
      if (a.want) {
        valuation[i] = v.to_string() == *a.want ? '1' : '0';
      } else if (v.is_bool()) {
        valuation[i] = v.as_bool() ? '1' : '0';
      }
    }
    const auto [it, inserted] = letters_.try_emplace(
        std::move(valuation), static_cast<std::uint32_t>(letters_.size()));
    letter_of_[id] = it->second;
    return it->second;
  }

  std::uint32_t intern(std::unique_ptr<psl::Monitor> monitor) {
    const auto [it, inserted] = ids_.try_emplace(
        monitor->encode(), static_cast<std::uint32_t>(reps_.size()));
    if (inserted) {
      failed_.push_back(monitor->current() == psl::Verdict::kFailed);
      reps_.push_back(std::move(monitor));
    }
    return it->second;
  }

  psl::PropPtr prop_;
  std::vector<std::string> atoms_;  // collect_signals order
  std::vector<Atom> resolved_;      // per atom

  std::unordered_map<std::string, std::uint32_t> letters_;
  std::vector<std::uint32_t> letter_of_;  // per ASM id; kNone until computed

  std::unordered_map<std::string, std::uint32_t> ids_;  // encode() -> id
  std::vector<std::unique_ptr<psl::Monitor>> reps_;     // first of each id
  std::vector<bool> failed_;
  std::unordered_map<std::uint64_t, std::uint32_t> memo_;  // (id, letter)
};

/// The product of `graph` with the monitor of `prop`, searched breadth
/// first from (initial state, monitor after cycle 0).
ExplicitResult check_product(SuccessorGraph& graph, const psl::PropPtr& prop,
                             const ExplicitOptions& options) {
  util::CpuStopwatch cpu;
  ExplicitResult result;
  LazyMonitor monitor(prop, graph.state(0));

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
  const std::uint32_t initial = monitor.initial(graph.state(0));
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
      const std::uint32_t next = monitor.step(from.monitor, e.to, graph);
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
