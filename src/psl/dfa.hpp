// One property monitor as a deterministic automaton, determinized lazily —
// the "compiled monitor" of the paper (its PSL-in-ASM properties compile to
// C# monitor modules that serve both simulation and model checking).
//
// A `Dfa` state is a class of NFA monitors with equal `Monitor::encode()`;
// the Dfa keeps one representative monitor per class and its `current()` /
// `at_end()` verdicts. A letter is a dense id the caller chooses for a
// valuation of the property's atoms. `step(state, letter, env)` is an array
// lookup once the pair has been seen; on a miss it clones the state's
// representative, steps it on the caller's real `Env` and interns the
// result. The Env is wrapped so the monitor may sample only its atoms: the
// memo records the letter, so a step that read anything else would be wrong
// for the next caller.
//
// The three consumers differ only in their letter ids:
//   - `DfaMonitor` (ABV, MonitorBackend::kDfa): the atom bitmask;
//   - `mc::check` (explicit product): the interned valuation of an ASM state;
//   - `mc::build_observer` (symbolic): the atom bitmask, over the complete
//     table `determinize` builds.
// A Dfa and the DfaMonitors sharing it belong to one thread.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "psl/monitor.hpp"

namespace la1::psl {

/// Most atoms a bitmask-lettered table takes: it has 2^atoms letters per
/// state.
inline constexpr std::size_t kMaxDfaAtoms = 16;
/// Most states `determinize` completes before giving up.
inline constexpr std::uint32_t kMaxDfaStates = 1u << 12;

class Dfa {
 public:
  /// State 0: the monitor before its first cycle.
  static constexpr std::uint32_t kInitial = 0;
  /// `next` of a (state, letter) pair not stepped yet.
  static constexpr std::uint32_t kUnknown = ~std::uint32_t{0};

  explicit Dfa(const PropPtr& prop);

  /// The property's atoms, in collect_signals order (sorted).
  const std::vector<std::string>& atoms() const { return atoms_; }
  std::uint32_t state_count() const {
    return static_cast<std::uint32_t>(reps_.size());
  }
  Verdict verdict(std::uint32_t state) const { return verdict_[state]; }
  Verdict end_verdict(std::uint32_t state) const {
    return end_verdict_[state];
  }
  bool failed(std::uint32_t state) const {
    return verdict_[state] == Verdict::kFailed;
  }

  /// The state after `state` reads `letter`, whose atom values `env` holds.
  std::uint32_t step(std::uint32_t state, std::uint32_t letter,
                     const Env& env) {
    const std::vector<std::uint32_t>& row = next_[state];
    if (letter < row.size() && row[letter] != kUnknown) return row[letter];
    return miss(state, letter, env);
  }
  /// The memoized successor, or kUnknown.
  std::uint32_t next(std::uint32_t state, std::uint32_t letter) const {
    const std::vector<std::uint32_t>& row = next_[state];
    return letter < row.size() ? row[letter] : kUnknown;
  }

 private:
  std::uint32_t miss(std::uint32_t state, std::uint32_t letter,
                     const Env& env);
  std::uint32_t intern(std::unique_ptr<Monitor> monitor);

  std::vector<std::string> atoms_;
  std::unordered_map<std::string, std::uint32_t> ids_;  // encode() -> state
  std::vector<std::unique_ptr<Monitor>> reps_;          // per state
  std::vector<Verdict> verdict_;
  std::vector<Verdict> end_verdict_;
  std::vector<std::vector<std::uint32_t>> next_;  // [state][letter]
};

/// The complete table of `prop` over all 2^atoms bitmask letters (bit i =
/// atoms()[i]); states are numbered breadth first, letters ascending.
/// Throws std::invalid_argument beyond kMaxDfaAtoms atoms or kMaxDfaStates
/// states.
Dfa determinize(const PropPtr& prop);

/// A Monitor stepping a Dfa by atom bitmask. Clones share the Dfa, which
/// fills in as any of them meets a new (state, letter) pair.
class DfaMonitor : public Monitor {
 public:
  explicit DfaMonitor(std::shared_ptr<Dfa> dfa);

  void reset() override;
  Verdict current() const override { return dfa_->verdict(state_); }
  Verdict at_end() const override { return dfa_->end_verdict(state_); }
  std::string encode() const override { return std::to_string(state_); }
  std::unique_ptr<Monitor> clone() const override {
    return std::make_unique<DfaMonitor>(*this);
  }

 protected:
  void do_step(const Env& env) override;

 private:
  std::shared_ptr<Dfa> dfa_;
  std::uint32_t state_ = Dfa::kInitial;
};

/// Compiles `prop` to a DFA-backed monitor. Throws std::invalid_argument
/// beyond kMaxDfaAtoms atoms.
std::unique_ptr<Monitor> compile_dfa(const PropPtr& prop);

}  // namespace la1::psl
