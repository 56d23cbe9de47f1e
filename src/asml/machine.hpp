// Abstract State Machines in the AsmL style.
//
// An ASM model is a set of named state *locations* plus guarded *rules*
// (AsmL methods). A rule has
//   * finite argument domains — AsmL's "domains" configuration, the key
//     knob the paper uses to keep exploration tractable (§5.1),
//   * a `require` precondition filtering the states where it may fire,
//   * an update body producing an *update set* applied simultaneously
//     (ASM fire semantics; conflicting updates are a modelling error).
//
// Nondeterministic choice (`any x in {..}` in Figure 4) is expressed as an
// extra rule argument with the choice set as its domain, which makes the
// explorer's enumeration exhaustive over the choices.
//
// A state is a flat vector of values indexed by *slot*. The location names
// live in a layout shared by every state derived from one initial state, so
// copying, comparing and hashing a state touch only its values. Rules that
// run in the explorer's inner loop resolve their locations to slots once,
// when the machine is built (Machine::slot), and read and write by slot; the
// by-name accessors are lookups for tests, tools and property sampling.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "asml/value.hpp"

namespace la1::asml {

/// Index of a location in a state.
using Slot = std::uint32_t;

class Layout;  // location names in slot order; private to machine.cpp

/// The full ASM state: a finite map from location names to values.
class State {
 public:
  State() = default;

  const Value& get(const std::string& location) const;
  bool has(const std::string& location) const { return find(location).has_value(); }
  /// Sets `location`, adding it when the state lacks it.
  void set(const std::string& location, Value v);

  bool get_bool(const std::string& location) const { return get(location).as_bool(); }
  std::int64_t get_int(const std::string& location) const { return get(location).as_int(); }
  const std::string& get_symbol(const std::string& location) const {
    return get(location).as_symbol().name;
  }

  /// The slot of `location`, if the state has it.
  std::optional<Slot> find(const std::string& location) const;
  /// By-slot access, unchecked: `slot` must come from this state's layout
  /// (Machine::slot of the machine the state belongs to, or find()).
  const Value& operator[](Slot slot) const { return values_[slot]; }
  void set(Slot slot, Value v) { values_[slot] = v; }
  std::size_t size() const { return values_.size(); }
  const std::string& name(Slot slot) const;

  /// True when both states index their locations the same way, which holds
  /// for every state derived from one initial state.
  bool same_layout(const State& o) const { return layout_ == o.layout_; }
  /// Hash of the values; consistent with == among states of one layout.
  std::size_t hash() const;

  /// Canonical printable encoding (sorted by location).
  std::string encode() const;

  bool operator==(const State& o) const;

 private:
  std::shared_ptr<Layout> layout_;  // null while the state has no location
  std::vector<Value> values_;       // values_[slot]
};

/// Thrown when two updates in one step write different values to the same
/// location — an inconsistent ASM update set.
class InconsistentUpdate : public std::runtime_error {
 public:
  explicit InconsistentUpdate(const std::string& location)
      : std::runtime_error("inconsistent update set at location: " + location) {}
};

/// The update set produced by one rule firing.
class UpdateSet {
 public:
  /// A free-standing update set; its locations are matched by name when
  /// it is applied.
  UpdateSet() = default;
  /// An update set for a step from `base` (what Machine::fire builds): it
  /// may write only locations `base` has, and accepts slots.
  explicit UpdateSet(const State& base);

  /// Records location := v; throws InconsistentUpdate on a conflicting
  /// double write, ignores an identical double write (ASM semantics).
  void set(Slot slot, Value v);
  void set(const std::string& location, Value v);

  bool empty() const;

  /// Applies this update set to `s` simultaneously.
  State apply_to(const State& s) const;

 private:
  friend class Machine;

  State next_;                  // the base with the updates applied
  bool bound_ = false;          // constructed from a base state
  std::vector<bool> written_;   // written_[slot]: next_[slot] was updated
};

/// A finite domain for one rule argument.
struct ArgDomain {
  std::string name;
  std::vector<Value> values;
};

using Args = std::vector<Value>;
using Guard = std::function<bool(const State&, const Args&)>;
using Update = std::function<void(const State&, const Args&, UpdateSet&)>;

struct Rule {
  std::string name;
  std::vector<ArgDomain> params;
  Guard require;   // may be empty (= always enabled)
  Update update;

  bool enabled(const State& s, const Args& args) const {
    return !require || require(s, args);
  }
};

/// "rule(arg,...)", or the bare rule name when it takes no arguments: the
/// label of a transition in the FSM and in counterexamples.
std::string label_of(const Rule& rule, const Args& args);

/// An ASM machine: an initial state plus rules.
class Machine {
 public:
  explicit Machine(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  State& initial() { return initial_; }
  const State& initial() const { return initial_; }

  /// The slot of a location of the initial state, for rules that read and
  /// write by slot. Throws std::invalid_argument for an unknown location.
  Slot slot(const std::string& location) const;

  /// Registers a rule; returns its index.
  std::size_t add_rule(Rule rule);

  const std::vector<Rule>& rules() const { return rules_; }
  const Rule& rule(const std::string& name) const;

  /// Enumerates all argument tuples of `rule` (cartesian product of its
  /// domains); a rule without params yields the single empty tuple.
  static std::vector<Args> argument_tuples(const Rule& rule);

  /// Fires `rule` with `args` on `s`; returns the successor. Throws if the
  /// precondition fails.
  State fire(const Rule& rule, const Args& args, const State& s) const;

  /// Fires a transition given its explorer label, e.g. "TickK(true,0)".
  /// Argument tokens parse as bool / int / symbol by shape; a token that
  /// starts like a number must be one. Throws std::invalid_argument on a
  /// malformed label or unknown rule, std::logic_error on a disabled
  /// precondition.
  State fire_label(const std::string& label, const State& s) const;

 private:
  std::string name_;
  State initial_;
  std::vector<Rule> rules_;
};

}  // namespace la1::asml
