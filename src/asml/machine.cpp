#include "asml/machine.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <unordered_map>

namespace la1::asml {

/// Location names in slot order, shared by the states of one machine. A
/// layout only grows, and only while one state owns it (State::set copies
/// a shared layout before adding a name), so the slots a state's values
/// are indexed by never change under it.
class Layout {
 public:
  std::optional<Slot> find(const std::string& name) const {
    const auto it = index_.find(name);
    if (it == index_.end()) return std::nullopt;
    return it->second;
  }
  Slot add(const std::string& name) {
    const auto slot = static_cast<Slot>(names_.size());
    names_.push_back(name);
    index_.emplace(name, slot);
    sorted_.insert(std::upper_bound(sorted_.begin(), sorted_.end(), slot,
                                    [this](Slot a, Slot b) {
                                      return names_[a] < names_[b];
                                    }),
                   slot);
    return slot;
  }
  const std::string& name(Slot slot) const { return names_.at(slot); }
  /// Slots in location-name order.
  const std::vector<Slot>& sorted() const { return sorted_; }

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, Slot> index_;
  std::vector<Slot> sorted_;
};

std::optional<Slot> State::find(const std::string& location) const {
  if (!layout_) return std::nullopt;
  return layout_->find(location);
}

const Value& State::get(const std::string& location) const {
  const std::optional<Slot> slot = find(location);
  if (!slot) throw std::invalid_argument("uninitialized ASM location: " + location);
  return values_[*slot];
}

void State::set(const std::string& location, Value v) {
  if (const std::optional<Slot> slot = find(location)) {
    values_[*slot] = v;
    return;
  }
  if (!layout_) {
    layout_ = std::make_shared<Layout>();
  } else if (layout_.use_count() > 1) {
    layout_ = std::make_shared<Layout>(*layout_);
  }
  layout_->add(location);
  values_.push_back(v);
}

const std::string& State::name(Slot slot) const {
  if (!layout_) throw std::out_of_range("ASM state has no locations");
  return layout_->name(slot);
}

std::size_t State::hash() const {
  std::size_t h = values_.size();
  for (const Value& v : values_) h = v.hash(h);
  return h;
}

std::string State::encode() const {
  std::string out;
  if (!layout_) return out;
  for (const Slot slot : layout_->sorted()) {
    out += layout_->name(slot);
    out += '=';
    out += values_[slot].to_string();
    out += ';';
  }
  return out;
}

bool State::operator==(const State& o) const {
  if (layout_ == o.layout_) return values_ == o.values_;
  if (size() != o.size()) return false;
  for (Slot slot = 0; slot < size(); ++slot) {
    const std::optional<Slot> other = o.find(name(slot));
    if (!other || !(values_[slot] == o.values_[*other])) return false;
  }
  return true;
}

UpdateSet::UpdateSet(const State& base)
    : next_(base), bound_(true), written_(base.size(), false) {}

void UpdateSet::set(Slot slot, Value v) {
  if (written_.at(slot)) {
    if (!(next_[slot] == v)) throw InconsistentUpdate(next_.name(slot));
    return;
  }
  written_[slot] = true;
  next_.set(slot, v);
}

void UpdateSet::set(const std::string& location, Value v) {
  if (const std::optional<Slot> slot = next_.find(location)) {
    set(*slot, v);
    return;
  }
  if (bound_) {
    throw std::invalid_argument("update of undeclared ASM location: " + location);
  }
  next_.set(location, v);
  written_.push_back(true);
}

bool UpdateSet::empty() const {
  return std::find(written_.begin(), written_.end(), true) == written_.end();
}

State UpdateSet::apply_to(const State& s) const {
  State out = s;
  const bool by_slot = out.same_layout(next_);
  for (Slot slot = 0; slot < written_.size(); ++slot) {
    if (!written_[slot]) continue;
    if (by_slot) {
      out.set(slot, next_[slot]);
    } else {
      out.set(next_.name(slot), next_[slot]);
    }
  }
  return out;
}

std::string label_of(const Rule& rule, const Args& args) {
  std::string label = rule.name;
  if (!args.empty()) {
    label += '(';
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (i != 0) label += ',';
      label += args[i].to_string();
    }
    label += ')';
  }
  return label;
}

Slot Machine::slot(const std::string& location) const {
  const std::optional<Slot> slot = initial_.find(location);
  if (!slot) throw std::invalid_argument("uninitialized ASM location: " + location);
  return *slot;
}

std::size_t Machine::add_rule(Rule rule) {
  for (const Rule& r : rules_) {
    if (r.name == rule.name) {
      throw std::invalid_argument("duplicate rule name: " + rule.name);
    }
  }
  rules_.push_back(std::move(rule));
  return rules_.size() - 1;
}

const Rule& Machine::rule(const std::string& name) const {
  for (const Rule& r : rules_) {
    if (r.name == name) return r;
  }
  throw std::invalid_argument("no such rule: " + name);
}

std::vector<Args> Machine::argument_tuples(const Rule& rule) {
  std::vector<Args> tuples{Args{}};
  for (const ArgDomain& d : rule.params) {
    if (d.values.empty()) {
      throw std::invalid_argument("empty domain for " + rule.name + "." + d.name);
    }
    std::vector<Args> next;
    next.reserve(tuples.size() * d.values.size());
    for (const Args& t : tuples) {
      for (const Value& v : d.values) {
        Args extended = t;
        extended.push_back(v);
        next.push_back(std::move(extended));
      }
    }
    tuples = std::move(next);
  }
  return tuples;
}

namespace {

/// One argument token of a transition label: a bool, an int, or a symbol.
Value parse_token(const std::string& tok, const std::string& label) {
  if (tok == "true") return Value(true);
  if (tok == "false") return Value(false);
  if (tok.empty()) {
    throw std::invalid_argument("empty argument in label: " + label);
  }
  if (std::isdigit(static_cast<unsigned char>(tok[0])) == 0 && tok[0] != '-') {
    return Value::symbol(tok);
  }
  std::int64_t n = 0;
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, n);
  if (ec != std::errc() || ptr != end) {
    throw std::invalid_argument("malformed number '" + tok + "' in label: " + label);
  }
  return Value(n);
}

}  // namespace

State Machine::fire_label(const std::string& label, const State& s) const {
  const std::size_t paren = label.find('(');
  const std::string name = label.substr(0, paren);
  Args args;
  if (paren != std::string::npos) {
    if (label.back() != ')') {
      throw std::invalid_argument("malformed label: " + label);
    }
    const std::string inner = label.substr(paren + 1, label.size() - paren - 2);
    std::size_t start = 0;
    while (!inner.empty()) {
      std::size_t comma = inner.find(',', start);
      if (comma == std::string::npos) comma = inner.size();
      args.push_back(parse_token(inner.substr(start, comma - start), label));
      if (comma == inner.size()) break;
      start = comma + 1;
    }
  }
  return fire(rule(name), args, s);
}

State Machine::fire(const Rule& rule, const Args& args, const State& s) const {
  if (!rule.enabled(s, args)) {
    throw std::logic_error("rule fired with false precondition: " + rule.name);
  }
  UpdateSet updates(s);
  rule.update(s, args, updates);
  return std::move(updates.next_);
}

}  // namespace la1::asml
