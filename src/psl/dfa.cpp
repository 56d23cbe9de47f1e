#include "psl/dfa.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

namespace la1::psl {

namespace {

/// The caller's Env, restricted to the property's (sorted) atoms.
class AtomGuard : public Env {
 public:
  AtomGuard(const std::vector<std::string>& atoms, const Env& env)
      : atoms_(&atoms), env_(&env) {}
  bool sample(const std::string& signal) const override {
    if (!std::binary_search(atoms_->begin(), atoms_->end(), signal)) {
      throw std::logic_error("monitor sampled '" + signal +
                             "', which its property does not name");
    }
    return env_->sample(signal);
  }

 private:
  const std::vector<std::string>* atoms_;
  const Env* env_;
};

/// An atom bitmask as an Env; only ever sampled through an AtomGuard.
class LetterEnv : public Env {
 public:
  LetterEnv(const std::vector<std::string>& atoms, std::uint32_t letter)
      : atoms_(&atoms), letter_(letter) {}
  bool sample(const std::string& signal) const override {
    const auto i =
        std::lower_bound(atoms_->begin(), atoms_->end(), signal) -
        atoms_->begin();
    return ((letter_ >> i) & 1u) != 0;
  }

 private:
  const std::vector<std::string>* atoms_;
  std::uint32_t letter_;
};

void check_atoms(const Dfa& dfa) {
  if (dfa.atoms().size() > kMaxDfaAtoms) {
    throw std::invalid_argument("bitmask DFA: too many atoms (>" +
                                std::to_string(kMaxDfaAtoms) + ")");
  }
}

}  // namespace

Dfa::Dfa(const PropPtr& prop) {
  std::set<std::string> signals;
  collect_signals(*prop, signals);
  atoms_.assign(signals.begin(), signals.end());
  intern(compile(prop));
}

std::uint32_t Dfa::miss(std::uint32_t state, std::uint32_t letter,
                        const Env& env) {
  std::unique_ptr<Monitor> monitor = reps_[state]->clone();
  monitor->step(AtomGuard(atoms_, env));
  const std::uint32_t to = intern(std::move(monitor));
  std::vector<std::uint32_t>& row = next_[state];  // after intern grew next_
  if (row.size() <= letter) row.resize(letter + std::size_t{1}, kUnknown);
  row[letter] = to;
  return to;
}

std::uint32_t Dfa::intern(std::unique_ptr<Monitor> monitor) {
  const auto [it, inserted] =
      ids_.try_emplace(monitor->encode(), state_count());
  if (inserted) {
    verdict_.push_back(monitor->current());
    end_verdict_.push_back(monitor->at_end());
    reps_.push_back(std::move(monitor));
    next_.emplace_back();
  }
  return it->second;
}

Dfa determinize(const PropPtr& prop) {
  Dfa dfa(prop);
  check_atoms(dfa);
  const std::uint32_t letters = 1u << dfa.atoms().size();
  // States are numbered as they are first reached, so visiting them in
  // number order is the breadth-first order.
  for (std::uint32_t at = 0; at < dfa.state_count(); ++at) {
    for (std::uint32_t letter = 0; letter < letters; ++letter) {
      dfa.step(at, letter, LetterEnv(dfa.atoms(), letter));
    }
    if (dfa.state_count() > kMaxDfaStates) {
      throw std::invalid_argument("determinize: state budget exceeded (>" +
                                  std::to_string(kMaxDfaStates) + ")");
    }
  }
  return dfa;
}

DfaMonitor::DfaMonitor(std::shared_ptr<Dfa> dfa) : dfa_(std::move(dfa)) {
  DfaMonitor::reset();
}

void DfaMonitor::reset() {
  cycle_ = 0;
  failure_cycle_ = ~std::uint64_t{0};
  state_ = Dfa::kInitial;
}

void DfaMonitor::do_step(const Env& env) {
  const std::vector<std::string>& atoms = dfa_->atoms();
  std::uint32_t letter = 0;
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    if (env.sample(atoms[i])) letter |= (1u << i);
  }
  state_ = dfa_->step(state_, letter, env);
  if (dfa_->failed(state_) && failure_cycle_ == ~std::uint64_t{0}) {
    mark_failed();
  }
}

std::unique_ptr<Monitor> compile_dfa(const PropPtr& prop) {
  auto dfa = std::make_shared<Dfa>(prop);
  check_atoms(*dfa);
  return std::make_unique<DfaMonitor>(std::move(dfa));
}

}  // namespace la1::psl
