#include "asml/successors.hpp"

#include <stdexcept>

namespace la1::asml {

namespace {

constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

}  // namespace

SuccessorGraph::SuccessorGraph(const Machine& machine,
                               const std::vector<std::string>& enabled_rules)
    : machine_(&machine), table_(1024, kEmpty) {
  if (enabled_rules.empty()) {
    for (const Rule& r : machine.rules()) rules_.push_back(&r);
  } else {
    for (const std::string& name : enabled_rules) {
      rules_.push_back(&machine.rule(name));
    }
  }
  tuples_.reserve(rules_.size());
  for (const Rule* r : rules_) tuples_.push_back(Machine::argument_tuples(*r));
  intern(machine.initial());
}

std::uint32_t SuccessorGraph::intern(State s) {
  const std::size_t h = s.hash();
  const std::size_t mask = table_.size() - 1;
  std::size_t i = (h ^ (h >> 31)) & mask;
  for (; table_[i] != kEmpty; i = (i + 1) & mask) {
    const std::uint32_t id = table_[i];
    if (hashes_[id] == h && states_[id] == s) return id;
  }
  if (states_.size() >= kUnexpanded) {
    throw std::length_error("ASM state space exceeds 2^32 states");
  }
  const auto id = static_cast<std::uint32_t>(states_.size());
  table_[i] = id;
  states_.push_back(std::move(s));
  hashes_.push_back(h);
  first_edge_.push_back(kUnexpanded);
  edge_count_.push_back(0);
  if (2 * states_.size() > table_.size()) {  // keep the load under 1/2
    std::vector<std::uint32_t> grown(2 * table_.size(), kEmpty);
    const std::size_t grown_mask = grown.size() - 1;
    for (std::uint32_t at = 0; at < states_.size(); ++at) {
      std::size_t j = (hashes_[at] ^ (hashes_[at] >> 31)) & grown_mask;
      while (grown[j] != kEmpty) j = (j + 1) & grown_mask;
      grown[j] = at;
    }
    table_ = std::move(grown);
  }
  return id;
}

std::span<const SuccessorGraph::Edge> SuccessorGraph::edges(std::uint32_t id) {
  if (first_edge_[id] == kUnexpanded) {
    const auto first = static_cast<std::uint32_t>(edges_.size());
    const State& from = states_[id];
    for (std::uint32_t r = 0; r < rules_.size(); ++r) {
      const std::vector<Args>& tuples = tuples_[r];
      for (std::uint32_t t = 0; t < tuples.size(); ++t) {
        if (!rules_[r]->enabled(from, tuples[t])) continue;
        const std::uint32_t to = intern(machine_->fire(*rules_[r], tuples[t], from));
        edges_.push_back(Edge{r, t, to});
      }
    }
    first_edge_[id] = first;
    edge_count_[id] = static_cast<std::uint32_t>(edges_.size()) - first;
  }
  return {edges_.data() + first_edge_[id], edge_count_[id]};
}

std::string SuccessorGraph::label(const Edge& e) const {
  return label_of(*rules_[e.rule], tuples_[e.rule][e.tuple]);
}

}  // namespace la1::asml
