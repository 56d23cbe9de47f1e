#include "uml/model.hpp"

#include <map>
#include <set>
#include <stdexcept>

namespace la1::uml {

Class& ClassDiagram::add_class(const std::string& name) {
  for (const Class& c : classes_) {
    if (c.name == name) {
      throw std::invalid_argument("duplicate class: " + name);
    }
  }
  classes_.push_back(Class{name, {}, {}});
  return classes_.back();
}

const Class* ClassDiagram::find(const std::string& name) const {
  for (const Class& c : classes_) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

std::vector<std::string> ClassDiagram::validate() const {
  std::vector<std::string> issues;
  for (const Relation& r : relations_) {
    if (find(r.from) == nullptr) {
      issues.push_back("relation references unknown class: " + r.from);
    }
    if (find(r.to) == nullptr) {
      issues.push_back("relation references unknown class: " + r.to);
    }
  }
  // Generalization cycles.
  std::map<std::string, std::string> parent;
  for (const Relation& r : relations_) {
    if (r.kind == RelationKind::kGeneralization) parent[r.from] = r.to;
  }
  for (const auto& [start, _] : parent) {
    std::set<std::string> seen{start};
    std::string at = start;
    while (parent.count(at) != 0) {
      at = parent[at];
      if (!seen.insert(at).second) {
        issues.push_back("generalization cycle through: " + at);
        break;
      }
    }
  }
  return issues;
}

}  // namespace la1::uml
