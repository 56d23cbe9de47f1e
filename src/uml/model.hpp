// UML spec layer: the class diagram.
//
// The paper's flow starts from an informal UML specification (§4.1): a
// class diagram of the interface's principal classes plus *modified
// sequence diagrams* whose messages carry the activation cycle and clock
// (`OnReadRequest[0]()@K`, Figure 3). The class diagram lives here — built
// programmatically, validated for well-formedness and rendered to PlantUML
// (render.hpp). The sequence diagrams are `.msc` charts (src/msc), the one
// sequence-chart representation every monitor, coverage group and
// stimulus profile is compiled from.
#pragma once

#include <string>
#include <vector>

namespace la1::uml {

// --- class diagram -----------------------------------------------------

struct Attribute {
  std::string name;
  std::string type;
};

struct Operation {
  std::string name;
  std::vector<std::string> params;
};

struct Class {
  std::string name;
  std::vector<Attribute> attributes;
  std::vector<Operation> operations;
};

enum class RelationKind {
  kAssociation,
  kAggregation,
  kComposition,
  kGeneralization
};

struct Relation {
  std::string from;
  std::string to;
  RelationKind kind = RelationKind::kAssociation;
  std::string label;
  std::string multiplicity;  // e.g. "1..4" banks
};

class ClassDiagram {
 public:
  explicit ClassDiagram(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  Class& add_class(const std::string& name);
  void add_relation(Relation r) { relations_.push_back(std::move(r)); }

  const Class* find(const std::string& name) const;
  const std::vector<Class>& classes() const { return classes_; }
  const std::vector<Relation>& relations() const { return relations_; }

  /// Well-formedness issues (duplicate classes, dangling relation ends,
  /// generalization cycles). Empty = valid.
  std::vector<std::string> validate() const;

 private:
  std::string name_;
  std::vector<Class> classes_;
  std::vector<Relation> relations_;
};

}  // namespace la1::uml
