#include "uml/render.hpp"

#include <sstream>

#include "util/strings.hpp"

namespace la1::uml {

namespace {
const char* arrow_of(RelationKind kind) {
  switch (kind) {
    case RelationKind::kAssociation: return "-->";
    case RelationKind::kAggregation: return "o--";
    case RelationKind::kComposition: return "*--";
    case RelationKind::kGeneralization: return "--|>";
  }
  return "-->";
}
}  // namespace

std::string to_plantuml(const ClassDiagram& cd) {
  std::ostringstream out;
  out << "@startuml\ntitle " << cd.name() << "\n";
  for (const Class& c : cd.classes()) {
    out << "class " << c.name << " {\n";
    for (const Attribute& a : c.attributes) {
      out << "  " << a.name << " : " << a.type << "\n";
    }
    for (const Operation& op : c.operations) {
      out << "  " << op.name << "(" << util::join(op.params, ", ") << ")\n";
    }
    out << "}\n";
  }
  for (const Relation& r : cd.relations()) {
    out << r.from << " " << arrow_of(r.kind) << " " << r.to;
    if (!r.label.empty() || !r.multiplicity.empty()) {
      out << " : " << r.label;
      if (!r.multiplicity.empty()) out << " [" << r.multiplicity << "]";
    }
    out << "\n";
  }
  out << "@enduml\n";
  return out.str();
}

}  // namespace la1::uml
