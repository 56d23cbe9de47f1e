// Class-diagram rendering as PlantUML text, so the UML level of the flow is
// inspectable with standard tooling.
#pragma once

#include <string>

#include "uml/model.hpp"

namespace la1::uml {

/// PlantUML class diagram source.
std::string to_plantuml(const ClassDiagram& cd);

}  // namespace la1::uml
