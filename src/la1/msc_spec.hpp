// The LA-1 specification instance (paper §4.1, Figures 1 and 3): the class
// diagram with the four principal classes plus the light simulator, and the
// Figure-3 read/write scenarios as parsed MSC charts.
//
// The charts are authored once as `.msc` fixture files under examples/
// (embedded at build time): the text is the single source of truth, and
// monitors, coverage and stimulus are all compiled from it (src/msc).
#pragma once

#include <string>

#include "msc/ast.hpp"
#include "uml/model.hpp"

namespace la1::core {

/// The LA-1 class diagram: NetworkProcessor (host), WritePort, ReadPort,
/// SRAM_Memory, LightSimulator, La1Bank composition.
uml::ClassDiagram la1_class_diagram();

/// The shipped `.msc` source text (examples/read_mode.msc, embedded).
const char* read_mode_msc();
/// The shipped `.msc` source text (examples/write_mode.msc, embedded).
const char* write_mode_msc();

/// Figure 3: the read-mode chart, parsed and validated.
msc::Chart read_mode_chart();

/// The write-mode chart (W# at K, address at the following K#, commit at
/// the next K), parsed and validated.
msc::Chart write_mode_chart();

}  // namespace la1::core
