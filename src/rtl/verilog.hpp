// Synthesizable-Verilog emission — the final refinement artifact of the
// paper's flow (§4.4): every netlist module prints as a Verilog-2001 module,
// hierarchical designs print each child once plus the instantiations, and
// tristate drivers print as conditional 'bz assigns.
#pragma once

#include <string>

#include "rtl/netlist.hpp"

namespace la1::rtl {

/// Emits `m` (and, recursively, every distinct child module) as Verilog
/// source text.
std::string to_verilog(const Module& m);

/// The Verilog identifier a netlist name prints as before any uniquifying
/// suffix: '.' and '#' (which flattened names use) become '_'. Two names
/// with the same base collide in one Verilog scope.
std::string verilog_base_name(const std::string& name);

}  // namespace la1::rtl
