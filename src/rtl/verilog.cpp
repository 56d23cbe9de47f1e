#include "rtl/verilog.hpp"

#include <map>
#include <set>
#include <sstream>

namespace la1::rtl {

namespace {

/// Maps netlist names to unique Verilog identifiers. Verilog identifiers
/// cannot contain '.' or '#' (flattened names use both); replacing those
/// characters can make two distinct names collide ("a.b" vs "a_b"), so the
/// renamer keeps a per-scope used set and suffixes later claimants.
class Sanitizer {
 public:
  const std::string& operator()(const std::string& name) {
    auto it = renamed_.find(name);
    if (it != renamed_.end()) return it->second;
    const std::string base = verilog_base_name(name);
    std::string candidate = base;
    for (int n = 2; !used_.insert(candidate).second; ++n) {
      candidate = base + "__" + std::to_string(n);
    }
    return renamed_.emplace(name, std::move(candidate)).first->second;
  }

 private:
  std::map<std::string, std::string> renamed_;
  std::set<std::string> used_;
};

class Printer {
 public:
  Printer(const Module& m, Sanitizer& names) : m_(&m), sanitize(names) {}

  std::string expr(ExprId id) {
    const Expr& e = m_->expr(id);
    const std::string token = op_info(e.op).verilog;
    switch (op_info(e.op).shape) {
      case Shape::kLeaf: {
        if (e.op == Op::kNet) return sanitize(m_->net(e.net).name);
        std::ostringstream s;
        s << e.width << "'b" << e.literal.to_string();
        return s.str();
      }
      case Shape::kUnary:
      case Shape::kReduce:
        return "(" + token + expr(e.a) + ")";
      case Shape::kBinary:
      case Shape::kCompare:
        return "(" + expr(e.a) + " " + token + " " + expr(e.b) + ")";
      case Shape::kMux:
        return "(" + expr(e.a) + " ? " + expr(e.b) + " : " + expr(e.c) + ")";
      case Shape::kConcat: {
        std::string s = "{";
        for (std::size_t i = 0; i < e.parts.size(); ++i) {
          if (i != 0) s += ", ";
          s += expr(e.parts[i]);
        }
        return s + "}";
      }
      case Shape::kSlice: {
        // Verilog part-select needs a simple name; wrap via a function-free
        // idiom: emit ((x) >> lo) truncated by the consumer width when the
        // operand is compound. For net operands use the direct part select.
        const Expr& src = m_->expr(e.a);
        if (src.op == Op::kNet) {
          std::ostringstream s;
          s << sanitize(m_->net(src.net).name) << '[' << (e.lo + e.width - 1)
            << ':' << e.lo << ']';
          return s.str();
        }
        std::ostringstream s;
        s << "((" << expr(e.a) << ") >> " << e.lo << ')';
        return s.str();
      }
      case Shape::kMemRead:
        return sanitize(m_->memories()[static_cast<std::size_t>(e.mem)].name) +
               "[" + expr(e.a) + "]";
    }
    return "/*?*/";
  }

 private:
  const Module* m_;
  Sanitizer& sanitize;
};

std::string range_of(int width) {
  if (width == 1) return "";
  std::ostringstream s;
  s << '[' << width - 1 << ":0] ";
  return s.str();
}

void emit_module(const Module& m, std::ostringstream& out,
                 std::set<std::string>& done, Sanitizer& module_names);

void emit_children(const Module& m, std::ostringstream& out,
                   std::set<std::string>& done, Sanitizer& module_names) {
  for (const Instance& inst : m.instances()) {
    emit_module(*inst.child, out, done, module_names);
  }
}

void emit_module(const Module& m, std::ostringstream& out,
                 std::set<std::string>& done, Sanitizer& module_names) {
  if (!done.insert(m.name()).second) return;
  emit_children(m, out, done, module_names);

  // One identifier scope per module: nets, memories and instance names all
  // share it, claimed in declaration order so ports keep their plain names.
  Sanitizer names;
  for (const Net& n : m.nets()) {
    if (n.kind == NetKind::kInput || n.kind == NetKind::kOutput) names(n.name);
  }
  Printer p(m, names);
  out << "module " << module_names(m.name()) << " (";
  bool first = true;
  for (const Net& n : m.nets()) {
    if (n.kind != NetKind::kInput && n.kind != NetKind::kOutput) continue;
    if (!first) out << ", ";
    first = false;
    out << names(n.name);
  }
  out << ");\n";

  for (const Net& n : m.nets()) {
    switch (n.kind) {
      case NetKind::kInput:
        out << "  input " << range_of(n.width) << names(n.name) << ";\n";
        break;
      case NetKind::kOutput:
        out << "  output " << range_of(n.width) << names(n.name) << ";\n";
        break;
      case NetKind::kWire:
        out << "  wire " << range_of(n.width) << names(n.name) << ";\n";
        break;
      case NetKind::kReg:
        out << "  reg " << range_of(n.width) << names(n.name) << " = "
            << n.width << "'b" << n.init.to_string() << ";\n";
        break;
    }
  }
  for (const Memory& mem : m.memories()) {
    out << "  reg " << range_of(mem.width) << names(mem.name) << " [0:"
        << mem.depth - 1 << "];\n";
  }

  for (const ContAssign& a : m.assigns()) {
    out << "  assign " << names(m.net(a.target).name) << " = "
        << p.expr(a.value) << ";\n";
  }
  for (const TriDriver& t : m.tristates()) {
    out << "  assign " << names(m.net(t.target).name) << " = "
        << p.expr(t.enable) << " ? " << p.expr(t.value) << " : "
        << m.net(t.target).width << "'bz;\n";
  }

  for (const Process& proc : m.processes()) {
    out << "  always @(" << (proc.edge == Edge::kPos ? "posedge " : "negedge ")
        << names(m.net(proc.clock).name) << ") begin // " << proc.name
        << "\n";
    for (const SeqAssign& sa : proc.assigns) {
      out << "    " << names(m.net(sa.target).name) << " <= "
          << p.expr(sa.value) << ";\n";
    }
    for (const MemWrite& w : proc.mem_writes) {
      const std::string mem =
          names(m.memories()[static_cast<std::size_t>(w.mem)].name);
      if (w.byte_enables.empty()) {
        out << "    if (" << p.expr(w.wen) << ") " << mem << "[" << p.expr(w.addr)
            << "] <= " << p.expr(w.data) << ";\n";
      } else {
        const int lw = m.memories()[static_cast<std::size_t>(w.mem)].width /
                       static_cast<int>(w.byte_enables.size());
        for (std::size_t lane = 0; lane < w.byte_enables.size(); ++lane) {
          const int lo = static_cast<int>(lane) * lw;
          out << "    if (" << p.expr(w.wen) << " & "
              << p.expr(w.byte_enables[lane]) << ") " << mem << "["
              << p.expr(w.addr) << "][" << lo + lw - 1 << ':' << lo
              << "] <= " << p.expr(w.data) << " >> " << lo << ";\n";
        }
      }
    }
    out << "  end\n";
  }

  for (const Instance& inst : m.instances()) {
    out << "  " << module_names(inst.child->name()) << " " << names(inst.name)
        << " (";
    bool first_port = true;
    for (const auto& [port, net] : inst.bindings) {
      if (!first_port) out << ", ";
      first_port = false;
      // Port names live in the child's scope; only character replacement
      // applies (the child emits its ports before any internal name can
      // steal the sanitized form).
      out << "." << verilog_base_name(port) << "(" << names(m.net(net).name)
          << ")";
    }
    out << ");\n";
  }

  out << "endmodule\n\n";
}

}  // namespace

std::string verilog_base_name(const std::string& name) {
  std::string base = name;
  for (char& c : base) {
    if (c == '.' || c == '#') c = '_';
  }
  return base;
}

std::string to_verilog(const Module& m) {
  std::ostringstream out;
  out << "// Generated by la1kit (refinement target of the LA-1 flow).\n\n";
  std::set<std::string> done;
  Sanitizer module_names;
  emit_module(m, out, done, module_names);
  return out.str();
}

}  // namespace la1::rtl
