#include "csim/compile.hpp"

#include <stdexcept>
#include <utility>

#include "rtl/bitwalk.hpp"

namespace la1::csim {

namespace {

// Per-bit class lookup against the plan's positional net table (every net
// in NetId order, then one summary entry per memory — plan::analyze's
// layout).
plan::BitClass class_of(const plan::NetSafetySummary& s, int bit) {
  return plan::bit_class_from_char(s.classes.at(static_cast<std::size_t>(bit)));
}

}  // namespace

std::int64_t Compiled::total_instructions() const {
  std::int64_t n = static_cast<std::int64_t>(comb_.code.size());
  for (const StepProgram& s : steps_) {
    n += static_cast<std::int64_t>(s.body.code.size());
  }
  return n;
}

/// One compilation run. Emission goes through small folding helpers so the
/// pinned constant slots (kZeroSlot/kOnesSlot) absorb statically-known
/// operands — that is what collapses the four-state formulas to their bare
/// two-state forms on plan-proven bits without a separate lowering path.
class Compiler : public rtl::BitWalk<Compiler, BitRef> {
 public:
  Compiler(const rtl::Module& flat, const plan::CompilePlan& plan)
      : BitWalk(flat), module_(&flat) {
    out_.module_ = &flat;
    out_.plan_ = plan;
  }

  Compiled run() {
    validate();
    allocate_net_slots();
    for (const rtl::Memory& m : module_->memories()) {
      out_.mems_.push_back(MemLayout{m.depth, m.width});
    }
    compile_comb();
    compile_steps();
    build_reset_image();
    out_.slot_count_ = next_slot_;
    return std::move(out_);
  }

 private:
  // --- validation and layout --------------------------------------------

  void validate() {
    if (!module_->instances().empty()) {
      throw std::invalid_argument("csim::compile requires an elaborated module");
    }
    const std::size_t nets = static_cast<std::size_t>(module_->net_count());
    const std::size_t mems = module_->memories().size();
    if (out_.plan_.nets.size() != nets + mems) {
      throw std::invalid_argument(
          "csim::compile: plan does not match the module (net table size)");
    }
    for (rtl::NetId id = 0; id < module_->net_count(); ++id) {
      if (out_.plan_.nets[static_cast<std::size_t>(id)].width !=
          module_->net(id).width) {
        throw std::invalid_argument(
            "csim::compile: plan does not match the module (width of " +
            module_->net(id).name + ")");
      }
    }
    for (std::size_t m = 0; m < mems; ++m) {
      if (out_.plan_.nets[nets + m].width != module_->memories()[m].width) {
        throw std::invalid_argument(
            "csim::compile: plan does not match the module (memory " +
            module_->memories()[m].name + ")");
      }
      if (module_->memories()[m].width > 64) {
        throw std::invalid_argument(
            "csim::compile: memory words wider than 64 bits are not "
            "supported (" + module_->memories()[m].name + ")");
      }
    }
    sched_ = rtl::topo_schedule(*module_);
    if (!sched_.acyclic()) {
      throw std::invalid_argument(
          "combinational cycle through net " +
          module_->net(sched_.comb_cycles.front().front()).name);
    }
  }

  std::int32_t alloc() { return next_slot_++; }

  void allocate_net_slots() {
    out_.nets_.resize(static_cast<std::size_t>(module_->net_count()));
    for (rtl::NetId id = 0; id < module_->net_count(); ++id) {
      const rtl::Net& n = module_->net(id);
      const plan::NetSafetySummary& s =
          out_.plan_.nets[static_cast<std::size_t>(id)];
      NetSlots& ns = out_.nets_[static_cast<std::size_t>(id)];
      ns.a.resize(static_cast<std::size_t>(n.width));
      ns.b.assign(static_cast<std::size_t>(n.width), kZeroSlot);
      for (int i = 0; i < n.width; ++i) {
        ns.a[static_cast<std::size_t>(i)] = alloc();
        if (class_of(s, i) != plan::BitClass::kProven2State) {
          ns.b[static_cast<std::size_t>(i)] = alloc();
        }
      }
    }
    for (const rtl::TriDriver& t : module_->tristates()) {
      NetSlots& ns = out_.nets_[static_cast<std::size_t>(t.target)];
      if (ns.conflict < 0) ns.conflict = alloc();
    }
  }

  void build_reset_image() {
    out_.reset_image_.assign(static_cast<std::size_t>(next_slot_), 0);
    out_.reset_image_[kOnesSlot] = ~0ull;
    for (rtl::NetId id = 0; id < module_->net_count(); ++id) {
      const rtl::Net& n = module_->net(id);
      if (n.kind != rtl::NetKind::kReg) continue;
      const NetSlots& ns = out_.nets_[static_cast<std::size_t>(id)];
      for (int i = 0; i < n.width; ++i) {
        const rtl::Logic v = n.init.bit(i);
        const bool a = v == rtl::Logic::k1 || v == rtl::Logic::kX;
        const bool b = v == rtl::Logic::kZ || v == rtl::Logic::kX;
        if (a) out_.reset_image_[static_cast<std::size_t>(
                   ns.a[static_cast<std::size_t>(i)])] = ~0ull;
        if (b) {
          if (ns.b[static_cast<std::size_t>(i)] == kZeroSlot) {
            throw std::invalid_argument(
                "csim::compile: X/Z register init on a plan-proven two-state "
                "bit of " + n.name);
          }
          out_.reset_image_[static_cast<std::size_t>(
              ns.b[static_cast<std::size_t>(i)])] = ~0ull;
        }
      }
    }
  }

  // --- folding emitters --------------------------------------------------

  void emit(OpCode op, std::int32_t d, std::int32_t s0 = 0, std::int32_t s1 = 0,
            std::int32_t s2 = 0, std::uint64_t imm = 0) {
    cur_->code.push_back(Instr{op, d, s0, s1, s2, imm});
  }

  std::int32_t emit_to_tmp(OpCode op, std::int32_t s0, std::int32_t s1 = 0,
                           std::int32_t s2 = 0) {
    const std::int32_t d = alloc();
    emit(op, d, s0, s1, s2);
    return d;
  }

  std::int32_t f_not(std::int32_t x) {
    if (x == kZeroSlot) return kOnesSlot;
    if (x == kOnesSlot) return kZeroSlot;
    return emit_to_tmp(OpCode::kNot, x);
  }
  std::int32_t f_and(std::int32_t x, std::int32_t y) {
    if (x == kZeroSlot || y == kZeroSlot) return kZeroSlot;
    if (x == kOnesSlot) return y;
    if (y == kOnesSlot || x == y) return x;
    return emit_to_tmp(OpCode::kAnd, x, y);
  }
  std::int32_t f_or(std::int32_t x, std::int32_t y) {
    if (x == kOnesSlot || y == kOnesSlot) return kOnesSlot;
    if (x == kZeroSlot) return y;
    if (y == kZeroSlot || x == y) return x;
    return emit_to_tmp(OpCode::kOr, x, y);
  }
  std::int32_t f_xor(std::int32_t x, std::int32_t y) {
    if (x == y) return kZeroSlot;
    if (x == kZeroSlot) return y;
    if (y == kZeroSlot) return x;
    if (x == kOnesSlot) return f_not(y);
    if (y == kOnesSlot) return f_not(x);
    return emit_to_tmp(OpCode::kXor, x, y);
  }
  std::int32_t f_xnor(std::int32_t x, std::int32_t y) {
    if (x == y) return kOnesSlot;
    if (x == kZeroSlot) return f_not(y);
    if (y == kZeroSlot) return f_not(x);
    if (x == kOnesSlot) return y;
    if (y == kOnesSlot) return x;
    return emit_to_tmp(OpCode::kXnor, x, y);
  }
  std::int32_t f_nor(std::int32_t x, std::int32_t y) {
    if (x == kOnesSlot || y == kOnesSlot) return kZeroSlot;
    if (x == kZeroSlot) return f_not(y);
    if (y == kZeroSlot || x == y) return f_not(x);
    return emit_to_tmp(OpCode::kNor, x, y);
  }
  // x & ~y
  std::int32_t f_andn(std::int32_t x, std::int32_t y) {
    if (x == kZeroSlot || y == kOnesSlot || x == y) return kZeroSlot;
    if (y == kZeroSlot) return x;
    if (x == kOnesSlot) return f_not(y);
    return emit_to_tmp(OpCode::kAndn, x, y);
  }
  // ~x | y
  std::int32_t f_orn(std::int32_t x, std::int32_t y) {
    if (x == kZeroSlot || y == kOnesSlot || x == y) return kOnesSlot;
    if (x == kOnesSlot) return y;
    if (y == kZeroSlot) return f_not(x);
    return emit_to_tmp(OpCode::kOrn, x, y);
  }
  // sel ? t : e
  std::int32_t f_mux(std::int32_t t, std::int32_t e, std::int32_t sel) {
    if (sel == kOnesSlot || t == e) return t;
    if (sel == kZeroSlot) return e;
    if (t == kOnesSlot && e == kZeroSlot) return sel;
    if (t == kZeroSlot && e == kOnesSlot) return f_not(sel);
    return emit_to_tmp(OpCode::kMux, t, e, sel);
  }
  std::int32_t f_xor3(std::int32_t x, std::int32_t y, std::int32_t c) {
    if (c == kZeroSlot) return f_xor(x, y);
    if (c == kOnesSlot) return f_xnor(x, y);
    if (x == kZeroSlot) return f_xor(y, c);
    if (y == kZeroSlot) return f_xor(x, c);
    return emit_to_tmp(OpCode::kXor3, x, y, c);
  }
  // (x&y) | (c & (x^y)) — ripple carry out
  std::int32_t f_carry(std::int32_t x, std::int32_t y, std::int32_t c) {
    if (c == kZeroSlot) return f_and(x, y);
    if (c == kOnesSlot) return f_or(x, y);
    if (x == kZeroSlot) return f_and(c, y);
    if (y == kZeroSlot) return f_and(c, x);
    if (x == kOnesSlot) return f_or(c, y);
    if (y == kOnesSlot) return f_or(c, x);
    return emit_to_tmp(OpCode::kCarry, x, y, c);
  }
  /// Copies `src` into the fixed slot `dst` (net commit).
  void f_store(std::int32_t dst, std::int32_t src) {
    if (src == kZeroSlot) {
      emit(OpCode::kConst, dst, 0, 0, 0, 0);
    } else if (src == kOnesSlot) {
      emit(OpCode::kConst, dst, 0, 0, 0, ~0ull);
    } else if (src != dst) {
      emit(OpCode::kMov, dst, src);
    }
  }

  // --- four-state bit algebra -------------------------------------------
  // Encoding: 0=(0,0) 1=(1,0) Z=(0,1) X=(1,1). `zero_of`/`one_of` are the
  // definite-value masks the conservative operators are built from.
  // `not_bit`, `equal` and `mux_bit` are also the walk's hooks (below).

  std::int32_t zero_of(const BitRef& x) { return f_nor(x.a, x.b); }
  std::int32_t one_of(const BitRef& x) { return f_andn(x.a, x.b); }

  BitRef not_bit(const BitRef& x) {
    if (x.two_state()) return BitRef{f_not(x.a), kZeroSlot};
    return BitRef{f_orn(x.a, x.b), x.b};
  }

  BitRef lower_and(const BitRef& x, const BitRef& y) {
    if (x.two_state() && y.two_state()) {
      return BitRef{f_and(x.a, y.a), kZeroSlot};
    }
    const std::int32_t out0 = f_or(zero_of(x), zero_of(y));
    const std::int32_t both1 = f_and(one_of(x), one_of(y));
    return BitRef{f_not(out0), f_nor(out0, both1)};
  }

  BitRef lower_or(const BitRef& x, const BitRef& y) {
    if (x.two_state() && y.two_state()) {
      return BitRef{f_or(x.a, y.a), kZeroSlot};
    }
    const std::int32_t all0 = f_and(zero_of(x), zero_of(y));
    const std::int32_t any1 = f_or(one_of(x), one_of(y));
    return BitRef{f_not(all0), f_nor(any1, all0)};
  }

  BitRef lower_xor(const BitRef& x, const BitRef& y) {
    if (x.two_state() && y.two_state()) {
      return BitRef{f_xor(x.a, y.a), kZeroSlot};
    }
    const std::int32_t b = f_or(x.b, y.b);
    return BitRef{f_or(f_xor(x.a, y.a), b), b};
  }

  // Verilog wire resolution: Z yields to the other driver, equal values
  // agree, everything else is X.
  BitRef lower_resolve(const BitRef& p, const BitRef& q) {
    if (p.a == kZeroSlot && p.b == kOnesSlot) return q;  // statically Z
    if (q.a == kZeroSlot && q.b == kOnesSlot) return p;
    const std::int32_t p_z = f_andn(p.b, p.a);
    const std::int32_t q_z = f_andn(q.b, q.a);
    const std::int32_t eq = f_and(f_xnor(p.a, q.a), f_xnor(p.b, q.b));
    const std::int32_t take_q = p_z;
    const std::int32_t take_p = f_andn(f_or(q_z, eq), p_z);
    const std::int32_t clash = f_not(f_or(f_or(p_z, q_z), eq));
    return BitRef{f_or(f_or(f_and(take_q, q.a), f_and(take_p, p.a)), clash),
                  f_or(f_or(f_and(take_q, q.b), f_and(take_p, p.b)), clash)};
  }

  BitRef lower_red_and(const std::vector<BitRef>& bits) {
    bool two = true;
    for (const BitRef& b : bits) two = two && b.two_state();
    if (two) {
      std::int32_t acc = kOnesSlot;
      for (const BitRef& b : bits) acc = f_and(acc, b.a);
      return BitRef{acc, kZeroSlot};
    }
    std::int32_t any0 = kZeroSlot;
    std::int32_t all1 = kOnesSlot;
    for (const BitRef& b : bits) {
      any0 = f_or(any0, zero_of(b));
      all1 = f_and(all1, one_of(b));
    }
    return BitRef{f_not(any0), f_nor(any0, all1)};
  }

  BitRef lower_red_or(const std::vector<BitRef>& bits) {
    bool two = true;
    for (const BitRef& b : bits) two = two && b.two_state();
    if (two) {
      std::int32_t acc = kZeroSlot;
      for (const BitRef& b : bits) acc = f_or(acc, b.a);
      return BitRef{acc, kZeroSlot};
    }
    std::int32_t all0 = kOnesSlot;
    std::int32_t any1 = kZeroSlot;
    for (const BitRef& b : bits) {
      all0 = f_and(all0, zero_of(b));
      any1 = f_or(any1, one_of(b));
    }
    return BitRef{f_not(all0), f_nor(any1, all0)};
  }

  BitRef lower_red_xor(const std::vector<BitRef>& bits) {
    std::int32_t unknown = kZeroSlot;
    for (const BitRef& b : bits) unknown = f_or(unknown, b.b);
    std::int32_t acc = kZeroSlot;
    for (const BitRef& b : bits) acc = f_xor(acc, one_of(b));
    if (unknown == kZeroSlot) return BitRef{acc, kZeroSlot};
    return BitRef{f_or(acc, unknown), unknown};
  }

  // k1/k0 when both sides are fully defined; a definite 0/1 mismatch wins
  // even next to X bits (vec_eq's contract).
  BitRef equal(const std::vector<BitRef>& x, const std::vector<BitRef>& y) {
    std::int32_t mismatch = kZeroSlot;
    std::int32_t unknown = kZeroSlot;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const std::int32_t u = f_or(x[i].b, y[i].b);
      mismatch = f_or(mismatch, f_andn(f_xor(x[i].a, y[i].a), u));
      unknown = f_or(unknown, u);
    }
    if (unknown == kZeroSlot) return BitRef{f_not(mismatch), kZeroSlot};
    return BitRef{f_not(mismatch), f_andn(unknown, mismatch)};
  }

  BitRef mux_bit(const BitRef& sel, const BitRef& t, const BitRef& e) {
    if (sel.two_state()) {
      const std::int32_t a = f_mux(t.a, e.a, sel.a);
      const std::int32_t b = (t.two_state() && e.two_state())
                                 ? kZeroSlot
                                 : f_mux(t.b, e.b, sel.a);
      return BitRef{a, b};
    }
    const std::int32_t sel1 = f_andn(sel.a, sel.b);
    const std::int32_t sel0 = f_nor(sel.a, sel.b);
    const std::int32_t sel_u = sel.b;
    // Undefined select: branches agreeing on a defined value pass through,
    // anything else is X (vec_mux's merge).
    const std::int32_t eq_def =
        f_and(f_nor(t.b, e.b), f_xnor(t.a, e.a));
    const std::int32_t merge_a = f_orn(eq_def, t.a);
    const std::int32_t merge_b = f_not(eq_def);
    const std::int32_t a = f_or(
        f_or(f_and(sel1, t.a), f_and(sel0, e.a)), f_and(sel_u, merge_a));
    const std::int32_t b = f_or(
        f_or(f_and(sel1, t.b), f_and(sel0, e.b)), f_and(sel_u, merge_b));
    return BitRef{a, b};
  }

  // Unsigned add/sub modulo 2^width on the avals; any X/Z operand bit makes
  // every result bit X (vec_add/vec_sub). Value bits above 63 are dropped
  // exactly like LVec::to_uint/from_uint.
  std::vector<BitRef> lower_add(const std::vector<BitRef>& x,
                                const std::vector<BitRef>& y, bool sub) {
    std::int32_t unknown = kZeroSlot;
    for (const BitRef& b : x) unknown = f_or(unknown, b.b);
    for (const BitRef& b : y) unknown = f_or(unknown, b.b);
    const int width = static_cast<int>(x.size());
    std::vector<BitRef> out(static_cast<std::size_t>(width));
    std::int32_t carry = sub ? kOnesSlot : kZeroSlot;
    for (int i = 0; i < width; ++i) {
      if (i >= 64) {
        out[static_cast<std::size_t>(i)] = BitRef{kZeroSlot, kZeroSlot};
        continue;
      }
      const std::int32_t xa = x[static_cast<std::size_t>(i)].a;
      const std::int32_t ya = sub ? f_not(y[static_cast<std::size_t>(i)].a)
                                  : y[static_cast<std::size_t>(i)].a;
      out[static_cast<std::size_t>(i)] = BitRef{f_xor3(xa, ya, carry), kZeroSlot};
      if (i + 1 < width && i + 1 < 64) carry = f_carry(xa, ya, carry);
    }
    if (unknown != kZeroSlot) {
      for (BitRef& b : out) b = BitRef{f_or(b.a, unknown), unknown};
    }
    return out;
  }

  // --- the walk's slot domain (rtl/bitwalk.hpp) ---------------------------

  friend class rtl::BitWalk<Compiler, BitRef>;

  std::vector<BitRef> literal(const rtl::LVec& v) {
    std::vector<BitRef> out;
    out.reserve(static_cast<std::size_t>(v.width()));
    for (int i = 0; i < v.width(); ++i) {
      const rtl::Logic x = v.bit(i);
      const bool a = x == rtl::Logic::k1 || x == rtl::Logic::kX;
      const bool b = x == rtl::Logic::kZ || x == rtl::Logic::kX;
      out.push_back(
          BitRef{a ? kOnesSlot : kZeroSlot, b ? kOnesSlot : kZeroSlot});
    }
    return out;
  }

  std::vector<BitRef> net(rtl::NetId id) {
    const NetSlots& ns = out_.nets_[static_cast<std::size_t>(id)];
    std::vector<BitRef> out;
    for (std::size_t i = 0; i < ns.a.size(); ++i) {
      out.push_back(BitRef{ns.a[i], ns.b[i]});
    }
    return out;
  }

  std::vector<BitRef> mem_read(const rtl::Expr& e) {
    const auto& addr = eval(e.a);
    MemReadDesc d;
    d.mem = e.mem;
    d.depth = module_->memories()[static_cast<std::size_t>(e.mem)].depth;
    d.width = e.width;
    d.addr = addr;
    std::vector<BitRef> out;
    for (int i = 0; i < e.width; ++i) {
      d.out_a.push_back(alloc());
      d.out_b.push_back(alloc());
      out.push_back(BitRef{d.out_a.back(), d.out_b.back()});
    }
    out_.mem_reads_.push_back(std::move(d));
    emit(OpCode::kMemRead, 0, 0, 0, 0, out_.mem_reads_.size() - 1);
    return out;
  }

  std::vector<BitRef> arith(const rtl::Expr& e) {
    // Right operand first, each in its own statement: evaluating an
    // operand allocates slots, so the order fixes the program's slot
    // numbering, and two evals as call arguments would leave it to the
    // compiler.
    const auto& y = eval(e.b);
    const auto& x = eval(e.a);
    return lower_add(x, y, e.op == rtl::Op::kSub);
  }

  BitRef gate(const rtl::OpInfo& info, const BitRef& x, const BitRef& y) {
    switch (info.gate) {
      case rtl::Gate::kAnd: return lower_and(x, y);
      case rtl::Gate::kOr: return lower_or(x, y);
      default: return lower_xor(x, y);
    }
  }

  // Whole-vector four-state forms: per-bit folds would lengthen the program.
  BitRef reduce(const rtl::OpInfo& info, const std::vector<BitRef>& bits) {
    switch (info.gate) {
      case rtl::Gate::kAnd: return lower_red_and(bits);
      case rtl::Gate::kOr: return lower_red_or(bits);
      default: return lower_red_xor(bits);
    }
  }

  void begin_program(Program* p) {
    cur_ = p;
    invalidate();
  }

  void store_net(rtl::NetId target, const std::vector<BitRef>& value) {
    const NetSlots& ns = out_.nets_[static_cast<std::size_t>(target)];
    for (std::size_t i = 0; i < value.size(); ++i) {
      f_store(ns.a[i], value[i].a);
      // Plan-proven two-state bits carry no sideband slot: the proof
      // guarantees the computed bval is zero, so the store is dropped.
      if (ns.b[i] != kZeroSlot) f_store(ns.b[i], value[i].b);
    }
  }

  // --- combinational program --------------------------------------------

  void compile_comb() {
    begin_program(&out_.comb_);
    for (const rtl::SchedNode& node : sched_.nodes) {
      if (!node.is_tristate_group) {
        store_net(node.target, eval(node.assign_values.front()));
        continue;
      }
      compile_tristate(node);
    }
  }

  void compile_tristate(const rtl::SchedNode& node) {
    const int width = module_->net(node.target).width;
    const NetSlots& ns = out_.nets_[static_cast<std::size_t>(node.target)];
    emit(OpCode::kConst, ns.conflict, 0, 0, 0, 0);
    const std::int32_t seen = alloc();
    emit(OpCode::kConst, seen, 0, 0, 0, 0);
    // The bus starts at Z and folds one driver at a time — the same
    // left-to-right resolution CycleSim::run_comb applies.
    std::vector<BitRef> acc(static_cast<std::size_t>(width),
                            BitRef{kZeroSlot, kOnesSlot});
    for (std::size_t d = 0; d < node.tri_enables.size(); ++d) {
      const BitRef en = eval(node.tri_enables[d])[0];
      const auto& val = eval(node.assign_values[d]);
      const std::int32_t en1 = one_of(en);
      const std::int32_t en0 = zero_of(en);
      const std::int32_t en_u = en.b;
      if (en1 != kZeroSlot) {
        emit(OpCode::kAndOr, ns.conflict, seen, en1);
        emit(OpCode::kOrAcc, seen, en1);
      }
      for (int i = 0; i < width; ++i) {
        const BitRef& v = val[static_cast<std::size_t>(i)];
        // Enabled: the driver's value verbatim. Disabled: Z. Undefined
        // enable: X (CycleSim resolves an all-X contribution).
        const BitRef contrib{f_or(f_and(en1, v.a), en_u),
                             f_or(f_or(f_and(en1, v.b), en_u), en0)};
        acc[static_cast<std::size_t>(i)] =
            lower_resolve(acc[static_cast<std::size_t>(i)], contrib);
      }
    }
    store_net(node.target, acc);
  }

  // --- step programs (one per distinct clock/edge) ----------------------

  void compile_steps() {
    std::vector<std::pair<rtl::NetId, rtl::Edge>> keys;
    for (const rtl::Process& p : module_->processes()) {
      const auto key = std::make_pair(p.clock, p.edge);
      bool found = false;
      for (const auto& k : keys) found = found || k == key;
      if (!found) keys.push_back(key);
    }
    for (const auto& [clock, edge] : keys) compile_step(clock, edge);
  }

  /// True when `ref` reads a slot that phases B/C of this step overwrite
  /// (the clock word or a committed register) — those values must be
  /// latched into temps while they still hold their pre-edge settle.
  bool mutated_by_step(std::int32_t slot,
                       const std::vector<std::int32_t>& mutated) const {
    for (std::int32_t m : mutated) {
      if (m == slot) return true;
    }
    return false;
  }

  BitRef snapshot(const BitRef& ref, const std::vector<std::int32_t>& mutated) {
    BitRef out = ref;
    if (ref.a != kZeroSlot && ref.a != kOnesSlot &&
        mutated_by_step(ref.a, mutated)) {
      out.a = emit_to_tmp(OpCode::kMov, ref.a);
    }
    if (ref.b != kZeroSlot && ref.b != kOnesSlot &&
        mutated_by_step(ref.b, mutated)) {
      out.b = emit_to_tmp(OpCode::kMov, ref.b);
    }
    return out;
  }

  void compile_step(rtl::NetId clock, rtl::Edge edge) {
    out_.steps_.push_back(StepProgram{clock, edge, {}});
    StepProgram& step = out_.steps_.back();
    begin_program(&step.body);

    // Slots phases B/C overwrite: every committed register bit + the clock.
    std::vector<std::int32_t> mutated;
    const NetSlots& cs = out_.nets_[static_cast<std::size_t>(clock)];
    mutated.push_back(cs.a[0]);
    if (cs.b[0] != kZeroSlot) mutated.push_back(cs.b[0]);
    for (const rtl::Process& p : module_->processes()) {
      if (p.clock != clock || p.edge != edge) continue;
      for (const rtl::SeqAssign& sa : p.assigns) {
        const NetSlots& ns = out_.nets_[static_cast<std::size_t>(sa.target)];
        mutated.insert(mutated.end(), ns.a.begin(), ns.a.end());
        for (std::int32_t b : ns.b) {
          if (b != kZeroSlot) mutated.push_back(b);
        }
      }
    }

    // Phase A: evaluate every right-hand side and write-port operand
    // against the pre-edge settle (all processes sample before any commit).
    struct Commit {
      rtl::NetId target;
      std::vector<BitRef> value;
    };
    std::vector<Commit> commits;
    std::vector<std::size_t> writes;
    for (const rtl::Process& p : module_->processes()) {
      if (p.clock != clock || p.edge != edge) continue;
      for (const rtl::SeqAssign& sa : p.assigns) {
        std::vector<BitRef> v = eval(sa.value);
        for (BitRef& bit : v) bit = snapshot(bit, mutated);
        commits.push_back(Commit{sa.target, std::move(v)});
      }
      for (const rtl::MemWrite& w : p.mem_writes) {
        MemWriteDesc d;
        d.mem = w.mem;
        d.depth = module_->memories()[static_cast<std::size_t>(w.mem)].depth;
        d.width = module_->memories()[static_cast<std::size_t>(w.mem)].width;
        d.addr = eval(w.addr);
        for (BitRef& bit : d.addr) bit = snapshot(bit, mutated);
        d.data = eval(w.data);
        for (BitRef& bit : d.data) bit = snapshot(bit, mutated);
        d.wen = snapshot(eval(w.wen)[0], mutated);
        for (rtl::ExprId be : w.byte_enables) {
          d.byte_enables.push_back(snapshot(eval(be)[0], mutated));
        }
        out_.mem_writes_.push_back(std::move(d));
        writes.push_back(out_.mem_writes_.size() - 1);
      }
    }

    // Phase B: the clock net flips to its post-edge value in every lane.
    emit(OpCode::kConst, cs.a[0], 0, 0, 0,
         edge == rtl::Edge::kPos ? ~0ull : 0);
    if (cs.b[0] != kZeroSlot) emit(OpCode::kConst, cs.b[0], 0, 0, 0, 0);

    // Phase C: register commits, in process order.
    for (const Commit& c : commits) store_net(c.target, c.value);

    // Phase D: memory write ports, in process order.
    for (std::size_t w : writes) {
      emit(OpCode::kMemWrite, 0, 0, 0, 0, w);
    }
  }

  const rtl::Module* module_;
  Compiled out_;
  rtl::TopoSchedule sched_;
  std::int32_t next_slot_ = 2;  // 0 = all-zero, 1 = all-ones
  Program* cur_ = nullptr;
};

Compiled compile(const rtl::Module& flat, const plan::CompilePlan& plan) {
  return Compiler(flat, plan).run();
}

Compiled compile(const rtl::Module& flat,
                 const std::vector<rtl::ClockStep>& schedule) {
  plan::PlanOptions opt;
  opt.schedule = schedule;
  return compile(flat, plan::analyze(flat, opt));
}

}  // namespace la1::csim
