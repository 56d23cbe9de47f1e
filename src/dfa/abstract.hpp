// Sequential dataflow analysis: ternary abstract interpretation of the RTL.
//
// The abstract domain is per-bit: the *set* of four-state values {0,1,X,Z}
// a bit may take, packed into one byte. Every rtl::Logic operator lifts
// pointwise over sets (at most 4x4 concrete evaluations per bit), so the
// abstract simulator follows the concrete CycleSim semantics exactly —
// including conservative X-propagation and tristate resolution — while
// covering *all* input valuations at once.
//
// `analyze` iterates the netlist from the reset state (register inits as
// singleton sets, primary inputs as {0,1}) to a least fixpoint: settle the
// combinational logic, apply every process's register updates joined with
// the previous register sets (soundly over-approximating any clock
// schedule, including the DDR K/K# interleave), repeat until stable. The
// per-bit lattice has height <= 4, so convergence is fast.
//
// The resulting `Facts` answer reachability-flavoured questions no
// structural lint can: a register provably stuck at its reset value, a
// register that is X out of reset and provably never recovers, a driven
// logic cone that evaluates to a constant in every reachable state.
// Memories are summarized as one abstract word per memory (join over all
// words written), matching CycleSim's zero-initialized memory model.
#pragma once

#include <cstdint>
#include <vector>

#include "rtl/bitwalk.hpp"
#include "rtl/netlist.hpp"

namespace la1::dfa {

/// Abstract value of one bit: a bitmask over the four concrete values.
using AbsBit = std::uint8_t;

inline constexpr AbsBit kAbs0 = 1u << 0;
inline constexpr AbsBit kAbs1 = 1u << 1;
inline constexpr AbsBit kAbsX = 1u << 2;
inline constexpr AbsBit kAbsZ = 1u << 3;
inline constexpr AbsBit kAbsTop = kAbs0 | kAbs1 | kAbsX | kAbsZ;
inline constexpr AbsBit kAbs01 = kAbs0 | kAbs1;

/// Singleton set for a concrete value.
AbsBit abs_of(rtl::Logic v);
/// True when `b` is exactly {0} or {1}.
bool abs_is_constant(AbsBit b);
/// The constant's value; only meaningful when abs_is_constant(b).
bool abs_constant_value(AbsBit b);

/// Pointwise lifts of the concrete operators (exposed for tests).
AbsBit abs_lift1(AbsBit a, rtl::Logic (*op)(rtl::Logic));
AbsBit abs_lift2(AbsBit a, AbsBit b, rtl::Logic (*op)(rtl::Logic, rtl::Logic));

/// Abstract value of a net, bit 0 = LSB (parallel to rtl::LVec).
using AbsVec = std::vector<AbsBit>;

/// Set union — the lattice join.
inline AbsBit abs_join(AbsBit a, AbsBit b) { return static_cast<AbsBit>(a | b); }
/// True when the set admits an X or Z member.
inline bool abs_may_xz(AbsBit b) { return (b & (kAbsX | kAbsZ)) != 0; }
/// Per-bit singleton sets for a concrete vector.
AbsVec abs_of_lvec(const rtl::LVec& v);

/// Abstract mirror of CycleSim::eval_expr, memoized per settle pass: the
/// shared bit walk (rtl/bitwalk.hpp) over per-bit value sets, every
/// operator the pointwise lift of the concrete one over `nets`/`mems`
/// (which the caller owns and may mutate between passes — call
/// begin_pass() to invalidate the memo). Exposed so consumers beyond the
/// fixpoint (the compile planner's legality rules, say) can ask what an
/// expression can evaluate to under a set of facts.
class AbsEvaluator : public rtl::BitWalk<AbsEvaluator, AbsBit> {
 public:
  AbsEvaluator(const rtl::Module& m, const std::vector<AbsVec>& nets,
               const std::vector<AbsVec>& mems);

  /// Invalidates the memo; call whenever net/memory sets may have changed.
  void begin_pass() { invalidate(); }

 private:
  friend class rtl::BitWalk<AbsEvaluator, AbsBit>;

  AbsVec literal(const rtl::LVec& v) { return abs_of_lvec(v); }
  AbsVec net(rtl::NetId id) { return nets_[static_cast<std::size_t>(id)]; }
  AbsVec mem_read(const rtl::Expr& e);
  AbsVec arith(const rtl::Expr& e);
  AbsBit constant(rtl::Logic v) { return abs_of(v); }
  AbsBit not_bit(AbsBit a) { return abs_lift1(a, rtl::logic_not); }
  AbsBit gate(const rtl::OpInfo& info, AbsBit a, AbsBit b) {
    return abs_lift2(a, b, info.bit);
  }
  AbsBit mux_bit(AbsBit sel, AbsBit t, AbsBit f);
  AbsBit equal(const AbsVec& a, const AbsVec& b);

  const rtl::Module& module_;
  const std::vector<AbsVec>& nets_;
  const std::vector<AbsVec>& mems_;
};

/// The abstract machine both dataflow clients drive: per-net value sets
/// with CycleSim's exact settle/edge structure. `analyze` iterates it with
/// join-accumulated register steps (sound for any clock schedule); the
/// compile planner (src/plan) steps it cycle by cycle with `exact_edge`
/// for the X/Z reaching-definitions proof.
class AbsSim {
 public:
  /// Requires an elaborated (instance-free) module; memories are
  /// summarized as one abstract word each, seeded {0} like CycleSim's
  /// zero-initialized memories. Throws std::invalid_argument otherwise.
  explicit AbsSim(const rtl::Module& flat);

  const rtl::Module& module() const { return *module_; }
  /// Register plus memory-summary bits (the sequential growth budget).
  std::size_t state_bits() const { return state_bits_; }

  /// Pins inputs to {0,1}, registers to their tracked sets, undriven
  /// wires to {X}, then relaxes the combinational cloud to its least
  /// fixpoint by monotone join-accumulation.
  void settle();

  /// Settled per-net values — valid after settle().
  const std::vector<AbsVec>& nets() const { return nets_; }
  const std::vector<AbsVec>& mems() const { return mems_; }
  /// Tracked register sets (indexed by NetId, empty for non-registers).
  const std::vector<AbsVec>& regs() const { return regs_; }

  /// Exactly mirrors CycleSim::edge against the settled state: every
  /// process on (clock, e) samples pre-edge values, then registers commit
  /// (later processes overwrite, as in the interpreter) and memory
  /// summaries join (a summary covers every word, so writes only grow
  /// it). Call settle() afterwards to re-settle the cloud.
  void exact_edge(rtl::NetId clock, rtl::Edge e);

  /// dfa::analyze's step: joins every process's register updates into the
  /// tracked sets (covering any edge schedule) and applies every memory
  /// write. Returns whether any register or summary set grew.
  bool join_all_edges();

 private:
  void apply_mem_write(const rtl::MemWrite& mw, bool* changed);
  AbsEvaluator& ev();

  const rtl::Module* module_;
  std::vector<char> comb_driven_;
  std::vector<std::pair<rtl::NetId, std::vector<const rtl::TriDriver*>>> tri_;
  std::vector<AbsVec> nets_;
  std::vector<AbsVec> mems_;
  std::vector<AbsVec> regs_;
  std::size_t state_bits_ = 0;
  std::size_t comb_bits_ = 0;
  AbsEvaluator ev_;
};

/// The fixpoint: per-net (and per-memory summary) abstract values with the
/// queries the sequential lint rules need.
struct Facts {
  /// Settled abstract value per NetId of the analyzed module.
  std::vector<AbsVec> nets;
  /// One summary word per MemId (join over all words and writes).
  std::vector<AbsVec> mems;
  /// Sequential iterations until the register sets stabilized.
  int iterations = 0;

  /// Every bit of the net is a singleton {0} or {1}. `value` (optional)
  /// receives the constant as an LVec.
  bool net_constant(rtl::NetId id, rtl::LVec* value = nullptr) const;
  /// Every bit of the net is exactly {X}: X in reset, provably never
  /// recovers a defined value.
  bool net_x_forever(rtl::NetId id) const;
};

/// Runs the abstract simulator to fixpoint over `flat` (an elaborated,
/// instance-free module; memories may be present). Throws
/// std::invalid_argument on a hierarchical module.
Facts analyze(const rtl::Module& flat);

}  // namespace la1::dfa
