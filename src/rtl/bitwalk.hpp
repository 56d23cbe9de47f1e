// The one memoized bit-vector walk over rtl::Op that the bit-level
// evaluators share: the bit-blaster (graph nodes), dfa::AbsEvaluator
// (ternary value sets) and csim::compile (aval/bval slot pairs).
//
// The walk owns the per-ExprId memo and every operator whose meaning is
// the same bit plumbing in each domain: Not, the And/Or/Xor lift, Mux per
// bit, Concat (MSB-first parts into LSB-first bits), Slice, the reductions
// and Eq as folds over the op table's gate (rtl/op.hpp), and Ne as not(Eq).
// A domain derives from BitWalk<Domain, Bit> and supplies its leaves and
// bit primitives:
//
//   Bits literal(const LVec&)         kConst
//   Bits net(NetId)                   kNet
//   Bits mem_read(const Expr&)        kMemRead
//   Bits arith(const Expr&)           kAdd, kSub (the domain evaluates the
//                                     operands, in the order it needs)
//   Bit  not_bit(Bit)
//   Bit  gate(const OpInfo&, Bit, Bit)  the row's two-input gate
//   Bit  mux_bit(Bit sel, Bit t, Bit f)
//   Bit  constant(Logic)              a 0/1 seed for the default folds
//
// and may replace a fold by defining a member of the same name:
//
//   Bit  reduce(const OpInfo&, const Bits&)  default: gate-fold from the
//                                            row's identity
//   Bit  equal(const Bits&, const Bits&)     default: and-fold of xnor
//
// rtl::CycleSim keeps its own word-level evaluator: it is the reference
// the three domains are differentially tested against.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "rtl/netlist.hpp"

namespace la1::rtl {

template <typename Domain, typename Bit>
class BitWalk {
 public:
  using Bits = std::vector<Bit>;

  /// The bits of `id`, memoized until the next invalidate().
  const Bits& eval(ExprId id) {
    const auto i = static_cast<std::size_t>(id);
    if (stamp_of_[i] == stamp_) return memo_[i];
    Bits bits = compute(module_->expr(id));
    memo_[i] = std::move(bits);
    stamp_of_[i] = stamp_;
    return memo_[i];
  }

 protected:
  explicit BitWalk(const Module& m)
      : module_(&m),
        memo_(static_cast<std::size_t>(m.expr_count())),
        stamp_of_(static_cast<std::size_t>(m.expr_count()), 0) {}

  /// Forgets every memoized result (the leaves' inputs changed).
  void invalidate() { ++stamp_; }

  Bit reduce(const OpInfo& info, const Bits& a) {
    Bit acc = self().constant(info.identity);
    for (const Bit& b : a) acc = self().gate(info, acc, b);
    return acc;
  }

  Bit equal(const Bits& a, const Bits& b) {
    Bit acc = self().constant(Logic::k1);
    for (std::size_t i = 0; i < a.size(); ++i) {
      const Bit same =
          self().not_bit(self().gate(op_info(Op::kXor), a[i], b[i]));
      acc = self().gate(op_info(Op::kAnd), acc, same);
    }
    return acc;
  }

 private:
  Domain& self() { return static_cast<Domain&>(*this); }

  Bits compute(const Expr& e) {
    Domain& d = self();
    switch (e.op) {
      case Op::kNot: {
        Bits out = eval(e.a);
        for (Bit& b : out) b = d.not_bit(b);
        return out;
      }
      case Op::kAnd:
      case Op::kOr:
      case Op::kXor: {
        const Bits& a = eval(e.a);
        const Bits& b = eval(e.b);
        Bits out(a.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
          out[i] = d.gate(op_info(e.op), a[i], b[i]);
        }
        return out;
      }
      case Op::kRedAnd:
      case Op::kRedOr:
      case Op::kRedXor:
        return Bits{d.reduce(op_info(e.op), eval(e.a))};
      case Op::kEq:
      case Op::kNe: {
        const Bits& a = eval(e.a);
        const Bits& b = eval(e.b);
        const Bit eq = d.equal(a, b);
        return Bits{e.op == Op::kEq ? eq : d.not_bit(eq)};
      }
      case Op::kMux: {
        const Bit sel = eval(e.a)[0];
        const Bits& t = eval(e.b);
        const Bits& f = eval(e.c);
        Bits out(t.size());
        for (std::size_t i = 0; i < t.size(); ++i) {
          out[i] = d.mux_bit(sel, t[i], f[i]);
        }
        return out;
      }
      case Op::kConcat: {
        Bits out;
        out.reserve(static_cast<std::size_t>(e.width));
        for (auto it = e.parts.rbegin(); it != e.parts.rend(); ++it) {
          const Bits& part = eval(*it);
          out.insert(out.end(), part.begin(), part.end());
        }
        return out;
      }
      case Op::kSlice: {
        const Bits& a = eval(e.a);
        return Bits(a.begin() + e.lo, a.begin() + e.lo + e.width);
      }
      case Op::kConst:
        return d.literal(e.literal);
      case Op::kNet:
        return d.net(e.net);
      case Op::kMemRead:
        return d.mem_read(e);
      case Op::kAdd:
      case Op::kSub:
        break;
    }
    return d.arith(e);
  }

  const Module* module_;
  std::vector<Bits> memo_;
  std::vector<unsigned> stamp_of_;
  unsigned stamp_ = 1;  // above the stamp_of_ seed: nothing memoized yet
};

}  // namespace la1::rtl
