// Random flat netlists for the differential RTL suites: multi-bit cones
// over all 17 rtl::Op kinds, X-reset registers, tristate buses,
// arithmetic, slices/concats, and a memory with byte-enabled write ports
// and an address one bit wider than its depth needs (out-of-range reads).
//
// `x_sources = false` draws the same structure from the same stream but
// leaves every literal and register init two-state: the fragment the
// bit-blaster accepts (rtl/bitblast.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rtl/bitblast.hpp"
#include "rtl/netlist.hpp"
#include "util/rng.hpp"

namespace la1::randnet {

struct RandomNetlist {
  rtl::Module module{"prop"};
  std::vector<rtl::NetId> inputs;  // excludes the clock
  rtl::MemId mem = rtl::kInvalidId;
  std::uint64_t stream_seed = 0;
};

/// Mostly two-state literal; one in eight carries an X or Z bit (when
/// `x_sources`) so the four-state operator formulas get exercised.
inline rtl::ExprId random_literal(rtl::Module& m, util::Rng& rng, int width,
                                  bool x_sources) {
  rtl::LVec v = rtl::LVec::zeros(width);
  for (int i = 0; i < width; ++i) {
    v.set_bit(i, rng.next_bool() ? rtl::Logic::k1 : rtl::Logic::k0);
  }
  if (rng.below(8) == 0) {
    rtl::LVec with_xz = v;  // drawn either way: same stream in both modes
    with_xz.set_bit(
        static_cast<int>(rng.below(static_cast<std::uint64_t>(width))),
        rng.next_bool() ? rtl::Logic::kX : rtl::Logic::kZ);
    if (x_sources) v = with_xz;
  }
  return m.lit(v);
}

/// A pool net viewed at exactly `width` bits: direct reference when the
/// widths match, else a random slice of a wider net.
inline rtl::ExprId random_leaf(rtl::Module& m, util::Rng& rng,
                               const std::vector<rtl::NetId>& pool, int width,
                               bool x_sources) {
  std::vector<rtl::NetId> fits;
  for (rtl::NetId n : pool) {
    if (m.net(n).width >= width) fits.push_back(n);
  }
  if (fits.empty() || rng.below(6) == 0) {
    return random_literal(m, rng, width, x_sources);
  }
  const rtl::NetId n = fits[rng.below(fits.size())];
  const int nw = m.net(n).width;
  if (nw == width) return m.ref(n);
  const int lo = static_cast<int>(rng.below(static_cast<std::uint64_t>(nw - width + 1)));
  return m.slice(m.ref(n), lo, width);
}

inline rtl::ExprId random_expr(rtl::Module& m, util::Rng& rng,
                               const std::vector<rtl::NetId>& pool,
                               rtl::MemId mem, int width, int depth,
                               bool x_sources) {
  if (depth <= 0 || rng.below(3) == 0) {
    return random_leaf(m, rng, pool, width, x_sources);
  }
  auto sub = [&](int w, int d) {
    return random_expr(m, rng, pool, mem, w, d, x_sources);
  };
  switch (rng.below(10)) {
    case 0:
      return m.op_not(sub(width, depth - 1));
    case 1:
      return m.op_and(sub(width, depth - 1), sub(width, depth - 1));
    case 2:
      return m.op_or(sub(width, depth - 1), sub(width, depth - 1));
    case 3:
      return m.op_xor(sub(width, depth - 1), sub(width, depth - 1));
    case 4:
      return m.mux(sub(1, depth - 1), sub(width, depth - 1),
                   sub(width, depth - 1));
    case 5:
      return m.add(sub(width, depth - 1), sub(width, depth - 1));
    case 6:
      return m.sub(sub(width, depth - 1), sub(width, depth - 1));
    case 7: {
      if (width < 2) return sub(width, depth - 1);
      const int hi = 1 + static_cast<int>(
                             rng.below(static_cast<std::uint64_t>(width - 1)));
      return m.concat({sub(hi, depth - 1), sub(width - hi, depth - 1)});
    }
    case 8: {
      if (width != 1) return sub(width, depth - 1);
      const int w = 1 + static_cast<int>(rng.below(4));
      switch (rng.below(5)) {
        case 0:
          return m.eq(sub(w, depth - 1), sub(w, depth - 1));
        case 1:
          return m.ne(sub(w, depth - 1), sub(w, depth - 1));
        case 2:
          return m.red_and(sub(w, depth - 1));
        case 3:
          return m.red_or(sub(w, depth - 1));
        default:
          return m.red_xor(sub(w, depth - 1));
      }
    }
    default: {
      // Combinational read port; the 3-bit address over a depth-4 memory
      // also exercises the out-of-range read.
      if (mem == rtl::kInvalidId || width != 8) return sub(width, depth - 1);
      return m.mem_read(mem, sub(3, depth - 1));
    }
  }
}

inline RandomNetlist random_netlist(util::Rng& rng, bool x_sources = true) {
  RandomNetlist out;
  rtl::Module& m = out.module;
  const rtl::NetId k = m.input("K", 1);
  auto expr = [&](const std::vector<rtl::NetId>& pool, int width, int depth) {
    return random_expr(m, rng, pool, out.mem, width, depth, x_sources);
  };

  const int n_inputs = 2 + static_cast<int>(rng.below(2));
  for (int i = 0; i < n_inputs; ++i) {
    // Always at least one byte-wide input so every leaf width can slice.
    const int w = i == 0 ? 8 : 1 + static_cast<int>(rng.below(8));
    out.inputs.push_back(m.input("I" + std::to_string(i), w));
  }

  if (rng.below(2) == 0) out.mem = m.memory("M", /*depth=*/4, /*width=*/8);

  std::vector<rtl::NetId> pool = out.inputs;
  std::vector<rtl::NetId> regs;
  const int n_regs = 1 + static_cast<int>(rng.below(3));
  for (int r = 0; r < n_regs; ++r) {
    const int w = 1 + static_cast<int>(rng.below(8));
    const std::string name = "R" + std::to_string(r);
    if (rng.below(3) == 0) {
      regs.push_back(m.reg(name, w, x_sources ? rtl::LVec::xs(w)
                                              : rtl::LVec::zeros(w)));
    } else {
      regs.push_back(m.reg(name, w, rng.below(1ull << w)));
    }
  }
  pool.insert(pool.end(), regs.begin(), regs.end());

  const rtl::ProcId p = m.process("on_k", k, rtl::Edge::kPos);
  for (rtl::NetId r : regs) {
    m.nonblocking(p, r, expr(pool, m.net(r).width, 2));
  }
  if (out.mem != rtl::kInvalidId) {
    std::vector<rtl::ExprId> bes;
    if (rng.below(2) == 0) bes.push_back(expr(pool, 1, 1));
    m.mem_write(p, out.mem, expr(pool, 3, 2), expr(pool, 8, 2),
                expr(pool, 1, 2), bes);
  }

  const int n_wires = 1 + static_cast<int>(rng.below(3));
  for (int w = 0; w < n_wires; ++w) {
    const int width = 1 + static_cast<int>(rng.below(8));
    const rtl::NetId id = m.wire("W" + std::to_string(w), width);
    m.assign(id, expr(pool, width, 2));
    pool.push_back(id);  // later wires may read earlier ones (still acyclic)
  }

  // Half the netlists get a tristate bus with 1-3 drivers — Z results,
  // resolution clashes and the conflict tap all come from here.
  if (rng.below(2) == 0) {
    const int width = 1 + static_cast<int>(rng.below(4));
    const rtl::NetId bus = m.wire("BUS", width);
    const int drivers = 1 + static_cast<int>(rng.below(3));
    for (int d = 0; d < drivers; ++d) {
      m.tristate(bus, expr(pool, 1, 1), expr(pool, width, 2));
    }
  }

  out.stream_seed = rng.next_u64();
  return out;
}

/// The DDR edge schedule the suites drive: the negative edge has no
/// process, so it exercises each engine's no-matching-step path.
inline std::vector<rtl::ClockStep> ddr_schedule(const rtl::Module& m) {
  const rtl::NetId k = m.find_net("K");
  return {{k, rtl::Edge::kPos}, {k, rtl::Edge::kNeg}};
}

/// One independent two-state stimulus stream per lane.
inline util::Rng lane_stream(const RandomNetlist& t, int lane) {
  return util::Rng(t.stream_seed ^ (0x9e3779b97f4a7c15ull *
                                    (static_cast<std::uint64_t>(lane) + 1)));
}

/// A random two-state value for `width` bits.
inline rtl::LVec random_value(util::Rng& rng, int width) {
  rtl::LVec v = rtl::LVec::zeros(width);
  for (int i = 0; i < width; ++i) {
    v.set_bit(i, rng.next_bool() ? rtl::Logic::k1 : rtl::Logic::k0);
  }
  return v;
}

}  // namespace la1::randnet
