// Lane-discipline properties of the compiled backend: which bit-lane a
// stimulus stream occupies must be unobservable. Each stream's per-tick
// observation trace is FNV-hashed; shuffling the stream-to-lane assignment
// must leave every stream's hash unchanged, and running at partial
// occupancy (1, 63, 64 active lanes) must reproduce the same per-stream
// hashes the full-width run produced — lanes carry no crosstalk, in nets
// or in the per-lane memory images. Further cases pin the per-lane
// accessors' bounds, the settle rule (edge() without eval() against
// CycleSim) and the bit transpose behind the memory ports.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "csim/compile.hpp"
#include "csim/machine.hpp"
#include "rtl/netlist.hpp"
#include "rtl/sim.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace la1::csim {
namespace {

constexpr int kTicks = 24;
constexpr std::uint64_t kSeed = 0xc51a4e5;

/// A small module that exercises every lane-sensitive structure at once:
/// an accumulator, an X-reset register, a tristate bus with two drivers,
/// and a byte-wide memory with a write port that can go out of range.
rtl::Module lane_module() {
  rtl::Module m("lanes");
  const rtl::NetId k = m.input("K", 1);
  const rtl::NetId i = m.input("I", 8);
  const rtl::NetId j = m.input("J", 1);
  const rtl::NetId r0 = m.reg("R0", 8, std::uint64_t{0});
  const rtl::NetId r1 = m.reg("R1", 1, rtl::LVec::xs(1));
  const rtl::MemId mem = m.memory("M", 4, 8);

  const rtl::ProcId p = m.process("on_k", k, rtl::Edge::kPos);
  m.nonblocking(p, r0, m.add(m.ref(r0), m.ref(i)));
  m.nonblocking(p, r1, m.op_xor(m.ref(r1), m.ref(j)));
  m.mem_write(p, mem, m.slice(m.ref(r0), 0, 3), m.ref(i), m.ref(j));

  m.assign(m.wire("RD", 8), m.mem_read(mem, m.slice(m.ref(i), 0, 3)));
  const rtl::NetId bus = m.wire("BUS", 1);
  m.tristate(bus, m.ref(j), m.slice(m.ref(i), 0, 1));
  m.tristate(bus, m.slice(m.ref(i), 7, 1), m.slice(m.ref(i), 1, 1));
  return m;
}

/// Pre-generated two-state stimulus: stream s, tick t -> (I beat, J bit).
struct Stimulus {
  std::vector<std::uint64_t> i_beats;
  std::vector<bool> j_bits;
};

std::vector<Stimulus> make_streams(int count) {
  std::vector<Stimulus> out(static_cast<std::size_t>(count));
  for (int s = 0; s < count; ++s) {
    util::Rng rng(kSeed + static_cast<std::uint64_t>(s) * 977);
    for (int t = 0; t < kTicks; ++t) {
      out[static_cast<std::size_t>(s)].i_beats.push_back(rng.below(256));
      out[static_cast<std::size_t>(s)].j_bits.push_back(rng.next_bool());
    }
  }
  return out;
}

/// Runs `streams.size()` streams with stream s in lane `lane_of[s]`, and
/// returns one observation-trace hash per stream (indexed by stream, not
/// lane — the quantity lane shuffling must preserve).
std::vector<std::uint64_t> run_streams(const rtl::Module& m,
                                       const Compiled& compiled,
                                       const std::vector<Stimulus>& streams,
                                       const std::vector<int>& lane_of,
                                       int lanes, bool uint_drive = false) {
  Machine machine(compiled, lanes);
  const rtl::NetId i = m.find_net("I");
  const rtl::NetId j = m.find_net("J");
  const rtl::NetId bus = m.find_net("BUS");
  std::vector<std::string> traces(streams.size());

  machine.set_input_bit("K", false);
  for (int t = 0; t < kTicks; ++t) {
    for (std::size_t s = 0; s < streams.size(); ++s) {
      const int lane = lane_of[s];
      const std::uint64_t beat = streams[s].i_beats[static_cast<std::size_t>(t)];
      const bool jbit = streams[s].j_bits[static_cast<std::size_t>(t)];
      if (uint_drive) {
        machine.set_input_lane_uint(i, lane, beat);
        machine.set_input_lane_uint(j, lane, jbit ? 1 : 0);
      } else {
        machine.set_input_lane(i, lane, rtl::LVec::from_uint(beat, 8));
        machine.set_input_lane(j, lane, rtl::LVec::from_uint(jbit, 1));
      }
    }
    machine.edge("K", rtl::Edge::kPos);
    for (std::size_t s = 0; s < streams.size(); ++s) {
      const int lane = lane_of[s];
      std::string& trace = traces[s];
      for (rtl::NetId net = 0; net < m.net_count(); ++net) {
        const rtl::LVec v = machine.get(net, lane);
        for (int b = 0; b < v.width(); ++b) {
          trace.push_back(rtl::to_char(v.bit(b)));
        }
      }
      trace.push_back(machine.bus_conflict(bus, lane) ? 'C' : '.');
      for (std::uint64_t a = 0; a < 4; ++a) {
        const rtl::LVec w = machine.mem_word(0, a, lane);
        for (int b = 0; b < w.width(); ++b) {
          trace.push_back(rtl::to_char(w.bit(b)));
        }
      }
    }
  }

  std::vector<std::uint64_t> hashes;
  for (const std::string& trace : traces) {
    hashes.push_back(util::fnv1a64(trace));
  }
  return hashes;
}

std::vector<int> identity_lanes(int count) {
  std::vector<int> lanes(static_cast<std::size_t>(count));
  for (int s = 0; s < count; ++s) lanes[static_cast<std::size_t>(s)] = s;
  return lanes;
}

TEST(CsimLanes, ShuffledLaneAssignmentPreservesStreamHashes) {
  const rtl::Module m = lane_module();
  const Compiled compiled = compile(m);
  const std::vector<Stimulus> streams = make_streams(64);

  const std::vector<std::uint64_t> base =
      run_streams(m, compiled, streams, identity_lanes(64), 64);

  util::Rng rng(kSeed);
  for (int round = 0; round < 3; ++round) {
    std::vector<int> lane_of = identity_lanes(64);
    for (int s = 63; s > 0; --s) {
      std::swap(lane_of[static_cast<std::size_t>(s)],
                lane_of[rng.below(static_cast<std::uint64_t>(s) + 1)]);
    }
    const std::vector<std::uint64_t> shuffled =
        run_streams(m, compiled, streams, lane_of, 64);
    EXPECT_EQ(base, shuffled) << "lane permutation changed a stream's trace "
                                 "(round "
                              << round << ")";
  }
}

TEST(CsimLanes, PartialOccupancyMatchesFullRun) {
  const rtl::Module m = lane_module();
  const Compiled compiled = compile(m);
  const std::vector<Stimulus> streams = make_streams(64);

  const std::vector<std::uint64_t> full =
      run_streams(m, compiled, streams, identity_lanes(64), 64);

  for (const int occupancy : {1, 63, 64}) {
    const std::vector<Stimulus> subset(streams.begin(),
                                       streams.begin() + occupancy);
    const std::vector<std::uint64_t> partial =
        run_streams(m, compiled, subset, identity_lanes(occupancy), occupancy);
    for (int s = 0; s < occupancy; ++s) {
      EXPECT_EQ(full[static_cast<std::size_t>(s)],
                partial[static_cast<std::size_t>(s)])
          << "stream " << s << " diverged at occupancy " << occupancy;
    }
  }
}

TEST(CsimLanes, UintDrivePathMatchesLVecDrivePath) {
  const rtl::Module m = lane_module();
  const Compiled compiled = compile(m);
  const std::vector<Stimulus> streams = make_streams(64);
  EXPECT_EQ(run_streams(m, compiled, streams, identity_lanes(64), 64, false),
            run_streams(m, compiled, streams, identity_lanes(64), 64, true));
}

TEST(CsimLanes, LaneCountValidation) {
  const rtl::Module m = lane_module();
  const Compiled compiled = compile(m);
  Machine machine(compiled, 64);
  EXPECT_THROW(machine.set_lanes(0), std::invalid_argument);
  EXPECT_THROW(machine.set_lanes(65), std::invalid_argument);
  EXPECT_THROW(
      machine.set_input_lane(m.find_net("I"), 64, rtl::LVec::zeros(8)),
      std::invalid_argument);
}

TEST(CsimLanes, PerLaneAccessorsRejectLanesOutsideTheActivePrefix) {
  const rtl::Module m = lane_module();
  const Compiled compiled = compile(m);
  const rtl::NetId i = m.find_net("I");
  const rtl::NetId bus = m.find_net("BUS");
  for (const int lanes : {1, 64}) {
    Machine machine(compiled, lanes);
    for (const int bad : {-1, lanes, 64, 65}) {
      EXPECT_THROW(machine.get(i, bad), std::invalid_argument) << bad;
      EXPECT_THROW(machine.bus_conflict(bus, bad), std::invalid_argument)
          << bad;
      EXPECT_THROW(machine.mem_word(0, 0, bad), std::invalid_argument) << bad;
      EXPECT_THROW(machine.poke_mem(0, 0, bad, rtl::LVec::zeros(8)),
                   std::invalid_argument)
          << bad;
      EXPECT_THROW(machine.set_input_lane_uint(i, bad, 0),
                   std::invalid_argument)
          << bad;
    }
    EXPECT_NO_THROW(machine.get(i, lanes - 1));
    EXPECT_NO_THROW(machine.bus_conflict(bus, lanes - 1));
    EXPECT_NO_THROW(machine.mem_word(0, 0, lanes - 1));
    EXPECT_NO_THROW(machine.poke_mem(0, 0, lanes - 1, rtl::LVec::zeros(8)));
  }
}

/// lane_module plus registers that sample its comb cloud (RD reads the
/// memory at an input-driven address, BUS resolves input-driven drivers),
/// so a stale pre-edge settle would reach a register.
rtl::Module settle_module() {
  rtl::Module m = lane_module();
  const rtl::ProcId p = m.process("sample", m.find_net("K"), rtl::Edge::kPos);
  m.nonblocking(p, m.reg("RDQ", 8, std::uint64_t{0}), m.ref("RD"));
  m.nonblocking(p, m.reg("BUSQ", 1, std::uint64_t{0}), m.ref("BUS"));
  return m;
}

/// Every net, every memory word and the conflict tap of lane 0 agree.
void expect_lane0_matches(const rtl::Module& m, const Machine& machine,
                          const rtl::CycleSim& sim, int tick) {
  for (rtl::NetId net = 0; net < m.net_count(); ++net) {
    EXPECT_EQ(machine.get(net, 0).to_string(), sim.get(net).to_string())
        << m.net(net).name << " at tick " << tick;
    EXPECT_EQ(machine.bus_conflict(net, 0), sim.enabled_drivers(net) >= 2)
        << m.net(net).name << " at tick " << tick;
  }
  for (std::uint64_t a = 0; a < 4; ++a) {
    EXPECT_EQ(machine.mem_word(0, a, 0).to_string(),
              sim.mem_word(0, a).to_string())
        << "word " << a << " at tick " << tick;
  }
}

TEST(CsimSettle, EdgeWithoutEvalMatchesCycleSim) {
  // Inputs are driven straight into edge() with no eval(): the machine
  // must settle before sampling whenever a driven input feeds the comb
  // cloud, and may skip that settle only when nothing it reads moved.
  const rtl::Module m = settle_module();
  const Compiled compiled = compile(m);
  const rtl::NetId i = m.find_net("I");
  const rtl::NetId j = m.find_net("J");
  ASSERT_TRUE(compiled.comb_reads(i));
  ASSERT_TRUE(compiled.comb_reads(j));
  for (const int lanes : {1, 64}) {
    Machine machine(compiled, lanes);
    rtl::CycleSim sim(m);
    util::Rng rng(kSeed + static_cast<std::uint64_t>(lanes));
    // CycleSim's inputs start X, the machine's zero: agree before tick 0.
    for (const char* name : {"K", "I", "J"}) {
      machine.set_input(name, 0);
      sim.set_input(name, 0);
    }
    for (int t = 0; t < 4 * kTicks; ++t) {
      const std::uint64_t beat = rng.below(256);
      const bool jbit = rng.next_bool();
      switch (rng.below(3)) {
        case 0:  // both inputs, through the lane path
          machine.set_input_lane_uint(i, 0, beat);
          machine.set_input_lane_uint(j, 0, jbit ? 1 : 0);
          sim.set_input(i, rtl::LVec::from_uint(beat, 8));
          sim.set_input(j, rtl::LVec::from_uint(jbit, 1));
          break;
        case 1:  // one input, broadcast
          machine.set_input(i, rtl::LVec::from_uint(beat, 8));
          sim.set_input(i, rtl::LVec::from_uint(beat, 8));
          break;
        default:  // nothing driven: the last settle stays exact
          break;
      }
      machine.edge("K", rtl::Edge::kPos);
      sim.edge("K", rtl::Edge::kPos);
      expect_lane0_matches(m, machine, sim, t);
      machine.edge("K", rtl::Edge::kNeg);
      sim.edge("K", rtl::Edge::kNeg);
    }
  }
}

TEST(CsimSettle, PokeMemThenEdgeWithoutEvalMatchesCycleSim) {
  const rtl::Module m = settle_module();
  const Compiled compiled = compile(m);
  Machine machine(compiled, 1);
  rtl::CycleSim sim(m);
  util::Rng rng(kSeed);
  for (const char* name : {"K", "J"}) {
    machine.set_input(name, 0);
    sim.set_input(name, 0);
  }
  for (int t = 0; t < kTicks; ++t) {
    const std::uint64_t addr = rng.below(4);
    machine.set_input("I", addr);
    sim.set_input("I", addr);
    machine.eval();
    sim.eval();
    // The read port now shows the old word; poke it, then edge at once.
    const rtl::LVec word = rtl::LVec::from_uint(rng.below(256), 8);
    machine.poke_mem(0, addr, 0, word);
    sim.poke_mem(0, addr, word);
    machine.edge("K", rtl::Edge::kPos);
    sim.edge("K", rtl::Edge::kPos);
    expect_lane0_matches(m, machine, sim, t);
    machine.edge("K", rtl::Edge::kNeg);
    sim.edge("K", rtl::Edge::kNeg);
  }
}

TEST(CsimTranspose, MovesBitJOfRowIToBitIOfRowJAndIsAnInvolution) {
  util::Rng rng(kSeed);
  for (int round = 0; round < 32; ++round) {
    std::uint64_t in[64];
    for (std::uint64_t& row : in) row = rng.next_u64();
    std::uint64_t out[64];
    std::copy(in, in + 64, out);
    transpose64(out);
    for (int r = 0; r < 64; ++r) {
      for (int c = 0; c < 64; ++c) {
        ASSERT_EQ((out[c] >> r) & 1, (in[r] >> c) & 1)
            << "row " << r << " column " << c << " (round " << round << ")";
      }
    }
    transpose64(out);
    EXPECT_TRUE(std::equal(in, in + 64, out)) << "round " << round;
  }
}

}  // namespace
}  // namespace la1::csim
