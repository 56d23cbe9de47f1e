// Cross-engine agreement on rtl::Op semantics over random netlists (the
// generator in random_netlist.hpp emits all 17 ops), checked per cycle on
// two-state inputs against rtl::CycleSim, the reference interpreter:
//
//   (a) the bit-blaster's next-state functions, evaluated with
//       BitGraph::eval, reach the same register and memory-word values
//       (memories through expand_memories);
//   (b) every concrete net and memory-word value lies inside the
//       dfa::analyze fixpoint facts;
//   (c) a one-instance wrapper, after elaborate, simulates identically to
//       the flat module it wraps.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dfa/abstract.hpp"
#include "proptest.hpp"
#include "random_netlist.hpp"
#include "rtl/bitblast.hpp"
#include "rtl/netlist.hpp"
#include "rtl/sim.hpp"

namespace la1::rtl {
namespace {

using randnet::RandomNetlist;

constexpr std::uint64_t kSeed = 20261018;
constexpr int kCases = 200;
constexpr int kCycles = 8;

/// Drives one two-state stimulus draw into every simulator in `sims`, by
/// input name (a wrapper keeps the wrapped module's input names).
void drive(const RandomNetlist& t, util::Rng& rng,
           const std::vector<CycleSim*>& sims) {
  for (NetId in : t.inputs) {
    const Net& n = t.module.net(in);
    const LVec v = randnet::random_value(rng, n.width);
    for (CycleSim* sim : sims) {
      sim->set_input(sim->module().find_net(n.name), v);
    }
  }
}

// --- (a) bit-blaster ----------------------------------------------------

struct BlastCounts {
  long compared = 0;  // state bits CycleSim holds at 0/1, each checked
  bool ok = true;
};

/// Register and memory-word bits of `t` against the blasted FSM state.
/// CycleSim's X is unconstrained: on this fragment its only source is a
/// read at an address past the memory's depth, which expand_memories
/// serves from the last word (rtl/elaborate.cpp) — one of the values an X
/// stands for.
void compare_state(const RandomNetlist& t, const CycleSim& sim,
                   const BitBlast& bb, const std::vector<bool>& state,
                   BlastCounts& counts) {
  auto check = [&](const LVec& expect, const std::string& blasted_name) {
    const std::vector<int>& nodes = bb.net_bits.at(blasted_name);
    for (int b = 0; b < expect.width(); ++b) {
      const Logic v = expect.bit(b);
      if (!is_01(v)) continue;
      const int var = bb.graph.node(nodes[static_cast<std::size_t>(b)]).var;
      if (state[static_cast<std::size_t>(var)] != (v == Logic::k1)) {
        counts.ok = false;
      }
      ++counts.compared;
    }
  };
  for (NetId id = 0; id < t.module.net_count(); ++id) {
    if (t.module.net(id).kind != NetKind::kReg) continue;
    check(sim.get(id), t.module.net(id).name);
  }
  if (t.mem != kInvalidId) {
    for (std::uint64_t a = 0; a < 4; ++a) {
      check(sim.mem_word(t.mem, a), "M.w" + std::to_string(a));
    }
  }
}

bool blaster_matches_interpreter(const RandomNetlist& t, BlastCounts& counts) {
  const Module expanded = expand_memories(t.module);
  const std::vector<ClockStep> schedule = randnet::ddr_schedule(expanded);
  const BitBlast bb = bitblast(expanded, schedule);

  std::vector<bool> state(bb.vars.size(), false);
  for (int v : bb.state_vars) {
    const auto i = static_cast<std::size_t>(v);
    state[i] = bb.vars[i].init;
  }
  CycleSim sim(t.module);
  sim.set_input_bit("K", false);
  util::Rng rng = randnet::lane_stream(t, 0);
  std::vector<bool> next(bb.state_vars.size());
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    for (NetId in : t.inputs) {
      const LVec v = randnet::random_value(rng, t.module.net(in).width);
      sim.set_input(in, v);
      const std::vector<int>& nodes = bb.net_bits.at(t.module.net(in).name);
      for (int b = 0; b < v.width(); ++b) {
        const int var = bb.graph.node(nodes[static_cast<std::size_t>(b)]).var;
        state[static_cast<std::size_t>(var)] = v.bit(b) == Logic::k1;
      }
    }
    for (const ClockStep& s : schedule) {
      for (std::size_t i = 0; i < bb.state_vars.size(); ++i) {
        next[i] = bb.graph.eval(bb.next_fn[i], state);
      }
      for (std::size_t i = 0; i < bb.state_vars.size(); ++i) {
        state[static_cast<std::size_t>(bb.state_vars[i])] = next[i];
      }
      sim.edge(s.clock, s.edge);
      compare_state(t, sim, bb, state, counts);
      if (!counts.ok) return false;
    }
  }
  return true;
}

TEST(RtlOpParity, BitBlastNextStateMatchesCycleSim) {
  BlastCounts counts;
  const auto result = proptest::check<RandomNetlist>(
      kSeed, kCases,
      [](util::Rng& rng) { return randnet::random_netlist(rng, false); },
      [&](const RandomNetlist& t) {
        return blaster_matches_interpreter(t, counts);
      });
  EXPECT_TRUE(result.ok) << "case " << result.failing_case
                         << " diverged from CycleSim (seed " << result.seed
                         << ")";
  EXPECT_EQ(result.cases_run, kCases);
  // Sanity: the comparison is not vacuous.
  EXPECT_GT(counts.compared, 10000);
}

// --- (b) dfa fixpoint ---------------------------------------------------

bool inside(const LVec& v, const dfa::AbsVec& facts) {
  for (int b = 0; b < v.width(); ++b) {
    if ((dfa::abs_of(v.bit(b)) & facts[static_cast<std::size_t>(b)]) == 0) {
      return false;
    }
  }
  return true;
}

bool facts_cover_simulation(const RandomNetlist& t) {
  const dfa::Facts facts = dfa::analyze(t.module);
  CycleSim sim(t.module);
  util::Rng rng = randnet::lane_stream(t, 0);
  auto covered = [&] {
    for (NetId id = 0; id < t.module.net_count(); ++id) {
      if (!inside(sim.get(id), facts.nets[static_cast<std::size_t>(id)])) {
        return false;
      }
    }
    if (t.mem == kInvalidId) return true;
    for (std::uint64_t a = 0; a < 4; ++a) {
      if (!inside(sim.mem_word(t.mem, a),
                  facts.mems[static_cast<std::size_t>(t.mem)])) {
        return false;
      }
    }
    return true;
  };
  drive(t, rng, {&sim});
  sim.set_input_bit("K", false);
  sim.eval();
  if (!covered()) return false;
  const std::vector<ClockStep> schedule = randnet::ddr_schedule(t.module);
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    drive(t, rng, {&sim});
    for (const ClockStep& s : schedule) {
      sim.edge(s.clock, s.edge);
      if (!covered()) return false;
    }
  }
  return true;
}

TEST(RtlOpParity, SimulationStaysInsideDfaFacts) {
  const auto result = proptest::check<RandomNetlist>(
      kSeed, kCases,
      [](util::Rng& rng) { return randnet::random_netlist(rng); },
      facts_cover_simulation);
  EXPECT_TRUE(result.ok) << "case " << result.failing_case
                         << " left the dfa facts (seed " << result.seed << ")";
  EXPECT_EQ(result.cases_run, kCases);
}

// --- (c) elaborate --------------------------------------------------------

bool wrapper_matches_flat(const RandomNetlist& t) {
  Module top("wrap");
  std::map<std::string, NetId> bindings;
  for (NetId id = 0; id < t.module.net_count(); ++id) {
    const Net& n = t.module.net(id);
    if (n.kind == NetKind::kInput) {
      bindings[n.name] = top.input(n.name, n.width);
    }
  }
  top.instantiate("u", t.module, bindings);
  const Module flat = elaborate(top);

  CycleSim direct(t.module);
  CycleSim wrapped(flat);
  auto same = [&] {
    for (NetId id = 0; id < t.module.net_count(); ++id) {
      const Net& n = t.module.net(id);
      const std::string name =
          n.kind == NetKind::kInput ? n.name : "u." + n.name;
      const NetId w = flat.find_net(name);
      if (w == kInvalidId || !(direct.get(id) == wrapped.get(w)) ||
          direct.enabled_drivers(id) != wrapped.enabled_drivers(w)) {
        return false;
      }
    }
    if (t.mem == kInvalidId) return true;
    for (std::uint64_t a = 0; a < 4; ++a) {
      if (!(direct.mem_word(t.mem, a) == wrapped.mem_word(0, a))) return false;
    }
    return true;
  };
  util::Rng rng = randnet::lane_stream(t, 0);
  drive(t, rng, {&direct, &wrapped});
  for (CycleSim* sim : {&direct, &wrapped}) {
    sim->set_input_bit("K", false);
    sim->eval();
  }
  if (!same()) return false;
  const std::vector<ClockStep> schedule = randnet::ddr_schedule(t.module);
  const NetId wrapped_k = flat.find_net("K");
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    drive(t, rng, {&direct, &wrapped});
    for (const ClockStep& s : schedule) {
      direct.edge(s.clock, s.edge);
      wrapped.edge(wrapped_k, s.edge);
      if (!same()) return false;
    }
  }
  return true;
}

TEST(RtlOpParity, ElaboratedWrapperMatchesFlatModule) {
  const auto result = proptest::check<RandomNetlist>(
      kSeed, kCases,
      [](util::Rng& rng) { return randnet::random_netlist(rng); },
      wrapper_matches_flat);
  EXPECT_TRUE(result.ok) << "case " << result.failing_case
                         << " diverged after elaborate (seed " << result.seed
                         << ")";
  EXPECT_EQ(result.cases_run, kCases);
}

}  // namespace
}  // namespace la1::rtl
