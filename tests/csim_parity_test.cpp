// Differential lockstep proof of the compiled backend: on random netlists
// spanning everything the compiler lowers — multi-bit cones, X-reset
// registers, tristate buses, arithmetic, slices/concats, memories with
// byte-enabled write ports — a 64-lane csim::Machine must match 64 fresh
// rtl::CycleSim replays bit-for-bit at every observation point: every net,
// every memory word, the tristate conflict tap, after the reset settle and
// after every clock edge. The x-safety plan rides along: any bit the plan
// calls x-transient must read two-state in every lane once its proven
// settle depth has passed.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "csim/compile.hpp"
#include "csim/machine.hpp"
#include "plan/plan.hpp"
#include "proptest.hpp"
#include "random_netlist.hpp"
#include "rtl/netlist.hpp"
#include "rtl/sim.hpp"
#include "util/rng.hpp"

namespace la1::csim {
namespace {

constexpr int kLanes = 64;
constexpr int kCycles = 8;

using randnet::ddr_schedule;
using randnet::random_netlist;
using randnet::RandomNetlist;

/// All 64 interpreter replays and the one compiled machine, advanced and
/// compared together.
struct Lockstep {
  const RandomNetlist* t;
  const plan::CompilePlan* plan;
  Machine* machine;
  std::vector<rtl::CycleSim>* sims;  // one per lane
  std::vector<util::Rng>* streams;   // one stimulus stream per lane

  bool drive_inputs() {
    for (int lane = 0; lane < kLanes; ++lane) {
      util::Rng& rng = (*streams)[static_cast<std::size_t>(lane)];
      for (rtl::NetId in : t->inputs) {
        const rtl::LVec v = randnet::random_value(rng, t->module.net(in).width);
        (*sims)[static_cast<std::size_t>(lane)].set_input(in, v);
        machine->set_input_lane(in, lane, v);
      }
    }
    return true;
  }

  bool agree(int cycle) {
    const rtl::Module& m = t->module;
    for (int lane = 0; lane < kLanes; ++lane) {
      const rtl::CycleSim& sim = (*sims)[static_cast<std::size_t>(lane)];
      for (rtl::NetId net = 0; net < m.net_count(); ++net) {
        const rtl::LVec expect = sim.get(net);
        const rtl::LVec got = machine->get(net, lane);
        for (int b = 0; b < expect.width(); ++b) {
          if (expect.bit(b) != got.bit(b)) return false;
          // The plan's settle promise, checked against the compiled run:
          // x-transient bits are two-state once their net's proven depth
          // has passed (NetSafetySummary keeps the per-net worst depth).
          const auto& summary = plan->nets[static_cast<std::size_t>(net)];
          if (summary.classes[static_cast<std::size_t>(b)] == 'T' &&
              cycle >= summary.settle &&
              (got.bit(b) == rtl::Logic::kX || got.bit(b) == rtl::Logic::kZ)) {
            return false;
          }
        }
        if (machine->bus_conflict(net, lane) !=
            (sim.enabled_drivers(net) >= 2)) {
          return false;
        }
      }
      if (t->mem != rtl::kInvalidId) {
        for (std::uint64_t a = 0; a < 4; ++a) {
          const rtl::LVec expect = sim.mem_word(t->mem, a);
          const rtl::LVec got = machine->mem_word(t->mem, a, lane);
          for (int b = 0; b < expect.width(); ++b) {
            if (expect.bit(b) != got.bit(b)) return false;
          }
        }
      }
    }
    return true;
  }
};

bool compiled_matches_interpreter(const RandomNetlist& t) {
  const rtl::Module& m = t.module;
  const std::vector<rtl::ClockStep> schedule = ddr_schedule(m);
  plan::PlanOptions popt;
  popt.schedule = schedule;
  const plan::CompilePlan plan = plan::analyze(m, popt);
  const Compiled compiled = compile(m, plan);
  Machine machine(compiled, kLanes);

  std::vector<rtl::CycleSim> sims;
  std::vector<util::Rng> streams;
  for (int lane = 0; lane < kLanes; ++lane) {
    sims.emplace_back(m);
    streams.push_back(randnet::lane_stream(t, lane));
  }
  Lockstep ls{&t, &plan, &machine, &sims, &streams};

  ls.drive_inputs();
  for (auto& sim : sims) sim.set_input_bit("K", false);
  machine.set_input_bit("K", false);
  for (auto& sim : sims) sim.eval();
  machine.eval();
  if (!ls.agree(0)) return false;

  for (int cycle = 1; cycle <= kCycles; ++cycle) {
    ls.drive_inputs();
    for (const rtl::ClockStep& s : schedule) {
      for (auto& sim : sims) sim.edge(s.clock, s.edge);
      machine.edge(s.clock, s.edge);
      if (!ls.agree(cycle)) return false;
    }
  }
  return true;
}

TEST(CsimParity, SixtyFourLanesMatchFreshCycleSims) {
  const auto result = proptest::check<RandomNetlist>(
      /*seed=*/20260808, /*cases=*/200,
      [](util::Rng& rng) { return random_netlist(rng); },
      [](const RandomNetlist& t) { return compiled_matches_interpreter(t); });
  EXPECT_TRUE(result.ok) << "case " << result.failing_case
                         << " diverged from CycleSim (seed " << result.seed
                         << ")";
  EXPECT_EQ(result.cases_run, 200);
}

// The >64-bit ripple path: value bits above 63 are dropped by vec_add's
// uint64 arithmetic, and the compiled adder must reproduce exactly that.
TEST(CsimParity, WideAddTruncatesLikeInterpreter) {
  rtl::Module m("wide");
  const rtl::NetId k = m.input("K", 1);
  const rtl::NetId a = m.input("A", 66);
  const rtl::NetId b = m.input("B", 66);
  const rtl::NetId s = m.reg("S", 66, std::uint64_t{0});
  const rtl::ProcId p = m.process("on_k", k, rtl::Edge::kPos);
  m.nonblocking(p, s, m.add(m.ref(a), m.ref(b)));
  m.assign(m.wire("D", 66), m.sub(m.ref(s), m.ref(b)));

  const Compiled compiled = compile(m, plan::default_schedule(m));
  Machine machine(compiled, 1);
  rtl::CycleSim sim(m);
  util::Rng rng(7);
  for (int round = 0; round < 16; ++round) {
    for (rtl::NetId in : {a, b}) {
      rtl::LVec v = rtl::LVec::zeros(66);
      for (int i = 0; i < 66; ++i) {
        v.set_bit(i, rng.next_bool() ? rtl::Logic::k1 : rtl::Logic::k0);
      }
      sim.set_input(in, v);
      machine.set_input(in, v);
    }
    sim.set_input_bit("K", false);
    machine.set_input_bit("K", false);
    sim.edge(k, rtl::Edge::kPos);
    machine.edge(k, rtl::Edge::kPos);
    for (rtl::NetId net = 0; net < m.net_count(); ++net) {
      const rtl::LVec expect = sim.get(net);
      const rtl::LVec got = machine.get(net, 0);
      for (int i = 0; i < expect.width(); ++i) {
        ASSERT_EQ(expect.bit(i), got.bit(i))
            << m.net(net).name << " bit " << i << " round " << round;
      }
    }
  }
}

TEST(CsimParity, MismatchedPlanThrows) {
  rtl::Module m("a");
  m.input("K", 1);
  const rtl::NetId r = m.reg("R", 2, std::uint64_t{0});
  const rtl::ProcId p = m.process("on_k", m.find_net("K"), rtl::Edge::kPos);
  m.nonblocking(p, r, m.op_not(m.ref(r)));

  rtl::Module other("b");
  other.input("K", 1);
  const rtl::NetId r2 = other.reg("R", 3, std::uint64_t{0});
  const rtl::ProcId p2 =
      other.process("on_k", other.find_net("K"), rtl::Edge::kPos);
  other.nonblocking(p2, r2, other.op_not(other.ref(r2)));

  const plan::CompilePlan wrong = plan::analyze(other);
  EXPECT_THROW(compile(m, wrong), std::invalid_argument);
}

TEST(CsimParity, XInputOnProvenBitThrows) {
  rtl::Module m("x");
  m.input("K", 1);
  const rtl::NetId i = m.input("I", 1);
  const rtl::NetId r = m.reg("R", 1, std::uint64_t{0});
  const rtl::ProcId p = m.process("on_k", m.find_net("K"), rtl::Edge::kPos);
  m.nonblocking(p, r, m.ref(i));

  const Compiled compiled = compile(m);
  Machine machine(compiled, 1);
  EXPECT_THROW(machine.set_input(i, rtl::LVec::xs(1)), std::invalid_argument);
}

}  // namespace
}  // namespace la1::csim
