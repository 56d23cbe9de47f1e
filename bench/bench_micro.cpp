// Micro-benchmarks of the substrate layers (google-benchmark): kernel
// delta-cycle throughput, RTL cycle simulation (interpreted and compiled),
// BDD operations, PSL monitor stepping, ASM rule firing. These give the
// per-operation costs behind the table-level results.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "asml/machine.hpp"
#include "bdd/bdd.hpp"
#include "harness/adapters.hpp"
#include "harness/stimulus.hpp"
#include "la1/asm_model.hpp"
#include "la1/behavioral.hpp"
#include "la1/host_bfm.hpp"
#include "la1/rtl_model.hpp"
#include "psl/monitor.hpp"
#include "psl/parse.hpp"
#include "rtl/sim.hpp"
#include "util/rng.hpp"

namespace {

using namespace la1;

void BM_KernelSignalToggle(benchmark::State& state) {
  sim::Kernel kernel;
  sim::Signal<int> sig(kernel, "s", 0);
  int hits = 0;
  auto& proc = kernel.create_process("p", [&] { ++hits; });
  proc.dont_initialize();
  sig.changed_event().subscribe(proc);
  int v = 0;
  sim::Time t = 0;
  for (auto _ : state) {
    sig.write(++v);
    kernel.run(++t);
  }
  benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_KernelSignalToggle);

void BM_BehavioralTick(benchmark::State& state) {
  core::Config cfg;
  cfg.banks = static_cast<int>(state.range(0));
  cfg.addr_bits = 8;
  core::KernelHarness h(cfg);
  util::Rng rng(3);
  h.host().push_random(rng, 1 << 20);
  for (auto _ : state) h.run_ticks(1);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BehavioralTick)->Arg(1)->Arg(4)->Arg(8);

void BM_RtlEdge(benchmark::State& state) {
  core::RtlConfig cfg;
  cfg.banks = static_cast<int>(state.range(0));
  cfg.data_bits = 16;
  cfg.mem_addr_bits = 4;
  core::RtlDevice dev = core::build_device(cfg);
  const rtl::Module flat = dev.flatten();
  rtl::CycleSim sim(flat);
  sim.set_input_bit("R_n", false);
  sim.set_input_bit("W_n", true);
  sim.set_input("A", 1);
  sim.set_input("D", 0);
  sim.set_input("BWE_n", (1u << cfg.lanes()) - 1);
  int tick = 0;
  for (auto _ : state) {
    sim.edge(tick % 2 == 0 ? "K" : "KS", rtl::Edge::kPos);
    ++tick;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RtlEdge)->Arg(1)->Arg(4)->Arg(8);

/// Pre-drawn pins of `lanes` seeded random streams, tick-major
/// (pins[tick * lanes + lane]); `ticks` is even, so replaying the table
/// cyclically keeps K and KS alternating.
std::vector<harness::EdgePins> edge_pins(const harness::Geometry& g,
                                         int lanes, int ticks) {
  harness::StimulusOptions so;
  so.banks = g.banks;
  so.mem_addr_bits = g.mem_addr_bits;
  so.data_bits = g.data_bits;
  std::vector<harness::EdgePins> pins(static_cast<std::size_t>(ticks * lanes));
  for (int lane = 0; lane < lanes; ++lane) {
    harness::StimulusStream stream(so, 7 + static_cast<std::uint64_t>(lane));
    harness::Transactor tx(g);
    for (int t = 0; t < ticks; ++t) {
      const harness::Edge edge = harness::edge_of_tick(t);
      if (edge == harness::Edge::kK) tx.enqueue(stream.next());
      pins[static_cast<std::size_t>(t * lanes + lane)] = tx.next(edge);
    }
  }
  return pins;
}

/// One tick of the compiled backend, random traffic in every lane: at 1
/// lane the one-stream RtlDeviceModel's apply_edge, at 64 lanes a
/// CsimDeviceModel driven lane by lane, then one machine edge. Items are
/// stream-edges, so the two lane counts compare per stream.
void BM_CsimEdge(benchmark::State& state) {
  constexpr int kTicks = 512;
  core::RtlConfig cfg;
  cfg.banks = static_cast<int>(state.range(0));
  cfg.data_bits = 16;
  cfg.mem_addr_bits = 4;
  const int lanes = static_cast<int>(state.range(1));
  std::unique_ptr<harness::RtlDeviceModel> model;
  if (lanes == 1) {
    model = std::make_unique<harness::RtlDeviceModel>(
        cfg, harness::RtlBackend::kCompiled);
  } else {
    model = std::make_unique<harness::CsimDeviceModel>(cfg);
  }
  const std::vector<harness::EdgePins> pins =
      edge_pins(model->geometry(), lanes, kTicks);
  csim::Machine& machine = model->machine();
  const rtl::Module& flat = model->flat();
  const rtl::NetId r_n = flat.find_net("R_n");
  const rtl::NetId w_n = flat.find_net("W_n");
  const rtl::NetId a = flat.find_net("A");
  const rtl::NetId d = flat.find_net("D");
  const rtl::NetId bwe_n = flat.find_net("BWE_n");
  const rtl::NetId k = flat.find_net("K");
  const rtl::NetId ks = flat.find_net("KS");
  int tick = 0;
  for (auto _ : state) {
    const harness::EdgePins* row =
        &pins[static_cast<std::size_t>(tick * lanes)];
    if (lanes == 1) {
      model->apply_edge(*row);
    } else {
      for (int lane = 0; lane < lanes; ++lane) {
        const harness::EdgePins& p = row[lane];
        machine.set_input_lane_uint(r_n, lane, p.r_sel_n ? 1 : 0);
        machine.set_input_lane_uint(w_n, lane, p.w_sel_n ? 1 : 0);
        machine.set_input_lane_uint(a, lane, p.addr);
        machine.set_input_lane_uint(d, lane,
                                    core::pack_beat(p.din_data, cfg.data_bits));
        machine.set_input_lane_uint(bwe_n, lane, p.bwe_n);
      }
      machine.edge(row->edge == harness::Edge::kK ? k : ks, rtl::Edge::kPos);
    }
    tick = (tick + 1) % kTicks;
  }
  state.SetItemsProcessed(state.iterations() * lanes);
}
BENCHMARK(BM_CsimEdge)
    ->ArgNames({"banks", "lanes"})
    ->ArgsProduct({{1, 4, 8}, {1, 64}});

void BM_BddIte(benchmark::State& state) {
  // ITE of moderate, linear-sized functions (XOR chains): measures the
  // descent + computed-table path without the exponential blowup random
  // compositions would cause.
  bdd::Manager m(32);
  bdd::NodeId f = bdd::kFalse;
  bdd::NodeId g = bdd::kFalse;
  for (int v = 0; v < 32; v += 2) f = m.apply_xor(f, m.var(v));
  for (int v = 1; v < 32; v += 2) g = m.apply_xor(g, m.var(v));
  int i = 0;
  for (auto _ : state) {
    bdd::NodeId r = m.ite(m.var(i), f, g);
    benchmark::DoNotOptimize(r);
    i = (i + 1) % 32;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BddIte);

void BM_MonitorStep(benchmark::State& state) {
  const auto prop =
      psl::parse_property("always (a -> next[4] b)");
  auto monitor = psl::compile(prop);
  monitor->reset();
  psl::MapEnv env;
  util::Rng rng(5);
  for (auto _ : state) {
    env.set("a", rng.next_bool());
    env.set("b", true);
    monitor->step(env);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MonitorStep);

void BM_AsmRuleFire(benchmark::State& state) {
  core::AsmConfig cfg;
  cfg.banks = static_cast<int>(state.range(0));
  const asml::Machine machine = core::build_asm_model(cfg);
  asml::State s = machine.initial();
  s = machine.fire(machine.rule("SystemStart"), {}, s);
  s = machine.fire(machine.rule("SimManager_Init"), {}, s);
  util::Rng rng(1);
  int phase = 0;
  for (auto _ : state) {
    if (phase == 0) {
      const asml::Args args{
          asml::Value(rng.next_bool()),
          asml::Value(static_cast<int>(
              rng.below(static_cast<std::uint64_t>(cfg.addr_space())))),
          asml::Value(rng.next_bool()),
          asml::Value(static_cast<int>(
              rng.below(static_cast<std::uint64_t>(cfg.data_values))))};
      s = machine.fire(machine.rule("TickK"), args, s);
    } else {
      const asml::Args args{
          asml::Value(static_cast<int>(
              rng.below(static_cast<std::uint64_t>(cfg.addr_space())))),
          asml::Value(static_cast<int>(
              rng.below(static_cast<std::uint64_t>(cfg.data_values))))};
      s = machine.fire(machine.rule("TickKs"), args, s);
    }
    phase ^= 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AsmRuleFire)->Arg(1)->Arg(4);

}  // namespace
