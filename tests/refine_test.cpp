#include <gtest/gtest.h>

#include "harness/adapters.hpp"
#include "harness/lockstep.hpp"
#include "harness/stimulus.hpp"
#include "la1/asm_model.hpp"
#include "la1/behavioral.hpp"
#include "la1/rtl_model.hpp"
#include "refine/flow.hpp"

namespace la1::refine {
namespace {

/// The RTL device at a behavioural geometry.
core::RtlConfig rtl_config_of(const core::Config& cfg) {
  core::RtlConfig rcfg;
  rcfg.banks = cfg.banks;
  rcfg.data_bits = cfg.data_bits;
  rcfg.mem_addr_bits = cfg.mem_addr_bits();
  rcfg.read_latency = cfg.read_latency;
  return rcfg;
}

/// Behavioural vs RTL in lockstep on `transactions` seeded transactions.
harness::LockstepReport behavioural_rtl_lockstep(
    harness::BehavioralDeviceModel& beh, const core::Config& cfg,
    std::uint64_t transactions, std::uint64_t seed) {
  harness::RtlDeviceModel rtl(rtl_config_of(cfg));
  harness::StimulusOptions so;
  so.banks = cfg.banks;
  so.mem_addr_bits = cfg.mem_addr_bits();
  so.data_bits = cfg.data_bits;
  harness::StimulusStream stream(so, seed);
  harness::LockstepOptions lo;
  lo.transactions = transactions;
  return harness::run_lockstep({&beh, &rtl}, stream, lo);
}

class ConformanceSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

// The AsmL conformance test: the ASM machine and the kernel-level model
// co-execute 600 edges of stimulus drawn from the ASM rule domains (8-bit
// beats carrying values below data_values, full-word writes).
TEST_P(ConformanceSweep, AsmAndBehavioralAgree) {
  const auto [banks, seed] = GetParam();
  constexpr int kDataBits = 8;
  core::AsmConfig cfg;
  cfg.banks = banks;
  core::Config bcfg;
  bcfg.banks = banks;
  bcfg.data_bits = kDataBits;
  bcfg.addr_bits = cfg.mem_addr_bits + bcfg.bank_bits();
  harness::AsmDeviceModel asm_model(cfg, kDataBits);
  harness::BehavioralDeviceModel beh(bcfg);
  harness::StimulusOptions so;
  so.banks = banks;
  so.mem_addr_bits = cfg.mem_addr_bits;
  so.data_bits = kDataBits;
  so.data_values = static_cast<std::uint64_t>(cfg.data_values);
  so.full_word_writes = true;
  harness::StimulusStream stream(so, seed);
  harness::LockstepOptions lo;
  lo.transactions = 300;
  lo.drain_ticks = 0;
  const harness::LockstepReport r =
      harness::run_lockstep({&asm_model, &beh}, stream, lo);
  EXPECT_TRUE(r.ok) << r.mismatch;
  EXPECT_EQ(r.ticks_run, 600u);
  EXPECT_GT(r.comparisons, 1000u);
}

INSTANTIATE_TEST_SUITE_P(
    BanksAndSeeds, ConformanceSweep,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(1ull, 42ull, 1234ull)));

class LockstepSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(LockstepSweep, BehavioralAndRtlAgree) {
  const auto [banks, seed] = GetParam();
  core::Config cfg;
  cfg.banks = banks;
  cfg.data_bits = 16;
  cfg.addr_bits = 5;
  harness::BehavioralDeviceModel beh(cfg);
  const harness::LockstepReport r =
      behavioural_rtl_lockstep(beh, cfg, 150, seed);
  EXPECT_TRUE(r.ok) << r.mismatch;
  EXPECT_GT(r.reads_issued, 0u);
  EXPECT_GT(r.writes_issued, 0u);
  EXPECT_GT(r.comparisons, 1000u);
}

INSTANTIATE_TEST_SUITE_P(
    BanksAndSeeds, LockstepSweep,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(7ull, 99ull)));

/// The behavioural model with bank 0 dropping the second read beat. The
/// fault is re-injected on every reset, because run_lockstep resets the
/// models (which rebuilds the kernel harness) before the first edge.
class DropBeat1Behavioral : public harness::BehavioralDeviceModel {
 public:
  using BehavioralDeviceModel::BehavioralDeviceModel;

 protected:
  void do_reset() override {
    BehavioralDeviceModel::do_reset();
    kernel_harness().device().bank(0).inject(core::Bank::Fault::kDropBeat1);
  }
};

TEST(Lockstep, DetectsInjectedDivergence) {
  // A behavioural-side fault must surface as a lockstep mismatch: the RTL
  // is the reference here, so the comparison is a genuine equivalence check
  // and not a tautology.
  core::Config cfg;
  cfg.banks = 1;
  cfg.data_bits = 16;
  cfg.addr_bits = 4;
  DropBeat1Behavioral faulty(cfg);
  const harness::LockstepReport r =
      behavioural_rtl_lockstep(faulty, cfg, 100, 3);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.mismatch.empty());

  // The same run on the fault-free model is clean.
  harness::BehavioralDeviceModel clean(cfg);
  const harness::LockstepReport ok =
      behavioural_rtl_lockstep(clean, cfg, 100, 3);
  EXPECT_TRUE(ok.ok) << ok.mismatch;
}

TEST(Flow, EndToEndOneBank) {
  FlowOptions opt;
  opt.banks = 1;
  opt.abv_ticks = 600;
  opt.conformance_steps = 300;
  opt.lockstep_transactions = 60;
  opt.explore_max_states = 20000;
  const FlowReport report = run_flow(opt);
  EXPECT_TRUE(report.ok) << report.render();
  EXPECT_EQ(report.stages.size(), 14u);
  EXPECT_NE(report.verilog.find("module la1_device"), std::string::npos);
  const std::string rendered = report.render();
  EXPECT_NE(rendered.find("MSC spec compilation"), std::string::npos);
  EXPECT_NE(rendered.find("coverage closure"), std::string::npos);
  EXPECT_NE(rendered.find("fault-injection campaign"), std::string::npos);
  EXPECT_NE(rendered.find("RTL static lint"), std::string::npos);
  EXPECT_NE(rendered.find("sequential dataflow analysis"), std::string::npos);
  EXPECT_NE(rendered.find("flow analysis (taint + cones)"), std::string::npos);
  EXPECT_NE(rendered.find("lowering-legality compile plan"), std::string::npos);
  EXPECT_NE(rendered.find("invariants substituted"), std::string::npos);
  EXPECT_NE(rendered.find("Verilog emission"), std::string::npos);
}

}  // namespace
}  // namespace la1::refine
