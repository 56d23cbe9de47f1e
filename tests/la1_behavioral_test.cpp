#include <gtest/gtest.h>

#include <ostream>

#include "la1/behavioral.hpp"
#include "la1/host_bfm.hpp"
#include "la1/properties.hpp"
#include "psl/monitor.hpp"
#include "util/rng.hpp"

namespace la1::core {
namespace {

Config small_config(int banks) {
  Config cfg;
  cfg.banks = banks;
  cfg.data_bits = 16;
  cfg.addr_bits = 6;
  return cfg;
}

TEST(Behavioral, ReadReturnsWrittenData) {
  KernelHarness h(small_config(1));
  h.host().push({Transaction::Kind::kWrite, 5, 0xCAFE1234, 0xF});
  h.host().push({Transaction::Kind::kRead, 5});
  h.run_ticks(20);
  EXPECT_EQ(h.host().reads_checked(), 1u);
  EXPECT_EQ(h.host().data_mismatches(), 0u);
  EXPECT_EQ(h.host().parity_errors(), 0u);
  EXPECT_EQ(h.device().bank(0).memory().read(5), 0xCAFE1234u);
}

TEST(Behavioral, ReadLatencyIsTwoCycles) {
  KernelHarness h(small_config(1));
  h.host().push({Transaction::Kind::kRead, 0});
  std::vector<int> start_ticks;
  std::vector<int> beat0_ticks;
  h.run_ticks(12, [&](int tick) {
    if (h.device().bank(0).taps().read_start) start_ticks.push_back(tick);
    if (h.device().bank(0).taps().dout_valid_k) beat0_ticks.push_back(tick);
  });
  ASSERT_EQ(start_ticks.size(), 1u);
  ASSERT_EQ(beat0_ticks.size(), 1u);
  EXPECT_EQ(beat0_ticks[0] - start_ticks[0], kReadLatencyTicks);
}

TEST(Behavioral, SecondBeatOnFollowingKs) {
  KernelHarness h(small_config(1));
  h.host().push({Transaction::Kind::kRead, 1});
  int beat0 = -1;
  int beat1 = -1;
  h.run_ticks(12, [&](int tick) {
    if (h.device().bank(0).taps().dout_valid_k) beat0 = tick;
    if (h.device().bank(0).taps().dout_valid_ks) beat1 = tick;
  });
  ASSERT_GE(beat0, 0);
  EXPECT_EQ(beat1, beat0 + 1);
}

TEST(Behavioral, ByteEnablesMergeSelectively) {
  KernelHarness h(small_config(1));
  h.host().push({Transaction::Kind::kWrite, 3, 0xFFFFFFFF, 0xF});
  h.host().push({Transaction::Kind::kWrite, 3, 0x00000000, 0b0010});
  h.run_ticks(16);
  // Only lane 1 (bits 8..15) cleared.
  EXPECT_EQ(h.device().bank(0).memory().read(3), 0xFFFF00FFu);
}

TEST(Behavioral, BankDecodingRoutesWrites) {
  KernelHarness h(small_config(4));
  const Config cfg = h.config();
  // One write per bank region.
  for (int b = 0; b < 4; ++b) {
    h.host().push({Transaction::Kind::kWrite,
                   static_cast<std::uint64_t>(b) << cfg.mem_addr_bits(),
                   0x1000u + static_cast<std::uint64_t>(b), ~0u});
  }
  h.run_ticks(30);
  for (int b = 0; b < 4; ++b) {
    EXPECT_EQ(h.device().bank(b).memory().read(0),
              0x1000u + static_cast<std::uint64_t>(b))
        << "bank " << b;
  }
}

TEST(Behavioral, ConcurrentReadAndWrite) {
  KernelHarness h(small_config(1));
  h.host().push({Transaction::Kind::kWrite, 9, 0x12345678, 0xF});
  // Queue a read right after the write; BFM rides them on adjacent cycles.
  h.host().push({Transaction::Kind::kRead, 9});
  h.host().push({Transaction::Kind::kWrite, 10, 0x9ABCDEF0, 0xF});
  h.host().push({Transaction::Kind::kRead, 10});
  h.run_ticks(40);
  EXPECT_EQ(h.host().reads_checked(), 2u);
  EXPECT_EQ(h.host().data_mismatches(), 0u);
}

class RandomTraffic : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RandomTraffic, ScoreboardStaysClean) {
  const auto [banks, seed] = GetParam();
  KernelHarness h(small_config(banks));
  util::Rng rng(static_cast<std::uint64_t>(seed));
  h.host().push_random(rng, 300);
  psl::VUnitRunner monitors(behavioral_vunit(h.config()));
  h.run_ticks(800, [&](int) { monitors.step(h.env()); });
  EXPECT_EQ(h.host().data_mismatches(), 0u);
  EXPECT_EQ(h.host().parity_errors(), 0u);
  EXPECT_EQ(monitors.failures(), 0u);
  EXPECT_GT(h.host().reads_checked(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    BanksAndSeeds, RandomTraffic,
    ::testing::Combine(::testing::Values(1, 2, 4), ::testing::Values(1, 2, 3)));

TEST(Behavioral, CoverageHitsScenarios) {
  KernelHarness h(small_config(2));
  util::Rng rng(5);
  h.host().push_random(rng, 200);
  psl::VUnit vunit = behavioral_vunit(h.config());
  psl::VUnitRunner monitors(vunit);
  h.run_ticks(600, [&](int) { monitors.step(h.env()); });
  // Covers are the trailing directives; all should have fired with this
  // much traffic.
  for (std::size_t i = 0; i < vunit.directives().size(); ++i) {
    if (vunit.directives()[i].kind != psl::DirectiveKind::kCover) continue;
    EXPECT_GT(monitors.cover_count(i), 0u)
        << "cover " << vunit.directives()[i].name;
  }
}

TEST(Behavioral, ProbeEnvExposesAggregates) {
  KernelHarness h(small_config(2));
  EXPECT_NO_THROW(h.env().sample("bus_conflict"));
  EXPECT_NO_THROW(h.env().sample("dout_parity_ok"));
  EXPECT_NO_THROW(h.env().sample("b1.read_start"));
  EXPECT_THROW(h.env().sample("b7.read_start"), std::invalid_argument);
}

// --- fault injection: the monitors must catch every seeded bug -----------

struct FaultCase {
  Bank::Fault fault;
  const char* expected_property;  // substring of the failing property name
};

// Names each case by its property. gtest's default printout of this struct is
// its raw bytes, pointer included, so the case name changed with every run.
void PrintTo(const FaultCase& fc, std::ostream* os) {
  *os << fc.expected_property;
}

class FaultInjection : public ::testing::TestWithParam<FaultCase> {};

TEST_P(FaultInjection, MonitorsCatchFault) {
  const FaultCase fc = GetParam();
  Config cfg = small_config(2);
  KernelHarness h(cfg);
  h.device().bank(0).inject(fc.fault);
  util::Rng rng(11);
  h.host().push_random(rng, 300);
  psl::VUnit vunit = behavioral_vunit(cfg);
  psl::VUnitRunner monitors(vunit);
  h.run_ticks(800, [&](int) { monitors.step(h.env()); });

  bool expected_failed = false;
  for (std::size_t i = 0; i < vunit.directives().size(); ++i) {
    const auto& d = vunit.directives()[i];
    if (d.kind != psl::DirectiveKind::kAssert) continue;
    if (monitors.verdict(i) == psl::Verdict::kFailed &&
        d.name.find(fc.expected_property) != std::string::npos) {
      expected_failed = true;
    }
  }
  EXPECT_TRUE(expected_failed)
      << "fault not caught by a property matching '" << fc.expected_property
      << "'";
}

INSTANTIATE_TEST_SUITE_P(
    Faults, FaultInjection,
    ::testing::Values(FaultCase{Bank::Fault::kLateBeat0, "P1_read_latency"},
                      FaultCase{Bank::Fault::kDropBeat1, "P2_read_burst"},
                      FaultCase{Bank::Fault::kIgnoreByteEnables, "P6_byte_merge"},
                      FaultCase{Bank::Fault::kBadParity, "P5_parity"}));

TEST(Behavioral, DeselectedDriveFaultRaisesConflict) {
  Config cfg = small_config(2);
  KernelHarness h(cfg);
  h.device().bank(1).inject(Bank::Fault::kDriveWhenDeselected);
  // Reads to bank 0: faulty bank 1 answers them too -> two drivers.
  for (int i = 0; i < 10; ++i) h.host().push({Transaction::Kind::kRead, 1});
  bool conflict_seen = false;
  h.run_ticks(60, [&](int) {
    conflict_seen = conflict_seen || h.env().sample("bus_conflict");
  });
  EXPECT_TRUE(conflict_seen);
}

TEST(Behavioral, SramAccessCountersAdvance) {
  KernelHarness h(small_config(1));
  h.host().push({Transaction::Kind::kWrite, 0, 1, ~0u});
  h.host().push({Transaction::Kind::kRead, 0});
  h.run_ticks(20);
  EXPECT_GE(h.device().bank(0).memory().writes(), 1u);
  EXPECT_GE(h.device().bank(0).memory().reads(), 1u);
}

TEST(Behavioral, MirrorTracksMemory) {
  KernelHarness h(small_config(1));
  util::Rng rng(2);
  h.host().push_random(rng, 100, /*write_fraction=*/1.0);
  h.run_ticks(300);
  for (std::uint64_t a = 0; a < h.config().mem_depth(); ++a) {
    EXPECT_EQ(h.host().mirror(a), h.device().bank(0).memory().read(a))
        << "addr " << a;
  }
}

}  // namespace
}  // namespace la1::core
