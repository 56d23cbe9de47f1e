// Byte-identity pins for every consumer of the stock device's RTL: the
// emitted Verilog text, the bit-blasted model-checking graph, the compiled
// csim programs, and the la1check analysis reports. A refactor of the
// shared op semantics (rtl/op.hpp) or of any reader of it must leave each
// of these figures exactly as it is.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "csim/compile.hpp"
#include "la1/rtl_model.hpp"
#include "plan/plan.hpp"
#include "rtl/bitblast.hpp"
#include "rtl/verilog.hpp"
#include "util/strings.hpp"

#ifndef LA1_LA1CHECK
#error "LA1_LA1CHECK must point at the la1check binary"
#endif

namespace la1 {
namespace {

struct BankPins {
  int banks;
  std::uint64_t verilog_fnv;
  std::int64_t csim_instructions;
  int csim_slots;
};

constexpr BankPins kPins[] = {
    {1, 0x3efc087184065d16ull, 357, 415},
    {2, 0x25d75b1cd380e607ull, 1004, 1093},
    {4, 0xea7b7ec4ed70e700ull, 2304, 2454},
};

TEST(RtlPins, VerilogTextOfTheStockDevice) {
  for (const BankPins& pin : kPins) {
    core::RtlConfig cfg;
    cfg.banks = pin.banks;
    const core::RtlDevice dev = core::build_device(cfg);
    EXPECT_EQ(util::fnv1a64(rtl::to_verilog(*dev.top)), pin.verilog_fnv)
        << pin.banks << " bank(s)";
  }
}

TEST(RtlPins, CsimProgramOfTheStockDevice) {
  for (const BankPins& pin : kPins) {
    core::RtlConfig cfg;
    cfg.banks = pin.banks;
    const core::RtlDevice dev = core::build_device(cfg);
    const rtl::Module flat = dev.flatten();
    plan::PlanOptions opt;
    opt.schedule = core::clock_schedule(flat);
    const csim::Compiled compiled =
        csim::compile(flat, plan::analyze(flat, opt));
    EXPECT_EQ(compiled.total_instructions(), pin.csim_instructions)
        << pin.banks << " bank(s)";
    EXPECT_EQ(compiled.slot_count(), pin.csim_slots) << pin.banks << " bank(s)";
  }
}

TEST(RtlPins, CsimCombProgramOfTheStockDeviceReadsOnlyTheClocks) {
  // The settle rule's payoff: no data or control pin feeds the comb
  // program, so driving a tick's pins never forces a pre-edge settle.
  for (const BankPins& pin : kPins) {
    core::RtlConfig cfg;
    cfg.banks = pin.banks;
    const rtl::Module flat = core::build_device(cfg).flatten();
    const csim::Compiled compiled =
        csim::compile(flat, core::clock_schedule(flat));
    int inputs = 0;
    for (rtl::NetId id = 0; id < flat.net_count(); ++id) {
      const rtl::Net& n = flat.net(id);
      if (n.kind != rtl::NetKind::kInput || n.name == "K" || n.name == "KS") {
        continue;
      }
      ++inputs;
      EXPECT_FALSE(compiled.comb_reads(id))
          << n.name << " at " << pin.banks << " bank(s)";
    }
    EXPECT_EQ(inputs, 5) << pin.banks << " bank(s)";  // R_n W_n A D BWE_n
  }
}

TEST(RtlPins, BitGraphOfTheOneBankModelCheckingGeometry) {
  const core::RtlDevice dev =
      core::build_device(core::RtlConfig::model_checking(1));
  const rtl::Module flat = rtl::expand_memories(dev.flatten());
  const rtl::BitBlast bb = rtl::bitblast(flat, core::clock_schedule(flat));
  EXPECT_EQ(bb.graph.size(), 106);
}

/// FNV-1a of `la1check <command> --json -` standard output.
std::uint64_t report_fnv(const std::string& command) {
  const std::string out = testing::TempDir() + "la1_pin_" + command + ".json";
  std::remove(out.c_str());
  const std::string cmd =
      std::string(LA1_LA1CHECK) + " " + command + " --json - > " + out;
  EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
  std::ifstream in(out);
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_FALSE(buf.str().empty()) << cmd;
  return util::fnv1a64(buf.str());
}

TEST(RtlPins, AnalysisReportsOfTheOneBankDevice) {
  EXPECT_EQ(report_fnv("lint"), 0x2f97f86630fa21d1ull);
  EXPECT_EQ(report_fnv("dfa"), 0x40c6dc5723f755baull);
  EXPECT_EQ(report_fnv("flowan"), 0x1ae4209e50d013d4ull);
  EXPECT_EQ(report_fnv("plan"), 0x58f59ee8ffdf0844ull);
}

}  // namespace
}  // namespace la1
