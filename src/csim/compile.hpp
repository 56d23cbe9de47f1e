// Netlist compiler for the bit-parallel backend (csim/program.hpp).
//
// Consumes an elaborated rtl::Module plus the plan::CompilePlan proved for
// it (src/plan), and emits:
//
//   * one combinational program — the levelized schedule (rtl/schedule.hpp,
//     the same order CycleSim interprets) lowered node by node to word
//     instructions, tristate groups resolved driver by driver with a
//     per-bus conflict word (the `bus_conflict` tap);
//   * one step program per distinct (clock, edge) pair across processes —
//     sample-then-commit nonblocking semantics in straight-line form;
//   * the slot layout: per net bit an aval slot, plus a bval sideband slot
//     only where the plan classifies the bit x-transient or x-live.
//
// The compiled artifact is immutable and shareable: every csim::Machine
// holds its own slot array and memory images, so independent machines can
// run the same program concurrently (the fault campaign's parallel shards).
#pragma once

#include <cstdint>
#include <vector>

#include "csim/program.hpp"
#include "plan/plan.hpp"
#include "rtl/netlist.hpp"
#include "rtl/schedule.hpp"

namespace la1::csim {

/// Slot assignment for one net. `b[i]` is kZeroSlot for plan-proven
/// two-state bits (no sideband allocated). `conflict` is the per-lane
/// multiple-enabled-drivers word of a tristate bus, -1 elsewhere.
struct NetSlots {
  std::vector<std::int32_t> a;
  std::vector<std::int32_t> b;
  std::int32_t conflict = -1;
};

struct MemLayout {
  int depth = 0;
  int width = 0;
};

class Compiled {
 public:
  const rtl::Module& module() const { return *module_; }
  const plan::CompilePlan& plan() const { return plan_; }

  int slot_count() const { return slot_count_; }
  const NetSlots& net_slots(rtl::NetId id) const {
    return nets_.at(static_cast<std::size_t>(id));
  }
  const std::vector<MemLayout>& mems() const { return mems_; }
  const Program& comb() const { return comb_; }
  const std::vector<StepProgram>& steps() const { return steps_; }
  const std::vector<MemReadDesc>& mem_reads() const { return mem_reads_; }
  const std::vector<MemWriteDesc>& mem_writes() const { return mem_writes_; }
  /// Power-on slot image: register inits broadcast across all 64 lanes
  /// (X inits raise the sideband), inputs and wires zero, pinned constants.
  const std::vector<std::uint64_t>& reset_image() const { return reset_image_; }
  /// Whether the comb program reads any slot of `id` (an instruction
  /// source or a memory-read address bit; the pinned slots 0 and 1 do not
  /// count). Driving an input that comb does not read leaves the last
  /// settle exact, so Machine::edge can skip its pre-edge settle.
  bool comb_reads(rtl::NetId id) const {
    return comb_reads_[static_cast<std::size_t>(id)] != 0;
  }

  /// Word instructions across the comb program and all step programs —
  /// the static size the cost model is calibrated against.
  std::int64_t total_instructions() const;

 private:
  friend class Compiler;

  const rtl::Module* module_ = nullptr;
  plan::CompilePlan plan_;
  int slot_count_ = 0;
  std::vector<NetSlots> nets_;
  std::vector<MemLayout> mems_;
  Program comb_;
  std::vector<StepProgram> steps_;
  std::vector<MemReadDesc> mem_reads_;
  std::vector<MemWriteDesc> mem_writes_;
  std::vector<std::uint64_t> reset_image_;
  std::vector<std::uint8_t> comb_reads_;  // per net
};

/// Lowers `flat` under `plan` (which must have been analyzed from this
/// exact module: net order, widths and memory summaries are validated).
/// Throws std::invalid_argument on a hierarchical module, a combinational
/// cycle, or a plan/netlist mismatch. The caller keeps `flat` alive for
/// the lifetime of the Compiled and every Machine built from it.
Compiled compile(const rtl::Module& flat, const plan::CompilePlan& plan);

/// Convenience: runs plan::analyze under `schedule` (empty = the planner's
/// derived default) and compiles against the result.
Compiled compile(const rtl::Module& flat,
                 const std::vector<rtl::ClockStep>& schedule = {});

}  // namespace la1::csim
