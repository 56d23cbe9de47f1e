// DeviceModel adapters for the three executable levels of the flow:
//
//   AsmDeviceModel        — the ASM machine (la1/asm_model.hpp), one rule
//                           firing per clock edge,
//   BehavioralDeviceModel — the kernel-level model (la1/behavioral.hpp)
//                           driven externally, one kernel tick per edge,
//   RtlDeviceModel        — the elaborated RTL netlist (la1/rtl_model.hpp)
//                           in the interpreted or the compiled simulator
//                           (RtlBackend), one edge() per tick.
//
// Each adapter maps the canonical tap names ("b0.read_start", "write_commit",
// "bus_conflict", ...) onto its level's native observables, so the N-way
// lockstep engine can compare any combination of levels directly.
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "csim/compile.hpp"
#include "csim/machine.hpp"
#include "harness/device_model.hpp"
#include "la1/asm_model.hpp"
#include "la1/behavioral.hpp"
#include "la1/rtl_model.hpp"
#include "rtl/sim.hpp"

namespace la1::harness {

/// The ASM machine as a DeviceModel. The machine's data domain
/// (`cfg.data_values`) may be narrower than the canonical beat width;
/// beats outside the domain are a caller error (the StimulusStream's
/// `data_values` option keeps streams inside it).
class AsmDeviceModel : public DeviceModel {
 public:
  /// `data_bits` is the canonical beat width of the co-executed levels;
  /// requires cfg.data_values <= 2^data_bits.
  AsmDeviceModel(const core::AsmConfig& cfg, int data_bits);

  void apply_edge(const EdgePins& pins) override;
  bool tap(const std::string& name) const override;
  std::uint64_t memory_word(int bank, std::uint64_t addr) const override;

  const asml::State& state() const { return state_; }

 protected:
  void do_reset() override;

 private:
  core::AsmConfig cfg_;
  asml::Machine machine_;
  asml::State state_;
};

/// The behavioural (kernel) model as a DeviceModel.
class BehavioralDeviceModel : public DeviceModel {
 public:
  explicit BehavioralDeviceModel(const core::Config& cfg);

  void apply_edge(const EdgePins& pins) override;
  bool tap(const std::string& name) const override;
  DoutSample dout() const override;
  bool models_dout() const override { return true; }
  std::uint64_t memory_word(int bank, std::uint64_t addr) const override;

  core::KernelHarness& kernel_harness() { return *harness_; }
  core::ProbeEnv& env() { return harness_->env(); }

 protected:
  void do_reset() override;

 private:
  core::Config cfg_;
  std::unique_ptr<core::KernelHarness> harness_;
};

/// Which simulator executes the RTL level of a harness run.
enum class RtlBackend { kInterpreted, kCompiled };

const char* to_string(RtlBackend b);
/// Inverse of to_string ("interpreted" / "compiled"); throws
/// std::invalid_argument on anything else.
RtlBackend rtl_backend_from_string(const std::string& s);

/// The elaborated RTL netlist as a DeviceModel, behind either simulator:
/// the interpreted rtl::CycleSim ("rtl"), or the compiled bit-parallel
/// backend of src/csim ("csim") — the module lowered once through
/// csim::compile, every tick running lane 0 of a 64-lane csim::Machine.
/// Taps, dout and memory words decode the same nets on both backends, so
/// the two are observation-interchangeable in lockstep.
class RtlDeviceModel : public DeviceModel {
 public:
  /// `instrument` runs on the flat module before the simulator is built —
  /// the hook OVL monitors (bench_table3) and netlist mutations (the
  /// lockstep mutation tests, fault campaigns) attach through; on the
  /// compiled backend the instrumented structure is part of the bytecode.
  explicit RtlDeviceModel(
      const core::RtlConfig& cfg, RtlBackend backend = RtlBackend::kInterpreted,
      const std::function<void(rtl::Module&)>& instrument = {});

  void apply_edge(const EdgePins& pins) override;
  bool tap(const std::string& name) const override;
  DoutSample dout() const override;
  bool models_dout() const override { return true; }
  std::uint64_t memory_word(int bank, std::uint64_t addr) const override;

  /// Bit 0 of `net` is 1 (lane 0 on the compiled backend).
  bool net_is_one(rtl::NetId net) const;

  /// The compiled machine; only on the kCompiled backend.
  csim::Machine& machine() { return *machine_; }
  const rtl::Module& flat() const { return flat_; }

 protected:
  void do_reset() override;

 private:
  struct BankNets {
    rtl::NetId read_start, fetch, dout_valid_k, dout_valid_ks;
    rtl::NetId write_start, addr_captured, write_commit;
  };

  bool any_dout_valid() const;

  core::RtlConfig cfg_;
  rtl::Module flat_;  // must outlive compiled_ (which borrows it)
  std::unique_ptr<rtl::CycleSim> sim_;        // kInterpreted
  std::unique_ptr<csim::Compiled> compiled_;  // kCompiled
  std::unique_ptr<csim::Machine> machine_;    // kCompiled
  std::vector<BankNets> bank_nets_;
  std::vector<rtl::MemId> bank_mems_;
  rtl::NetId dout_net_ = rtl::kInvalidId;
  // Ordered on purpose: every container on the stimulus/trace path must
  // iterate deterministically so traces are byte-reproducible from seed.
  std::map<std::string, std::function<bool()>> taps_;
};

/// RtlDeviceModel on the compiled backend, under the name the benchmark
/// driver (perfbench/) builds its 64-lane rig with.
class CsimDeviceModel : public RtlDeviceModel {
 public:
  explicit CsimDeviceModel(
      const core::RtlConfig& cfg,
      const std::function<void(rtl::Module&)>& instrument = {})
      : RtlDeviceModel(cfg, RtlBackend::kCompiled, instrument) {}
};

/// One RTL DeviceModel plus a backend-neutral net readback (the hook OVL
/// verdicts are collected through). `net_is_one` borrows `model` — drop
/// both together.
struct RtlDevice {
  std::unique_ptr<DeviceModel> model;
  std::function<bool(rtl::NetId)> net_is_one;
};

/// Builds the stock device at `cfg` behind the selected backend.
RtlDevice make_rtl_device(
    const core::RtlConfig& cfg, RtlBackend backend,
    const std::function<void(rtl::Module&)>& instrument = {});

}  // namespace la1::harness
