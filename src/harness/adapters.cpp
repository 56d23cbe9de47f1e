#include "harness/adapters.hpp"

#include <stdexcept>

#include "la1/spec.hpp"

namespace la1::harness {

namespace {

Geometry asm_geometry(const core::AsmConfig& cfg, int data_bits) {
  Geometry g;
  g.banks = cfg.banks;
  g.mem_addr_bits = cfg.mem_addr_bits;
  g.data_bits = data_bits;
  return g;
}

Geometry behavioural_geometry(const core::Config& cfg) {
  Geometry g;
  g.banks = cfg.banks;
  g.mem_addr_bits = cfg.mem_addr_bits();
  g.data_bits = cfg.data_bits;
  return g;
}

Geometry rtl_geometry(const core::RtlConfig& cfg) {
  Geometry g;
  g.banks = cfg.banks;
  g.mem_addr_bits = cfg.mem_addr_bits;
  g.data_bits = cfg.data_bits;
  return g;
}

std::vector<std::string> bank_write_taps(int banks) {
  std::vector<std::string> names;
  for (int b = 0; b < banks; ++b) {
    const std::string p = "b" + std::to_string(b) + ".";
    names.push_back(p + "write_start");
    names.push_back(p + "addr_captured");
    names.push_back(p + "write_commit");
  }
  return names;
}

std::vector<std::string> concat_names(std::vector<std::string> a,
                                      const std::vector<std::string>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

}  // namespace

// --- AsmDeviceModel -----------------------------------------------------

AsmDeviceModel::AsmDeviceModel(const core::AsmConfig& cfg, int data_bits)
    : DeviceModel("asm", asm_geometry(cfg, data_bits)),
      cfg_(cfg),
      machine_(core::build_asm_model(cfg)) {
  if (cfg.data_values > (1 << data_bits)) {
    throw std::invalid_argument(
        "AsmDeviceModel: data_values exceeds the canonical beat width");
  }
  tap_names_ = concat_names(bank_read_taps(cfg.banks), device_taps());
  do_reset();
}

void AsmDeviceModel::do_reset() {
  state_ = machine_.initial();
  state_ = machine_.fire(machine_.rule("SystemStart"), {}, state_);
  state_ = machine_.fire(machine_.rule("SimManager_Init"), {}, state_);
}

void AsmDeviceModel::apply_edge(const EdgePins& pins) {
  if (pins.edge == Edge::kK) {
    state_ = machine_.fire(
        machine_.rule("TickK"),
        {asml::Value(!pins.r_sel_n), asml::Value(static_cast<int>(pins.addr)),
         asml::Value(!pins.w_sel_n),
         asml::Value(static_cast<int>(pins.din_data))},
        state_);
  } else {
    state_ = machine_.fire(machine_.rule("TickKs"),
                           {asml::Value(static_cast<int>(pins.addr)),
                            asml::Value(static_cast<int>(pins.din_data))},
                           state_);
  }
}

bool AsmDeviceModel::tap(const std::string& name) const {
  return state_.get_bool(name);
}

std::uint64_t AsmDeviceModel::memory_word(int bank, std::uint64_t addr) const {
  const std::int64_t w = state_.get_int("b" + std::to_string(bank) + ".mem" +
                                        std::to_string(addr));
  // The ASM packs (beat0, beat1) at the data-domain radix; re-pack at the
  // canonical beat width.
  const std::int64_t dv = cfg_.data_values;
  const std::uint64_t beat0 = static_cast<std::uint64_t>(w % dv);
  const std::uint64_t beat1 = static_cast<std::uint64_t>(w / dv);
  return beat0 | (beat1 << geometry().data_bits);
}

// --- BehavioralDeviceModel ----------------------------------------------

BehavioralDeviceModel::BehavioralDeviceModel(const core::Config& cfg)
    : DeviceModel("behavioural", behavioural_geometry(cfg)), cfg_(cfg) {
  tap_names_ = concat_names(
      concat_names(bank_read_taps(cfg.banks), bank_write_taps(cfg.banks)),
      device_taps());
  do_reset();
}

void BehavioralDeviceModel::do_reset() {
  harness_ = std::make_unique<core::KernelHarness>(cfg_);
  harness_->set_external_drive(true);
}

void BehavioralDeviceModel::apply_edge(const EdgePins& pins) {
  if ((harness_->ticks_done() % 2 == 0) != (pins.edge == Edge::kK)) {
    throw std::logic_error("BehavioralDeviceModel: edge out of phase");
  }
  core::Pins& p = harness_->pins();
  p.r_sel_n.write(pins.r_sel_n);
  p.w_sel_n.write(pins.w_sel_n);
  p.addr.write(static_cast<std::uint32_t>(pins.addr));
  p.din.write(core::pack_beat(pins.din_data, cfg_.data_bits));
  p.bwe_n.write(pins.bwe_n);
  harness_->run_ticks(1);
}

bool BehavioralDeviceModel::tap(const std::string& name) const {
  return harness_->env().sample(name);
}

DoutSample BehavioralDeviceModel::dout() const {
  DoutSample s;
  s.valid = harness_->env().sample("dout_valid");
  if (s.valid) {
    s.defined = true;
    s.beat = harness_->pins().dout.read();
  }
  return s;
}

std::uint64_t BehavioralDeviceModel::memory_word(int bank,
                                                 std::uint64_t addr) const {
  return harness_->device().bank(bank).memory().read(addr);
}

// --- RtlDeviceModel -----------------------------------------------------

RtlDeviceModel::RtlDeviceModel(
    const core::RtlConfig& cfg, RtlBackend backend,
    const std::function<void(rtl::Module&)>& instrument)
    : DeviceModel(backend == RtlBackend::kCompiled ? "csim" : "rtl",
                  rtl_geometry(cfg)),
      cfg_(cfg),
      flat_(core::build_device(cfg).flatten()) {
  if (cfg.data_bits % 8 != 0) {
    throw std::invalid_argument(
        "RtlDeviceModel: harness co-execution needs byte-multiple beats");
  }
  if (instrument) instrument(flat_);
  if (backend == RtlBackend::kCompiled) {
    compiled_ = std::make_unique<csim::Compiled>(
        csim::compile(flat_, core::clock_schedule(flat_)));
    machine_ = std::make_unique<csim::Machine>(*compiled_, 64);
  }

  for (int b = 0; b < cfg.banks; ++b) {
    const std::string p = "bank" + std::to_string(b) + ".";
    BankNets n;
    n.read_start = flat_.find_net(p + "read_start_q");
    n.fetch = flat_.find_net(p + "fetch_q");
    n.dout_valid_k = flat_.find_net(p + "dout_valid_k_q");
    n.dout_valid_ks = flat_.find_net(p + "dout_valid_ks_q");
    n.write_start = flat_.find_net(p + "write_start_q");
    n.addr_captured = flat_.find_net(p + "addr_captured_q");
    n.write_commit = flat_.find_net(p + "write_commit_q");
    bank_nets_.push_back(n);

    rtl::MemId mem = rtl::kInvalidId;
    for (std::size_t i = 0; i < flat_.memories().size(); ++i) {
      if (flat_.memories()[i].name == p + "sram") {
        mem = static_cast<rtl::MemId>(i);
        break;
      }
    }
    if (mem == rtl::kInvalidId) {
      throw std::logic_error("RtlDeviceModel: missing " + p + "sram");
    }
    bank_mems_.push_back(mem);
  }
  dout_net_ = flat_.find_net("DOUT");

  for (int b = 0; b < cfg.banks; ++b) {
    const std::string p = "b" + std::to_string(b) + ".";
    const BankNets& n = bank_nets_[static_cast<std::size_t>(b)];
    taps_[p + "read_start"] = [this, &n] { return net_is_one(n.read_start); };
    taps_[p + "fetch"] = [this, &n] { return net_is_one(n.fetch); };
    taps_[p + "dout_valid_k"] = [this, &n] {
      return net_is_one(n.dout_valid_k);
    };
    taps_[p + "dout_valid_ks"] = [this, &n] {
      return net_is_one(n.dout_valid_ks);
    };
    taps_[p + "write_start"] = [this, &n] { return net_is_one(n.write_start); };
    taps_[p + "addr_captured"] = [this, &n] {
      return net_is_one(n.addr_captured);
    };
    taps_[p + "write_commit"] = [this, &n] {
      return net_is_one(n.write_commit);
    };
  }
  auto any_of = [this](rtl::NetId BankNets::*field) {
    for (const BankNets& n : bank_nets_) {
      if (net_is_one(n.*field)) return true;
    }
    return false;
  };
  taps_["write_start"] = [any_of] { return any_of(&BankNets::write_start); };
  taps_["addr_captured"] = [any_of] {
    return any_of(&BankNets::addr_captured);
  };
  taps_["write_commit"] = [any_of] { return any_of(&BankNets::write_commit); };
  taps_["bus_conflict"] = [this] {
    return machine_ ? machine_->bus_conflict(dout_net_, 0)
                    : sim_->enabled_drivers(dout_net_) >= 2;
  };

  tap_names_ = concat_names(
      concat_names(bank_read_taps(cfg.banks), bank_write_taps(cfg.banks)),
      device_taps());
  do_reset();
}

void RtlDeviceModel::do_reset() {
  if (machine_) {
    machine_->reset();
  } else {
    sim_ = std::make_unique<rtl::CycleSim>(flat_);
  }
}

bool RtlDeviceModel::net_is_one(rtl::NetId net) const {
  return (machine_ ? machine_->get(net, 0).bit(0) : sim_->get(net).bit(0)) ==
         rtl::Logic::k1;
}

bool RtlDeviceModel::any_dout_valid() const {
  for (const BankNets& n : bank_nets_) {
    if (net_is_one(n.dout_valid_k) || net_is_one(n.dout_valid_ks)) return true;
  }
  return false;
}

void RtlDeviceModel::apply_edge(const EdgePins& pins) {
  const auto drive = [&](auto& sim) {
    sim.set_input_bit("R_n", pins.r_sel_n);
    sim.set_input_bit("W_n", pins.w_sel_n);
    sim.set_input("A", pins.addr);
    sim.set_input("D", core::pack_beat(pins.din_data, cfg_.data_bits));
    sim.set_input("BWE_n", pins.bwe_n);
    sim.edge(pins.edge == Edge::kK ? "K" : "KS", rtl::Edge::kPos);
  };
  if (machine_) {
    drive(*machine_);
  } else {
    drive(*sim_);
  }
}

bool RtlDeviceModel::tap(const std::string& name) const {
  auto it = taps_.find(name);
  if (it == taps_.end()) {
    throw std::invalid_argument("RtlDeviceModel: unknown tap: " + name);
  }
  return it->second();
}

DoutSample RtlDeviceModel::dout() const {
  DoutSample s;
  s.valid = any_dout_valid();
  if (s.valid) {
    const auto beat = machine_ ? machine_->get(dout_net_, 0).to_uint()
                               : sim_->get(dout_net_).to_uint();
    s.defined = beat.has_value();
    s.beat = beat.value_or(0);
  }
  return s;
}

std::uint64_t RtlDeviceModel::memory_word(int bank, std::uint64_t addr) const {
  const rtl::MemId mem = bank_mems_[static_cast<std::size_t>(bank)];
  const auto word = machine_ ? machine_->mem_word(mem, addr, 0).to_uint()
                             : sim_->mem_word(mem, addr).to_uint();
  return word.value_or(~0ull);  // X never equals a defined reference word
}

// --- backend selection --------------------------------------------------

const char* to_string(RtlBackend b) {
  return b == RtlBackend::kCompiled ? "compiled" : "interpreted";
}

RtlBackend rtl_backend_from_string(const std::string& s) {
  if (s == "interpreted") return RtlBackend::kInterpreted;
  if (s == "compiled") return RtlBackend::kCompiled;
  throw std::invalid_argument("unknown RTL backend: " + s);
}

RtlDevice make_rtl_device(const core::RtlConfig& cfg, RtlBackend backend,
                          const std::function<void(rtl::Module&)>& instrument) {
  auto model = std::make_unique<RtlDeviceModel>(cfg, backend, instrument);
  const RtlDeviceModel* raw = model.get();
  return {std::move(model),
          [raw](rtl::NetId net) { return raw->net_is_one(net); }};
}

}  // namespace la1::harness
