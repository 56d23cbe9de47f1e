#include "la1/asm_model.hpp"

#include <memory>

#include "la1/spec.hpp"

namespace la1::core {

namespace {

using asml::Args;
using asml::ArgDomain;
using asml::Rule;
using asml::Slot;
using asml::State;
using asml::UpdateSet;
using asml::Value;

std::string bank_loc(int b, const char* name) {
  std::string loc = "b";
  loc += std::to_string(b);
  loc += '.';
  loc += name;
  return loc;
}

ArgDomain bool_domain(std::string name) {
  return ArgDomain{std::move(name), {Value(false), Value(true)}};
}

ArgDomain int_domain(std::string name, int count) {
  ArgDomain d;
  d.name = std::move(name);
  for (int v = 0; v < count; ++v) d.values.emplace_back(v);
  return d;
}

}  // namespace

asml::Machine build_asm_model(const AsmConfig& cfg) {
  asml::Machine machine("LA1_ASM_" + std::to_string(cfg.banks) + "banks");
  State& init = machine.initial();

  // SimManager (Figure 4).
  init.set("SystemFlag", Value::symbol("CREATED"));
  init.set("SimStatus", Value::symbol("INIT"));
  init.set("m_k", Value::symbol("CLK_DOWN"));
  init.set("m_ks", Value::symbol("CLK_UP"));
  init.set("NextEdge", Value::symbol("K"));

  // Global write port (shared bus; the target bank is known only once the
  // address arrives at K#).
  init.set("wp.b0_taken", Value(false));
  init.set("wp.beat0", Value(0));
  init.set("wp.ready", Value(false));
  init.set("wp.bank", Value(0));
  init.set("wp.addr", Value(0));
  init.set("wp.beat1", Value(0));
  init.set("write_start", Value(false));
  init.set("addr_captured", Value(false));
  init.set("write_commit", Value(false));
  init.set("bus_conflict", Value(false));

  for (int b = 0; b < cfg.banks; ++b) {
    init.set(bank_loc(b, "rp.stage0"), Value(false));
    init.set(bank_loc(b, "rp.addr0"), Value(0));
    init.set(bank_loc(b, "rp.stage1"), Value(false));
    init.set(bank_loc(b, "rp.word"), Value(0));
    init.set(bank_loc(b, "rp.beat1_pending"), Value(false));
    init.set(bank_loc(b, "read_start"), Value(false));
    init.set(bank_loc(b, "fetch"), Value(false));
    init.set(bank_loc(b, "dout_valid_k"), Value(false));
    init.set(bank_loc(b, "dout_valid_ks"), Value(false));
    init.set(bank_loc(b, "driving"), Value(false));
    init.set(bank_loc(b, "dout_spurious"), Value(false));
    for (int w = 0; w < cfg.mem_depth(); ++w) {
      init.set(bank_loc(b, ("mem" + std::to_string(w)).c_str()), Value(0));
    }
  }

  // Every location and enumeration literal the rules touch, resolved once:
  // the rules below read and write by slot and compare interned symbols.
  struct Locations {
    Slot system_flag, sim_status, m_k, m_ks, next_edge;
    Slot wp_b0_taken, wp_beat0, wp_ready, wp_bank, wp_addr, wp_beat1;
    Slot write_start, addr_captured, write_commit, bus_conflict;
    struct Bank {
      Slot rp_stage0, rp_addr0, rp_stage1, rp_word, rp_beat1_pending;
      Slot read_start, fetch, dout_valid_k, dout_valid_ks, driving;
      std::vector<Slot> mem;  // by word address
    };
    std::vector<Bank> banks;
  };
  const auto at = [&machine](const std::string& location) {
    return machine.slot(location);
  };
  auto loc = std::make_shared<Locations>();
  *loc = Locations{at("SystemFlag"),   at("SimStatus"),     at("m_k"),
                   at("m_ks"),         at("NextEdge"),      at("wp.b0_taken"),
                   at("wp.beat0"),     at("wp.ready"),      at("wp.bank"),
                   at("wp.addr"),      at("wp.beat1"),      at("write_start"),
                   at("addr_captured"), at("write_commit"), at("bus_conflict"),
                   {}};
  for (int b = 0; b < cfg.banks; ++b) {
    Locations::Bank bank{at(bank_loc(b, "rp.stage0")),
                         at(bank_loc(b, "rp.addr0")),
                         at(bank_loc(b, "rp.stage1")),
                         at(bank_loc(b, "rp.word")),
                         at(bank_loc(b, "rp.beat1_pending")),
                         at(bank_loc(b, "read_start")),
                         at(bank_loc(b, "fetch")),
                         at(bank_loc(b, "dout_valid_k")),
                         at(bank_loc(b, "dout_valid_ks")),
                         at(bank_loc(b, "driving")),
                         {}};
    for (int w = 0; w < cfg.mem_depth(); ++w) {
      bank.mem.push_back(at(bank_loc(b, ("mem" + std::to_string(w)).c_str())));
    }
    loc->banks.push_back(std::move(bank));
  }
  const Value kCreated = Value::symbol("CREATED");
  const Value kStarted = Value::symbol("STARTED");
  const Value kInit = Value::symbol("INIT");
  const Value kStopped = Value::symbol("STOPPED");
  const Value kChecking = Value::symbol("CHECKING_PROP");
  const Value kClkUp = Value::symbol("CLK_UP");
  const Value kClkDown = Value::symbol("CLK_DOWN");
  const Value kEdgeK = Value::symbol("K");
  const Value kEdgeKs = Value::symbol("KS");

  // --- lifecycle rules --------------------------------------------------
  {
    Rule r;
    r.name = "SystemStart";
    r.require = [loc, kCreated](const State& s, const Args&) {
      return s[loc->system_flag] == kCreated;
    };
    r.update = [loc, kStarted](const State&, const Args&, UpdateSet& u) {
      u.set(loc->system_flag, kStarted);
    };
    machine.add_rule(std::move(r));
  }
  {
    // SimManager_Init (Figure 4): runs once after every module is
    // initialized; raises the clocks and enters property checking.
    Rule r;
    r.name = "SimManager_Init";
    r.require = [loc, kStarted, kInit](const State& s, const Args&) {
      return s[loc->system_flag] == kStarted && s[loc->sim_status] == kInit;
    };
    r.update = [loc, kClkUp, kClkDown, kChecking](const State&, const Args&,
                                                  UpdateSet& u) {
      u.set(loc->m_k, kClkUp);
      u.set(loc->m_ks, kClkDown);
      u.set(loc->sim_status, kChecking);
    };
    machine.add_rule(std::move(r));
  }
  {
    // SimManager_Restart (Figure 4); STOPPED is only entered by external
    // drivers, so the rule is present for fidelity and inert by default.
    Rule r;
    r.name = "SimManager_Restart";
    r.require = [loc, kStarted, kStopped](const State& s, const Args&) {
      return s[loc->system_flag] == kStarted && s[loc->sim_status] == kStopped;
    };
    r.update = [loc, kInit](const State&, const Args&, UpdateSet& u) {
      u.set(loc->sim_status, kInit);
    };
    machine.add_rule(std::move(r));
  }

  // --- rising K ---------------------------------------------------------
  {
    Rule r;
    r.name = "TickK";
    r.params = {bool_domain("read_req"), int_domain("read_addr", cfg.addr_space()),
                bool_domain("write_req"), int_domain("write_data", cfg.data_values)};
    r.require = [loc, kChecking, kEdgeK](const State& s, const Args&) {
      return s[loc->sim_status] == kChecking && s[loc->next_edge] == kEdgeK;
    };
    const AsmConfig c = cfg;
    r.update = [c, loc, kEdgeKs, kClkUp, kClkDown](const State& s, const Args& a,
                                                   UpdateSet& u) {
      const bool read_req = a[0].as_bool();
      const int read_addr = static_cast<int>(a[1].as_int());
      const bool write_req = a[2].as_bool();
      const int write_data = static_cast<int>(a[3].as_int());

      u.set(loc->next_edge, kEdgeKs);
      u.set(loc->m_k, kClkUp);
      u.set(loc->m_ks, kClkDown);

      int drivers = 0;
      for (int b = 0; b < c.banks; ++b) {
        const Locations::Bank& bank = loc->banks[static_cast<std::size_t>(b)];
        // Stage 2: drive the first beat of the fetched word.
        const bool drive = s[bank.rp_stage1].as_bool();
        u.set(bank.dout_valid_k, Value(drive));
        u.set(bank.driving, Value(drive));
        u.set(bank.rp_beat1_pending, Value(drive));
        if (drive) ++drivers;

        // Stage 1: SRAM fetch for last cycle's capture.
        const bool fetch = s[bank.rp_stage0].as_bool();
        u.set(bank.rp_stage1, Value(fetch));
        u.set(bank.fetch, Value(fetch));
        if (fetch) {
          const auto addr = static_cast<std::size_t>(s[bank.rp_addr0].as_int());
          u.set(bank.rp_word, s[bank.mem.at(addr)]);
        }

        // Stage 0: capture a new request.
        const bool sel = read_req && c.bank_of(read_addr) == b;
        u.set(bank.rp_stage0, Value(sel));
        u.set(bank.read_start, Value(sel));
        if (sel) u.set(bank.rp_addr0, Value(c.mem_addr_of(read_addr)));

        // K# taps expire.
        u.set(bank.dout_valid_ks, Value(false));
      }
      u.set(loc->bus_conflict, Value(drivers >= 2));

      // Write port: beat 0 capture at K.
      u.set(loc->write_start, Value(write_req));
      u.set(loc->wp_b0_taken, Value(write_req));
      if (write_req) u.set(loc->wp_beat0, Value(write_data));

      // Commit the write completed at the previous K#.
      const bool ready = s[loc->wp_ready].as_bool();
      u.set(loc->write_commit, Value(ready));
      if (ready) {
        const auto bank = static_cast<std::size_t>(s[loc->wp_bank].as_int());
        const auto addr = static_cast<std::size_t>(s[loc->wp_addr].as_int());
        const int word = static_cast<int>(s[loc->wp_beat0].as_int()) +
                         c.data_values * static_cast<int>(s[loc->wp_beat1].as_int());
        u.set(loc->banks.at(bank).mem.at(addr), Value(word));
        u.set(loc->wp_ready, Value(false));
      }
      u.set(loc->addr_captured, Value(false));
    };
    machine.add_rule(std::move(r));
  }

  // --- rising K# ---------------------------------------------------------
  {
    Rule r;
    r.name = "TickKs";
    r.params = {int_domain("write_addr", cfg.addr_space()),
                int_domain("write_beat1", cfg.data_values)};
    r.require = [loc, kChecking, kEdgeKs](const State& s, const Args&) {
      return s[loc->sim_status] == kChecking && s[loc->next_edge] == kEdgeKs;
    };
    const AsmConfig c = cfg;
    r.update = [c, loc, kEdgeK, kClkUp, kClkDown](const State& s, const Args& a,
                                                  UpdateSet& u) {
      const int write_addr = static_cast<int>(a[0].as_int());
      const int write_beat1 = static_cast<int>(a[1].as_int());

      u.set(loc->next_edge, kEdgeK);
      u.set(loc->m_k, kClkDown);
      u.set(loc->m_ks, kClkUp);

      int drivers = 0;
      for (const Locations::Bank& bank : loc->banks) {
        const bool beat1 = s[bank.rp_beat1_pending].as_bool();
        u.set(bank.dout_valid_ks, Value(beat1));
        u.set(bank.driving, Value(beat1));
        u.set(bank.rp_beat1_pending, Value(false));
        if (beat1) ++drivers;

        // K taps expire.
        u.set(bank.read_start, Value(false));
        u.set(bank.fetch, Value(false));
        u.set(bank.dout_valid_k, Value(false));
      }
      u.set(loc->bus_conflict, Value(drivers >= 2));

      // Write address + high beat at K#.
      const bool b0 = s[loc->wp_b0_taken].as_bool();
      u.set(loc->addr_captured, Value(b0));
      if (b0) {
        u.set(loc->wp_bank, Value(c.bank_of(write_addr)));
        u.set(loc->wp_addr, Value(c.mem_addr_of(write_addr)));
        u.set(loc->wp_beat1, Value(write_beat1));
        u.set(loc->wp_ready, Value(true));
        u.set(loc->wp_b0_taken, Value(false));
      }
      u.set(loc->write_start, Value(false));
      u.set(loc->write_commit, Value(false));
    };
    machine.add_rule(std::move(r));
  }

  return machine;
}

std::vector<std::pair<std::string, psl::PropPtr>> asm_properties(
    const AsmConfig& cfg) {
  using psl::b_sig;
  std::vector<std::pair<std::string, psl::PropPtr>> props;
  for (int b = 0; b < cfg.banks; ++b) {
    const std::string p = "b" + std::to_string(b) + ".";
    props.emplace_back(
        "P1_read_latency_b" + std::to_string(b),
        psl::p_impl_next(b_sig(p + "read_start"), kReadLatencyTicks,
                         b_sig(p + "dout_valid_k")));
    props.emplace_back(
        "P2_read_burst_b" + std::to_string(b),
        psl::p_impl_next(b_sig(p + "dout_valid_k"), 1,
                         b_sig(p + "dout_valid_ks")));
    props.emplace_back("P7_no_spurious_b" + std::to_string(b),
                       psl::p_never(psl::s_bool(b_sig(p + "dout_spurious"))));
  }
  props.emplace_back("P3_write_addr_edge",
                     psl::p_impl_next(b_sig("write_start"), 1,
                                      b_sig("addr_captured")));
  props.emplace_back(
      "P3b_write_commit",
      psl::p_impl_next(b_sig("addr_captured"), 1, b_sig("write_commit")));
  props.emplace_back("P4_exclusive_drive",
                     psl::p_never(psl::s_bool(b_sig("bus_conflict"))));
  return props;
}

}  // namespace la1::core
