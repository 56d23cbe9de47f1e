// abv_batch: simulation-based verification at volume.
//
// Part one is Table 3's ABV streams at 2 and 4 banks: the behavioural
// model with compiled PSL monitors, rtl::CycleSim with OVL monitor logic,
// csim driving one stream, and csim with 64 independent streams (one per
// bit lane). Part two is batch::run_batch on copies of `la1batch example`'s
// spec (its faults, cov-closure, lockstep-soak and mc-sweep jobs with the
// example's parameters) on at most two workers.
//
// psl is stepped linearly here, never cloned per product state; bdd only
// sees the small mc-sweep checks; asml explores nothing.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <thread>

#include "batch/runner.hpp"
#include "bench.hpp"
#include "fault/campaign.hpp"
#include "harness/adapters.hpp"
#include "harness/lockstep.hpp"
#include "harness/stimulus.hpp"
#include "la1/rtl_model.hpp"
#include "la1/spec.hpp"
#include "ovl/ovl.hpp"
#include "psl/monitor.hpp"
#include "psl/parse.hpp"
#include "tgen/closure.hpp"

namespace la1::perfbench {
namespace {

constexpr int kAddrBits = 8;
constexpr int kBehavioralTicks = 400000;  // half-cycles per bank count
constexpr int kRtlTicks = 40000;          // half-cycles per RTL stream
constexpr int kLanes = 64;
constexpr int kBankCounts[] = {2, 4};
// The geometry batch/runner.cpp gives every shard; the layer probes rerun
// shard 0 of each simulation job with it, and check that they reproduce
// the batch's shard-0 counts.
constexpr int kShardDataBits = 8;
constexpr int kShardMemAddrBits = 3;

// Pinned at kDefaultSeed: reads and writes the transactors issued (the
// same at every bank count). CycleSim and one-lane csim share one stimulus;
// the 64-lane counts sum every lane.
struct StreamGolden {
  std::uint64_t reads, writes;
};
constexpr StreamGolden kBehavioralGolden{100253, 99743};
constexpr StreamGolden kRtlGolden{9900, 10039};
constexpr StreamGolden kLanesGolden{639086, 639834};
// The batch: copies of `la1batch example`'s spec (see batch_spec).
constexpr int kSpecCopies = 40;
constexpr std::uint64_t kCopySeedStride = 1000;
// The batch at kDefaultSeed.
constexpr std::uint64_t kBatchHash = 5321336977997781336ull;
constexpr std::int64_t kLockstepComparisons = 1267200;
constexpr int kFaultsCaught = 469;
constexpr std::int64_t kClosureEpochs = 132;
constexpr double kClosureCoverage = 75.446808510638348;

harness::StimulusStream make_stream(int banks, std::uint64_t seed) {
  harness::StimulusOptions so;
  so.banks = banks;
  so.mem_addr_bits = kAddrBits - harness::Geometry{banks, 0, 0}.bank_bits();
  so.data_bits = 16;
  return harness::StimulusStream(so, seed);
}

core::RtlConfig rtl_config(int banks) {
  core::RtlConfig cfg;
  cfg.banks = banks;
  cfg.data_bits = 16;
  cfg.mem_addr_bits = kAddrBits - cfg.bank_bits();
  return cfg;
}

/// Read-mode PSL assertions for the behavioural model (as Table 3).
psl::VUnit read_mode_vunit(int banks) {
  psl::VUnit vunit("read_mode");
  for (int b = 0; b < banks; ++b) {
    const std::string p = "b" + std::to_string(b) + ".";
    vunit.add_assert("P1_b" + std::to_string(b),
                     psl::parse_property("always (" + p +
                                         "read_start -> next[4] " + p +
                                         "dout_valid_k)"));
    vunit.add_assert("P2_b" + std::to_string(b),
                     psl::parse_property("always (" + p +
                                         "dout_valid_k -> next[1] " + p +
                                         "dout_valid_ks)"));
  }
  vunit.add_assert("P4", psl::parse_property("never {bus_conflict}"));
  return vunit;
}

/// The same assertions as OVL monitor logic inside the simulated design.
std::function<void(rtl::Module&)> ovl_instrument(ovl::OvlBank& bank,
                                                 int banks) {
  return [&bank, banks](rtl::Module& flat) {
    const rtl::NetId k = flat.find_net("K");
    const rtl::NetId ks = flat.find_net("KS");
    std::vector<rtl::ExprId> enables;
    for (int b = 0; b < banks; ++b) {
      const std::string p = "bank" + std::to_string(b) + ".";
      const std::string sb = std::to_string(b);
      ovl::assert_next(flat, bank, "read_latency_b" + sb, ks,
                       flat.ref(p + "read_start_q"),
                       flat.ref(p + "dout_valid_k_q"), 2);
      ovl::assert_implication(flat, bank, "read_burst_b" + sb, ks,
                              flat.ref(p + "dout_valid_k_q"),
                              flat.ref(p + "beat1_pend"));
      enables.push_back(flat.ref(p + "en_q"));
    }
    ovl::assert_zero_one_hot(flat, bank, "exclusive", banks > 1 ? ks : k,
                             banks > 1 ? flat.concat(enables)
                                       : enables.front());
  };
}

/// Which OVL monitors fired, in bank order.
std::vector<bool> fired(const ovl::OvlBank& bank,
                        const std::function<bool(rtl::NetId)>& net_is_one) {
  std::vector<bool> out;
  for (std::size_t i = 0; i < bank.entries().size(); ++i) {
    out.push_back(bank.fired(net_is_one, i));
  }
  return out;
}

/// Every model of one bank count, built once in set-up.
struct Rig {
  int banks = 0;
  std::unique_ptr<harness::BehavioralDeviceModel> beh;
  std::unique_ptr<psl::VUnit> vunit;
  std::unique_ptr<psl::VUnitRunner> monitors;
  ovl::OvlBank interp_ovl;
  harness::RtlDevice interp;
  ovl::OvlBank lane1_ovl;
  harness::RtlDevice lane1;
  ovl::OvlBank lanes_ovl;
  std::unique_ptr<harness::CsimDeviceModel> lanes;
};

struct StreamCounts {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
};

/// Drives `ticks` half-cycles of `seed`'s traffic through one model.
template <typename OnTick>
StreamCounts drive(harness::DeviceModel& model, int banks, std::uint64_t seed,
                   int ticks, CallTimer& edge_timer, OnTick&& on_tick) {
  harness::StimulusStream stream = make_stream(banks, seed);
  harness::Transactor tx(model.geometry());
  model.reset();
  for (int t = 0; t < ticks; ++t) {
    const harness::Edge edge = harness::edge_of_tick(t);
    if (edge == harness::Edge::kK) tx.enqueue(stream.next());
    const harness::EdgePins pins = tx.next(edge);
    edge_timer.time([&] { model.apply_edge(pins); });
    on_tick();
  }
  return {tx.reads_issued(), tx.writes_issued()};
}

/// `la1batch example`'s jobs with its parameters, repeated kSpecCopies
/// times so the batch fills a share of the round. Copy c runs at seed
/// seed + c * kCopySeedStride; shard s of a job runs at its seed + s, so
/// no two shards share a stimulus. mc-sweep checks the same properties in
/// every copy, as the example does each time it is run.
batch::BatchSpec batch_spec(std::uint64_t seed) {
  batch::BatchSpec spec;
  spec.name = "perfbench";
  for (int copy = 0; copy < kSpecCopies; ++copy) {
    std::string suffix = ".";
    suffix += std::to_string(copy);
    batch::JobSpec lockstep;
    lockstep.name = "lockstep" + suffix;
    lockstep.kind = batch::JobKind::kLockstepSoak;
    lockstep.banks = 2;
    lockstep.shards = 4;
    lockstep.transactions = 200;
    batch::JobSpec campaign;
    campaign.name = "campaign" + suffix;
    campaign.kind = batch::JobKind::kFaults;
    campaign.banks = 1;
    campaign.shards = 2;
    campaign.transactions = 120;
    campaign.structural_faults = 4;
    campaign.protocol_faults = 2;
    batch::JobSpec closure;
    closure.name = "closure" + suffix;
    closure.kind = batch::JobKind::kCovClosure;
    closure.shards = 2;
    closure.target = 0.9;
    closure.max_epochs = 8;
    batch::JobSpec properties;
    properties.name = "properties" + suffix;
    properties.kind = batch::JobKind::kMcSweep;
    properties.banks = 1;
    for (batch::JobSpec* job : {&lockstep, &campaign, &closure, &properties}) {
      job->seed = seed + static_cast<std::uint64_t>(copy) * kCopySeedStride;
      spec.jobs.push_back(*job);
    }
  }
  return spec;
}

/// At most two workers, and never more than the host has cores.
int batch_workers() {
  const unsigned cores = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(cores, 1u, 2u));
}

class AbvBatchWorkload : public Workload {
 public:
  void setup(Session& s) override {
    rigs_.clear();
    for (int banks : kBankCounts) {
      auto rig = std::make_unique<Rig>();
      rig->banks = banks;
      core::Config bcfg;
      bcfg.banks = banks;
      bcfg.addr_bits = kAddrBits;
      rig->beh = std::make_unique<harness::BehavioralDeviceModel>(bcfg);
      rig->vunit = std::make_unique<psl::VUnit>(read_mode_vunit(banks));
      rig->monitors = std::make_unique<psl::VUnitRunner>(
          *rig->vunit, psl::MonitorBackend::kDfa);
      const core::RtlConfig rcfg = rtl_config(banks);
      rig->interp = harness::make_rtl_device(
          rcfg, harness::RtlBackend::kInterpreted,
          ovl_instrument(rig->interp_ovl, banks));
      rig->lane1 = harness::make_rtl_device(
          rcfg, harness::RtlBackend::kCompiled,
          ovl_instrument(rig->lane1_ovl, banks));
      rig->lanes = std::make_unique<harness::CsimDeviceModel>(
          rcfg, ovl_instrument(rig->lanes_ovl, banks));
      rigs_.push_back(std::move(rig));
    }
    spec_ = batch_spec(s.seed);
  }

  void round(Session& s, Samples& samples) override {
    RoundLog log{samples, s.tracer.enabled()};
    for (const auto& rig : rigs_) {
      behavioural_stream(s, *rig, log);
      const std::vector<bool> interp_fired = rtl_streams(s, *rig, log);
      lanes_stream(s, *rig, interp_fired, log);
    }
    log.per_call("psl.vunit_step_ns", 1e9 * log.psl_s / log.psl_calls);
    log.rate("sim_cycles_per_s", log.k_cycles / log.stream_s);

    batch::RunnerOptions ropt;
    ropt.workers = batch_workers();
    batch::BatchResult result;
    const double batch_s = timed(s.tracer, "batch", "run_batch", [&] {
      result = batch::run_batch(spec_, ropt);
    });
    check_batch(s, result);
    log.rate("shards_per_s", result.stats.shards / batch_s);
    last_hash_ = result.hash;
    stats_ = result.stats;
    shard_counts_ = ShardCounts{};
    for (const batch::JobResult& job : result.jobs) {
      shard_counts_.shards += job.shards;
      shard_counts_.ok += job.ok;
      shard_counts_.timed_out += job.timed_out;
      shard_counts_.crashed += job.crashed;
    }
  }

  void cross_check(Session& s) override {
    s.ledger.run("batch hash at 1 worker", [&](Op& op) {
      batch::RunnerOptions ropt;
      ropt.workers = 1;
      const batch::BatchResult one = batch::run_batch(spec_, ropt);
      op.expect(one.hash == last_hash_,
                "batch hash at 1 worker differs from " +
                    std::to_string(batch_workers()) + " workers");
    });
  }

  void layer_metrics(Session& s, const Samples& samples,
                     Metrics& out) override {
    for (const char* name :
         {"sim.tick_us.b2", "sim.tick_us.b4", "rtl.edge_us.b2",
          "rtl.edge_us.b4", "csim.edge_us.b2", "csim.edge_us.b4",
          "csim.lane1_edge_us.b2", "csim.lane1_edge_us.b4",
          "csim.stream_cycle_ns.b2", "csim.stream_cycle_ns.b4",
          "psl.vunit_step_ns", "sim_cycles_per_s", "shards_per_s"}) {
      out[name] = samples.median(name);
    }
    out["exec.utilization"] = stats_.utilization();
    double busy = 0.0;
    int steals = 0;
    for (const exec::WorkerStats& w : stats_.per_worker) {
      busy += w.busy_seconds;
      steals += w.steals;
    }
    out["exec.steals"] = steals;
    out["exec.busy_s"] = busy;
    out["exec.idle_s"] = stats_.workers * stats_.wall_seconds - busy;
    out["exec.worker_cpu_s"] = stats_.total_cpu_seconds();
    out["batch.shards"] = shard_counts_.shards;
    out["batch.ok"] = shard_counts_.ok;
    out["batch.timed_out"] = shard_counts_.timed_out;
    out["batch.crashed"] = shard_counts_.crashed;

    // Model construction, one layer at a time, at both bank counts.
    double build_ms = 0.0;
    double flatten_ms = 0.0;
    double compile_ms = 0.0;
    for (int banks : kBankCounts) {
      core::RtlDevice dev;
      build_ms += 1e3 * timed(s.tracer, "la1", "build_device", [&] {
        dev = core::build_device(rtl_config(banks));
      });
      std::optional<rtl::Module> flat;
      flatten_ms += 1e3 * timed(s.tracer, "rtl", "flatten",
                                [&] { flat.emplace(dev.flatten()); });
      compile_ms += 1e3 * timed(s.tracer, "csim", "compile", [&] {
        (void)csim::compile(*flat, core::clock_schedule(*flat));
      });
    }
    out["la1.build_device_ms"] = build_ms;
    out["rtl.flatten_ms"] = flatten_ms;
    out["csim.compile_ms"] = compile_ms;

    // One shard of each simulation job, called directly.
    const batch::JobSpec& lockstep = spec_.jobs[0];
    const batch::JobSpec& campaign = spec_.jobs[1];
    const batch::JobSpec& closure = spec_.jobs[2];
    s.ledger.run("lockstep probe", [&](Op& op) {
      core::Config bcfg;
      bcfg.banks = lockstep.banks;
      bcfg.data_bits = kShardDataBits;
      bcfg.addr_bits = kShardMemAddrBits + bcfg.bank_bits();
      core::RtlConfig rcfg;
      rcfg.banks = lockstep.banks;
      rcfg.data_bits = kShardDataBits;
      rcfg.mem_addr_bits = kShardMemAddrBits;
      harness::BehavioralDeviceModel beh(bcfg);
      harness::RtlDeviceModel rtl(rcfg);
      harness::StimulusOptions so;
      so.banks = lockstep.banks;
      so.mem_addr_bits = kShardMemAddrBits;
      so.data_bits = kShardDataBits;
      harness::StimulusStream stream(so, lockstep.seed);
      harness::LockstepOptions lo;
      lo.transactions = static_cast<std::uint64_t>(lockstep.transactions);
      harness::LockstepReport r;
      const double seconds = timed(s.tracer, "harness", "run_lockstep", [&] {
        r = harness::run_lockstep({&beh, &rtl}, stream, lo);
      });
      op.expect(r.ok, "lockstep mismatch: " + r.mismatch);
      op.expect_eq(static_cast<std::int64_t>(r.comparisons),
                   shard0_.comparisons, "comparisons against batch shard 0");
      out["harness.lockstep_s"] = seconds;
      out["harness.comparisons"] = static_cast<double>(r.comparisons);
      out["harness.comparisons_per_s"] =
          static_cast<double>(r.comparisons) / seconds;
    });
    s.ledger.run("fault campaign probe", [&](Op& op) {
      fault::CampaignOptions copt;
      copt.banks = campaign.banks;
      copt.seed = campaign.seed;
      copt.transactions = campaign.transactions;
      copt.mem_addr_bits = kShardMemAddrBits;
      copt.data_bits = kShardDataBits;
      copt.plan.structural = campaign.structural_faults;
      copt.plan.protocol = campaign.protocol_faults;
      copt.run_mc = campaign.run_mc;
      fault::CampaignReport r;
      out["fault.campaign_s"] = timed(s.tracer, "fault", "run_campaign",
                                      [&] { r = fault::run_campaign(copt); });
      op.expect(r.clean_ok, "clean control run raised an alarm");
      op.expect_eq(r.caught_count(), shard0_.caught,
                   "mutants caught against batch shard 0");
      out["fault.mutants"] = static_cast<double>(r.rows.size());
      out["fault.caught"] = r.caught_count();
    });
    s.ledger.run("coverage closure probe", [&](Op& op) {
      tgen::ClosureOptions opt;
      opt.geometry.banks = closure.banks;
      opt.geometry.mem_addr_bits = kShardMemAddrBits;
      opt.geometry.data_bits = kShardDataBits;
      opt.seed = closure.seed;
      opt.target = closure.target;
      opt.transactions_per_epoch = closure.transactions_per_epoch;
      opt.budget.max_epochs = closure.max_epochs;
      tgen::ClosureResult r;
      out["tgen.closure_s"] = timed(s.tracer, "tgen", "run_closure",
                                    [&] { r = tgen::run_closure(opt); });
      op.expect(r.reached_target, "coverage target not reached");
      op.expect_eq(static_cast<std::int64_t>(r.epochs), shard0_.epochs,
                   "epochs against batch shard 0");
      out["tgen.epochs"] = r.epochs;
      out["cov.coverage"] = r.coverage();
    });
  }

 private:
  /// One round's stream totals and samples. Per-call costs come from
  /// traced rounds (untraced ones read no clock per call); stream and
  /// batch rates from untraced rounds.
  struct RoundLog {
    Samples& samples;
    bool traced;
    double stream_s = 0.0;
    double k_cycles = 0.0;  // K-clock cycles over every stream and lane
    double psl_s = 0.0;
    double psl_calls = 0.0;

    void per_call(const std::string& name, double value) {
      if (traced) samples.add(name, value);
    }
    void rate(const std::string& name, double value) {
      if (!traced) samples.add(name, value);
    }
  };

  void behavioural_stream(Session& s, Rig& rig, RoundLog& log) {
    const std::string b = ".b" + std::to_string(rig.banks);
    CallTimer tick_timer(log.traced);
    CallTimer psl_timer(log.traced);
    s.ledger.run("ABV behavioural+PSL" + b, [&](Op& op) {
      rig.monitors->reset();
      StreamCounts n;
      log.stream_s += timed(s.tracer, "perfbench", "stream_behavioural" + b,
                            [&] {
        n = drive(*rig.beh, rig.banks, s.seed, kBehavioralTicks, tick_timer,
                  [&] {
                    psl_timer.time([&] { rig.monitors->step(rig.beh->env()); });
                  });
        s.tracer.aggregate("sim", "tick", tick_timer.seconds(),
                           tick_timer.calls());
        s.tracer.aggregate("psl", "vunit_step", psl_timer.seconds(),
                           psl_timer.calls());
      });
      log.k_cycles += kBehavioralTicks / 2;
      op.expect_eq(rig.monitors->failures(), std::size_t{0},
                   "PSL assertion failures");
      if (s.default_seed()) {
        op.expect_eq(n.reads, kBehavioralGolden.reads, "reads issued");
        op.expect_eq(n.writes, kBehavioralGolden.writes, "writes issued");
      }
    });
    log.per_call("sim.tick_us" + b, 1e6 * tick_timer.per_call());
    log.psl_s += psl_timer.seconds();
    log.psl_calls += static_cast<double>(psl_timer.calls());
  }

  /// CycleSim and one-lane csim on the same stimulus: their OVL verdicts
  /// must agree monitor by monitor. Returns CycleSim's verdicts.
  std::vector<bool> rtl_streams(Session& s, Rig& rig, RoundLog& log) {
    const std::string b = ".b" + std::to_string(rig.banks);
    std::vector<bool> interp_fired;
    StreamCounts interp_counts;
    for (const bool compiled : {false, true}) {
      harness::RtlDevice& dev = compiled ? rig.lane1 : rig.interp;
      const ovl::OvlBank& ovl = compiled ? rig.lane1_ovl : rig.interp_ovl;
      const std::string layer = compiled ? "csim" : "rtl";
      const std::string name = compiled ? "csim 1-lane" : "CycleSim";
      CallTimer edge_timer(log.traced);
      s.ledger.run("ABV " + name + "+OVL" + b, [&](Op& op) {
        StreamCounts n;
        log.stream_s += timed(s.tracer, "perfbench",
                              (compiled ? "stream_csim1" : "stream_rtl") + b,
                              [&] {
          n = drive(*dev.model, rig.banks, s.seed, kRtlTicks, edge_timer,
                    [] {});
          s.tracer.aggregate(layer, "edge", edge_timer.seconds(),
                             edge_timer.calls());
        });
        log.k_cycles += kRtlTicks / 2;
        const std::vector<bool> f = fired(ovl, dev.net_is_one);
        op.expect(std::none_of(f.begin(), f.end(), [](bool x) { return x; }),
                  "OVL assertion fired");
        if (!compiled) {
          interp_fired = f;
          interp_counts = n;
        } else {
          op.expect(f == interp_fired, "OVL verdicts differ from CycleSim");
          op.expect(n.reads == interp_counts.reads &&
                        n.writes == interp_counts.writes,
                    "stimulus differs from the CycleSim stream");
        }
        if (s.default_seed()) {
          op.expect_eq(n.reads, kRtlGolden.reads, "reads issued");
          op.expect_eq(n.writes, kRtlGolden.writes, "writes issued");
        }
      });
      log.per_call((compiled ? "csim.lane1_edge_us" : "rtl.edge_us") + b,
                   1e6 * edge_timer.per_call());
    }
    return interp_fired;
  }

  /// 64 streams through one compiled machine; lane 0 runs CycleSim's
  /// stimulus and must reach its OVL verdicts.
  void lanes_stream(Session& s, Rig& rig,
                    const std::vector<bool>& interp_fired, RoundLog& log) {
    const std::string b = ".b" + std::to_string(rig.banks);
    CallTimer edge_timer(log.traced);
    CallTimer drive_timer(log.traced);
    s.ledger.run("ABV csim 64-lane+OVL" + b, [&](Op& op) {
      StreamCounts n;
      const double seconds =
          timed(s.tracer, "perfbench", "stream_csim64" + b, [&] {
            n = drive_lanes(rig, s.seed, drive_timer, edge_timer);
            s.tracer.aggregate("harness", "lane_stimulus",
                               drive_timer.seconds(), drive_timer.calls());
            s.tracer.aggregate("csim", "edge", edge_timer.seconds(),
                               edge_timer.calls());
          });
      log.stream_s += seconds;
      log.k_cycles += static_cast<double>(kLanes) * (kRtlTicks / 2);
      log.rate("csim.stream_cycle_ns" + b,
               1e9 * seconds / (kLanes * (kRtlTicks / 2.0)));
      const csim::Machine& machine = rig.lanes->machine();
      for (int lane = 0; lane < kLanes; ++lane) {
        const std::vector<bool> f = fired(rig.lanes_ovl, [&](rtl::NetId net) {
          return machine.get(net, lane).bit(0) == rtl::Logic::k1;
        });
        op.expect(std::none_of(f.begin(), f.end(), [](bool x) { return x; }),
                  "OVL assertion fired in lane " + std::to_string(lane));
        if (lane == 0) {
          op.expect(f == interp_fired,
                    "lane 0 OVL verdicts differ from CycleSim");
        }
      }
      if (s.default_seed()) {
        op.expect_eq(n.reads, kLanesGolden.reads, "reads issued");
        op.expect_eq(n.writes, kLanesGolden.writes, "writes issued");
      }
    });
    log.per_call("csim.edge_us" + b, 1e6 * edge_timer.per_call());
  }

  /// 64 streams (seed + lane) through one compiled machine, one bit lane
  /// each; returns the reads and writes issued over all lanes.
  StreamCounts drive_lanes(Rig& rig, std::uint64_t seed, CallTimer& drive_timer,
                           CallTimer& edge_timer) {
    harness::CsimDeviceModel& model = *rig.lanes;
    csim::Machine& machine = model.machine();
    const rtl::Module& flat = model.flat();
    const rtl::NetId r_n = flat.find_net("R_n");
    const rtl::NetId w_n = flat.find_net("W_n");
    const rtl::NetId a = flat.find_net("A");
    const rtl::NetId d = flat.find_net("D");
    const rtl::NetId bwe_n = flat.find_net("BWE_n");
    std::vector<harness::Transactor> txs;
    std::vector<harness::StimulusStream> streams;
    for (int lane = 0; lane < kLanes; ++lane) {
      txs.emplace_back(model.geometry());
      streams.push_back(
          make_stream(rig.banks, seed + static_cast<std::uint64_t>(lane)));
    }
    model.reset();
    for (int t = 0; t < kRtlTicks; ++t) {
      const harness::Edge edge = harness::edge_of_tick(t);
      drive_timer.time([&] {
        for (int lane = 0; lane < kLanes; ++lane) {
          auto& tx = txs[static_cast<std::size_t>(lane)];
          if (edge == harness::Edge::kK) {
            tx.enqueue(streams[static_cast<std::size_t>(lane)].next());
          }
          const harness::EdgePins pins = tx.next(edge);
          machine.set_input_lane_uint(r_n, lane, pins.r_sel_n ? 1 : 0);
          machine.set_input_lane_uint(w_n, lane, pins.w_sel_n ? 1 : 0);
          machine.set_input_lane_uint(a, lane, pins.addr);
          machine.set_input_lane_uint(d, lane,
                                      core::pack_beat(pins.din_data, 16));
          machine.set_input_lane_uint(bwe_n, lane, pins.bwe_n);
        }
      });
      edge_timer.time([&] {
        machine.edge(edge == harness::Edge::kK ? "K" : "KS", rtl::Edge::kPos);
      });
    }
    StreamCounts n;
    for (const harness::Transactor& tx : txs) {
      n.reads += tx.reads_issued();
      n.writes += tx.writes_issued();
    }
    return n;
  }

  void check_batch(Session& s, const batch::BatchResult& result) {
    std::int64_t comparisons = 0;
    int caught = 0;
    std::int64_t epochs = 0;
    double coverage = 0.0;  // summed over closure shards
    // The layer probes rerun shard 0 of the first copy's jobs.
    const std::size_t jobs_per_copy = spec_.jobs.size() / kSpecCopies;
    for (std::size_t j = 0; j < result.jobs.size(); ++j) {
      const batch::JobResult& job = result.jobs[j];
      for (const util::Json& shard : job.merged.items()) {
        const std::string name =
            "batch " + job.name + " shard " +
            std::to_string(shard.find("shard")->as_int());
        s.ledger.run(name, [&](Op& op) {
          const std::string status = shard.find("status")->as_string();
          op.expect_eq(status, std::string("ok"), "shard status");
          const util::Json* value = shard.find("value");
          if (status != "ok" || value == nullptr) return;
          const bool first =
              j < jobs_per_copy && shard.find("shard")->as_int() == 0;
          switch (job.kind) {
            case batch::JobKind::kLockstepSoak:
              op.expect(value->find("ok")->as_bool(), "lockstep mismatch");
              comparisons += value->find("comparisons")->as_int();
              if (first) {
                shard0_.comparisons = value->find("comparisons")->as_int();
              }
              break;
            case batch::JobKind::kFaults: {
              const fault::CampaignReport r =
                  fault::CampaignReport::from_json(*value);
              op.expect(r.clean_ok, "clean control run raised an alarm");
              caught += r.caught_count();
              if (first) shard0_.caught = r.caught_count();
              break;
            }
            case batch::JobKind::kMcSweep:
              op.expect_eq(value->find("verdict")->as_string(),
                           std::string("Proven"), "verdict");
              break;
            case batch::JobKind::kCovClosure:
              op.expect(value->find("reached_target")->as_bool(),
                        "coverage target not reached");
              epochs += value->find("epochs")->as_int();
              coverage += value->find("coverage")->as_double();
              if (first) shard0_.epochs = value->find("epochs")->as_int();
              break;
          }
        });
      }
    }
    s.ledger.run("batch totals", [&](Op& op) {
      op.expect(result.all_pass, "batch did not pass");
      if (s.default_seed()) {
        op.expect_eq(result.hash, kBatchHash, "batch hash");
        op.expect_eq(comparisons, kLockstepComparisons, "lockstep comparisons");
        op.expect_eq(caught, kFaultsCaught, "mutants caught");
        op.expect_eq(epochs, kClosureEpochs, "closure epochs");
        char got[32];
        std::snprintf(got, sizeof(got), "%.17g", coverage);
        op.expect(std::abs(coverage - kClosureCoverage) < 1e-9,
                  std::string("closure coverage summed over shards: got ") +
                      got);
      }
    });
  }

  std::vector<std::unique_ptr<Rig>> rigs_;
  batch::BatchSpec spec_;
  std::uint64_t last_hash_ = 0;
  struct {
    std::int64_t comparisons = -1;
    int caught = -1;
    std::int64_t epochs = -1;
  } shard0_;  // the last round's shard-0 counts
  exec::PoolStats stats_;  // the last round's batch
  struct ShardCounts {
    int shards = 0;
    int ok = 0;
    int timed_out = 0;
    int crashed = 0;
  } shard_counts_;  // the last round's batch
};

}  // namespace

std::unique_ptr<Workload> make_abv_batch_workload() {
  return std::make_unique<AbvBatchWorkload>();
}

}  // namespace la1::perfbench
