// symbolic_1bank: Table 2 in the RuleBase configuration — the read-mode
// property on the 1-bank model-checking geometry, no cone of influence,
// a 2,000,000-node budget — once with the partitioned transition relation
// and once monolithic, then the RTL property suite under the semantic cone
// of influence (use_coi), whose BDDs stay small.
//
// The BDD unique table and caches do the work here; asml does none. The
// check has no random input, so the workload is the same at every seed.
// The 2-bank RuleBase run (about 84 s to reach State Explosion) is left
// out of the timed workloads; geometry and budget are the paper's and are
// not to be shrunk to make the run faster.
#include "bdd/bdd.hpp"
#include "bench.hpp"
#include "dfa/sweep.hpp"
#include "la1/rtl_model.hpp"
#include "mc/symbolic.hpp"
#include "rtl/bitblast.hpp"

namespace la1::perfbench {
namespace {

constexpr std::uint64_t kNodeLimit = 2'000'000;
// Reachability iterations of the read-mode check (seed-independent).
constexpr int kReadModeIterations = 9;
// Iterations of each rtl_properties() check under use_coi, in suite order.
constexpr int kSuiteIterations[] = {5, 6, 3, 0};
// The BDD probe: BitGraph builds timed, and a cap on the images it takes
// to close the reachable set from reset.
constexpr int kBuildRepeats = 100;
constexpr int kMaxProbeImages = 64;

class SymbolicWorkload : public Workload {
 public:
  void setup(Session& s) override {
    (void)s;
    const core::RtlConfig cfg = core::RtlConfig::model_checking(1);
    util::Stopwatch watch;
    const core::RtlDevice dev = core::build_device(cfg);
    build_device_ms_ = watch.millis();
    watch.reset();
    const rtl::Module flat = dev.flatten();
    flatten_ms_ = watch.millis();
    watch.reset();
    const rtl::Module expanded = rtl::expand_memories(flat);
    bb_ = rtl::bitblast(expanded, core::clock_schedule(flat));
    bitblast_ms_ = watch.millis();
    read_mode_ = core::rtl_read_mode_property(cfg);
    suite_ = core::rtl_properties(cfg);
    invariants_ = dfa::sweep(bb_);
  }

  void round(Session& s, Samples& samples) override {
    int partitioned_iterations = -1;
    for (const bool partitioned : {true, false}) {
      const std::string kind = partitioned ? "partitioned" : "monolithic";
      s.ledger.run("RuleBase read mode, " + kind, [&](Op& op) {
        mc::SymbolicOptions opt;
        opt.node_limit = kNodeLimit;
        opt.partitioned = partitioned;
        opt.cone_of_influence = false;
        mc::SymbolicResult r;
        const double seconds =
            timed(s.tracer, "mc", "symbolic_" + kind,
                  [&] { r = mc::check(bb_, read_mode_, opt); });
        samples.add("mc.symbolic_" + kind + "_s", seconds);
        op.expect(r.outcome == mc::SymbolicResult::Outcome::kHolds,
                  std::string("verdict ") + mc::to_string(r.verdict.kind));
        op.expect_eq(r.iterations, kReadModeIterations, "iterations");
        if (partitioned) {
          partitioned_iterations = r.iterations;
          samples.add("mc.iterations", r.iterations);
          samples.add("bdd_peak_nodes", static_cast<double>(r.peak_bdd_nodes));
          samples.add("bdd.created_nodes",
                      static_cast<double>(r.created_bdd_nodes));
          samples.add("bdd.created_per_s",
                      static_cast<double>(r.created_bdd_nodes) / seconds);
          samples.add("bdd.memory_mb", r.memory_mb);
        } else {
          op.expect_eq(r.iterations, partitioned_iterations,
                       "iterations against the partitioned run");
        }
      });
    }
    for (std::size_t i = 0; i < suite_.size(); ++i) {
      const auto& [name, prop] = suite_[i];
      s.ledger.run("use_coi " + name, [&](Op& op) {
        mc::SymbolicOptions opt;
        opt.node_limit = kNodeLimit;
        opt.use_coi = true;
        opt.invariants = &invariants_;
        mc::SymbolicResult r;
        timed(s.tracer, "mc", "symbolic_coi",
              [&] { r = mc::check(bb_, prop, opt); });
        op.expect(r.outcome == mc::SymbolicResult::Outcome::kHolds,
                  std::string("verdict ") + mc::to_string(r.verdict.kind));
        op.expect(i < std::size(kSuiteIterations), "unexpected property");
        if (i < std::size(kSuiteIterations)) {
          op.expect_eq(r.iterations, kSuiteIterations[i], "iterations");
        }
      });
    }
  }

  void layer_metrics(Session& s, const Samples& samples,
                     Metrics& out) override {
    for (const char* name :
         {"mc.symbolic_partitioned_s", "mc.symbolic_monolithic_s",
          "mc.iterations", "bdd_peak_nodes", "bdd.created_nodes",
          "bdd.created_per_s", "bdd.memory_mb"}) {
      out[name] = samples.median(name);
    }
    out["la1.build_device_ms"] = build_device_ms_;
    out["rtl.flatten_ms"] = flatten_ms_;
    out["rtl.bitblast_ms"] = bitblast_ms_;
    out["mc.observer_ms"] =
        1e3 * timed(s.tracer, "mc", "build_observer",
                    [&] { (void)mc::build_observer(read_mode_); });
    s.ledger.run("BDD probe on the 1-bank BitGraph",
                 [&](Op& op) { bdd_probe(s, op, out); });
  }

 private:
  /// Builds the blasted design's BDDs through Manager's public operations:
  /// every BitGraph node (kBuildRepeats times, in fresh managers), the
  /// transition conjuncts x' <-> f(x, in), the image closure of the reset
  /// state with early quantification, the renaming back to current
  /// variables, and a final collection of every node.
  void bdd_probe(Session& s, Op& op, Metrics& out) const {
    const rtl::BitGraph& g = bb_.graph;
    const int nvars = static_cast<int>(bb_.vars.size());
    std::unique_ptr<bdd::Manager> manager;
    std::vector<bdd::NodeId> node(static_cast<std::size_t>(g.size()));
    std::uint64_t ops = 0;
    double build_s = 0.0;
    for (int repeat = 0; repeat < kBuildRepeats; ++repeat) {
      // var v: current 2v, next 2v + 1
      manager = std::make_unique<bdd::Manager>(2 * nvars);
      bdd::Manager& m = *manager;
      ops = 0;
      build_s += timed(s.tracer, "bdd", "build", [&] {
        for (int id = 0; id < g.size(); ++id) {
          const rtl::BitGraph::Node& n = g.node(id);
          const auto at = [&](int i) {
            return node[static_cast<std::size_t>(i)];
          };
          bdd::NodeId f = bdd::kFalse;
          switch (n.kind) {
            case rtl::BitGraph::Kind::kConst: f = m.constant(id == 1); break;
            case rtl::BitGraph::Kind::kVar: f = m.var(2 * n.var); break;
            case rtl::BitGraph::Kind::kNot: f = m.apply_not(at(n.a)); break;
            case rtl::BitGraph::Kind::kAnd:
              f = m.apply_and(at(n.a), at(n.b));
              break;
            case rtl::BitGraph::Kind::kOr:
              f = m.apply_or(at(n.a), at(n.b));
              break;
            case rtl::BitGraph::Kind::kXor:
              f = m.apply_xor(at(n.a), at(n.b));
              break;
            case rtl::BitGraph::Kind::kMux:
              f = m.ite(at(n.a), at(n.b), at(n.c));
              break;
          }
          if (n.kind != rtl::BitGraph::Kind::kConst &&
              n.kind != rtl::BitGraph::Kind::kVar) {
            ++ops;
          }
          node[static_cast<std::size_t>(id)] = f;
        }
      });
    }
    out["bdd.build_s"] = build_s / kBuildRepeats;
    out["bdd.ite_ns"] =
        1e9 * build_s / (kBuildRepeats * static_cast<double>(ops));
    bdd::Manager& m = *manager;

    // Conjuncts, the reset-state cube, and each variable's last use.
    std::vector<bdd::NodeId> conjuncts;
    bdd::NodeId reset = bdd::kTrue;
    for (std::size_t i = 0; i < bb_.state_vars.size(); ++i) {
      const int v = bb_.state_vars[i];
      const bdd::NodeId f = node[static_cast<std::size_t>(bb_.next_fn[i])];
      conjuncts.push_back(m.apply_not(m.apply_xor(m.var(2 * v + 1), f)));
      m.ref(conjuncts.back());
      const bdd::NodeId lit = bb_.vars[static_cast<std::size_t>(v)].init
                                  ? m.var(2 * v)
                                  : m.nvar(2 * v);
      reset = m.apply_and(reset, lit);
    }
    m.ref(reset);
    std::vector<int> last_use(static_cast<std::size_t>(2 * nvars), -1);
    for (std::size_t c = 0; c < conjuncts.size(); ++c) {
      const std::vector<bool> support = m.support(conjuncts[c]);
      for (int v = 0; v < nvars; ++v) {
        if (support[static_cast<std::size_t>(2 * v)]) {
          last_use[static_cast<std::size_t>(2 * v)] = static_cast<int>(c);
        }
      }
    }
    std::vector<int> next_to_cur(static_cast<std::size_t>(2 * nvars));
    for (int v = 0; v < 2 * nvars; ++v) {
      next_to_cur[static_cast<std::size_t>(v)] = v % 2 == 1 ? v - 1 : v;
    }

    double and_exists_s = 0.0;
    double rename_s = 0.0;
    bdd::NodeId reach = reset;
    m.ref(reach);
    bdd::NodeId from = reset;
    int images = 0;
    for (bool grew = true; grew && images < kMaxProbeImages; ++images) {
      bdd::NodeId acc = from;
      and_exists_s += timed(s.tracer, "bdd", "and_exists", [&] {
        for (std::size_t c = 0; c < conjuncts.size(); ++c) {
          std::vector<bool> mask(static_cast<std::size_t>(2 * nvars), false);
          for (std::size_t v = 0; v < mask.size(); ++v) {
            mask[v] = last_use[v] == static_cast<int>(c);
          }
          acc = m.and_exists(acc, conjuncts[c], mask);
        }
        // Current-state and input variables no conjunct mentions.
        std::vector<bool> rest(static_cast<std::size_t>(2 * nvars), false);
        for (std::size_t v = 0; v < rest.size(); v += 2) {
          rest[v] = last_use[v] < 0;
        }
        acc = m.exists(acc, rest);
      });
      bdd::NodeId image = bdd::kFalse;
      rename_s += timed(s.tracer, "bdd", "rename",
                        [&] { image = m.rename(acc, next_to_cur); });
      const bdd::NodeId grown = m.apply_or(reach, image);
      grew = grown != reach;
      m.ref(grown);
      m.deref(reach);
      reach = grown;
      from = image;
    }
    op.expect(images < kMaxProbeImages, "image closure did not converge");
    op.expect(m.apply_and(reach, reset) == reset,
              "reset state missing from the image closure");
    out["bdd.and_exists_s"] = and_exists_s;
    out["bdd.rename_s"] = rename_s;

    for (bdd::NodeId c : conjuncts) m.deref(c);
    m.deref(reset);
    m.deref(reach);
    std::uint64_t reclaimed = 0;
    out["bdd.gc_ms"] = 1e3 * timed(s.tracer, "bdd", "collect_garbage",
                                   [&] { reclaimed = m.collect_garbage(); });
    out["bdd.gc_reclaimed"] = static_cast<double>(reclaimed);
  }

  rtl::BitBlast bb_;
  psl::PropPtr read_mode_;
  std::vector<std::pair<std::string, psl::PropPtr>> suite_;
  dfa::InvariantSet invariants_;
  double build_device_ms_ = 0.0;
  double flatten_ms_ = 0.0;
  double bitblast_ms_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_symbolic_workload() {
  return std::make_unique<SymbolicWorkload>();
}

}  // namespace la1::perfbench
