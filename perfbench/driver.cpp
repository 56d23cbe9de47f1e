// la1kit benchmark driver: one workload per process.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--trace-out PATH]
//
// The run repeats rounds until the next one would overrun --seconds (at
// least one). A round sets the workload up afresh, several times, then
// makes its verdict-producing calls (verdict_s is the median round). With
// --trace 0 the run spends the rest of --seconds setting up again, and
// setup_s is the median over all its set-ups; it prints the end-to-end
// metrics. With --trace 1 it alternates untraced and traced rounds (at
// least one of each), runs the workload's layer probes, writes the spans to
// --trace-out as Chrome trace-event JSON, and prints the per-layer metrics.
// Progress goes to stderr; the only stdout line is one JSON object whose
// metrics map names to values:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// perfbench/run.py attaches the units from BENCHMARK.json. Time bases:
// refine.*_cpu_s are process CPU seconds (run_flow times its stages with
// util::CpuStopwatch), exec.worker_cpu_s thread CPU seconds; every other
// time is wall time.
// Exit status: 0 with a result line, 2 on a usage error, 1 when a set-up or
// probe cannot run at all.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <utility>

#include "bench.hpp"
#include "util/cli.hpp"
#include "util/mem.hpp"

namespace la1::perfbench {
namespace {

// Every round runs on a fresh set-up, repeated just before it at least
// kMinSetups times and more while the burst is under kSetupBudgetS; an
// untraced run then keeps setting up for whatever is left of --seconds.
// Set-up is small work whose speed, on a shared host, can drift by half
// from one second to the next, so its median needs samples spread over
// the run, not one instant of it. Set-ups are timed in groups, doubled
// until a group takes kMinSampleS, which bounds the samples (and the memory
// they take, part of peak_rss_mb) to about a thousand per second; a sample
// is its group's mean.
constexpr int kMinSetups = 3;
constexpr double kSetupBudgetS = 0.5;
constexpr double kMinSampleS = 1e-3;

int usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver --workload flow_1bank|symbolic_1bank|"
               "abv_batch --seed N --seconds S --trace 0|1 "
               "[--trace-out PATH]\n",
               why.c_str());
  return 2;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

}  // namespace

double Samples::median(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end() || it->second.empty()) return 0.0;
  std::vector<double> v = it->second;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const std::string workload_name = cli.get("workload", "");
  const std::int64_t seed = cli.get_int("seed", -1);
  const std::int64_t seconds = cli.get_int("seconds", 0);
  const std::int64_t trace = cli.get_int("trace", -1);
  const std::string trace_out = cli.get("trace-out", "");
  for (const std::string& unused : cli.unused()) {
    return usage("unknown option --" + unused);
  }
  if (!cli.positional().empty() || seed < 0 || seconds < 1 ||
      seconds > 3600 || (trace != 0 && trace != 1)) {
    return usage("--seed N >= 0, --seconds 1..3600 and --trace 0|1 are "
                 "required");
  }
  std::unique_ptr<Workload> workload;
  if (workload_name == "flow_1bank") {
    workload = make_flow_workload();
  } else if (workload_name == "symbolic_1bank") {
    workload = make_symbolic_workload();
  } else if (workload_name == "abv_batch") {
    workload = make_abv_batch_workload();
  } else {
    return usage("unknown workload '" + workload_name + "'");
  }
  const bool traced_run = trace == 1;

  Tracer tracer;
  Ledger ledger;
  Session session{static_cast<std::uint64_t>(seed), tracer, ledger};
  Samples samples;

  // Rounds: keep going while the next round (at the mean round time so
  // far) still ends within the budget. A traced run alternates untraced
  // and traced rounds so both verdict times come from the same process.
  // Set-up is never traced: its cost is an end-to-end metric of its own.
  const util::Stopwatch run_watch;
  int rounds = 0;
  int setup_group = 1;  // set-ups per timed sample
  // Sets the workload up at least `min_setups` times and again while under
  // `budget_s`; returns the set-ups made and their median.
  const auto set_up = [&](int min_setups, double budget_s) {
    int setups = 0;
    Samples burst_samples;
    for (const util::Stopwatch burst;
         setups < min_setups || burst.seconds() < budget_s;) {
      const util::Stopwatch watch;
      for (int i = 0; i < setup_group; ++i) workload->setup(session);
      const double took = watch.seconds();
      samples.add("setup_s", took / setup_group);
      burst_samples.add("setup_s", took / setup_group);
      setups += setup_group;
      if (took < kMinSampleS) setup_group *= 2;
    }
    return std::make_pair(setups, burst_samples.median("setup_s"));
  };
  for (;;) {
    tracer.set_enabled(false);
    const auto [setups, setup_median] = set_up(kMinSetups, kSetupBudgetS);
    const bool traced_round = traced_run && rounds % 2 == 1;
    tracer.set_enabled(traced_round);
    double elapsed = 0.0;
    const util::CpuStopwatch cpu_watch;
    {
      const util::Stopwatch watch;
      const Tracer::Scope scope = tracer.span("perfbench", "round");
      workload->round(session, samples);
      elapsed = watch.seconds();
    }
    samples.add(traced_round ? "trace.verdict_s" : "verdict_s", elapsed);
    ++rounds;
    std::fprintf(stderr,
                 "round %d%s: %.3f s (cpu %.3f s), %d set-ups of median "
                 "%.3g s\n",
                 rounds, traced_round ? " (traced)" : "", elapsed,
                 cpu_watch.seconds(), setups, setup_median);
    const double spent = run_watch.seconds();
    const bool need_traced = traced_run && rounds < 2;
    if (!need_traced && spent + spent / rounds > static_cast<double>(seconds)) {
      break;
    }
  }
  tracer.set_enabled(false);
  if (!traced_run) {
    const auto [setups, setup_median] =
        set_up(0, static_cast<double>(seconds) - run_watch.seconds());
    std::fprintf(stderr, "after the rounds: %d set-ups of median %.3g s\n",
                 setups, setup_median);
  }
  const std::map<std::string, double> self_seconds = tracer.self_seconds();
  const int traced_rounds = traced_run ? rounds / 2 : 0;
  // The run's memory is that of its set-ups and rounds; the cross-checks
  // below are the benchmark's own, and abv_batch's reruns the batch.
  const double peak_rss_mb = util::to_mb(util::peak_rss_bytes());

  workload->cross_check(session);

  Metrics metrics;
  const auto set = [&](const std::string& name, double value) {
    metrics[name] = value;
  };
  if (traced_run) {
    tracer.set_enabled(true);
    {
      const Tracer::Scope scope = tracer.span("perfbench", "layer_probes");
      workload->layer_metrics(session, samples, metrics);
    }
    tracer.set_enabled(false);
    set("trace.verdict_s", samples.median("trace.verdict_s"));
    set("trace.untraced_verdict_s", samples.median("verdict_s"));
    set("trace.overhead_s",
        samples.median("trace.verdict_s") - samples.median("verdict_s"));
    // Self time per layer, from the spans of the traced rounds.
    for (const auto& [layer, seconds] : self_seconds) {
      set("self." + layer + "_s", seconds / traced_rounds);
    }
  } else {
    set("setup_s", samples.median("setup_s"));
    set("verdict_s", samples.median("verdict_s"));
    set("peak_rss_mb", peak_rss_mb);
  }

  const double error_rate =
      ledger.attempted() == 0
          ? 1.0
          : static_cast<double>(ledger.failed()) /
                static_cast<double>(ledger.attempted());
  if (traced_run) set("error_rate", error_rate);

  for (const std::string& p : ledger.problems()) {
    std::fprintf(stderr, "FAILED %s\n", p.c_str());
  }
  if (traced_run && !trace_out.empty()) {
    std::ofstream out(trace_out);
    out << tracer.chrome_json();
    if (!out) {
      std::fprintf(stderr, "cannot write trace to %s\n", trace_out.c_str());
      return 1;
    }
  }

  std::string body;
  for (const auto& [name, value] : metrics) {
    body += std::string(body.empty() ? "" : ", ") + "\"" + name +
            "\": " + json_number(value);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      ledger.failed() == 0 && ledger.attempted() > 0 ? "true" : "false",
      static_cast<unsigned long long>(ledger.attempted()),
      static_cast<unsigned long long>(ledger.failed()), body.c_str());
  return 0;
}

}  // namespace la1::perfbench

int main(int argc, char** argv) {
  // Operations catch their own failures; this catches a set-up or probe
  // that cannot run at all, which leaves no result to report.
  try {
    return la1::perfbench::main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
