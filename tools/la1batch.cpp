// la1batch — batch verification service for the LA-1 stack.
//
//   la1batch run JOB.json [--workers N] [--journal PATH] [--resume]
//       runs every job in the batch file on the deterministic
//       work-stealing executor (src/exec): faults campaigns, coverage
//       closure, MC sweeps, and lockstep soaks, all sharded and merged in
//       canonical order so the report (and its FNV-1a hash) is
//       byte-identical at any --workers value.
//   la1batch example
//       prints a ready-to-run example job file.
//
// Robustness: shards that overrun --shard-wall-ms are retried once with
// exponential backoff, then degraded to qualified timeout entries; shards
// that throw are quarantined as crashed with the replay seed recorded;
// ^C cancels the remaining shards and still emits valid JSON. With
// --journal, finished shards are appended to a JSONL file that --resume
// replays, so a killed batch completes without redoing its work.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "batch/job.hpp"
#include "batch/runner.hpp"
#include "exec/signal.hpp"
#include "util/cli.hpp"

namespace {

using namespace la1;

void print_usage(std::FILE* out) {
  std::fputs(
      "usage: la1batch run JOB.json [options]\n"
      "       la1batch example\n"
      "\n"
      "commands:\n"
      "  run      execute a batch job file on the work-stealing executor\n"
      "  example  print an example job file\n"
      "\n"
      "options:\n"
      "  --workers N        worker threads (default 1; report is\n"
      "                     byte-identical at any value)\n"
      "  --steal-seed S     seed of the steal-victim order (default 1)\n"
      "  --shard-wall-ms MS per-shard cooperative deadline (default 0 = none)\n"
      "  --retries N        extra attempts after a deadline overrun "
      "(default 1)\n"
      "  --backoff-ms MS    retry backoff base, doubled per attempt "
      "(default 10)\n"
      "  --journal PATH     append finished shards to a JSONL journal\n"
      "  --resume           replay journaled shards instead of re-running\n"
      "  --json FILE|-      write the full report as JSON\n"
      "  --no-telemetry     omit pool telemetry from the JSON report\n",
      out);
}

int usage() {
  print_usage(stderr);
  return 2;
}

int run_example() {
  batch::BatchSpec spec;
  spec.name = "nightly";
  {
    batch::JobSpec job;
    job.name = "lockstep";
    job.kind = batch::JobKind::kLockstepSoak;
    job.banks = 2;
    job.shards = 4;
    job.transactions = 200;
    spec.jobs.push_back(job);
  }
  {
    batch::JobSpec job;
    job.name = "campaign";
    job.kind = batch::JobKind::kFaults;
    job.banks = 1;
    job.shards = 2;
    job.transactions = 120;
    job.structural_faults = 4;
    job.protocol_faults = 2;
    spec.jobs.push_back(job);
  }
  {
    batch::JobSpec job;
    job.name = "closure";
    job.kind = batch::JobKind::kCovClosure;
    job.shards = 2;
    job.target = 0.9;
    job.max_epochs = 8;
    spec.jobs.push_back(job);
  }
  {
    batch::JobSpec job;
    job.name = "properties";
    job.kind = batch::JobKind::kMcSweep;
    job.banks = 1;
    spec.jobs.push_back(job);
  }
  std::fputs((spec.to_json().dump(2) + "\n").c_str(), stdout);
  return 0;
}

int run_run(const util::Cli& cli) {
  const std::string path = cli.positional()[1];
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 2;
  }
  std::stringstream text;
  text << in.rdbuf();

  batch::BatchSpec spec;
  try {
    spec = batch::BatchSpec::parse(text.str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
    return 2;
  }

  batch::RunnerOptions opt;
  opt.workers = static_cast<int>(cli.get_int("workers", 1));
  opt.steal_seed = static_cast<std::uint64_t>(cli.get_int("steal-seed", 1));
  opt.shard_wall_ms =
      static_cast<std::uint64_t>(cli.get_int("shard-wall-ms", 0));
  opt.max_retries = static_cast<int>(cli.get_int("retries", 1));
  opt.backoff_ms = static_cast<std::uint64_t>(cli.get_int("backoff-ms", 10));
  opt.journal_path = cli.get("journal", "");
  opt.resume = cli.get_bool("resume", false);

  // ^C / SIGTERM: cancel the remaining shards, let running ones observe
  // the flag, and still emit the (partial) report below.
  exec::install_interrupt_handler();
  opt.cancel = &exec::interrupt_token();

  const batch::BatchResult result = batch::run_batch(spec, opt);

  const bool telemetry = !cli.get_bool("no-telemetry", false);
  const std::string json = cli.get("json", "");
  if (json == "-") {
    std::fputs((result.to_json(telemetry).dump(2) + "\n").c_str(), stdout);
  } else {
    std::printf("batch '%s': %zu job(s), %d worker(s)\n", result.name.c_str(),
                result.jobs.size(), result.stats.workers);
    for (const batch::JobResult& jr : result.jobs) {
      std::printf(
          "  %-14s %-13s %d shard(s): %d ok, %d timeout, %d crashed, "
          "%d cancelled, %d replayed  %-9s hash %016llx\n",
          jr.name.c_str(), to_string(jr.kind), jr.shards, jr.ok, jr.timed_out,
          jr.crashed, jr.cancelled, jr.replayed, jr.verdict.c_str(),
          static_cast<unsigned long long>(jr.hash));
    }
    std::printf("pool: %.2fs wall, %.2fs cpu, utilization %.0f%%, "
                "%d retried\n",
                result.stats.wall_seconds, result.stats.total_cpu_seconds(),
                100.0 * result.stats.utilization(), result.stats.retried);
    std::printf("batch hash %016llx  %s\n",
                static_cast<unsigned long long>(result.hash),
                result.interrupted ? "INTERRUPTED"
                : result.all_pass  ? "all pass"
                                   : "DEGRADED");
    if (!json.empty()) {
      std::ofstream f(json);
      if (!f) {
        std::fprintf(stderr, "cannot write %s\n", json.c_str());
        return 2;
      }
      f << result.to_json(telemetry).dump(2) << '\n';
      std::printf("wrote report to %s\n", json.c_str());
    }
  }
  if (result.interrupted) return 130;
  return result.all_pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  if (cli.has("help")) {
    print_usage(stdout);
    return 0;
  }
  if (cli.positional().empty()) return usage();
  const std::string mode = cli.positional()[0];
  if (mode == "help") {
    print_usage(stdout);
    return 0;
  }
  // A misspelled option must not silently fall back to its default; every
  // option belongs to `run` (`example` takes none).
  if (mode == "run") {
    for (const char* name :
         {"workers", "steal-seed", "shard-wall-ms", "retries", "backoff-ms",
          "journal", "resume", "json", "no-telemetry"}) {
      cli.has(name);
    }
  }
  const std::vector<std::string> unknown = cli.unused();
  for (const std::string& name : unknown) {
    std::fprintf(stderr, "unknown option --%s\n", name.c_str());
  }
  if (!unknown.empty()) return 2;
  try {
    if (mode == "example" && cli.positional().size() == 1) {
      return run_example();
    }
    if (mode == "run" && cli.positional().size() == 2) {
      return run_run(cli);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return usage();
}
