// Shared vocabulary of the benchmark driver: operations and their checks,
// per-round samples, metrics, and the workload interface.
#pragma once

#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "tracer.hpp"
#include "util/stopwatch.hpp"

namespace la1::perfbench {

/// The seed at which outputs are pinned to exact golden values. It is the
/// default seed of `la1check flow` and `refine::FlowOptions`, at which
/// flow_1bank always runs. Every other seed gets the seed-independent
/// checks only.
inline constexpr std::uint64_t kDefaultSeed = 7;

/// One operation: a flow stage, a property or symbolic check, an ABV
/// stream or a batch shard. It fails when it throws or breaks any check.
struct Op {
  std::string name;
  std::vector<std::string> problems;

  void expect(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
  template <typename T>
  void expect_eq(const T& got, const T& want, const std::string& what) {
    if (!(got == want)) {
      problems.push_back(what + ": got " + to_text(got) + ", want " +
                         to_text(want));
    }
  }

 private:
  static std::string to_text(const std::string& v) { return "'" + v + "'"; }
  template <typename T>
  static std::string to_text(const T& v) {
    return std::to_string(v);
  }
};

/// Counts operations attempted and failed, and keeps what failed.
class Ledger {
 public:
  /// Runs `body(op)` as one operation; an exception fails it.
  template <typename Fn>
  void run(const std::string& name, Fn&& body) {
    Op op{name, {}};
    try {
      body(op);
    } catch (const std::exception& e) {
      op.problems.push_back(std::string("threw: ") + e.what());
    } catch (...) {
      op.problems.push_back("threw a non-standard exception");
    }
    ++attempted_;
    if (!op.problems.empty()) {
      ++failed_;
      for (const std::string& p : op.problems) {
        problems_.push_back(op.name + ": " + p);
      }
    }
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& problems() const { return problems_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> problems_;
};

/// Per-round samples; a run reports the median of each.
class Samples {
 public:
  void add(const std::string& name, double value) {
    values_[name].push_back(value);
  }
  /// Median of the samples named `name`; 0 when there are none.
  double median(const std::string& name) const;

 private:
  std::map<std::string, std::vector<double>> values_;
};

using Metrics = std::map<std::string, double>;

struct Session {
  std::uint64_t seed = kDefaultSeed;
  Tracer& tracer;
  Ledger& ledger;
  bool default_seed() const { return seed == kDefaultSeed; }
};

/// Runs `fn` inside a span and returns its wall seconds.
template <typename Fn>
double timed(Tracer& tracer, const std::string& layer, const std::string& call,
             Fn&& fn) {
  const Tracer::Scope scope = tracer.span(layer, call);
  const util::Stopwatch watch;
  fn();
  return watch.seconds();
}

/// Accumulates the wall time of many short calls, only while tracing:
/// an untraced run reads no clock per cycle.
class CallTimer {
 public:
  explicit CallTimer(bool on) : on_(on) {}
  template <typename Fn>
  void time(Fn&& fn) {
    if (!on_) {
      fn();
      return;
    }
    const auto start = Tracer::Clock::now();
    fn();
    seconds_ += std::chrono::duration<double>(Tracer::Clock::now() - start)
                    .count();
    ++calls_;
  }
  double seconds() const { return seconds_; }
  std::uint64_t calls() const { return calls_; }
  /// Mean seconds per call; 0 before the first timed call.
  double per_call() const {
    return calls_ == 0 ? 0.0 : seconds_ / static_cast<double>(calls_);
  }

 private:
  bool on_;
  double seconds_ = 0.0;
  std::uint64_t calls_ = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds every input and model the next round needs. The driver runs
  /// it several times before each round, and an untraced run again after
  /// the last round, timing each; a round uses the build just before it.
  virtual void setup(Session& s) = 0;
  /// One pass of verdict-producing calls, from the first check to the
  /// last verdict. Records its operations and per-round samples.
  virtual void round(Session& s, Samples& samples) = 0;
  /// One-off cross-checks after the timed rounds; not part of verdict_s.
  virtual void cross_check(Session& s) { (void)s; }
  /// Traced runs: the workload's per-layer metrics, from its round samples
  /// and from probes of the layers it exercises. A metric of a layer the
  /// workload does not call is reported as 0.
  virtual void layer_metrics(Session& s, const Samples& samples,
                             Metrics& out) = 0;
};

std::unique_ptr<Workload> make_flow_workload();
std::unique_ptr<Workload> make_symbolic_workload();
std::unique_ptr<Workload> make_abv_batch_workload();

}  // namespace la1::perfbench
