// Span recorder for the benchmark's traced runs.
//
// Every call the benchmark makes into a la1kit layer is wrapped in a span
// (name, layer, start, end, parent). Spans stay in memory and are written
// once, at the end of the run, as Chrome trace-event JSON
// (chrome://tracing, ui.perfetto.dev). A layer's self time is the time its
// spans cover minus the part their child spans cover.
//
// A disabled tracer records nothing: the untraced runs that produce the
// end-to-end metrics pay one branch per call site.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace la1::perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;   // "<layer>.<call>", e.g. "mc.symbolic_partitioned"
    std::string layer;  // owning layer, e.g. "mc"
    int parent = -1;    // index into spans(); -1 = top level
    double start_s = 0.0;  // seconds since the tracer was created
    double end_s = 0.0;
    std::uint64_t calls = 1;
    bool aggregate = false;  // stands for `calls` per-cycle calls
  };

  /// Closes its span when destroyed.
  class Scope {
   public:
    Scope(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    Tracer* tracer_;
    int index_;
  };

  Tracer();

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span under the innermost open span.
  Scope span(const std::string& layer, const std::string& call);

  /// Records `calls` per-cycle calls that together took `seconds` inside
  /// the innermost open span, as one aggregate child span placed at that
  /// span's start. Per-cycle spans would outnumber the work they time.
  void aggregate(const std::string& layer, const std::string& call,
                 double seconds, std::uint64_t calls);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self seconds per layer over every recorded span.
  std::map<std::string, double> self_seconds() const;

  /// The spans as Chrome trace-event JSON ("X" complete events, one
  /// process, one thread; parent index and call count in args).
  std::string chrome_json() const;

 private:
  double now() const;

  bool enabled_ = false;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace la1::perfbench
