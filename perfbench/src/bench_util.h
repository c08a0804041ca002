// Shared helpers of the end-to-end benchmark: a seeded RNG that does not
// depend on the program's own (so a change to src/ cannot change the
// inputs), a steady clock, order statistics, peak-RSS probes, the metric
// sink that prints the result line, and the span recorder of the traced
// mode.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// SplitMix64: tiny, seedable, identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform();
  /// Uniform integer in [0, n).
  uint64_t Below(uint64_t n);
  /// Standard normal (Box-Muller, one draw per call).
  double Normal();

 private:
  uint64_t state_;
};

/// Seconds on the steady clock since an arbitrary epoch.
double Now();
/// Seconds since this process started (kernel start time of the process).
double SecondsSinceProcessStart();

/// q-quantile by linear interpolation (q in [0, 1]); 0 for an empty list.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Largest resident set of this process and of any waited-for child, MB.
double PeakRssMb();

/// A named metric of the result line.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// The figures one workload run produces: the end-to-end set (untraced
/// runs print it) and the per-layer set (traced runs print it), plus the
/// operation counts and the outcome of the reference checks.
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  Metrics end_to_end;
  Metrics per_layer;
  /// Human-readable reasons for `correct == false`.
  std::vector<std::string> check_failures;
  /// Workload-specific figures outside the two gated sets (written to the
  /// trace file and to stderr; see the README).
  Metrics extra;

  void Fail(const std::string& why);
};

/// The binary's last stdout line: {"correct", "attempted", "failed",
/// "end_to_end": {name: {"value", "unit"}}, "per_layer": {...}}.
std::string ResultJson(const RunResult& result);

std::string JsonEscape(const std::string& s);

/// Span recorder of the traced mode. Disabled, every call is a branch on
/// a bool. Enabled, spans are kept in memory and written once, at the end,
/// as a Chrome trace-event file (chrome://tracing, Perfetto).
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  struct Event {
    std::string name;
    std::string cat;
    double start = 0;  // seconds, steady clock
    double end = 0;
    int tid = 0;
    int64_t id = 0;
    int64_t parent = 0;
    std::vector<std::pair<std::string, double>> args;
  };

  /// RAII span. `parent` 0 means "the innermost open span of this thread".
  class Span {
   public:
    Span(Tracer* tracer, std::string name, std::string cat,
         int64_t parent = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    /// Attaches a count (or any number) recorded at this boundary.
    void Arg(const std::string& key, double value);
    int64_t id() const { return event_.id; }

   private:
    Tracer* tracer_;
    Event event_;
    int64_t saved_current_ = 0;
  };

  /// Writes every recorded span plus `other` (name -> value) to `path`.
  bool WriteChromeTrace(const std::string& path, const Metrics& other) const;
  std::size_t num_events() const;

 private:
  void Record(Event event);
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Event> events_;  // guarded by mu_
  std::atomic<int64_t> next_id_{1};
  friend class Span;
};

}  // namespace perfbench
