// Measurement plumbing shared by the three benchmark workloads: hardware
// instruction counters, process CPU/RSS probes, percentiles that know
// their sample count, an in-memory span tracer, the host stamp, and the
// result line the benchmark contract asks for.
#ifndef C2MN_PERFBENCH_HARNESS_H_
#define C2MN_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line arguments shared by every workload.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

/// Thrown for anything that must end the run without a result line
/// (a counter that cannot be opened, a state directory that cannot be
/// written).  Correctness mismatches are not errors: they count as
/// failed ops.
struct Fatal {
  std::string message;
};

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User-space instructions retired, read through perf_event_open
/// (PERF_COUNT_HW_INSTRUCTIONS, exclude_kernel).  With `inherit` the
/// counter also covers every thread created after it was opened, so the
/// process-wide counter must be opened before any worker thread exists.
/// Throws Fatal when the kernel refuses the counter — a run never
/// reports a cost it did not measure.
class InstrCounter {
 public:
  explicit InstrCounter(bool inherit);
  ~InstrCounter();
  InstrCounter(const InstrCounter&) = delete;
  InstrCounter& operator=(const InstrCounter&) = delete;

  /// Instructions counted so far.  Throws Fatal if the counter was
  /// multiplexed with other events (its count would be an estimate).
  uint64_t Read() const;

 private:
  int fd_ = -1;
};

/// The process-wide, inheriting counter opened at start-up by main().
InstrCounter& ProcessInstructions();

/// Process user+system CPU seconds (all threads).
double ProcessCpuSeconds();
/// Peak resident set size (VmHWM) in MiB.
double PeakRssMb();

/// A percentile together with the number of samples behind it.  `ok` is
/// true when at least ten samples lie beyond the percentile, the
/// smallest tail that makes a percentile worth reporting.
struct Percentile {
  double value = 0.0;
  size_t samples = 0;
  bool ok = false;
};

/// Nearest-rank percentile (q in [0, 1]) of `values` (reordered).
Percentile ComputePercentile(std::vector<double>* values, double q);

/// Median of `values` (reordered); 0 for an empty vector.
double Median(std::vector<double> values);

/// CPU model, online CPU count, and active SIMD tier, so figures from
/// different hosts are never compared.
struct HostStamp {
  std::string cpu_model;
  int nproc = 0;
  std::string simd_level;
};
HostStamp Stamp();

/// \brief In-memory span recorder for the traced run.
///
/// Spans are opened and closed on one thread in LIFO order; each closed
/// span adds its duration (and, when requested, its user-instruction
/// count from a thread-local counter) to per-name totals, and its self
/// time (duration minus child spans) to the name's self total.  The raw
/// spans are kept, up to a cap, and written as Chrome trace JSON at the
/// end of the run.
class Tracer {
 public:
  struct Totals {
    uint64_t count = 0;
    double self_seconds = 0.0;
    uint64_t instructions = 0;
    std::vector<double> durations;  ///< Per-span seconds (for percentiles).

    double MeanSelfMicros() const {
      return count > 0 ? 1e6 * self_seconds / static_cast<double>(count) : 0.0;
    }
  };

  explicit Tracer(size_t max_kept_spans = 200000);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span; `count_instructions` reads the thread's instruction
  /// counter at both ends (a syscall each, so only for coarse spans).
  void Begin(const char* name, bool count_instructions = false);
  void End();

  const Totals& totals(const std::string& name) const;
  /// Writes the kept spans as Chrome trace-event JSON.
  void WriteChromeTrace(const std::string& path) const;

 private:
  struct Open {
    int name;
    int64_t start_ns;
    uint64_t start_instr;
    bool instr;
    double child_seconds;
  };
  struct Kept {
    int name;
    int depth;
    int64_t start_ns;
    int64_t end_ns;
  };
  int NameId(const char* name);

  size_t max_kept_;
  std::vector<std::string> names_;
  std::vector<Totals> totals_;
  std::vector<Open> stack_;
  std::vector<Kept> kept_;
  uint64_t dropped_ = 0;
  InstrCounter* thread_counter_ = nullptr;
};

/// RAII span; a null tracer makes it free.
class Span {
 public:
  Span(Tracer* tracer, const char* name, bool count_instructions = false)
      : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Begin(name, count_instructions);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

/// One named metric of the result line, with the sample count it rests
/// on (printed in the human-readable report; the result line carries
/// value and unit only).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
};

/// What a workload hands back to main().
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines (workload-specific figures and check results).
  std::vector<std::string> notes;

  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples) {
    metrics.push_back({name, value, unit, samples});
  }
  /// Adds percentile `p` of samples in seconds, scaled to `unit` by
  /// `scale`; notes it when fewer than ten samples lie beyond it.
  void AddPercentile(const std::string& name, const Percentile& p,
                     double scale, const std::string& unit);
  /// Records a failed check: the run is then reported as incorrect.
  void Fail(const std::string& what);
  const Metric* Find(const std::string& name) const;
};

/// Formats printf-style into a std::string.
std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// The result line: one JSON object with exactly correct / attempted /
/// failed / metrics, every value printed with all its digits.
std::string ResultJson(const Outcome& outcome,
                       const std::vector<std::string>& metric_names);

}  // namespace perfbench

#endif  // C2MN_PERFBENCH_HARNESS_H_
