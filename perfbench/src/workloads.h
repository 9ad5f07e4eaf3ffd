// The three benchmark workloads.  Each one prepares its inputs untimed,
// then `Run` measures set-up and a timed phase of `seconds` and returns
// the end-to-end metrics (same names and definitions on every workload)
// plus its correctness verdict.  With a tracer, `Run` also records spans
// around the public calls into each layer and adds that layer's metrics.
#ifndef C2MN_PERFBENCH_WORKLOADS_H_
#define C2MN_PERFBENCH_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "inputs.h"

namespace perfbench {

/// Directory (inside the checkout) for state directories and trace files.
std::string ScratchDir();
/// Recreates `dir` empty.
void ResetDir(const std::string& dir);
void RemoveDir(const std::string& dir);
/// Restarts the peak-RSS gauge at the current RSS (call after prep).
void ResetPeakRss();

/// \brief Start-up timings taken on each CPU in turn.
///
/// On a shared host a CPU whose core is busy with another tenant runs a
/// start-up ~30 % slower than an idle one, and which CPUs are busy changes
/// from run to run, so timings taken on whatever CPU the process landed on
/// swung by +-20 % between runs.  Each start-up is therefore timed with
/// the calling thread pinned to the next CPU of the process's mask, and
/// setup_s is the median on the least-loaded CPU (the lowest per-CPU
/// median).  Threads a start-up creates inherit the pin; Stop() returns
/// every thread of the process to the original mask.
class SetupTimer {
 public:
  SetupTimer();
  /// Pins the calling thread to the next CPU; returns the start time.
  double Start();
  /// Records the start-up that began at the last Start(), unpins.
  void Stop();
  /// Lowest per-CPU median start-up time.
  double Seconds() const;
  size_t samples() const { return samples_; }

 private:
  std::vector<int> cpus_;  ///< CPUs of the process mask.
  std::vector<std::vector<double>> per_cpu_;
  size_t next_ = 0;
  size_t current_ = 0;
  double start_ = 0.0;
  size_t samples_ = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Untimed: inputs for a timed phase of `seconds`, reference answers,
  /// prepared state.
  virtual void Prepare(const Args& args, const Venue& venue,
                       double seconds) = 0;
  /// Set-up plus the timed phase; may be called more than once.
  virtual Outcome Run(Tracer* tracer) = 0;
};

std::unique_ptr<Workload> MakeLiveMall();
std::unique_ptr<Workload> MakeAnnotateBatch();
std::unique_ptr<Workload> MakeVisitsRw();

/// What the timed phase consumed, read as it ends (before any untimed
/// checks allocate or burn CPU).
struct PhaseCost {
  uint64_t ops = 0;
  double wall_seconds = 0.0;
  uint64_t instructions = 0;
  double cpu_seconds = 0.0;
  double peak_rss_mb = 0.0;
};

/// Starts a timed phase: reads the instruction counter and CPU clock.
class PhaseTimer {
 public:
  PhaseTimer();
  /// Ends the phase with `ops` completed since `wall_start` (steady-clock
  /// seconds, so an open loop can start its clock at its schedule origin).
  PhaseCost Stop(uint64_t ops, double wall_start) const;

 private:
  uint64_t instr0_;
  double cpu0_;
};

/// Adds the cost metrics every workload reports (ops_per_s,
/// kinstr_per_op, cpu_us_per_op, rss_mb).
void AddCostMetrics(Outcome* outcome, const PhaseCost& cost);

}  // namespace perfbench

#endif  // C2MN_PERFBENCH_WORKLOADS_H_
