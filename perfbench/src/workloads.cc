#include "workloads.h"

#include <malloc.h>
#include <sched.h>

#include <filesystem>
#include <fstream>

namespace perfbench {

std::string ScratchDir() { return ".bench_build/perfbench-scratch"; }

void ResetDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) throw Fatal{"cannot create " + dir + ": " + ec.message()};
}

void RemoveDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

void ResetPeakRss() {
  // Return freed prep memory to the kernel, then restart VmHWM from the
  // current RSS ("5" resets the peak; Linux >= 4.0), so rss_mb reflects
  // the measured phase rather than untimed input preparation.
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  if (!clear) throw Fatal{"cannot reset the peak RSS via /proc/self/clear_refs"};
}

PhaseTimer::PhaseTimer()
    : instr0_(ProcessInstructions().Read()), cpu0_(ProcessCpuSeconds()) {}

PhaseCost PhaseTimer::Stop(uint64_t ops, double wall_start) const {
  PhaseCost cost;
  cost.ops = ops;
  cost.wall_seconds = NowSeconds() - wall_start;
  cost.instructions = ProcessInstructions().Read() - instr0_;
  cost.cpu_seconds = ProcessCpuSeconds() - cpu0_;
  cost.peak_rss_mb = PeakRssMb();
  return cost;
}

namespace {

cpu_set_t ProcessMask() {
  static const cpu_set_t mask = [] {
    cpu_set_t m;
    CPU_ZERO(&m);
    if (sched_getaffinity(0, sizeof(m), &m) != 0) {
      throw Fatal{"sched_getaffinity failed"};
    }
    return m;
  }();
  return mask;
}

void SetAffinity(pid_t tid, const cpu_set_t& mask) {
  sched_setaffinity(tid, sizeof(mask), &mask);  // Exited threads: ignored.
}

}  // namespace

SetupTimer::SetupTimer() {
  const cpu_set_t mask = ProcessMask();
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mask)) cpus_.push_back(cpu);
  }
  if (cpus_.empty()) throw Fatal{"the process may run on no CPU"};
  per_cpu_.resize(cpus_.size());
}

double SetupTimer::Start() {
  current_ = next_++ % cpus_.size();
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[current_], &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) {
    throw Fatal{"cannot pin the set-up thread"};
  }
  start_ = NowSeconds();
  return start_;
}

void SetupTimer::Stop() {
  per_cpu_[current_].push_back(NowSeconds() - start_);
  ++samples_;
  const cpu_set_t mask = ProcessMask();
  std::error_code ec;
  for (const auto& task : std::filesystem::directory_iterator("/proc/self/task", ec)) {
    SetAffinity(static_cast<pid_t>(std::stol(task.path().filename().string())), mask);
  }
  SetAffinity(0, mask);
}

double SetupTimer::Seconds() const {
  double best = 0.0;
  for (const std::vector<double>& times : per_cpu_) {
    if (times.empty()) continue;
    const double median = Median(times);
    if (best == 0.0 || median < best) best = median;
  }
  return best;
}

void AddCostMetrics(Outcome* outcome, const PhaseCost& cost) {
  const double n = static_cast<double>(cost.ops > 0 ? cost.ops : 1);
  outcome->Add("ops_per_s", static_cast<double>(cost.ops) / cost.wall_seconds,
               "1/s", cost.ops);
  outcome->Add("kinstr_per_op", 1e-3 * static_cast<double>(cost.instructions) / n,
               "kinstr", cost.ops);
  outcome->Add("cpu_us_per_op", 1e6 * cost.cpu_seconds / n, "us", cost.ops);
  outcome->Add("rss_mb", cost.peak_rss_mb, "MiB", 1);
}

}  // namespace perfbench
