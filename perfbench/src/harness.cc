#include "harness.h"

#include <linux/perf_event.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/simd.h"

namespace perfbench {

InstrCounter::InstrCounter(bool inherit) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = PERF_TYPE_HARDWARE;
  attr.config = PERF_COUNT_HW_INSTRUCTIONS;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.inherit = inherit ? 1 : 0;
  attr.read_format =
      PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING;
  fd_ = static_cast<int>(
      syscall(SYS_perf_event_open, &attr, 0 /*this process*/, -1, -1, 0));
  if (fd_ < 0) {
    throw Fatal{Format("perf_event_open(PERF_COUNT_HW_INSTRUCTIONS) failed: "
                       "%s — kinstr_per_op cannot be measured on this host",
                       std::strerror(errno))};
  }
}

InstrCounter::~InstrCounter() {
  if (fd_ >= 0) close(fd_);
}

uint64_t InstrCounter::Read() const {
  uint64_t values[3] = {0, 0, 0};  // value, time_enabled, time_running
  if (read(fd_, values, sizeof(values)) != static_cast<ssize_t>(sizeof(values))) {
    throw Fatal{Format("reading the instruction counter failed: %s",
                       std::strerror(errno))};
  }
  if (values[2] < values[1]) {
    throw Fatal{"the instruction counter was multiplexed (running < "
                "enabled); its count would be an estimate"};
  }
  return values[0];
}

InstrCounter& ProcessInstructions() {
  static InstrCounter* counter = new InstrCounter(/*inherit=*/true);
  return *counter;
}

double ProcessCpuSeconds() {
  rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  throw Fatal{"VmHWM missing from /proc/self/status"};
}

Percentile ComputePercentile(std::vector<double>* values, double q) {
  Percentile p;
  p.samples = values->size();
  if (values->empty()) return p;
  // Nearest rank: the smallest value with at least q of the samples at
  // or below it.
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(p.samples)));
  rank = std::max<size_t>(rank, 1);
  rank = std::min(rank, p.samples);
  std::nth_element(values->begin(), values->begin() + (rank - 1), values->end());
  p.value = (*values)[rank - 1];
  p.ok = p.samples - rank >= 10;
  return p;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

HostStamp Stamp() {
  HostStamp stamp;
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        stamp.cpu_model = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
  if (stamp.cpu_model.empty()) stamp.cpu_model = "unknown";
  stamp.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  stamp.simd_level = c2mn::simd::LevelName(c2mn::simd::ActiveLevel());
  return stamp;
}

Tracer::Tracer(size_t max_kept_spans) : max_kept_(max_kept_spans) {
  kept_.reserve(std::min<size_t>(max_kept_, 1 << 16));
  stack_.reserve(16);
}

Tracer::~Tracer() { delete thread_counter_; }

int Tracer::NameId(const char* name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  names_.emplace_back(name);
  totals_.emplace_back();
  return static_cast<int>(names_.size() - 1);
}

namespace {
int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

void Tracer::Begin(const char* name, bool count_instructions) {
  Open open{NameId(name), 0, 0, count_instructions, 0.0};
  if (count_instructions) {
    if (thread_counter_ == nullptr) thread_counter_ = new InstrCounter(false);
    open.start_instr = thread_counter_->Read();
  }
  open.start_ns = SteadyNs();
  stack_.push_back(open);
}

void Tracer::End() {
  const int64_t end_ns = SteadyNs();
  const Open open = stack_.back();
  stack_.pop_back();
  const double seconds = 1e-9 * static_cast<double>(end_ns - open.start_ns);
  Totals& t = totals_[static_cast<size_t>(open.name)];
  ++t.count;
  t.self_seconds += seconds - open.child_seconds;
  t.durations.push_back(seconds);
  if (open.instr) t.instructions += thread_counter_->Read() - open.start_instr;
  if (!stack_.empty()) stack_.back().child_seconds += seconds;
  if (kept_.size() < max_kept_) {
    kept_.push_back({open.name, static_cast<int>(stack_.size()), open.start_ns,
                     end_ns});
  } else {
    ++dropped_;
  }
}

const Tracer::Totals& Tracer::totals(const std::string& name) const {
  static const Totals kEmpty;
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return totals_[i];
  }
  return kEmpty;
}

void Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw Fatal{Format("cannot write trace %s: %s", path.c_str(),
                       std::strerror(errno))};
  }
  const int64_t origin = kept_.empty() ? 0 : kept_.front().start_ns;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped_spans\":%llu},"
                  "\"traceEvents\":[",
               static_cast<unsigned long long>(dropped_));
  for (size_t i = 0; i < kept_.size(); ++i) {
    const Kept& k = kept_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"depth\":%d}}",
                 i == 0 ? "" : ",", names_[static_cast<size_t>(k.name)].c_str(),
                 1e-3 * static_cast<double>(k.start_ns - origin),
                 1e-3 * static_cast<double>(k.end_ns - k.start_ns), k.depth);
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

void Outcome::AddPercentile(const std::string& name, const Percentile& p,
                            double scale, const std::string& unit) {
  if (!p.ok) {
    notes.push_back(Format("%s rests on only %zu samples (fewer than ten "
                           "beyond the percentile)",
                           name.c_str(), p.samples));
  }
  Add(name, scale * p.value, unit, p.samples);
}

void Outcome::Fail(const std::string& what) {
  correct = false;
  notes.push_back("CHECK FAILED: " + what);
}

const Metric* Outcome::Find(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string Format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  char buf[1024];
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

std::string ResultJson(const Outcome& outcome,
                       const std::vector<std::string>& metric_names) {
  std::string json = Format(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
      outcome.correct ? "true" : "false",
      static_cast<unsigned long long>(outcome.attempted),
      static_cast<unsigned long long>(outcome.failed));
  for (size_t i = 0; i < metric_names.size(); ++i) {
    const Metric* m = outcome.Find(metric_names[i]);
    if (m == nullptr || !std::isfinite(m->value)) {
      throw Fatal{"metric " + metric_names[i] + " was not measured"};
    }
    json += Format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                   i == 0 ? "" : ", ", m->name.c_str(), m->value,
                   m->unit.c_str());
  }
  json += "}}";
  return json;
}

}  // namespace perfbench
