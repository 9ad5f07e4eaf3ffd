// The benchmark program: `perfbench --workload W --seed N --seconds S
// --trace 0|1` (normally started through run.py, which builds it first).
//
// --trace 0 runs workload W untraced and reports the end-to-end metrics.
// --trace 1 runs W untraced and then traced on the same inputs (their
// instruction ratio is obs.trace_overhead_frac), then the other two
// workloads traced (each owns some layers' figures), and reports every
// per-layer metric.  The last stdout line is the result JSON; everything before it
// is a human-readable report (host stamp, sample counts, checks).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.h"
#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Must match BENCHMARK.json.
// Only metrics that repeat tightly on a shared host are end-to-end; the
// wall-clock throughput and CPU cost of the untraced run are reported as
// e2e.* per-layer metrics instead (see README.md).
const std::vector<std::string> kEndToEnd = {"setup_s", "kinstr_per_op",
                                            "rss_mb"};

const std::vector<std::string> kPerLayer = {
    "e2e.ops_per_s",
    "e2e.cpu_us_per_op",
    "indoor.world_create_s",
    "core.graph_us_per_record",
    "core.decode_us_per_record",
    "core.kinstr_graph_per_record",
    "core.kinstr_decode_per_record",
    "core.candidates_per_record",
    "core.combined_acc",
    "online.push_us",
    "online.decode_us",
    "online.flush_us",
    "online.decodes_per_record",
    "online.kinstr_per_record",
    "service.submit_us_p99",
    "service.queue_depth_max",
    "service.decode_batch_fill",
    "service.queue_wait_ms_p50",
    "service.queue_wait_ms_p99",
    "gen.late_p99_ms",
    "live.result_p50_ms",
    "live.result_p99_ms",
    "live.push_p90_ms",
    "live.poll_p90_us",
    "analytics.ingest_us",
    "analytics.close_us",
    "analytics.deltas_per_ingest",
    "analytics.retained_visits",
    "analytics.poll_regions_us",
    "analytics.poll_pairs_us",
    "analytics.preagg_poll_share",
    "query.window_rotations_per_kingest",
    "query.expired_per_ingest",
    "visits.push_p90_ms",
    "visits.poll_p90_us",
    "storage.buffer_ns_per_visit",
    "storage.flush_us",
    "storage.log_bytes_per_visit",
    "storage.checkpoint_ms",
    "storage.snapshot_bytes",
    "storage.recover_ms",
    "storage.replay_visits_per_s",
    "obs.trace_overhead_frac",
};

const char* kWorkloads[] = {"live_mall", "annotate_batch", "visits_rw"};

std::unique_ptr<Workload> Make(const std::string& name) {
  if (name == "live_mall") return MakeLiveMall();
  if (name == "annotate_batch") return MakeAnnotateBatch();
  if (name == "visits_rw") return MakeVisitsRw();
  return nullptr;
}

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload live_mall|annotate_batch|visits_rw "
               "--seed N --seconds S --trace 0|1\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
      have_workload = Make(value) != nullptr;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(value, &end, 10));
      if (*end != '\0' || args->seconds < 1) return false;
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

void PrintReport(const char* title, const Outcome& outcome) {
  std::printf("--- %s: %s, attempted %llu, failed %llu\n", title,
              outcome.correct ? "correct" : "INCORRECT",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
  for (const std::string& note : outcome.notes) {
    std::printf("  %s\n", note.c_str());
  }
  for (const Metric& m : outcome.metrics) {
    std::printf("  %-36s %16.6g %-8s (n=%llu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
}

void Merge(const Outcome& from, Outcome* into) {
  into->correct = into->correct && from.correct;
  into->attempted += from.attempted;
  into->failed += from.failed;
  for (const Metric& m : from.metrics) {
    if (into->Find(m.name) == nullptr) into->metrics.push_back(m);
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  c2mn::Logger::Global().set_level(c2mn::LogLevel::kWarning);
  // Opened before any thread exists, so `inherit` covers every worker.
  ProcessInstructions();

  const HostStamp stamp = Stamp();
  std::printf("stamp: {\"cpu_model\": \"%s\", \"nproc\": %d, \"simd\": \"%s\", "
              "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %d, "
              "\"trace\": %d}\n",
              stamp.cpu_model.c_str(), stamp.nproc, stamp.simd_level.c_str(),
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::fflush(stdout);

  const double prep0 = NowSeconds();
  const Venue venue = MakeVenue();
  const double prep1 = NowSeconds();
  std::unique_ptr<Workload> workload = Make(args.workload);
  workload->Prepare(args, venue, args.seconds);
  std::printf("prep (untimed): venue + training %.2f s, workload inputs %.2f s\n",
              prep1 - prep0, NowSeconds() - prep1);
  const Outcome base = workload->Run(nullptr);
  PrintReport(args.workload.c_str(), base);
  if (!args.trace) {
    std::printf("%s\n", ResultJson(base, kEndToEnd).c_str());
    return 0;
  }

  ResetDir(ScratchDir() + "/traces");
  Outcome layers;
  layers.correct = base.correct;
  layers.attempted = base.attempted;
  layers.failed = base.failed;
  for (const char* name : {"ops_per_s", "cpu_us_per_op"}) {
    const Metric* m = base.Find(name);
    layers.Add(std::string("e2e.") + name, m->value, m->unit, m->samples);
  }
  {
    Tracer tracer;
    const Outcome traced = workload->Run(&tracer);
    PrintReport((args.workload + " (traced)").c_str(), traced);
    const double overhead = traced.Find("kinstr_per_op")->value /
                                base.Find("kinstr_per_op")->value -
                            1.0;
    layers.Add("obs.trace_overhead_frac", overhead, "fraction",
               traced.Find("kinstr_per_op")->samples);
    Merge(traced, &layers);
    tracer.WriteChromeTrace(Format("%s/traces/%s-seed%llu.json",
                                   ScratchDir().c_str(), args.workload.c_str(),
                                   static_cast<unsigned long long>(args.seed)));
  }
  workload.reset();
  for (const char* other : kWorkloads) {
    if (args.workload == other) continue;
    std::unique_ptr<Workload> side = Make(other);
    side->Prepare(args, venue, args.seconds);
    Tracer tracer;
    const Outcome traced = side->Run(&tracer);
    PrintReport((std::string(other) + " (traced)").c_str(), traced);
    Merge(traced, &layers);
    tracer.WriteChromeTrace(Format("%s/traces/%s-seed%llu-with-%s.json",
                                   ScratchDir().c_str(), args.workload.c_str(),
                                   static_cast<unsigned long long>(args.seed),
                                   other));
  }
  std::printf("%s\n", ResultJson(layers, kPerLayer).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const perfbench::Fatal& fatal) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", fatal.message.c_str());
    return 3;
  }
}
