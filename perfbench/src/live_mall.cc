// live_mall — the product path end to end, open loop: one generator thread
// replays mall visitors on a schedule into an AnnotationService (default
// OnlineAnnotator options, live analytics, a write-ahead log in a state
// directory, a horizon-wide regions standing query, a trailing-window
// pairs standing query) and polls the top-k answers periodically.  Decode
// dominates its CPU, so graph, decode, online-window and service changes
// show here; an analytics-only speedup should not.
//
// The offered rate is fixed well below the service's capacity (see
// README.md), so latency reflects the program, not how full a queue got.
#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/online_annotator.h"
#include "eval/queries.h"
#include "service/annotation_service.h"
#include "storage/storage_manager.h"
#include "workloads.h"

namespace perfbench {
namespace {

using c2mn::AnnotationService;
using c2mn::MSemantics;
using c2mn::OnlineAnnotator;
using c2mn::StandingQuery;
using c2mn::StandingQueryDelta;

constexpr double kRate = 8000.0;    // Offered records/s.
constexpr int kSlots = 256;         // Visitors in the building at once.
constexpr int kShards = 2;          // + 1 generator thread <= nproc.
constexpr double kWarmupSeconds = 3.0;
constexpr double kPollInterval = 0.02;
constexpr size_t kTopK = 10;
constexpr double kTrailingSeconds = 1800.0;
constexpr int kLiveSetupRepeats = 12;

// Due time (absolute, steady clock seconds) of the op whose push is being
// delivered on this worker; set by the sink, read by the standing-query
// callback that runs next on the same worker.
thread_local double tl_due = std::numeric_limits<double>::quiet_NaN();

std::chrono::steady_clock::time_point ToTimePoint(double seconds) {
  return std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds)));
}

struct SessionState {
  const LiveSession* session = nullptr;
  const std::vector<Emission>* reference = nullptr;
  size_t next = 0;
  uint64_t mismatches = 0;
  std::vector<MSemantics> emitted;
  std::vector<double> result_latency;  ///< Seconds, measured-phase ops only.
};

class LiveMall : public Workload {
 public:
  void Prepare(const Args& args, const Venue& venue, double seconds) override {
    venue_ = &venue;
    schedule_ = MakeLiveSchedule(venue.catalogue, args.seed, kRate, kSlots,
                                 kWarmupSeconds, seconds);
    // The final top-k check compares against every emitted visit, so the
    // replayed simulated time must stay inside the retention horizon.
    if ((kWarmupSeconds + seconds) * schedule_.speedup >=
        c2mn::AnalyticsEngine::Options{}.horizon_seconds) {
      throw Fatal{"live_mall: the run replays more than the analytics horizon"};
    }
    // The reference: each session replayed through a standalone
    // OnlineAnnotator.  It says which op triggered the j-th emission, and
    // the service must deliver exactly these m-semantics.
    reference_.reserve(schedule_.sessions.size());
    for (const LiveSession& session : schedule_.sessions) {
      OnlineAnnotator annotator(*venue.world, c2mn::FeatureOptions{},
                                c2mn::C2mnStructure{}, venue.weights);
      reference_.push_back(AttributeEmissions(
          session.records,
          [&annotator](const c2mn::PositioningRecord& r,
                       std::vector<MSemantics>* out) {
            annotator.PushInto(r, out);
          },
          [&annotator](std::vector<MSemantics>* out) {
            annotator.FlushInto(out);
          }));
    }
  }

  Outcome Run(Tracer* tracer) override {
    Outcome out;
    ResetPeakRss();
    const std::string state_root = ScratchDir() + "/live_mall-state";

    // Everything the service's callbacks reach is declared before it, so
    // it outlives the service on every path out of this function.
    std::mutex push_mu;
    std::vector<double> push_latency;
    std::vector<c2mn::RegionId> horizon_answer;
    StandingQuery regions_query;
    regions_query.spec.all_regions = true;
    regions_query.k = kTopK;
    StandingQuery pairs_query;
    pairs_query.kind = StandingQuery::Kind::kFrequentPairs;
    pairs_query.spec.all_regions = true;
    pairs_query.k = kTopK;
    pairs_query.trailing_seconds = kTrailingSeconds;
    const auto on_delta = [&push_mu, &push_latency](const StandingQueryDelta& d) {
      if (d.sequence <= 1 || std::isnan(tl_due)) return;
      const double latency = NowSeconds() - tl_due;
      std::lock_guard<std::mutex> lock(push_mu);
      push_latency.push_back(latency);
    };
    std::vector<SessionState> states(schedule_.sessions.size());
    for (size_t s = 0; s < states.size(); ++s) {
      states[s].session = &schedule_.sessions[s];
      states[s].reference = &reference_[s];
    }

    SetupTimer setup;
    std::vector<double> world_times;
    System sys = SetUp(state_root, &setup, &world_times);
    AnnotationService* service = sys.service.get();
    if (!service
             ->SubscribeAnalytics(regions_query,
                                  [&](const StandingQueryDelta& d) {
                                    {
                                      std::lock_guard<std::mutex> lock(push_mu);
                                      horizon_answer = d.regions;
                                    }
                                    on_delta(d);
                                  })
             .ok() ||
        !service->SubscribeAnalytics(pairs_query, on_delta).ok()) {
      ++out.failed;
      out.Fail("standing-query subscription refused");
    }

    // Wall origin: op due d runs at origin + d; d < 0 is warm-up.
    const double origin = NowSeconds() + kWarmupSeconds + 0.05;
    const double run_seconds = schedule_.run_seconds;
    const auto make_sink = [origin, run_seconds](SessionState* st) {
      return [st, origin, run_seconds](int64_t, const MSemantics& ms) {
        const size_t j = st->next++;
        st->emitted.push_back(ms);
        tl_due = std::numeric_limits<double>::quiet_NaN();
        if (j >= st->reference->size() ||
            !SameSemantics(ms, (*st->reference)[j].ms)) {
          ++st->mismatches;
          return;
        }
        const int trigger = (*st->reference)[j].trigger;
        double due = std::numeric_limits<double>::quiet_NaN();
        if (trigger >= 0) {
          due = st->session->due[static_cast<size_t>(trigger)];
        } else if (st->session->closes) {
          due = st->session->close_due;
        }
        if (due >= 0.0 && due < run_seconds) {
          tl_due = origin + due;
          st->result_latency.push_back(NowSeconds() - tl_due);
        }
      };
    };

    uint64_t submit_failures = 0;
    uint64_t polls = 0;
    uint64_t measured_ops = 0;
    size_t queue_depth_max = 0;
    std::vector<double> lateness;
    std::vector<double> poll_seconds;
    double next_poll = origin - kWarmupSeconds;
    std::unique_ptr<PhaseTimer> timer;
    const c2mn::AnalyticsEngine* engine = service->analytics();
    for (const LiveOp& op : schedule_.ops) {
      const double due_abs = origin + op.due;
      if (timer == nullptr && op.due >= 0.0) {
        std::this_thread::sleep_until(ToTimePoint(origin));
        timer = std::make_unique<PhaseTimer>();
      }
      for (double now = NowSeconds(); now < due_abs; now = NowSeconds()) {
        if (now >= next_poll) {
          Poll(*engine, tracer, timer != nullptr ? &poll_seconds : nullptr);
          ++polls;
          if (tracer != nullptr) {
            for (size_t depth : service->Stats().queue_depths) {
              queue_depth_max = std::max(queue_depth_max, depth);
            }
          }
          // A late generator skips missed polls instead of bursting them.
          next_poll = std::max(next_poll + kPollInterval, now);
          continue;
        }
        std::this_thread::sleep_until(ToTimePoint(std::min(due_abs, next_poll)));
      }
      if (op.due >= 0.0) {
        lateness.push_back(NowSeconds() - due_abs);
        if (op.record >= 0) ++measured_ops;
      }
      SessionState& st = states[static_cast<size_t>(op.session)];
      const int64_t id = st.session->object_id;
      c2mn::Status status;
      if (op.record == 0) {
        status = service->OpenSession(id, make_sink(&st));
      }
      if (status.ok() && op.record >= 0) {
        Span span(tracer, "service.submit");
        status = service->Submit(
            id, st.session->records[static_cast<size_t>(op.record)]);
      } else if (status.ok()) {
        status = service->CloseSession(id);
      }
      if (!status.ok()) ++submit_failures;
    }
    service->Drain();
    const PhaseCost cost = timer->Stop(measured_ops, origin);
    SetUp(state_root, &setup, &world_times);  // Later start-up samples.

    // Untimed: close what the run left open, then check everything.
    for (const LiveSession& session : schedule_.sessions) {
      if (!session.closes) service->CloseSession(session.object_id);
    }
    service->Drain();
    const c2mn::ServiceStats stats = service->Stats();

    uint64_t mismatches = 0;
    std::vector<double> result_latency;
    c2mn::AnnotatedCorpus corpus;
    for (SessionState& st : states) {
      mismatches += st.mismatches + (st.reference->size() > st.next
                                         ? st.reference->size() - st.next
                                         : 0);
      result_latency.insert(result_latency.end(), st.result_latency.begin(),
                            st.result_latency.end());
      corpus.Add(st.session->object_id, st.emitted);
    }
    out.attempted = schedule_.ops.size() + polls;
    out.failed = mismatches + submit_failures;
    if (mismatches > 0) {
      out.Fail(Format("%llu m-semantics differ from the standalone "
                      "OnlineAnnotator reference",
                      static_cast<unsigned long long>(mismatches)));
    }
    if (submit_failures > 0) out.Fail("Open/Submit/Close calls failed");
    const auto live_regions =
        engine->TopKPopularRegions(venue_->region_ids, c2mn::TimeWindow::All(), kTopK);
    const auto live_pairs = engine->TopKFrequentRegionPairs(
        venue_->region_ids, c2mn::TimeWindow::All(), kTopK);
    if (live_regions != c2mn::TopKPopularRegions(corpus, venue_->region_ids,
                                                 c2mn::TimeWindow::All(), kTopK) ||
        live_pairs != c2mn::TopKFrequentRegionPairs(
                          corpus, venue_->region_ids, c2mn::TimeWindow::All(),
                          kTopK)) {
      ++out.failed;
      out.Fail("final engine top-k differs from eval over the emitted visits");
    }
    {
      std::lock_guard<std::mutex> lock(push_mu);
      if (horizon_answer != live_regions) {
        ++out.failed;
        out.Fail("horizon standing query's last delta differs from a poll");
      }
    }

    const c2mn::AnalyticsSnapshot snap = service->AnalyticsStats();
    c2mn::obs::HistogramSnapshot queue_wait;
    for (const c2mn::obs::MetricSnapshot& m :
         service->metrics_registry().Snapshot()) {
      if (m.name == "c2mn_pipeline_stage_seconds" &&
          m.labels == c2mn::obs::LabelSet{{"stage", "queue_wait"}}) {
        queue_wait = m.histogram;
      }
    }
    sys.service.reset();
    RemoveDir(state_root);

    out.Add("setup_s", setup.Seconds(), "s", setup.samples());
    AddCostMetrics(&out, cost);
    Percentile p50 = ComputePercentile(&result_latency, 0.50);
    Percentile p99 = ComputePercentile(&result_latency, 0.99);
    // Deltas and polls are far rarer than records: their tail is read at
    // p90, the highest percentile with ten samples beyond it in a run.
    Percentile push90 = ComputePercentile(&push_latency, 0.90);
    Percentile poll90 = ComputePercentile(&poll_seconds, 0.90);
    Percentile late99 = ComputePercentile(&lateness, 0.99);
    out.notes.push_back(Format(
        "live_mall: %zu sessions, offered %.0f records/s (speedup %.0fx), "
        "%llu emitted m-semantics, %llu deltas, %llu polls, %llu records "
        "processed",
        schedule_.sessions.size(), kRate, schedule_.speedup,
        static_cast<unsigned long long>(stats.semantics_emitted),
        static_cast<unsigned long long>(snap.deltas_pushed),
        static_cast<unsigned long long>(polls),
        static_cast<unsigned long long>(stats.records_processed)));
    // Workload-specific latencies, reported with their sample counts.
    out.AddPercentile("live.result_p50_ms", p50, 1e3, "ms");
    out.AddPercentile("live.result_p99_ms", p99, 1e3, "ms");
    out.AddPercentile("live.push_p90_ms", push90, 1e3, "ms");
    out.AddPercentile("live.poll_p90_us", poll90, 1e6, "us");
    out.AddPercentile("gen.late_p99_ms", late99, 1e3, "ms");

    if (tracer != nullptr) {
      out.Add("indoor.world_create_s", Median(world_times), "s",
              world_times.size());
      std::vector<double> submit = tracer->totals("service.submit").durations;
      out.AddPercentile("service.submit_us_p99",
                        ComputePercentile(&submit, 0.99), 1e6, "us");
      out.Add("service.queue_depth_max", static_cast<double>(queue_depth_max),
              "count", polls);
      out.Add("service.decode_batch_fill",
              static_cast<double>(stats.batched_decodes) /
                  static_cast<double>(std::max<uint64_t>(stats.decode_batches, 1)),
              "count", stats.decode_batches);
      out.Add("service.queue_wait_ms_p50", 1e3 * queue_wait.Quantile(0.50), "ms",
              queue_wait.count);
      out.Add("service.queue_wait_ms_p99", 1e3 * queue_wait.Quantile(0.99), "ms",
              queue_wait.count);
      ReplayOnline(tracer, &out);
    }
    return out;
  }

 private:
  struct System {
    std::unique_ptr<c2mn::World> world;
    std::unique_ptr<AnnotationService> service;
  };

  /// Set-up: World::Create + service construction (workers, analytics
  /// engine, storage recovery of an empty state directory), repeated
  /// kLiveSetupRepeats times with each time appended; returns the last.
  System SetUp(const std::string& state_root, SetupTimer* setup,
               std::vector<double>* world_times) const {
    System sys;
    for (int i = 0; i < kLiveSetupRepeats; ++i) {
      sys.service.reset();  // Before the world it references.
      sys.world.reset();
      const std::string dir =
          Format("%s/%zu", state_root.c_str(), world_times->size());
      ResetDir(dir);
      const double t0 = setup->Start();
      sys.world = std::make_unique<c2mn::World>(c2mn::World::Create(venue_->plan));
      const double t1 = NowSeconds();
      AnnotationService::Options options;
      options.num_shards = kShards;
      options.analytics.enabled = true;
      options.storage.state_dir = dir;
      sys.service = std::make_unique<AnnotationService>(
          *sys.world, c2mn::FeatureOptions{}, c2mn::C2mnStructure{},
          venue_->weights, options);
      setup->Stop();
      if (!sys.service->storage_status().ok()) {
        throw Fatal{"state directory refused: " +
                    sys.service->storage_status().ToString()};
      }
      world_times->push_back(t1 - t0);
    }
    return sys;
  }

  // One poll: both top-k questions, as a dashboard would ask them.
  void Poll(const c2mn::AnalyticsEngine& engine, Tracer* tracer,
            std::vector<double>* seconds) const {
    const double t0 = NowSeconds();
    {
      Span span(tracer, "live.poll_regions");
      engine.TopKPopularRegions(venue_->region_ids, c2mn::TimeWindow::All(),
                                kTopK);
    }
    {
      Span span(tracer, "live.poll_pairs");
      engine.TopKFrequentRegionPairs(venue_->region_ids, c2mn::TimeWindow::All(),
                                     kTopK);
    }
    if (seconds != nullptr) seconds->push_back(NowSeconds() - t0);
  }

  // Traced single-thread replay of the schedule through the calls a shard
  // worker makes, in its order.
  void ReplayOnline(Tracer* tracer, Outcome* out) const;

  const Venue* venue_ = nullptr;
  LiveSchedule schedule_;
  std::vector<std::vector<Emission>> reference_;
};

void LiveMall::ReplayOnline(Tracer* tracer, Outcome* out) const {
  c2mn::AnalyticsEngine::Options engine_options;
  engine_options.num_shards = kShards;
  c2mn::AnalyticsEngine engine(engine_options);
  const std::string dir = ScratchDir() + "/live_mall-replay";
  ResetDir(dir);
  c2mn::storage::StorageManager::Options storage_options;
  storage_options.state_dir = dir;
  c2mn::storage::StorageManager storage(storage_options, kShards);
  if (!storage.Start().ok()) throw Fatal{"cannot start the replay log in " + dir};

  const auto& sessions = schedule_.sessions;
  std::vector<std::unique_ptr<OnlineAnnotator>> annotators(sessions.size());
  std::vector<size_t> next(sessions.size(), 0);
  c2mn::DecodeWorkspace workspaces[kShards];
  std::vector<MSemantics> emitted;
  uint64_t records = 0;
  uint64_t decodes = 0;
  uint64_t mismatches = 0;
  const auto deliver = [&](size_t s, int shard, bool traced) {
    const int64_t id = sessions[s].object_id;
    for (const MSemantics& ms : emitted) {
      const size_t j = next[s]++;
      if (j >= reference_[s].size() || !SameSemantics(ms, reference_[s][j].ms)) {
        ++mismatches;
      }
      uint64_t seq = 0;
      {
        Span span(traced ? tracer : nullptr, "replay.ingest");
        engine.Ingest(shard, id, ms, &seq);
      }
      Span span(traced ? tracer : nullptr, "replay.buffer");
      storage.BufferIngest(shard, seq, id, ms);
    }
  };
  const auto close = [&](size_t s, int shard, bool traced) {
    const int64_t id = sessions[s].object_id;
    {
      Span span(traced ? tracer : nullptr, "online.flush", true);
      annotators[s]->FlushInto(&workspaces[shard], &emitted);
    }
    deliver(s, shard, traced);
    uint64_t seq = 0;
    {
      Span span(traced ? tracer : nullptr, "replay.close");
      engine.NoteSessionClosed(shard, id, &seq);
    }
    storage.BufferClose(shard, seq, id);
    annotators[s].reset();
  };

  uint64_t ops = 0;
  for (const LiveOp& op : schedule_.ops) {
    const size_t s = static_cast<size_t>(op.session);
    const int shard = static_cast<int>(sessions[s].object_id % kShards);
    if (op.record == 0) {
      annotators[s] = std::make_unique<OnlineAnnotator>(
          *venue_->world, c2mn::FeatureOptions{}, c2mn::C2mnStructure{},
          venue_->weights);
    }
    if (op.record >= 0) {
      bool decode_due = false;
      {
        Span span(tracer, "online.push");
        decode_due = annotators[s]->PushBuffered(
            sessions[s].records[static_cast<size_t>(op.record)]);
      }
      ++records;
      if (decode_due) {
        {
          Span span(tracer, "online.decode", true);
          annotators[s]->CompleteDecode(&workspaces[shard], &emitted);
        }
        ++decodes;
        deliver(s, shard, true);
      }
    } else {
      close(s, shard, true);
    }
    // A worker flushes its log buffer at every queue-drain boundary.
    if (++ops % 64 == 0) {
      for (int sh = 0; sh < kShards; ++sh) {
        Span span(tracer, "replay.flush");
        storage.FlushShard(sh);
      }
    }
  }
  for (size_t s = 0; s < sessions.size(); ++s) {
    if (annotators[s] != nullptr) {
      close(s, static_cast<int>(sessions[s].object_id % kShards), false);
    }
    if (next[s] != reference_[s].size()) ++mismatches;
  }
  if (mismatches > 0) {
    out->failed += mismatches;
    out->Fail("traced replay diverged from the OnlineAnnotator reference");
  }
  RemoveDir(dir);

  const Tracer::Totals& push = tracer->totals("online.push");
  const Tracer::Totals& decode = tracer->totals("online.decode");
  const Tracer::Totals& flush = tracer->totals("online.flush");
  const double n = static_cast<double>(std::max<uint64_t>(records, 1));
  out->Add("online.push_us", push.MeanSelfMicros(), "us", push.count);
  out->Add("online.decode_us", decode.MeanSelfMicros(), "us", decode.count);
  out->Add("online.flush_us", flush.MeanSelfMicros(), "us", flush.count);
  out->Add("online.decodes_per_record", static_cast<double>(decodes) / n,
           "count", records);
  out->Add("online.kinstr_per_record",
           1e-3 * static_cast<double>(decode.instructions + flush.instructions) / n,
           "kinstr", records);
}

}  // namespace

std::unique_ptr<Workload> MakeLiveMall() { return std::make_unique<LiveMall>(); }

}  // namespace perfbench
