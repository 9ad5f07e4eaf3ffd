// visits_rw — the read/write analytics path at a scale live_mall never
// reaches, closed loop on one thread: prep-annotated, time-shifted
// m-semantics stream through AnalyticsEngine::Ingest + NoteSessionClosed
// and StorageManager::BufferIngest/BufferClose/FlushShard across shards,
// with top-k polls interleaved at a fixed ratio, both standing-query kinds
// subscribed and one checkpoint mid-run.  It starts from a recovered state
// directory holding ~50k retained visits, with retention eviction and
// window expiry active.  Visit-store and log-writer changes show here;
// annotate_batch must not move.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <vector>

#include "analytics/analytics_engine.h"
#include "common/rng.h"
#include "core/annotator.h"
#include "eval/queries.h"
#include "storage/storage_manager.h"
#include "workloads.h"

namespace perfbench {
namespace {

using c2mn::AnalyticsEngine;
using c2mn::MSemantics;
using c2mn::storage::StorageManager;

constexpr int kShards = 4;
constexpr double kBucketSeconds = 60.0;
constexpr double kHorizonSeconds = 4 * 3600.0;
constexpr double kTargetRetained = 50000.0;
constexpr double kTrailingSeconds = 1800.0;
constexpr size_t kTopK = 10;
constexpr uint64_t kFlushEvery = 64;   // Ops per log-buffer hand-off.
constexpr uint64_t kPollEvery = 256;   // Ops per top-k poll.
constexpr int kRecoverRepeats = 8;
constexpr int64_t kObjectIdBase = 1000000;

// Set just before each Ingest; the standing-query callback it triggers
// measures from here.
double g_op_start = std::numeric_limits<double>::quiet_NaN();

struct Answers {
  std::vector<c2mn::RegionId> regions;
  std::vector<std::pair<c2mn::RegionId, c2mn::RegionId>> pairs;
  uint64_t retained = 0;
  uint64_t ingested = 0;

  bool operator==(const Answers& o) const {
    return regions == o.regions && pairs == o.pairs && retained == o.retained &&
           ingested == o.ingested;
  }
};

/// One event of the periodic stream (see Stream).
struct BaseEvent {
  double t = 0.0;
  int64_t object = 0;  ///< Object index within period 0 (may be negative).
  int pool = 0;
  int ms = -1;         ///< Index into the pool sequence's m-semantics; -1 = close.
  double shift = 0.0;  ///< Added to the pool m-semantics' times.
};

/// \brief An unbounded, deterministic m-semantics stream.
///
/// Virtual object i replays pool sequence (i mod P)'s annotated
/// m-semantics shifted to start at i * spacing + jitter[i mod P]; each
/// m-semantics is
/// ingested at its end time and the object closes after its last one.
/// (The pool order and the jitter come from the seed.)
/// Shifting every object by P maps the stream onto itself shifted by
/// P * spacing, so one period of events is precomputed and later periods
/// are the same events with object ids and times offset: O(1) per event.
class Stream {
 public:
  Stream(const std::vector<c2mn::MSemanticsSequence>* pool,
         const std::vector<double>& jitter, double spacing)
      : pool_(pool), period_objects_(static_cast<int64_t>(pool->size())) {
    period_seconds_ = spacing * static_cast<double>(period_objects_);
    double max_span = 0.0;
    for (const auto& seq : *pool) {
      if (!seq.empty()) max_span = std::max(max_span, seq.back().t_end - seq.front().t_start);
    }
    const int64_t lookback =
        static_cast<int64_t>(std::ceil((max_span + 2.0) / spacing)) + 1;
    for (int64_t i = -lookback; i < period_objects_; ++i) {
      const int p = static_cast<int>(((i % period_objects_) + period_objects_) %
                                     period_objects_);
      const auto& seq = (*pool)[static_cast<size_t>(p)];
      if (seq.empty()) continue;
      const double shift = static_cast<double>(i) * spacing +
                           jitter[static_cast<size_t>(p)] - seq.front().t_start;
      for (size_t j = 0; j <= seq.size(); ++j) {
        const bool close = j == seq.size();
        const double t = (close ? seq.back().t_end + 1.0 : seq[j].t_end) + shift;
        if (t < 0.0 || t >= period_seconds_) continue;
        base_.push_back({t, i, p, close ? -1 : static_cast<int>(j), shift});
      }
    }
    std::sort(base_.begin(), base_.end(), [](const BaseEvent& a, const BaseEvent& b) {
      if (a.t != b.t) return a.t < b.t;
      if (a.object != b.object) return a.object < b.object;
      return (a.ms < 0 ? 1 << 30 : a.ms) < (b.ms < 0 ? 1 << 30 : b.ms);
    });
    if (base_.empty()) throw Fatal{"visits_rw stream is empty"};
  }

  /// Event `index` of the stream: its object id and, for an ingest, the
  /// m-semantics (returns false for a close).
  bool Get(uint64_t index, int64_t* object, MSemantics* ms) const {
    const uint64_t period = index / base_.size();
    const BaseEvent& e = base_[index % base_.size()];
    const int64_t offset = static_cast<int64_t>(period) * period_objects_;
    *object = kObjectIdBase + e.object + offset;
    if (e.ms < 0) return false;
    *ms = (*pool_)[static_cast<size_t>(e.pool)][static_cast<size_t>(e.ms)];
    const double shift = e.shift + static_cast<double>(period) * period_seconds_;
    ms->t_start += shift;
    ms->t_end += shift;
    return true;
  }

  /// Index of the first event at or after simulated time `t`.
  uint64_t IndexAt(double t) const {
    const uint64_t period = static_cast<uint64_t>(t / period_seconds_);
    const double rem = t - static_cast<double>(period) * period_seconds_;
    const auto it = std::lower_bound(
        base_.begin(), base_.end(), rem,
        [](const BaseEvent& e, double v) { return e.t < v; });
    return period * base_.size() + static_cast<uint64_t>(it - base_.begin());
  }

 private:
  const std::vector<c2mn::MSemanticsSequence>* pool_;
  int64_t period_objects_;
  double period_seconds_ = 0.0;
  std::vector<BaseEvent> base_;
};

AnalyticsEngine::Options EngineOptions() {
  AnalyticsEngine::Options options;
  options.num_shards = kShards;
  options.bucket_seconds = kBucketSeconds;
  options.horizon_seconds = kHorizonSeconds;
  return options;
}

int ShardOf(int64_t object) { return static_cast<int>(object % kShards); }

class VisitsRw : public Workload {
 public:
  ~VisitsRw() override { RemoveDir(prepared_dir_); }

  void Prepare(const Args& args, const Venue& venue, double seconds) override {
    venue_ = &venue;
    seconds_ = seconds;
    const c2mn::C2mnAnnotator annotator(*venue.world, c2mn::FeatureOptions{},
                                        c2mn::C2mnStructure{}, venue.weights);
    double stays = 0.0;
    for (size_t i : SampleCatalogue(venue.catalogue.size(), venue.catalogue.size(),
                                    args.seed)) {
      pool_.push_back(annotator.AnnotateSemantics(venue.catalogue[i].sequence));
      for (const MSemantics& ms : pool_.back()) {
        stays += ms.event == c2mn::MobilityEvent::kStay ? 1.0 : 0.0;
      }
    }
    // Object spacing that keeps ~kTargetRetained stays inside the horizon.
    const double stays_per_object = stays / static_cast<double>(pool_.size());
    const double spacing = kHorizonSeconds * stays_per_object / kTargetRetained;
    c2mn::Rng rng(args.seed + 0x715175);
    std::vector<double> jitter(pool_.size());
    for (double& j : jitter) j = rng.Uniform(0.0, spacing);
    stream_ = std::make_unique<Stream>(&pool_, jitter, spacing);

    // Fill the state directory: a run that has ingested 1.5 horizons (so
    // retention is evicting), checkpointed at 1.25 horizons, and logged
    // the rest, then stopped.  Its answers are the uninterrupted run's.
    prepared_dir_ = ScratchDir() + "/visits_rw-prepared";
    ResetDir(prepared_dir_);
    AnalyticsEngine engine(EngineOptions());
    StorageManager storage(StorageOptions(prepared_dir_), kShards);
    if (!storage.Start().ok()) throw Fatal{"cannot start " + prepared_dir_};
    const uint64_t checkpoint_at = stream_->IndexAt(1.25 * kHorizonSeconds);
    start_index_ = stream_->IndexAt(1.5 * kHorizonSeconds);
    for (uint64_t i = 0; i < start_index_; ++i) {
      Apply(i, &engine, &storage, nullptr, nullptr);
      if (i % kFlushEvery == kFlushEvery - 1) FlushAll(&storage, nullptr);
      if (i == checkpoint_at && !storage.Checkpoint(engine).ok()) {
        throw Fatal{"prep checkpoint failed"};
      }
    }
    if (!storage.Sync().ok()) throw Fatal{"prep log sync failed"};
    uninterrupted_ = Poll(engine, nullptr, nullptr);
  }

  Outcome Run(Tracer* tracer) override {
    Outcome out;
    ResetPeakRss();
    const std::string dir = ScratchDir() + "/visits_rw-state";

    SetupTimer setup;
    std::vector<double> world_times;
    std::vector<double> recover_times;
    c2mn::storage::RecoveryStats recovery;
    System sys = SetUp(dir, &setup, &world_times, &recover_times, &recovery,
                       &out);
    AnalyticsEngine* engine = sys.engine.get();
    StorageManager* storage = sys.storage.get();

    std::vector<double> push_latency;
    std::vector<c2mn::RegionId> horizon_answer;
    c2mn::StandingQuery regions_query;
    regions_query.spec.all_regions = true;
    regions_query.k = kTopK;
    c2mn::StandingQuery pairs_query;
    pairs_query.kind = c2mn::StandingQuery::Kind::kFrequentPairs;
    pairs_query.spec.all_regions = true;
    pairs_query.k = kTopK;
    pairs_query.trailing_seconds = kTrailingSeconds;
    const auto on_delta = [&push_latency](const c2mn::StandingQueryDelta& d) {
      if (d.sequence > 1) push_latency.push_back(NowSeconds() - g_op_start);
    };
    engine->Subscribe(regions_query, [&](const c2mn::StandingQueryDelta& d) {
      horizon_answer = d.regions;
      on_delta(d);
    });
    engine->Subscribe(pairs_query, on_delta);

    const c2mn::AnalyticsSnapshot before = engine->Snapshot();
    std::vector<double> poll_seconds;
    uint64_t ingests = 0;
    uint64_t ops = 0;
    uint64_t deltas = 0;
    uint64_t poll_failures = 0;
    uint64_t ingests_at_checkpoint = 0;
    double checkpoint_seconds = -1.0;
    uint64_t snapshot_bytes = 0;
    uint64_t index = start_index_;
    const PhaseTimer timer;
    const double wall0 = NowSeconds();
    double wall = 0.0;
    while (true) {
      const int d = Apply(index++, engine, storage, tracer, &ingests);
      deltas += static_cast<uint64_t>(std::max(d, 0));
      ++ops;
      if (ops % kFlushEvery == 0) FlushAll(storage, tracer);
      if (ops % kPollEvery == 0) {
        const Answers a = Poll(*engine, tracer, &poll_seconds);
        if (a.regions.size() != kTopK || a.pairs.size() != kTopK) ++poll_failures;
      }
      if (ops % 1024 != 0) continue;
      wall = NowSeconds() - wall0;
      if (checkpoint_seconds < 0.0 && wall >= 0.5 * seconds_) {
        const double t0 = NowSeconds();
        c2mn::Status status;
        {
          Span span(tracer, "storage.checkpoint");
          status = storage->Checkpoint(*engine);
        }
        checkpoint_seconds = NowSeconds() - t0;
        ingests_at_checkpoint = ingests;
        if (!status.ok()) {
          ++out.failed;
          out.Fail("mid-run checkpoint failed: " + status.ToString());
        }
        std::error_code ec;
        snapshot_bytes = std::filesystem::file_size(dir + "/snapshot.c2mn", ec);
      }
      if (wall >= seconds_) break;
    }
    const PhaseCost cost = timer.Stop(ingests, wall0);
    {
      // Later start-up samples, each also checked against the prep run.
      c2mn::storage::RecoveryStats later;
      SetUp(dir + "-later", &setup, &world_times, &recover_times, &later, &out);
      RemoveDir(dir + "-later");
    }
    const c2mn::AnalyticsSnapshot after = engine->Snapshot();

    // Untimed checks: polls against a brute-force recount of the retained
    // visits, the standing query against a poll, and a restart from the
    // state directory against the live engine.
    const Answers live = Poll(*engine, nullptr, nullptr);
    const Answers recount = BruteForce(*engine);
    if (live.regions != recount.regions || live.pairs != recount.pairs) {
      ++out.failed;
      out.Fail("polls differ from a brute-force recount of retained visits");
    }
    if (horizon_answer != live.regions) {
      ++out.failed;
      out.Fail("horizon standing query's last delta differs from a poll");
    }
    if (!storage->Sync().ok()) {
      ++out.failed;
      out.Fail("log sync failed");
    }
    const uint64_t log_bytes = storage->log_bytes();
    {
      AnalyticsEngine restarted(EngineOptions());
      StorageManager reader(StorageOptions(dir), kShards);
      c2mn::storage::RecoveryStats stats;
      if (!reader.Recover(&restarted, &stats).ok() ||
          !(Poll(restarted, nullptr, nullptr) == live)) {
        ++out.failed;
        out.Fail("answers after a restart differ from the live engine's");
      }
    }
    sys.storage.reset();
    RemoveDir(dir);
    if (poll_failures > 0) {
      out.failed += poll_failures;
      out.Fail("polls returned short answers");
    }
    out.attempted = ingests + poll_seconds.size() + 1;

    out.Add("setup_s", setup.Seconds(), "s", setup.samples());
    AddCostMetrics(&out, cost);
    // A 10 s run pushes ~1000 deltas and polls ~600 times: p90 is the
    // highest percentile with ten samples beyond it.
    out.AddPercentile("visits.push_p90_ms", ComputePercentile(&push_latency, 0.90),
                      1e3, "ms");
    out.AddPercentile("visits.poll_p90_us", ComputePercentile(&poll_seconds, 0.90),
                      1e6, "us");
    out.notes.push_back(Format(
        "visits_rw: %llu ingests, %llu retained visits, %llu deltas, %zu polls, "
        "recovered %llu log records (%llu visits)",
        static_cast<unsigned long long>(ingests),
        static_cast<unsigned long long>(after.retained_visits),
        static_cast<unsigned long long>(deltas), poll_seconds.size(),
        static_cast<unsigned long long>(recovery.replayed_records),
        static_cast<unsigned long long>(recovery.replayed_visits)));

    if (tracer != nullptr) {
      const double n = static_cast<double>(std::max<uint64_t>(ingests, 1));
      const Tracer::Totals& ingest = tracer->totals("analytics.ingest");
      const Tracer::Totals& close = tracer->totals("analytics.close");
      const Tracer::Totals& buffer = tracer->totals("storage.buffer");
      const Tracer::Totals& flush = tracer->totals("storage.flush");
      const Tracer::Totals& poll_regions = tracer->totals("analytics.poll_regions");
      const Tracer::Totals& poll_pairs = tracer->totals("analytics.poll_pairs");
      const double recover_s = Median(recover_times);
      out.Add("indoor.world_create_s", Median(world_times), "s", world_times.size());
      out.Add("analytics.ingest_us", ingest.MeanSelfMicros(), "us", ingest.count);
      out.Add("analytics.close_us", close.MeanSelfMicros(), "us", close.count);
      out.Add("analytics.deltas_per_ingest", static_cast<double>(deltas) / n,
              "count", ingests);
      out.Add("analytics.retained_visits", static_cast<double>(after.retained_visits),
              "count", 1);
      out.Add("analytics.poll_regions_us", poll_regions.MeanSelfMicros(), "us",
              poll_regions.count);
      out.Add("analytics.poll_pairs_us", poll_pairs.MeanSelfMicros(), "us", poll_pairs.count);
      const double preagg =
          static_cast<double>(after.preagg_queries - before.preagg_queries);
      const double scan = static_cast<double>(after.scan_queries - before.scan_queries);
      out.Add("analytics.preagg_poll_share", preagg / std::max(preagg + scan, 1.0),
              "fraction", static_cast<uint64_t>(preagg + scan));
      out.Add("query.window_rotations_per_kingest",
              1e3 * static_cast<double>(after.window_rotations - before.window_rotations) / n,
              "count", ingests);
      out.Add("query.expired_per_ingest",
              static_cast<double>(after.window_expired_visits -
                                  before.window_expired_visits) / n,
              "count", ingests);
      out.Add("storage.buffer_ns_per_visit", 1e3 * buffer.MeanSelfMicros(), "ns", buffer.count);
      out.Add("storage.flush_us", flush.MeanSelfMicros(), "us", flush.count);
      out.Add("storage.log_bytes_per_visit",
              static_cast<double>(log_bytes) /
                  static_cast<double>(std::max<uint64_t>(ingests - ingests_at_checkpoint, 1)),
              "bytes", ingests - ingests_at_checkpoint);
      out.Add("storage.checkpoint_ms", 1e3 * checkpoint_seconds, "ms", 1);
      out.Add("storage.snapshot_bytes", static_cast<double>(snapshot_bytes), "bytes", 1);
      out.Add("storage.recover_ms", 1e3 * recover_s, "ms", recover_times.size());
      out.Add("storage.replay_visits_per_s",
              static_cast<double>(recovery.replayed_visits) / recover_s, "1/s",
              recovery.replayed_visits);
    }
    return out;
  }

 private:
  struct System {
    std::unique_ptr<c2mn::World> world;
    std::unique_ptr<AnalyticsEngine> engine;
    std::unique_ptr<StorageManager> storage;
  };

  /// Set-up: World::Create + engine + StorageManager::Recover of a fresh
  /// copy of the prepared state directory (snapshot load + log replay),
  /// repeated kRecoverRepeats times with the times appended.  Every
  /// recovered engine must answer as the uninterrupted prep run did.
  /// Returns the last one.
  System SetUp(const std::string& dir, SetupTimer* setup,
               std::vector<double>* world_times,
               std::vector<double>* recover_times,
               c2mn::storage::RecoveryStats* recovery, Outcome* out) const {
    System sys;
    for (int i = 0; i < kRecoverRepeats; ++i) {
      sys.storage.reset();
      sys.engine.reset();
      sys.world.reset();
      RemoveDir(dir);
      std::error_code ec;
      std::filesystem::copy(prepared_dir_, dir,
                            std::filesystem::copy_options::recursive, ec);
      if (ec) throw Fatal{"cannot copy the prepared state: " + ec.message()};
      const double t0 = setup->Start();
      sys.world = std::make_unique<c2mn::World>(c2mn::World::Create(venue_->plan));
      const double t1 = NowSeconds();
      sys.engine = std::make_unique<AnalyticsEngine>(EngineOptions());
      sys.storage = std::make_unique<StorageManager>(StorageOptions(dir), kShards);
      const c2mn::Status status = sys.storage->Recover(sys.engine.get(), recovery);
      const double t2 = NowSeconds();
      setup->Stop();
      if (!status.ok()) throw Fatal{"recovery refused: " + status.ToString()};
      world_times->push_back(t1 - t0);
      recover_times->push_back(t2 - t1);
      if (!(Poll(*sys.engine, nullptr, nullptr) == uninterrupted_)) {
        ++out->failed;
        out->Fail("answers after Recover differ from the uninterrupted run's");
      }
    }
    return sys;
  }

  static StorageManager::Options StorageOptions(const std::string& dir) {
    StorageManager::Options options;
    options.state_dir = dir;
    return options;
  }

  /// Applies stream event `index`; returns the deltas an ingest pushed
  /// (-1 for a close) and counts ingests.
  int Apply(uint64_t index, AnalyticsEngine* engine, StorageManager* storage,
            Tracer* tracer, uint64_t* ingests) const {
    int64_t object = 0;
    MSemantics ms;
    const bool ingest = stream_->Get(index, &object, &ms);
    const int s = ShardOf(object);
    uint64_t seq = 0;
    if (!ingest) {
      {
        Span span(tracer, "analytics.close");
        engine->NoteSessionClosed(s, object, &seq);
      }
      Span span(tracer, "storage.buffer");
      storage->BufferClose(s, seq, object);
      return -1;
    }
    int deltas = 0;
    g_op_start = NowSeconds();
    {
      Span span(tracer, "analytics.ingest");
      deltas = engine->Ingest(s, object, ms, &seq);
    }
    {
      Span span(tracer, "storage.buffer");
      storage->BufferIngest(s, seq, object, ms);
    }
    if (ingests != nullptr) ++*ingests;
    return deltas;
  }

  static void FlushAll(StorageManager* storage, Tracer* tracer) {
    for (int s = 0; s < kShards; ++s) {
      Span span(tracer, "storage.flush");
      storage->FlushShard(s);
    }
  }

  Answers Poll(const AnalyticsEngine& engine, Tracer* tracer,
               std::vector<double>* seconds) const {
    Answers a;
    const double t0 = NowSeconds();
    {
      Span span(tracer, "analytics.poll_regions");
      a.regions = engine.TopKPopularRegions(venue_->region_ids,
                                            c2mn::TimeWindow::All(), kTopK);
    }
    {
      Span span(tracer, "analytics.poll_pairs");
      a.pairs = engine.TopKFrequentRegionPairs(venue_->region_ids,
                                               c2mn::TimeWindow::All(), kTopK);
    }
    if (seconds != nullptr) {
      seconds->push_back(NowSeconds() - t0);
      return a;
    }
    const c2mn::AnalyticsSnapshot snap = engine.Snapshot();
    a.retained = snap.retained_visits;
    a.ingested = snap.semantics_ingested;
    return a;
  }

  /// The batch queries over the engine's retained visits.
  Answers BruteForce(const AnalyticsEngine& engine) const {
    const c2mn::AnalyticsEngineState state = engine.SaveState();
    std::map<int64_t, c2mn::MSemanticsSequence> by_object;
    for (const auto& shard : state.shards) {
      for (const auto& v : shard.visits) {
        MSemantics ms;
        ms.region = v.region;
        ms.t_start = v.t_start;
        ms.t_end = v.t_end;
        ms.event = c2mn::MobilityEvent::kStay;
        by_object[v.object_id].push_back(ms);
      }
    }
    c2mn::AnnotatedCorpus corpus;
    for (auto& [object, seq] : by_object) corpus.Add(object, std::move(seq));
    Answers a;
    a.regions = c2mn::TopKPopularRegions(corpus, venue_->region_ids,
                                         c2mn::TimeWindow::All(), kTopK);
    a.pairs = c2mn::TopKFrequentRegionPairs(corpus, venue_->region_ids,
                                            c2mn::TimeWindow::All(), kTopK);
    return a;
  }

  const Venue* venue_ = nullptr;
  double seconds_ = 0.0;
  std::vector<c2mn::MSemanticsSequence> pool_;
  std::unique_ptr<Stream> stream_;
  std::string prepared_dir_;
  uint64_t start_index_ = 0;
  Answers uninterrupted_;
};

}  // namespace

std::unique_ptr<Workload> MakeVisitsRw() { return std::make_unique<VisitsRw>(); }

}  // namespace perfbench
