#include "inputs.h"

#include <algorithm>
#include <utility>

#include "common/rng.h"
#include "core/trainer.h"
#include "harness.h"
#include "sim/building_gen.h"
#include "sim/scenarios.h"

namespace perfbench {

using c2mn::LabeledSequence;
using c2mn::MSemantics;
using c2mn::PositioningRecord;

namespace {

// The venue and the model are part of the system under test, not of the
// workload: fixed seeds keep them identical across `--seed` values.
constexpr uint64_t kVenueSeed = 7;
constexpr uint64_t kTrainTrafficSeed = 1001;
constexpr int kTrainObjects = 30;
constexpr int kTrainIterations = 6;
constexpr uint64_t kCatalogueSeed = 2002;
constexpr int kCatalogueObjects = 600;

// The mall scenario's visitor and sensing model (sim/scenarios.cc), with
// the traffic drawn from its own seed instead of the venue's.
c2mn::Dataset MallTraffic(const c2mn::World& world, uint64_t seed,
                          int objects) {
  c2mn::MobilityConfig mobility;
  mobility.num_objects = objects;
  mobility.horizon_seconds = 4 * 3600.0;
  mobility.min_lifespan_seconds = 1900.0;
  mobility.max_lifespan_seconds = 3200.0;
  c2mn::ObservationConfig observation;
  observation.min_period_seconds = 10.0;
  observation.max_period_seconds = 26.0;
  observation.error_mu = 5.0;
  observation.num_floors = world.plan().num_floors();
  c2mn::Rng rng(seed);
  return c2mn::GenerateDataset(world, mobility, observation,
                               c2mn::PreprocessOptions{}, &rng);
}

}  // namespace

Venue MakeVenue() {
  c2mn::Rng rng(kVenueSeed);
  auto plan = c2mn::GenerateBuilding(c2mn::MallConfig(), &rng);
  if (!plan.ok()) throw Fatal{"mall generation failed"};
  Venue venue;
  venue.plan = std::move(plan).ValueOrDie();
  venue.world = std::make_unique<c2mn::World>(c2mn::World::Create(venue.plan));
  for (const c2mn::SemanticRegion& region : venue.plan.regions()) {
    venue.region_ids.push_back(region.id);
  }

  const c2mn::Dataset train =
      MallTraffic(*venue.world, kTrainTrafficSeed, kTrainObjects);
  std::vector<const LabeledSequence*> train_set;
  for (const LabeledSequence& ls : train.sequences) train_set.push_back(&ls);
  c2mn::TrainOptions topts;
  topts.max_iter = kTrainIterations;
  topts.seed = kTrainTrafficSeed + 1;
  c2mn::AlternateTrainer trainer(*venue.world, c2mn::FeatureOptions{},
                                 c2mn::C2mnStructure{}, topts);
  venue.weights = trainer.Train(train_set).weights;
  venue.catalogue =
      MallTraffic(*venue.world, kCatalogueSeed, kCatalogueObjects).sequences;
  if (venue.catalogue.empty()) throw Fatal{"the visit catalogue is empty"};
  return venue;
}

std::vector<size_t> SampleCatalogue(size_t catalogue_size, size_t count,
                                    uint64_t seed) {
  std::vector<size_t> order(catalogue_size);
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  c2mn::Rng rng(seed * 0xD1B54A32D192ED03ull + 0xca7);
  for (size_t i = order.size(); i > 1; --i) {  // Fisher-Yates.
    std::swap(order[i - 1], order[rng.UniformInt(static_cast<uint64_t>(i))]);
  }
  order.resize(std::min(count, order.size()));
  return order;
}

LiveSchedule MakeLiveSchedule(const std::vector<LabeledSequence>& pool,
                              uint64_t seed, double rate, int slots,
                              double warmup_seconds, double run_seconds) {
  double total_duration = 0.0;
  double total_gaps = 0.0;
  for (const LabeledSequence& ls : pool) {
    total_duration += ls.sequence.Duration();
    total_gaps += static_cast<double>(ls.size() > 1 ? ls.size() - 1 : 0);
  }
  const double mean_period = total_duration / std::max(total_gaps, 1.0);
  const double mean_duration = total_duration / static_cast<double>(pool.size());

  LiveSchedule schedule;
  schedule.run_seconds = run_seconds;
  // Each slot produces one record per mean_period simulated seconds.
  schedule.speedup = rate * mean_period / static_cast<double>(slots);
  const double sim_begin = -warmup_seconds * schedule.speedup;
  const double sim_end = run_seconds * schedule.speedup;

  c2mn::Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x5eed);
  // Visits are dealt from a seeded shuffle of the pool, cycling, so every
  // pool visit is replayed about equally often and the run's cost does
  // not hinge on which visits a with-replacement draw happened to favour.
  const std::vector<size_t> deck = SampleCatalogue(pool.size(), pool.size(), seed);
  size_t dealt = 0;
  int64_t next_object = 1;
  for (int slot = 0; slot < slots; ++slot) {
    // Random phase: the slot's first visitor is already mid-visit.
    double t = sim_begin - rng.Uniform01() * mean_duration;
    while (t < sim_end) {
      const LabeledSequence& source = pool[deck[dealt++ % deck.size()]];
      const double shift = t - source.sequence.records.front().timestamp;
      LiveSession session;
      session.object_id = next_object++;
      bool reached_end = true;
      for (const PositioningRecord& rec : source.sequence.records) {
        PositioningRecord shifted = rec;
        shifted.timestamp += shift;
        if (shifted.timestamp < sim_begin) continue;
        if (shifted.timestamp >= sim_end) {
          reached_end = false;
          break;
        }
        session.records.push_back(shifted);
        session.due.push_back(shifted.timestamp / schedule.speedup);
      }
      if (!session.records.empty()) {
        session.close_due = session.due.back() + mean_period / schedule.speedup;
        session.closes = reached_end && session.close_due < run_seconds;
        schedule.sessions.push_back(std::move(session));
      }
      t += source.sequence.Duration() + rng.Uniform(0.0, 2.0 * mean_period);
    }
  }

  for (size_t s = 0; s < schedule.sessions.size(); ++s) {
    const LiveSession& session = schedule.sessions[s];
    for (size_t r = 0; r < session.records.size(); ++r) {
      schedule.ops.push_back(
          {session.due[r], static_cast<int>(s), static_cast<int>(r)});
    }
    if (session.closes) {
      schedule.ops.push_back({session.close_due, static_cast<int>(s), -1});
    }
  }
  std::stable_sort(schedule.ops.begin(), schedule.ops.end(),
                   [](const LiveOp& a, const LiveOp& b) { return a.due < b.due; });
  return schedule;
}

std::vector<Emission> AttributeEmissions(
    const std::vector<PositioningRecord>& records,
    const std::function<void(const PositioningRecord&, std::vector<MSemantics>*)>&
        push,
    const std::function<void(std::vector<MSemantics>*)>& flush) {
  std::vector<Emission> emissions;
  std::vector<MSemantics> out;
  for (size_t i = 0; i < records.size(); ++i) {
    push(records[i], &out);
    for (const MSemantics& ms : out) {
      emissions.push_back({ms, static_cast<int>(i)});
    }
  }
  flush(&out);
  for (const MSemantics& ms : out) emissions.push_back({ms, kCloseTrigger});
  return emissions;
}

bool SameSemantics(const MSemantics& a, const MSemantics& b) {
  return a.region == b.region && a.t_start == b.t_start && a.t_end == b.t_end &&
         a.event == b.event && a.support == b.support;
}

}  // namespace perfbench
