// Inputs of the benchmark workloads.  The venue (building), the model
// weights and a catalogue of simulated visits are fixed — the deployment
// under test and its recorded traffic, built once per process from fixed
// seeds in untimed prep — while `--seed` draws the schedule the workloads
// replay from the catalogue: which visits, in what order, at which time
// phases.  Seeds thus vary what the program is fed, never what it is, and
// a run's cost does not hinge on one small random sample of visitors.
#ifndef C2MN_PERFBENCH_INPUTS_H_
#define C2MN_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "data/labels.h"
#include "data/msemantics.h"
#include "indoor/floorplan.h"
#include "sim/world.h"

namespace perfbench {

/// The fixed venue: the floorplan (kept so set-up can rebuild the World
/// from it), the prepared World, the trained C2MN weights, and the visit
/// catalogue (labeled p-sequences of simulated mall visitors).
struct Venue {
  c2mn::Floorplan plan;
  std::unique_ptr<c2mn::World> world;
  std::vector<double> weights;
  std::vector<c2mn::RegionId> region_ids;
  std::vector<c2mn::LabeledSequence> catalogue;
};

/// Generates the mall, trains the weights and simulates the catalogue
/// (fixed seeds, untimed).
Venue MakeVenue();

/// `count` distinct catalogue indices in an order drawn from `seed`.
std::vector<size_t> SampleCatalogue(size_t catalogue_size, size_t count,
                                    uint64_t seed);

/// \brief An open-loop replay of mall traffic, compressed in time.
///
/// `slots` visitors are in the building at any moment: each slot plays
/// p-sequences back to back, starting mid-visit at a random phase, so
/// opens and closes are spread over the run instead of arriving in
/// lockstep.  Timestamps are shifted onto one global simulated clock and
/// every record is due at sim_time / speedup wall seconds, where the
/// speedup is chosen so the whole replay offers `rate` records/s.  Ops
/// due in [-warmup, 0) warm the service up; [0, run) is measured.
/// Sessions still open at `run` are closed after the measured phase.
struct LiveSession {
  int64_t object_id = 0;
  std::vector<c2mn::PositioningRecord> records;
  std::vector<double> due;  ///< Wall due time of each record.
  bool closes = false;      ///< Closed inside the schedule (at close_due).
  double close_due = 0.0;
};

struct LiveOp {
  double due = 0.0;
  int session = 0;
  int record = -1;  ///< Index into the session's records; -1 = close.
};

struct LiveSchedule {
  std::vector<LiveSession> sessions;
  std::vector<LiveOp> ops;  ///< Sorted by due time.
  double run_seconds = 0.0;
  double speedup = 0.0;
};

LiveSchedule MakeLiveSchedule(const std::vector<c2mn::LabeledSequence>& pool,
                              uint64_t seed, double rate, int slots,
                              double warmup_seconds, double run_seconds);

/// One emitted m-semantics and the op that triggered it: the index of the
/// record whose push completed it, or kCloseTrigger for the end-of-stream
/// flush.
struct Emission {
  c2mn::MSemantics ms;
  int trigger = 0;
};
constexpr int kCloseTrigger = -1;

/// Replays `records` through an annotator given as its push and flush
/// entry points (each writing the m-semantics it completes into the
/// vector, cleared first) and attributes every emission to the op that
/// caused it.
std::vector<Emission> AttributeEmissions(
    const std::vector<c2mn::PositioningRecord>& records,
    const std::function<void(const c2mn::PositioningRecord&,
                             std::vector<c2mn::MSemantics>*)>& push,
    const std::function<void(std::vector<c2mn::MSemantics>*)>& flush);

bool SameSemantics(const c2mn::MSemantics& a, const c2mn::MSemantics& b);

}  // namespace perfbench

#endif  // C2MN_PERFBENCH_INPUTS_H_
