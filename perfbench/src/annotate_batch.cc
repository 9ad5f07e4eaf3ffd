// annotate_batch — the paper's offline label-and-merge, closed loop on one
// thread: C2mnAnnotator::AnnotateInto over whole p-sequences with one
// reused workspace, no service, analytics or storage.  It isolates the
// core graph and decode kernels and is the single-threaded baseline; it
// bypasses the online window, so window-level changes must not move it.
#include <cmath>
#include <memory>
#include <vector>

#include "common/simd.h"
#include "core/annotator.h"
#include "eval/metrics.h"
#include "workloads.h"

namespace perfbench {
namespace {

using c2mn::C2mnAnnotator;
using c2mn::DecodeWorkspace;
using c2mn::LabelSequence;

// Start-ups timed before and again after the timed phase (see SetupTimer).
constexpr int kSetupRepeats = 15;


class AnnotateBatch : public Workload {
 public:
  void Prepare(const Args& args, const Venue& venue,
               double seconds) override {
    venue_ = &venue;
    seconds_ = seconds;
    // Reference labels from the scalar kernels and the allocating
    // Annotate path: the timed loop (active SIMD tier, reused workspace)
    // must reproduce them bit for bit.  Computed in catalogue order, so
    // the heap prep leaves behind does not depend on the seed.
    const c2mn::simd::Level active = c2mn::simd::ActiveLevel();
    c2mn::simd::ForceLevel(c2mn::simd::Level::kScalar);
    const C2mnAnnotator reference(*venue.world, c2mn::FeatureOptions{},
                                  c2mn::C2mnStructure{}, venue.weights);
    c2mn::AccuracyAccumulator accuracy;
    std::vector<LabelSequence> labels;
    for (const c2mn::LabeledSequence& ls : venue.catalogue) {
      labels.push_back(reference.Annotate(ls.sequence));
      accuracy.Add(ls.labels, labels.back());
    }
    // The timed loop walks the whole catalogue in an order drawn from the
    // seed (the decode workspace grows to the longest sequence, so a
    // seed-dependent subset would make rss_mb measure which visits were
    // drawn).
    for (size_t i : SampleCatalogue(venue.catalogue.size(),
                                    venue.catalogue.size(), args.seed)) {
      traffic_.push_back(&venue.catalogue[i]);
      reference_.push_back(std::move(labels[i]));
    }
    c2mn::simd::ForceLevel(active);
    combined_accuracy_ = accuracy.Report().combined_accuracy;
  }

  Outcome Run(Tracer* tracer) override {
    Outcome out;
    ResetPeakRss();
    SetupTimer setup;
    std::vector<double> world_times;
    const System sys = SetUp(&setup, &world_times);
    const c2mn::World* world = sys.world.get();
    const C2mnAnnotator* annotator = sys.annotator.get();

    // Untimed warm-up: one pass in catalogue order sizes the workspace for
    // every visit, so it never grows in the timed loop and its footprint
    // (rss_mb) does not depend on the order the seed feeds visits in.
    DecodeWorkspace ws;
    LabelSequence labels;
    for (const c2mn::LabeledSequence& ls : venue_->catalogue) {
      annotator->AnnotateInto(ls.sequence, &ws, &labels);
    }
    uint64_t records = 0;
    uint64_t sequences = 0;
    uint64_t mismatched_records = 0;
    uint64_t candidates = 0;
    const PhaseTimer timer;
    const double wall0 = NowSeconds();
    double wall = 0.0;
    for (size_t i = 0; wall < seconds_; i = (i + 1) % traffic_.size()) {
      const c2mn::PSequence& seq = traffic_[i]->sequence;
      candidates += Annotate(*world, *annotator, seq, tracer, &ws, &labels);
      const LabelSequence& ref = reference_[i];
      for (size_t r = 0; r < seq.size(); ++r) {
        if (labels.regions.size() != seq.size() ||
            labels.regions[r] != ref.regions[r] ||
            labels.events[r] != ref.events[r]) {
          ++mismatched_records;
        }
      }
      records += seq.size();
      ++sequences;
      wall = NowSeconds() - wall0;
    }
    const PhaseCost cost = timer.Stop(records, wall0);
    SetUp(&setup, &world_times);  // More start-up samples, a moment later.

    out.attempted = records;
    out.failed = mismatched_records;
    if (mismatched_records > 0) {
      out.Fail(Format("%llu records labelled differently from the scalar "
                      "reference",
                      static_cast<unsigned long long>(mismatched_records)));
    }
    out.Add("setup_s", setup.Seconds(), "s", setup.samples());
    AddCostMetrics(&out, cost);
    out.notes.push_back(Format(
        "annotate_batch: %zu sequences in the pool, %llu annotated, combined "
        "accuracy (CA) %.4f",
        traffic_.size(), static_cast<unsigned long long>(sequences),
        combined_accuracy_));
    if (tracer != nullptr) {
      const Tracer::Totals& graph = tracer->totals("core.graph");
      const Tracer::Totals& decode = tracer->totals("core.decode");
      const double n = static_cast<double>(records);
      out.Add("indoor.world_create_s", Median(world_times), "s",
              world_times.size());
      out.Add("core.graph_us_per_record", 1e6 * graph.self_seconds / n, "us",
              graph.count);
      out.Add("core.decode_us_per_record", 1e6 * decode.self_seconds / n, "us",
              decode.count);
      out.Add("core.kinstr_graph_per_record",
              1e-3 * static_cast<double>(graph.instructions) / n, "kinstr",
              graph.count);
      out.Add("core.kinstr_decode_per_record",
              1e-3 * static_cast<double>(decode.instructions) / n, "kinstr",
              decode.count);
      out.Add("core.candidates_per_record", static_cast<double>(candidates) / n,
              "count", records);
      out.Add("core.combined_acc", combined_accuracy_, "fraction", records);
      CheckSpanCoverage(*world, *annotator, &out);
    }
    return out;
  }

 private:
  struct System {
    std::unique_ptr<c2mn::World> world;
    std::unique_ptr<C2mnAnnotator> annotator;
  };

  /// Set-up: everything between a cold process holding the floorplan and
  /// weights and an annotator ready to label (World::Create is all of its
  /// cost).  Built kSetupRepeats times; returns the last one.
  System SetUp(SetupTimer* setup, std::vector<double>* world_times) const {
    System sys;
    for (int i = 0; i < kSetupRepeats; ++i) {
      sys.annotator.reset();  // Before the world it references.
      sys.world.reset();
      const double t0 = setup->Start();
      sys.world = std::make_unique<c2mn::World>(c2mn::World::Create(venue_->plan));
      world_times->push_back(NowSeconds() - t0);
      sys.annotator = std::make_unique<C2mnAnnotator>(
          *sys.world, c2mn::FeatureOptions{}, c2mn::C2mnStructure{},
          venue_->weights);
      setup->Stop();
    }
    return sys;
  }

  /// Labels one sequence: AnnotateInto, or with a tracer its body split
  /// at the layer boundary (graph rebuild, then decode).  Returns the
  /// candidate regions considered (traced only).
  uint64_t Annotate(const c2mn::World& world, const C2mnAnnotator& annotator,
                    const c2mn::PSequence& seq, Tracer* tracer,
                    DecodeWorkspace* ws, LabelSequence* labels) const {
    if (tracer == nullptr) {
      annotator.AnnotateInto(seq, ws, labels);
      return 0;
    }
    {
      Span span(tracer, "core.graph", true);
      ws->graph.Rebuild(world, seq, annotator_options_, nullptr);
    }
    {
      Span span(tracer, "core.decode", true);
      annotator.Decode(ws->graph, ws, &ws->region_idx, &ws->events);
    }
    uint64_t candidates = 0;
    labels->regions.resize(static_cast<size_t>(ws->graph.size()));
    labels->events.assign(ws->events.begin(), ws->events.end());
    for (int r = 0; r < ws->graph.size(); ++r) {
      const auto& cands = ws->graph.Candidates(r);
      labels->regions[static_cast<size_t>(r)] =
          cands[static_cast<size_t>(ws->region_idx[static_cast<size_t>(r)])];
      candidates += cands.size();
    }
    return candidates;
  }

  /// One pass over the pool untraced, one traced: the core.graph +
  /// core.decode spans must account for untraced AnnotateInto up to the
  /// tracing overhead.  Checked on this thread's instruction count, which
  /// host load does not move; the time ratio is reported alongside.
  void CheckSpanCoverage(const c2mn::World& world,
                         const C2mnAnnotator& annotator, Outcome* out) const {
    const InstrCounter instr(/*inherit=*/false);
    DecodeWorkspace ws;
    LabelSequence labels;
    Tracer probe;
    const auto pass = [&](Tracer* tracer, uint64_t* instructions,
                          double* seconds) {
      const uint64_t i0 = instr.Read();
      const double t0 = NowSeconds();
      for (const c2mn::LabeledSequence* ls : traffic_) {
        Annotate(world, annotator, ls->sequence, tracer, &ws, &labels);
      }
      *seconds = NowSeconds() - t0;
      *instructions = instr.Read() - i0;
    };
    uint64_t plain_instr = 0, traced_instr = 0;
    double plain_s = 0.0, traced_s = 0.0;
    pass(nullptr, &plain_instr, &plain_s);  // Also warms the workspace.
    pass(nullptr, &plain_instr, &plain_s);
    pass(&probe, &traced_instr, &traced_s);
    const Tracer::Totals& graph = probe.totals("core.graph");
    const Tracer::Totals& decode = probe.totals("core.decode");
    const double overhead =
        static_cast<double>(traced_instr) / static_cast<double>(plain_instr) - 1.0;
    const double coverage = static_cast<double>(graph.instructions + decode.instructions) /
                            static_cast<double>(plain_instr);
    const double time_coverage = (graph.self_seconds + decode.self_seconds) / plain_s;
    out->notes.push_back(Format(
        "span coverage of untraced AnnotateInto: %.4f of instructions, %.3f of "
        "time (tracing overhead %.4f)",
        coverage, time_coverage, overhead));
    if (std::fabs(coverage - 1.0) > std::fabs(overhead) + 0.01) {
      ++out->failed;
      out->Fail("core.graph + core.decode spans do not account for AnnotateInto");
    }
  }

  const Venue* venue_ = nullptr;
  double seconds_ = 0.0;
  const c2mn::FeatureOptions annotator_options_{};
  std::vector<const c2mn::LabeledSequence*> traffic_;
  std::vector<LabelSequence> reference_;
  double combined_accuracy_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> MakeAnnotateBatch() {
  return std::make_unique<AnnotateBatch>();
}

}  // namespace perfbench
