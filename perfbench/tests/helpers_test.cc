// Tests of the benchmark's own helpers: percentiles with sample counts,
// per-seed schedule determinism, due-time -> emission attribution, and
// the result line.  Run: python3 perfbench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"
#include "inputs.h"

namespace perfbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                             \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // Unsorted on purpose.
  return v;
}

void TestPercentile() {
  std::vector<double> v = OneTo(100);
  Percentile p50 = ComputePercentile(&v, 0.50);
  EXPECT(p50.value == 50.0 && p50.samples == 100 && p50.ok);
  Percentile p90 = ComputePercentile(&v, 0.90);
  EXPECT(p90.value == 90.0 && p90.ok);  // Exactly ten samples beyond.
  Percentile p99 = ComputePercentile(&v, 0.99);
  EXPECT(p99.value == 99.0 && !p99.ok);  // One sample beyond.
  std::vector<double> big = OneTo(1010);
  EXPECT(ComputePercentile(&big, 0.99).ok);
  std::vector<double> empty;
  Percentile none = ComputePercentile(&empty, 0.5);
  EXPECT(none.samples == 0 && !none.ok);
  EXPECT(Median({3, 1, 2}) == 2.0);
  EXPECT(Median({4, 1, 3, 2}) == 2.5);
  EXPECT(Median({}) == 0.0);
}

std::vector<c2mn::LabeledSequence> Pool() {
  std::vector<c2mn::LabeledSequence> pool;
  for (int s = 0; s < 5; ++s) {
    c2mn::LabeledSequence ls;
    for (int i = 0; i < 100 + 10 * s; ++i) {
      c2mn::PositioningRecord r;
      r.location.xy.x = i;
      r.timestamp = 1000.0 * s + 15.0 * i;
      ls.sequence.records.push_back(r);
    }
    ls.labels = c2mn::LabelSequence(ls.sequence.size());
    pool.push_back(ls);
  }
  return pool;
}

bool SameSchedule(const LiveSchedule& a, const LiveSchedule& b) {
  if (a.ops.size() != b.ops.size() || a.sessions.size() != b.sessions.size()) {
    return false;
  }
  for (size_t i = 0; i < a.ops.size(); ++i) {
    if (a.ops[i].due != b.ops[i].due || a.ops[i].session != b.ops[i].session ||
        a.ops[i].record != b.ops[i].record) {
      return false;
    }
  }
  for (size_t s = 0; s < a.sessions.size(); ++s) {
    if (a.sessions[s].due != b.sessions[s].due) return false;
  }
  return true;
}

void TestScheduleDeterminism() {
  const auto pool = Pool();
  const double rate = 2000.0, warmup = 1.0, run = 3.0;
  const LiveSchedule a = MakeLiveSchedule(pool, 7, rate, 16, warmup, run);
  const LiveSchedule b = MakeLiveSchedule(pool, 7, rate, 16, warmup, run);
  const LiveSchedule c = MakeLiveSchedule(pool, 8, rate, 16, warmup, run);
  EXPECT(SameSchedule(a, b));
  EXPECT(!SameSchedule(a, c));

  size_t measured = 0;
  std::vector<int> next_record(a.sessions.size(), 0);
  for (size_t i = 0; i < a.ops.size(); ++i) {
    const LiveOp& op = a.ops[i];
    EXPECT(op.due >= -warmup && op.due < run);
    if (i > 0) EXPECT(a.ops[i - 1].due <= op.due);
    const LiveSession& session = a.sessions[static_cast<size_t>(op.session)];
    if (op.record >= 0) {
      // Each session's records are submitted in order, after its open.
      EXPECT(op.record == next_record[static_cast<size_t>(op.session)]++);
      if (op.due >= 0.0) ++measured;
    } else {
      EXPECT(session.closes);
      EXPECT(next_record[static_cast<size_t>(op.session)] ==
             static_cast<int>(session.records.size()));
    }
  }
  // The replay offers about `rate` records/s over the measured phase.
  EXPECT(std::fabs(static_cast<double>(measured) / run - rate) < 0.1 * rate);
  // Random phases: sessions do not all start in the first period.
  size_t late_starts = 0;
  for (const LiveSession& s : a.sessions) late_starts += s.due.front() > 0.0;
  EXPECT(late_starts > 0);
}

void TestAttribution() {
  // A fake annotator: every third push completes one m-semantics, and the
  // flush completes one more.
  std::vector<c2mn::PositioningRecord> records(10);
  int pushes = 0;
  const auto push = [&pushes](const c2mn::PositioningRecord&,
                              std::vector<c2mn::MSemantics>* out) {
    out->clear();
    if (++pushes % 3 == 0) {
      c2mn::MSemantics ms;
      ms.region = pushes;
      out->push_back(ms);
    }
  };
  const auto flush = [](std::vector<c2mn::MSemantics>* out) {
    out->clear();
    out->push_back(c2mn::MSemantics{});
  };
  const std::vector<Emission> e = AttributeEmissions(records, push, flush);
  EXPECT(e.size() == 4);
  if (e.size() == 4) {
    EXPECT(e[0].trigger == 2 && e[0].ms.region == 3);
    EXPECT(e[1].trigger == 5 && e[2].trigger == 8);
    EXPECT(e[3].trigger == kCloseTrigger);
  }
}

void TestResultJson() {
  Outcome o;
  o.attempted = 3;
  o.Add("a_s", 0.125, "s", 3);
  const std::string json = ResultJson(o, {"a_s"});
  EXPECT(json ==
         "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
         "{\"a_s\": {\"value\": 0.125, \"unit\": \"s\"}}}");
  bool threw = false;
  try {
    ResultJson(o, {"missing"});
  } catch (const Fatal&) {
    threw = true;
  }
  EXPECT(threw);
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentile();
  perfbench::TestScheduleDeterminism();
  perfbench::TestAttribution();
  perfbench::TestResultJson();
  if (perfbench::failures == 0) std::printf("perfbench helpers: all tests passed\n");
  return perfbench::failures == 0 ? 0 : 1;
}
