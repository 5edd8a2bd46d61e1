// Reduced-size self-test of the benchmark's equivalence and correctness
// checks: for every workload at a small size and two seeds, the benchmark's
// own assembly must reproduce harness::run_experiment's report, the traced
// run must reproduce the untraced one, and the workload's correctness checks
// must hold. Exits non-zero on the first failure.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "replay/hooks.h"
#include "replay/search.h"
#include "report.h"
#include "workloads.h"

namespace {

using namespace perfbench;
namespace harness = dynreg::harness;
namespace replay = dynreg::replay;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
  if (!ok) ++failures;
}

void expect_same(const std::string& diff, const std::string& what) {
  expect(diff.empty(), what + (diff.empty() ? "" : " (differs in " + diff + ")"));
}

void check_world(Workload w, std::uint64_t seed) {
  const std::string name = std::string(workload_name(w)) + " seed " + std::to_string(seed);
  const harness::ExperimentConfig cfg = workload_config(w, seed, Size::kReduced);
  const Execution plain = execute_world(cfg, nullptr);
  expect_same(report_difference(harness::run_experiment(cfg), plain.report),
              name + ": assembly reproduces run_experiment");
  Tracer tracer;
  const Execution traced = execute_world(cfg, &tracer);
  expect_same(report_difference(plain.report, traced.report),
              name + ": traced run reproduces the untraced report");
  expect(plain.counts == traced.counts, name + ": traced run reproduces the layer counts");
  expect(traced.layers.verdicts.calls == traced.counts.copies_sent,
         name + ": the delay-model decorator saw every sent copy");
  expect(traced.recheck_agrees, name + ": checker re-run agrees with the harvest");
  expect(!tracer.spans().empty(), name + ": the traced run recorded spans");
  if (w != Workload::kScheduleSearch) {
    expect(plain.report.regularity.violations.empty(), name + ": no stale reads");
  }
}

void check_search(std::uint64_t seed) {
  const std::string name = "schedule_search seed " + std::to_string(seed);
  const harness::ExperimentConfig cfg =
      workload_config(Workload::kScheduleSearch, seed, Size::kReduced);
  const replay::SearchOptions opt = search_options(seed, 2, Size::kReduced);
  const SearchExecution plain = execute_search(cfg, opt, false);
  const SearchExecution traced = execute_search(cfg, opt, true);
  expect(plain.result.violating == traced.result.violating &&
             plain.result.inverted == traced.result.inverted &&
             plain.result.first_violation == traced.result.first_violation &&
             plain.result.counterexample.size() == traced.result.counterexample.size(),
         name + ": traced search loop reproduces replay::search");
  expect_same(report_difference(plain.result.counterexample_report,
                                traced.result.counterexample_report),
              name + ": traced search re-runs the same counterexample");
  expect(plain.result.violating >= 1, name + ": the search finds a violating schedule");
  if (plain.result.first_violation) {
    replay::RunHooks hooks;
    hooks.replay = &plain.result.counterexample;
    expect(replay::violates(harness::run_experiment(cfg, hooks)),
           name + ": the counterexample replays to a stale read");
  }
  replay::RunHooks base_hooks;
  base_hooks.replay = &plain.base;
  expect_same(report_difference(harness::run_experiment(cfg, base_hooks),
                                execute_world(cfg, nullptr).report),
              name + ": the base trace replays to the live run's report");
}

}  // namespace

int main() {
  for (const std::uint64_t seed : {1, 2}) {
    for (const Workload w : kAllWorkloads) check_world(w, seed);
    check_search(seed);
  }
  Histogram hundred;
  for (int i = 1; i <= 100; ++i) ++hundred[i];
  const auto tail = tail_of(hundred);
  expect(tail && tail->percentile == 0.75 && tail->value == 76,
         "tail_of picks the highest percentile with ten samples beyond it");
  Histogram twelve;
  for (int i = 1; i <= 12; ++i) ++twelve[i];
  expect(!tail_of(twelve).has_value(),
         "tail_of is absent when no percentile has ten samples beyond it");
  Histogram repeated{{2.0, 3}, {5.0, 1}};
  expect(percentile_of(repeated, 0.5) == 2.0 && percentile_of(repeated, 0.99) == 5.0,
         "percentile_of matches harness::percentile over repeated samples");
  std::cout << (failures == 0 ? "perfbench self-test passed\n" : "perfbench self-test FAILED\n");
  return failures == 0 ? 0 : 1;
}
