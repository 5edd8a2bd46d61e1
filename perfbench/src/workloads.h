// The four benchmark workloads and the assembly that runs them.
//
// Each run is assembled here from the layers' public calls — the same
// calls harness::run_experiment makes — so the benchmark can time every
// layer boundary from outside src/: world construction, bootstrap,
// generator start, an event-counting Simulation::step loop to the horizon,
// and the harvest with its consistency checkers. When a Tracer is passed,
// the run additionally wraps two public seams (a net::DelayModel decorator
// and a NodeFactory decorator) and records spans; without one, the run is
// the plain assembly.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "harness/experiment.h"
#include "harness/metrics.h"
#include "replay/search.h"
#include "report.h"
#include "tracer.h"

namespace perfbench {

enum class Workload { kSyncChurn, kEsQuorumFaults, kShardKeyed, kScheduleSearch };

inline constexpr Workload kAllWorkloads[] = {Workload::kSyncChurn, Workload::kEsQuorumFaults,
                                             Workload::kShardKeyed, Workload::kScheduleSearch};

const char* workload_name(Workload w);
std::optional<Workload> parse_workload(std::string_view name);

/// Full benchmark size, or the reduced size the self-test runs.
enum class Size { kFull, kReduced };

/// The run config of `w` at workload seed `seed`. For kScheduleSearch this
/// is the searched scenario (the base run).
dynreg::harness::ExperimentConfig workload_config(Workload w, std::uint64_t seed, Size size);

/// Sub-seeds a run of `w` derives from its workload seed. A run executes
/// each at least once and pools their simulated numbers, so it covers
/// several schedules (on es_quorum_faults, several fault campaigns) rather
/// than one.
std::uint32_t sub_seed_count(Workload w);

/// Search options of kScheduleSearch at `seed`, with `jobs` workers.
dynreg::replay::SearchOptions search_options(std::uint64_t seed, std::size_t jobs, Size size);

/// Counts of one execution that are exact for a given seed: the traced and
/// untraced runs must agree on every one of them.
struct SimCounts {
  std::uint64_t events = 0;
  std::uint64_t copies_sent = 0;
  std::uint64_t copies_delivered = 0;
  std::uint64_t copies_dropped_departed = 0;
  std::uint64_t copies_lost = 0;
  std::uint64_t copies_cut = 0;
  std::uint64_t arena_reserved_bytes = 0;
  std::uint64_t arena_chunks_created = 0;
  std::uint64_t arena_chunks_recycled = 0;
  /// Operations that failed (dropped or timed out) on their last allowed
  /// attempt. Operations still pending at the horizon, or whose next retry
  /// would fall at or after it, were cut off by the horizon, not failed.
  std::uint64_t ops_failed = 0;

  bool operator==(const SimCounts& o) const;
};

/// Per-layer host times and call counts of one traced execution.
struct LayerTimes {
  double build_s = 0.0;            // world construction (every shard's world)
  double bootstrap_s = 0.0;        // churn::System::bootstrap calls
  double generator_start_s = 0.0;  // workload generator start
  double run_self_s = 0.0;         // step loop minus timed children
  double harvest_s = 0.0;
  double regularity_s = 0.0;
  double atomicity_s = 0.0;
  Tracer::Aggregate verdicts;      // per-copy delay-model verdicts
  Tracer::Aggregate node_builds;   // NodeFactory calls
};

/// One execution of a world workload: set-up, run to the horizon, harvest.
struct Execution {
  dynreg::harness::MetricsReport report;
  SimCounts counts;
  /// Completed reads' and writes' latencies: ticks -> count.
  Histogram read_latencies;
  Histogram write_latencies;
  double run_s = 0.0;        // run to the horizon + harvest; set-up excluded
  double step_loop_s = 0.0;  // the step loop alone, part of run_s
  LayerTimes layers;  // traced executions only
  /// Traced sharded runs re-run the checkers per shard to time them; false
  /// if that re-check disagreed with the harvest.
  bool recheck_agrees = true;
};

/// Runs `cfg` (sharded when cfg.shard_count > 0). `tracer` may be null.
Execution execute_world(const dynreg::harness::ExperimentConfig& cfg, Tracer* tracer);

/// Builds and starts the world of `cfg` exactly as execute_world does, then
/// tears it down; returns the set-up time alone (teardown excluded).
double setup_world(const dynreg::harness::ExperimentConfig& cfg);

/// One execution of the schedule-search workload: record_base (set-up) and
/// the budgeted search (run).
struct SearchExecution {
  dynreg::replay::Trace base;
  dynreg::replay::SearchResult result;
  double setup_s = 0.0;
  double run_s = 0.0;
  // Traced executions only: the search loop timed per variant.
  double perturb_s = 0.0;  // summed over variants (all workers)
  double replay_s = 0.0;   // summed over variants (all workers)
};

/// Untraced: replay::record_base + replay::search. Traced: record_base, then
/// the same perturb + replay loop and counterexample re-run search() runs,
/// timed per variant with the same worker count; its results must equal
/// search()'s.
SearchExecution execute_search(const dynreg::harness::ExperimentConfig& cfg,
                               const dynreg::replay::SearchOptions& opt, bool traced);

}  // namespace perfbench
