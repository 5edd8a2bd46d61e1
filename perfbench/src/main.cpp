// perfbench_driver: runs one benchmark workload for a fixed wall-time budget
// and prints every metric by name with its unit, the correctness checks, and
// a final JSON line (see perfbench/README.md).
//
//   perfbench_driver --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                    [--spans FILE] [--git-sha SHA]
//
// A run cycles through the workload's sub-seeds, one repetition (set-up,
// run to the horizon, harvest and checks, then a batch of set-ups alone)
// each, until the next repetition would overrun --seconds. run_s is the
// median over sub-seeds of the sub-seed's fastest run, setup_s the same
// over the set-up batches' means. With --trace 1 every other cycle is
// traced, and the result holds the per-layer metrics.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "replay/hooks.h"
#include "replay/search.h"
#include "report.h"
#include "sim/simulation.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace harness = dynreg::harness;
namespace replay = dynreg::replay;

/// The search never runs more workers than this, however many CPUs exist.
constexpr std::size_t kMaxSearchJobs = 4;
/// A set-up batch holds at least this much set-up time: a sync_churn set-up
/// takes about 0.1 ms, close to the timer's and the allocator's noise.
constexpr double kSetupBatchS = 0.01;

struct Options {
  Workload workload = Workload::kSyncChurn;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans;
  std::string git_sha = "unknown";
  std::uint32_t sub_seeds = 1;  // sub_seed_count(workload)
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct Result {
  std::vector<Check> checks;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;  // absent metrics, samples, pooled counts
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Host times of one run, grouped by sub-seed.
using BySub = std::vector<std::vector<double>>;

void add_check(Result& r, std::string name, bool ok, std::string detail = "") {
  r.checks.push_back({std::move(name), ok, std::move(detail)});
}

Metric host(std::string name, double v, std::string unit) {
  return {std::move(name), v, std::move(unit), "host"};
}
Metric simulated(std::string name, double v, std::string unit) {
  return {std::move(name), v, std::move(unit), "sim"};
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double d(std::uint64_t v) { return static_cast<double>(v); }

/// Seed of sub-run `k` of a run with workload seed `seed`. The seed is mixed
/// before k is folded in: fold64(seed, k) alone maps (1, 0) and (2, 1) to the
/// same value, so neighbouring seeds would share sub-seeds.
std::uint64_t sub_seed(std::uint64_t seed, std::size_t k) {
  constexpr std::uint64_t kSalt = 0x70657266626e6368ULL;  // "perfbnch"
  return replay::fold64(replay::fold64(kSalt, seed), k);
}

/// Repetition `rep` runs sub-seed rep % opts.sub_seeds; with --trace 1,
/// every other cycle through the sub-seeds is traced, so each sub-seed runs
/// both ways.
bool traced_rep(const Options& opts, std::uint32_t rep) {
  return opts.trace && (rep / opts.sub_seeds) % 2 == 1;
}

/// Runs `body(rep)` until the next repetition would overrun --seconds, and
/// at least until every sub-seed ran (both ways when tracing).
template <typename Body>
void repeat_for(const Options& opts, Body body) {
  const std::uint32_t min_reps = (opts.trace ? 2 : 1) * opts.sub_seeds;
  const Clock::time_point start = Clock::now();
  for (std::uint32_t rep = 0;; ++rep) {
    const Clock::time_point t0 = Clock::now();
    body(rep);
    const Clock::time_point t1 = Clock::now();
    if (rep + 1 >= min_reps &&
        seconds_between(start, t1) + seconds_between(t0, t1) > opts.seconds) {
      return;
    }
  }
}

/// Mean set-up time of a batch of `setup_once()` calls holding at least
/// kSetupBatchS of set-up time. Each call sets up one world and returns the
/// set-up time alone.
template <typename SetupOnce>
double setup_batch(SetupOnce setup_once) {
  double total = 0.0;
  std::size_t count = 0;
  do {
    total += setup_once();
    ++count;
  } while (total < kSetupBatchS);
  return total / d(count);
}

/// The host-time estimate: the fastest sample of each sub-seed, then the
/// median over sub-seeds. Interference from other work on the host only ever
/// adds time, and each sub-seed repeats identical work, so its fastest
/// sample is the steadiest estimate of that work's cost.
double fastest_median(const BySub& by_sub) {
  std::vector<double> fastest;
  for (const std::vector<double>& v : by_sub) {
    if (!v.empty()) fastest.push_back(*std::min_element(v.begin(), v.end()));
  }
  return median(fastest);
}

void add_host_metrics(Result& r, const BySub& setups, double run_s, const BySub& runs) {
  r.end_to_end.insert(r.end_to_end.begin(),
                      {host("setup_s", fastest_median(setups), "s"), host("run_s", run_s, "s"),
                       host("peak_rss_mb", peak_rss_mb(), "MiB")});
  auto add_note = [&r](const char* what, const BySub& by_sub) {
    std::ostringstream note;
    note << what << " by sub-seed:";
    for (std::size_t k = 0; k < by_sub.size(); ++k) {
      note << " [" << k << "]";
      for (const double v : by_sub[k]) note << " " << v;
    }
    r.notes.push_back(note.str());
  };
  add_note("set-up batch means", setups);
  add_note("run times", runs);
}

/// The simulated end-to-end metrics, pooled over the sub-seed executions.
void add_sim_metrics(Result& r, const harness::ExperimentConfig& cfg,
                     const std::vector<Execution>& subs) {
  Histogram reads, writes;
  double ops_done = 0, issued = 0, joins = 0, join_ticks = 0, delivered = 0, stale = 0;
  for (const Execution& ex : subs) {
    const harness::MetricsReport& m = ex.report;
    for (const auto& [v, n] : ex.read_latencies) reads[v] += n;
    for (const auto& [v, n] : ex.write_latencies) writes[v] += n;
    ops_done += d(m.reads_completed + m.writes_completed);
    issued += d(m.reads_issued + m.writes_issued);
    joins += d(m.joins_completed);
    join_ticks += m.join_latency_mean * d(m.joins_completed);
    delivered += d(ex.counts.copies_delivered);
    stale += d(m.regularity.violations.size());
  }
  auto add_latency = [&r](const std::string& op, const Histogram& h) {
    if (h.empty()) {
      r.notes.push_back(op + "_p50_ticks, " + op + "_tail_ticks: absent (no " + op +
                        "s completed)");
      return;
    }
    r.end_to_end.push_back(simulated(op + "_p50_ticks", percentile_of(h, 0.5), "ticks"));
    if (const auto t = tail_of(h)) {
      r.end_to_end.push_back(simulated(op + "_tail_ticks", t->value, "ticks"));
      std::ostringstream note;
      note << op << "_tail_ticks is p" << static_cast<int>(t->percentile * 100.0 + 0.5)
           << " of " << t->samples << " samples";
      r.notes.push_back(note.str());
    } else {
      r.notes.push_back(op + "_tail_ticks: absent (" + std::to_string(sample_count(h)) +
                        " samples; no percentile has 10 beyond it)");
    }
  };
  add_latency("read", reads);
  add_latency("write", writes);
  if (joins > 0) {
    r.end_to_end.push_back(simulated("join_mean_ticks", join_ticks / joins, "ticks"));
  } else {
    r.notes.push_back("join_mean_ticks: absent (no joins completed)");
  }
  const double ticks = d(cfg.duration) * d(subs.size());
  r.end_to_end.push_back(simulated("msgs_per_op", ratio(delivered, ops_done + joins), "copies/op"));
  r.end_to_end.push_back(simulated("ops_per_tick", ratio(ops_done, ticks), "ops/tick"));
  r.end_to_end.push_back(simulated("ops_failed_frac", ratio(issued - ops_done, issued), "frac"));
  r.end_to_end.push_back(simulated("stale_reads", stale, "count"));
  r.notes.push_back("simulated metrics pool the " + std::to_string(subs.size()) +
                    " sub-seed executions of this seed");
}

const char* const kWireTags[] = {"sync.write", "sync.inquiry", "sync.reply",
                                 "es.read",    "es.reply",     "es.write",
                                 "es.ack",     "es.join",      "es.join_reply"};

/// Per-layer metrics of the world layers (sim, net, churn, dynreg, client,
/// fault, consistency, shard, harness), per execution: counts are means over
/// the sub-seed executions `subs`, host times medians over the traced
/// executions `traced`, `untraced_loop_s` the untraced step loops.
void add_world_layers(Result& r, const std::vector<Execution>& subs,
                      const std::vector<LayerTimes>& traced,
                      const std::vector<double>& untraced_loop_s) {
  const double k = d(subs.size());
  auto mean = [&subs, k](auto field) {
    double sum = 0;
    for (const Execution& ex : subs) sum += field(ex);
    return sum / k;
  };
  auto med = [&traced](double LayerTimes::*field) {
    std::vector<double> v;
    for (const LayerTimes& l : traced) v.push_back(l.*field);
    return median(v);
  };
  auto med_agg = [&traced](Tracer::Aggregate LayerTimes::*field, bool calls) {
    std::vector<double> v;
    for (const LayerTimes& l : traced) v.push_back(calls ? d((l.*field).calls) : (l.*field).seconds);
    return median(v);
  };
  auto count = [&](const char* name, auto field) {
    r.per_layer.push_back(simulated(name, mean(field), "count"));
  };
  auto report_count = [&](const char* name, std::uint64_t harness::MetricsReport::*field) {
    count(name, [field](const Execution& ex) { return d(ex.report.*field); });
  };
  const double events = mean([](const Execution& ex) { return d(ex.counts.events); });
  const double sent = mean([](const Execution& ex) { return d(ex.counts.copies_sent); });
  const double delivered = mean([](const Execution& ex) { return d(ex.counts.copies_delivered); });

  r.per_layer.push_back(simulated("sim.events", events, "count"));
  r.per_layer.push_back(host("sim.events_per_s", ratio(events, median(untraced_loop_s)), "1/s"));
  r.per_layer.push_back(host("sim.run_self_s", med(&LayerTimes::run_self_s), "s"));
  r.per_layer.push_back(simulated(
      "sim.arena_reserved_kb",
      mean([](const Execution& ex) { return d(ex.counts.arena_reserved_bytes) / 1024.0; }), "KiB"));
  count("sim.arena_chunks_created", [](const Execution& ex) { return d(ex.counts.arena_chunks_created); });
  count("sim.arena_chunks_recycled", [](const Execution& ex) { return d(ex.counts.arena_chunks_recycled); });

  r.per_layer.push_back(simulated("net.copies_sent", sent, "count"));
  r.per_layer.push_back(simulated("net.copies_delivered", delivered, "count"));
  count("net.copies_dropped_departed", [](const Execution& ex) { return d(ex.counts.copies_dropped_departed); });
  count("net.copies_lost", [](const Execution& ex) { return d(ex.counts.copies_lost); });
  count("net.copies_cut", [](const Execution& ex) { return d(ex.counts.copies_cut); });
  r.per_layer.push_back(simulated("net.delivered_frac", ratio(delivered, sent), "frac"));
  r.per_layer.push_back(simulated("net.copies_per_event", ratio(sent, events), "copies/event"));
  r.per_layer.push_back(simulated("net.verdict_calls", med_agg(&LayerTimes::verdicts, true), "count"));
  r.per_layer.push_back(host("net.verdict_s", med_agg(&LayerTimes::verdicts, false), "s"));

  report_count("churn.joins_started", &harness::MetricsReport::joins_started);
  report_count("churn.joins_completed", &harness::MetricsReport::joins_completed);
  report_count("churn.joins_abandoned", &harness::MetricsReport::joins_abandoned);
  r.per_layer.push_back(simulated("churn.node_builds", med_agg(&LayerTimes::node_builds, true), "count"));
  r.per_layer.push_back(host("churn.node_build_s", med_agg(&LayerTimes::node_builds, false), "s"));
  r.per_layer.push_back(host("churn.bootstrap_s", med(&LayerTimes::bootstrap_s), "s"));

  for (const char* tag : kWireTags) {
    count((std::string("dynreg.copies.") + tag).c_str(), [tag](const Execution& ex) {
      const auto it = ex.report.msgs_by_type.find(tag);
      return it == ex.report.msgs_by_type.end() ? 0.0 : d(it->second);
    });
  }

  count("client.ops_issued", [](const Execution& ex) { return d(ex.report.reads_issued + ex.report.writes_issued); });
  count("client.ops_completed", [](const Execution& ex) { return d(ex.report.reads_completed + ex.report.writes_completed); });
  count("client.dropped", [](const Execution& ex) { return d(ex.report.reads_dropped + ex.report.writes_dropped); });
  count("client.timed_out", [](const Execution& ex) { return d(ex.report.reads_timed_out + ex.report.writes_timed_out); });
  report_count("client.retries", &harness::MetricsReport::op_retries);

  report_count("fault.partitions", &harness::MetricsReport::faults_partitions);
  report_count("fault.heals", &harness::MetricsReport::faults_heals);
  report_count("fault.crashes", &harness::MetricsReport::faults_crashes);
  report_count("fault.recoveries", &harness::MetricsReport::faults_recoveries);

  count("consistency.reads_checked", [](const Execution& ex) { return d(ex.report.regularity.reads_checked); });
  count("consistency.inversions", [](const Execution& ex) { return d(ex.report.atomicity.inversion_count); });
  r.per_layer.push_back(host("consistency.regularity_s", med(&LayerTimes::regularity_s), "s"));
  r.per_layer.push_back(host("consistency.atomicity_s", med(&LayerTimes::atomicity_s), "s"));

  r.per_layer.push_back(host("shard.build_s", med(&LayerTimes::build_s), "s"));
  r.per_layer.push_back(host("shard.harvest_s", med(&LayerTimes::harvest_s), "s"));
  r.per_layer.push_back(simulated("shard.skew", mean([](const Execution& ex) { return ex.report.shard_skew; }), "ratio"));
  r.per_layer.push_back(simulated("shard.hot_p99_ticks", mean([](const Execution& ex) { return ex.report.shard_hot_p99; }), "ticks"));
  r.per_layer.push_back(simulated("shard.cold_p99_ticks", mean([](const Execution& ex) { return ex.report.shard_cold_p99; }), "ticks"));

  r.per_layer.push_back(host("harness.generator_start_s", med(&LayerTimes::generator_start_s), "s"));
}

/// Empty when two executions of one config agree on every simulated number.
std::string execution_difference(const Execution& a, const Execution& b) {
  std::string diff = report_difference(a.report, b.report);
  if (diff.empty() && !(a.counts == b.counts)) diff = "layer counts";
  if (diff.empty() && (a.read_latencies != b.read_latencies ||
                       a.write_latencies != b.write_latencies)) {
    diff = "latency samples";
  }
  return diff;
}

void add_trace_overhead(Result& r, double traced_run_s, double run_s) {
  r.per_layer.push_back(host("trace_overhead_frac", traced_run_s / run_s - 1.0, "frac"));
}

Result run_world(const Options& opts, Tracer& tracer) {
  Result r;
  std::vector<harness::ExperimentConfig> cfgs;
  for (std::size_t k = 0; k < opts.sub_seeds; ++k) {
    cfgs.push_back(workload_config(opts.workload, sub_seed(opts.seed, k), Size::kFull));
  }
  BySub setups(opts.sub_seeds), runs(opts.sub_seeds), traced_runs(opts.sub_seeds);
  std::vector<double> loops;
  std::vector<LayerTimes> traced_layers;
  std::vector<Execution> subs;  // the first untraced execution of each sub-seed
  std::string repeat_diff, traced_diff;
  bool recheck_agrees = true;
  bool verdicts_cover_copies = true;

  // Untimed warm-up: the process's first execution pays for growing the heap
  // and the event queue's slab cache, which later executions reuse.
  (void)execute_world(cfgs[0], nullptr);
  repeat_for(opts, [&](std::uint32_t rep) {
    const std::size_t k = rep % opts.sub_seeds;
    const bool traced = traced_rep(opts, rep);
    tracer.begin_rep(rep);
    Execution ex = execute_world(cfgs[k], traced ? &tracer : nullptr);
    setups[k].push_back(setup_batch([&cfgs, k] { return setup_world(cfgs[k]); }));
    r.attempted += ex.report.reads_issued + ex.report.writes_issued;
    r.failed += ex.counts.ops_failed;
    if (traced) {
      traced_runs[k].push_back(ex.run_s);
      traced_layers.push_back(ex.layers);
      recheck_agrees = recheck_agrees && ex.recheck_agrees;
      verdicts_cover_copies =
          verdicts_cover_copies && ex.layers.verdicts.calls == ex.counts.copies_sent;
    } else {
      runs[k].push_back(ex.run_s);
      loops.push_back(ex.step_loop_s);
    }
    if (subs.size() == k) {
      subs.push_back(std::move(ex));
      return;
    }
    std::string& slot = traced ? traced_diff : repeat_diff;
    if (slot.empty()) slot = execution_difference(subs[k], ex);
  });

  const std::string eq = report_difference(harness::run_experiment(cfgs[0]), subs[0].report);
  add_check(r, "equivalence: the assembly reproduces harness::run_experiment", eq.empty(), eq);
  add_check(r, "repeated runs reproduce the simulated numbers", repeat_diff.empty(), repeat_diff);
  std::size_t stale = 0;
  for (const Execution& ex : subs) stale += ex.report.regularity.violations.size();
  add_check(r, "stale_reads == 0", stale == 0, std::to_string(stale) + " stale read(s)");
  if (opts.trace) {
    add_check(r, "traced runs reproduce the untraced simulated numbers", traced_diff.empty(),
              traced_diff);
    add_check(r, "the delay-model decorator saw every sent copy", verdicts_cover_copies);
    if (cfgs[0].shard_count > 0) {
      add_check(r, "per-shard checker re-run agrees with the harvest", recheck_agrees);
    }
  }

  const double run_s = fastest_median(runs);
  add_host_metrics(r, setups, run_s, runs);
  add_sim_metrics(r, cfgs[0], subs);
  if (opts.trace) {
    add_world_layers(r, subs, traced_layers, loops);
    // This workload runs no replay layer.
    r.per_layer.push_back(simulated("replay.base_decisions", 0.0, "count"));
    r.per_layer.push_back(host("replay.record_base_s", 0.0, "s"));
    r.per_layer.push_back(host("replay.perturb_s", 0.0, "s"));
    r.per_layer.push_back(host("replay.replay_s", 0.0, "s"));
    r.per_layer.push_back(host("replay.schedules_per_s", 0.0, "1/s"));
    r.per_layer.push_back(simulated("replay.violating", 0.0, "count"));
    r.per_layer.push_back(simulated("replay.inverted", 0.0, "count"));
    add_trace_overhead(r, fastest_median(traced_runs), run_s);
  }
  return r;
}

Result run_search(const Options& opts, Tracer& tracer, std::size_t jobs) {
  Result r;
  std::vector<harness::ExperimentConfig> cfgs;
  std::vector<replay::SearchOptions> sopts;
  std::vector<Execution> lives;  // the live base runs, through the benchmark's assembly
  for (std::size_t k = 0; k < opts.sub_seeds; ++k) {
    cfgs.push_back(workload_config(Workload::kScheduleSearch, sub_seed(opts.seed, k), Size::kFull));
    sopts.push_back(search_options(sub_seed(opts.seed, k), jobs, Size::kFull));
    lives.push_back(execute_world(cfgs[k], nullptr));
  }

  BySub setups(opts.sub_seeds), runs(opts.sub_seeds), traced_runs(opts.sub_seeds);
  std::vector<double> traced_setups, perturbs, replays;
  std::vector<SearchExecution> subs;  // the first untraced search of each sub-seed
  std::string repeat_diff, traced_diff;
  (void)execute_search(cfgs[0], sopts[0], false);  // untimed warm-up, as in run_world
  repeat_for(opts, [&](std::uint32_t rep) {
    const std::size_t k = rep % opts.sub_seeds;
    const bool traced = traced_rep(opts, rep);
    SearchExecution ex = execute_search(cfgs[k], sopts[k], traced);
    setups[k].push_back(setup_batch([&cfgs, k] {
      const Clock::time_point t0 = Clock::now();
      const replay::Trace base = replay::record_base(cfgs[k]);
      return seconds_between(t0, Clock::now());
    }));
    r.attempted += ex.result.executed;
    if (traced) {
      traced_runs[k].push_back(ex.run_s);
      traced_setups.push_back(ex.setup_s);
      perturbs.push_back(ex.perturb_s);
      replays.push_back(ex.replay_s);
    } else {
      runs[k].push_back(ex.run_s);
    }
    if (subs.size() == k) {
      subs.push_back(std::move(ex));
      return;
    }
    const SearchExecution& ref = subs[k];
    std::string diff;
    if (ex.base.size() != ref.base.size()) diff = "base trace size";
    if (ex.result.violating != ref.result.violating) diff = "violating";
    if (ex.result.inverted != ref.result.inverted) diff = "inverted";
    if (ex.result.first_violation != ref.result.first_violation) diff = "first violation";
    if (diff.empty() && ex.result.first_violation) {
      if (ex.result.counterexample.size() != ref.result.counterexample.size()) {
        diff = "counterexample size";
      } else {
        diff = report_difference(ex.result.counterexample_report,
                                 ref.result.counterexample_report);
        if (!diff.empty()) diff = "counterexample report: " + diff;
      }
    }
    std::string& slot = traced ? traced_diff : repeat_diff;
    if (slot.empty()) slot = diff;
  });

  std::string eq, base_diff;
  std::size_t violating = 0, inverted = 0, decisions = 0, found = 0, stale_counterexamples = 0;
  for (std::size_t k = 0; k < opts.sub_seeds; ++k) {
    if (eq.empty()) eq = report_difference(harness::run_experiment(cfgs[k]), lives[k].report);
    replay::RunHooks base_hooks;
    base_hooks.replay = &subs[k].base;
    if (base_diff.empty()) {
      base_diff = report_difference(harness::run_experiment(cfgs[k], base_hooks), lives[k].report);
    }
    const replay::SearchResult& res = subs[k].result;
    violating += res.violating;
    inverted += res.inverted;
    decisions += subs[k].base.size();
    if (res.first_violation) {
      ++found;
      replay::RunHooks hooks;
      hooks.replay = &res.counterexample;
      if (replay::violates(harness::run_experiment(cfgs[k], hooks))) ++stale_counterexamples;
    }
  }
  const std::string subs_n = std::to_string(opts.sub_seeds);
  add_check(r, "equivalence: the assembly reproduces harness::run_experiment (base runs)",
            eq.empty(), eq);
  add_check(r, "each base trace replays to its live run's report", base_diff.empty(), base_diff);
  add_check(r, "every search finds >= 1 violating schedule", found == opts.sub_seeds,
            std::to_string(found) + " of " + subs_n + " searches");
  add_check(r, "each first counterexample, replayed through run_experiment, reads stale",
            stale_counterexamples == found,
            std::to_string(stale_counterexamples) + " of " + std::to_string(found));
  add_check(r, "repeated searches reproduce the simulated numbers", repeat_diff.empty(),
            repeat_diff);

  const double run_s = fastest_median(runs);
  add_host_metrics(r, setups, run_s, runs);
  add_sim_metrics(r, cfgs[0], lives);
  r.notes.push_back("simulated metrics are the live base runs'; " + std::to_string(violating) +
                    " of " + std::to_string(opts.sub_seeds * sopts[0].budget) +
                    " schedules violate over " + subs_n + " searches");
  r.notes.push_back(
      "replay.distinct_schedules: absent (this build compiles the event-stream auditor out, "
      "so search hashes every schedule to 0)");

  if (opts.trace) {
    add_check(r, "traced search loop reproduces replay::search", traced_diff.empty(), traced_diff);
    std::vector<LayerTimes> traced_layers;
    std::string diff;
    for (std::size_t k = 0; k < opts.sub_seeds; ++k) {
      tracer.begin_rep((1u << 20) + static_cast<std::uint32_t>(k));
      const Execution traced_live = execute_world(cfgs[k], &tracer);
      if (diff.empty()) diff = execution_difference(lives[k], traced_live);
      traced_layers.push_back(traced_live.layers);
    }
    add_check(r, "traced base runs reproduce the untraced simulated numbers", diff.empty(), diff);
    std::vector<double> loops;
    for (const Execution& ex : lives) loops.push_back(ex.step_loop_s);
    add_world_layers(r, lives, traced_layers, loops);
    r.per_layer.push_back(simulated("replay.base_decisions", d(decisions) / d(opts.sub_seeds), "count"));
    r.per_layer.push_back(host("replay.record_base_s", median(traced_setups), "s"));
    r.per_layer.push_back(host("replay.perturb_s", median(perturbs), "s"));
    r.per_layer.push_back(host("replay.replay_s", median(replays), "s"));
    r.per_layer.push_back(
        host("replay.schedules_per_s", ratio(d(sopts[0].budget), run_s), "1/s"));
    r.per_layer.push_back(simulated("replay.violating", d(violating) / d(opts.sub_seeds), "count"));
    r.per_layer.push_back(simulated("replay.inverted", d(inverted) / d(opts.sub_seeds), "count"));
    add_trace_overhead(r, fastest_median(traced_runs), run_s);
  }
  return r;
}

int usage() {
  std::cerr << "usage: perfbench_driver --workload "
               "{sync_churn|es_quorum_faults|shard_keyed|schedule_search} [--seed N] "
               "[--seconds S] [--trace 0|1] [--spans FILE] [--git-sha SHA]\n";
  return 2;
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos || s.size() > 19) {
    return false;
  }
  out = std::stoull(s);
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      const auto w = parse_workload(value);
      if (!w) return usage();
      opts.workload = *w;
      have_workload = true;
    } else if (flag == "--seed" && parse_u64(value, n)) {
      opts.seed = n;
    } else if (flag == "--seconds" && parse_u64(value, n) && n >= 1 && n <= 3600) {
      opts.seconds = static_cast<double>(n);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      opts.trace = value == "1";
    } else if (flag == "--spans") {
      opts.spans = value;
    } else if (flag == "--git-sha") {
      opts.git_sha = value;
    } else {
      return usage();
    }
  }
  if (!have_workload || argc % 2 == 0) return usage();

  const std::size_t nproc = cpu_count();
  const std::size_t jobs = std::min(nproc, kMaxSearchJobs);
  opts.sub_seeds = sub_seed_count(opts.workload);
  std::cout << "perfbench workload=" << workload_name(opts.workload) << " seed=" << opts.seed
            << " seconds=" << opts.seconds << " trace=" << (opts.trace ? 1 : 0) << "\n"
            << "provenance: git_sha=" << opts.git_sha << " compiler=\"" << PERFBENCH_COMPILER
            << "\" flags=\"" << PERFBENCH_CXX_FLAGS << "\" lto=" << PERFBENCH_LTO
            << " audit_enabled=" << (dynreg::sim::Simulation::audit_enabled() ? "true" : "false")
            << " nproc=" << nproc << " seed=" << opts.seed << " sub_seeds=" << opts.sub_seeds
            << " search_jobs=" << jobs << "\n";

  Tracer tracer;
  const Result r = opts.workload == Workload::kScheduleSearch ? run_search(opts, tracer, jobs)
                                                              : run_world(opts, tracer);

  std::cout << std::setprecision(6);
  for (const Metric& m : r.end_to_end) {
    std::cout << "e2e   " << std::left << std::setw(28) << m.name << std::setw(14) << m.value
              << std::setw(10) << m.unit << m.kind << "\n";
  }
  for (const Metric& m : r.per_layer) {
    std::cout << "layer " << std::left << std::setw(28) << m.name << std::setw(14) << m.value
              << std::setw(14) << m.unit << m.kind << "\n";
  }
  for (const std::string& note : r.notes) std::cout << "note  " << note << "\n";
  bool correct = true;
  for (const Check& c : r.checks) {
    correct = correct && c.ok;
    std::cout << "check " << (c.ok ? "ok   " : "FAIL ") << c.name
              << (c.detail.empty() ? "" : " (" + c.detail + ")") << "\n";
  }

  if (opts.trace && !opts.spans.empty()) {
    std::ofstream spans(opts.spans);
    spans << std::setprecision(9);
    tracer.write_jsonl(spans);
    if (!spans) {
      std::cerr << "cannot write spans to " << opts.spans << "\n";
      return 1;
    }
  }

  std::cout << "{\"workload\": \"" << workload_name(opts.workload)
            << "\", \"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
            << ", \"end_to_end\": ";
  write_metrics_json(std::cout, r.end_to_end);
  std::cout << ", \"per_layer\": ";
  write_metrics_json(std::cout, r.per_layer);
  std::cout << "}" << std::endl;
  return 0;
}
