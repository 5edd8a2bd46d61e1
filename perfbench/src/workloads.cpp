#include "workloads.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "churn/system.h"
#include "client/client.h"
#include "consistency/history.h"
#include "consistency/regularity_checker.h"
#include "fault/decision.h"
#include "fault/injector.h"
#include "harness/aggregate.h"
#include "harness/builders.h"
#include "harness/thread_pool.h"
#include "harness/workload.h"
#include "net/delay_model.h"
#include "net/network.h"
#include "replay/hooks.h"
#include "shard/keyed_workload.h"
#include "shard/keyspace.h"
#include "shard/router.h"
#include "sim/simulation.h"

namespace perfbench {

namespace harness = dynreg::harness;
namespace sim = dynreg::sim;
namespace net = dynreg::net;
namespace churn = dynreg::churn;
namespace client = dynreg::client;
namespace consistency = dynreg::consistency;
namespace fault = dynreg::fault;
namespace replay = dynreg::replay;
namespace shard = dynreg::shard;
namespace workload = dynreg::workload;

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kSyncChurn: return "sync_churn";
    case Workload::kEsQuorumFaults: return "es_quorum_faults";
    case Workload::kShardKeyed: return "shard_keyed";
    case Workload::kScheduleSearch: return "schedule_search";
  }
  return "?";
}

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w : kAllWorkloads) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

harness::ExperimentConfig workload_config(Workload w, std::uint64_t seed, Size size) {
  const bool full = size == Size::kFull;
  harness::ExperimentConfig cfg;
  cfg.seed = seed;
  switch (w) {
    case Workload::kSyncChurn:
      // Section 3 at 0.8 of Theorem 1's churn bound with the adversarial
      // leave policy: joins (inquiry broadcast + a reply per member) carry
      // the run.
      cfg.protocol = harness::Protocol::kSync;
      cfg.timing = harness::Timing::kSynchronous;
      cfg.n = full ? 500 : 60;
      cfg.delta = 5;
      cfg.duration = full ? 250 : 300;
      cfg.churn_kind = harness::ChurnKind::kConstant;
      cfg.churn_rate = 0.8 * cfg.sync_churn_threshold();
      cfg.leave_policy = churn::LeavePolicy::kOldestActiveFirst;
      cfg.workload.read_interval = 1;
      cfg.workload.write_interval = 30;
      break;
    case Workload::kEsQuorumFaults:
      // Section 5 quorums (about 2n copies per op) under healing partitions
      // and durable crash-recovery, with client deadlines and retries.
      cfg.protocol = harness::Protocol::kEventuallySync;
      cfg.timing = harness::Timing::kEventuallySynchronous;
      cfg.gst = 0;
      cfg.n = full ? 10000 : 200;
      cfg.delta = 5;
      // 300 ticks hold a full retry chain (4 deadlines of 40 plus backoffs
      // of 10, 20 and 40: 230 ticks) and a 100-tick partition that heals.
      cfg.duration = full ? 300 : 400;
      cfg.churn_kind = harness::ChurnKind::kNone;
      cfg.workload.read_interval = 2;
      cfg.workload.write_interval = 10;
      cfg.workload.op_deadline = 40;
      cfg.workload.retry_max_attempts = 4;
      cfg.workload.retry_backoff = 10;
      cfg.workload.retry_exponential = true;
      cfg.fault.partition.rate = 0.01;
      cfg.fault.partition.duration = 100;
      cfg.fault.partition.fraction = 0.3;
      cfg.fault.partition.asymmetric = false;
      cfg.fault.crash.rate = 0.01;
      cfg.fault.crash.recover_fraction = 1.0;
      cfg.fault.crash.restart = fault::RestartState::kDurable;
      break;
    case Workload::kShardKeyed:
      // E19's scale cell: local reads and FIFO-serialised writes, so the
      // client, shard and checker layers carry the run.
      cfg.protocol = harness::Protocol::kSync;
      cfg.timing = harness::Timing::kSynchronous;
      cfg.n = full ? 100000 : 2000;
      cfg.delta = 5;
      cfg.duration = full ? 100 : 100;
      cfg.churn_kind = harness::ChurnKind::kNone;
      cfg.shard_count = full ? 16 : 4;
      cfg.chronicle_aggregate = true;
      cfg.workload.clients = cfg.n;
      cfg.workload.think_time = 8;
      cfg.workload.key_count = 4096;
      cfg.workload.zipf_s = 0.99;
      cfg.workload.read_frac = 0.8;
      break;
    case Workload::kScheduleSearch:
      // Field for field the threshold_search experiment's scenario (E14):
      // the no-wait join ablation under legal churn, n = 10.
      cfg.protocol = harness::Protocol::kSyncNoWait;
      cfg.n = 10;
      cfg.delta = 5;
      cfg.duration = 400;
      cfg.leave_policy = churn::LeavePolicy::kOldestActiveFirst;
      cfg.workload.read_interval = 3;
      cfg.workload.write_interval = 20;
      cfg.churn_rate = 0.4 * cfg.sync_churn_threshold();
      break;
  }
  return cfg;
}

std::uint32_t sub_seed_count(Workload w) {
  // An es_quorum_faults repetition sees a few partitions and crashes; 8 of
  // them pool 2400 simulated ticks of fault campaign. shard_keyed
  // repetitions are the longest and their simulated numbers vary least
  // between seeds, so two sub-seeds leave more repetitions of each.
  switch (w) {
    case Workload::kEsQuorumFaults: return 8;
    case Workload::kShardKeyed: return 2;
    default: return 4;
  }
}

replay::SearchOptions search_options(std::uint64_t seed, std::size_t jobs, Size size) {
  replay::SearchOptions opt;
  opt.seed = seed;
  opt.budget = size == Size::kFull ? 6000 : 300;
  opt.jobs = jobs;
  return opt;
}

bool SimCounts::operator==(const SimCounts& o) const {
  return events == o.events && copies_sent == o.copies_sent &&
         copies_delivered == o.copies_delivered &&
         copies_dropped_departed == o.copies_dropped_departed &&
         copies_lost == o.copies_lost && copies_cut == o.copies_cut &&
         arena_reserved_bytes == o.arena_reserved_bytes &&
         arena_chunks_created == o.arena_chunks_created &&
         arena_chunks_recycled == o.arena_chunks_recycled && ops_failed == o.ops_failed;
}

namespace {

/// Forwards every call to the model the config names, counting and timing
/// each per-copy verdict.
class TimedDelayModel final : public net::DelayModel {
 public:
  TimedDelayModel(std::unique_ptr<net::DelayModel> inner, Tracer& tracer,
                  Tracer::Aggregate& agg)
      : inner_(std::move(inner)), tracer_(tracer), agg_(agg) {}

  sim::Duration delay(sim::Time now, sim::ProcessId from, sim::ProcessId to,
                      const net::Payload& payload, sim::Rng& rng) override {
    return inner_->delay(now, from, to, payload, rng);
  }

  Verdict verdict(sim::Time now, sim::ProcessId from, sim::ProcessId to,
                  const net::Payload& payload, double loss_rate, sim::Rng& rng) override {
    const Clock::time_point t0 = Clock::now();
    const Verdict v = inner_->verdict(now, from, to, payload, loss_rate, rng);
    tracer_.charge(agg_, seconds_between(t0, Clock::now()));
    return v;
  }

 private:
  std::unique_ptr<net::DelayModel> inner_;
  Tracer& tracer_;
  Tracer::Aggregate& agg_;
};

std::unique_ptr<net::DelayModel> delays_for(const harness::ExperimentConfig& cfg,
                                            Tracer* tracer, LayerTimes& layers) {
  std::unique_ptr<net::DelayModel> delays = harness::build_delays(cfg);
  if (tracer == nullptr) return delays;
  return std::make_unique<TimedDelayModel>(std::move(delays), *tracer, layers.verdicts);
}

churn::System::NodeFactory factory_for(const harness::ExperimentConfig& cfg, std::size_t n,
                                       Tracer* tracer, LayerTimes& layers) {
  churn::System::NodeFactory inner = harness::build_node_factory(cfg, n);
  if (tracer == nullptr) return inner;
  Tracer::Aggregate* agg = &layers.node_builds;
  return [inner = std::move(inner), tracer, agg](sim::ProcessId id, dynreg::node::Context& ctx,
                                                 bool initial) {
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<dynreg::node::Node> node = inner(id, ctx, initial);
    tracer->charge(*agg, seconds_between(t0, Clock::now()));
    return node;
  };
}

std::unique_ptr<churn::ChurnModel> churn_model_for(const harness::ExperimentConfig& cfg) {
  if (cfg.churn_kind == harness::ChurnKind::kNone || cfg.churn_rate <= 0.0) {
    return std::make_unique<churn::NoChurn>();
  }
  return std::make_unique<churn::ConstantChurn>(cfg.churn_rate);
}

/// Runs every event due at or before `horizon`, one step at a time.
std::uint64_t step_to(sim::Simulation& sim, sim::Time horizon) {
  std::uint64_t events = 0;
  for (auto t = sim.next_event_time(); t && *t <= horizon; t = sim.next_event_time()) {
    sim.step();
    ++events;
  }
  sim.run_until(horizon);  // no events left in range: only advances the clock
  return events;
}

void add_net_counts(const net::Network& network, SimCounts& counts) {
  const net::Network::Stats& s = network.stats();
  counts.copies_sent += s.sent;
  counts.copies_delivered += s.delivered;
  counts.copies_dropped_departed += s.dropped_departed;
  counts.copies_lost += s.dropped_loss;
  counts.copies_cut += s.dropped_partition;
}

void add_arena_counts(sim::Simulation& s, SimCounts& counts) {
  counts.arena_reserved_bytes = s.arena().bytes_reserved();
  counts.arena_chunks_created = s.arena().chunks_created();
  counts.arena_chunks_recycled = s.arena().chunks_recycled();
}

std::uint64_t failed_resolutions(const client::Client& c) {
  std::uint64_t failed = 0;
  for (const client::OpRecord& r : c.records()) {
    if (r.resolved && r.outcome != dynreg::OpOutcome::kOk &&
        r.attempts >= r.options.retry.max_attempts) {
      ++failed;
    }
  }
  return failed;
}

/// Latency summary exactly as harness::run_experiment computes it.
void summarize(std::vector<double> lat, double& mean, double& p50, double& p99,
               std::uint64_t mean_divisor) {
  if (lat.empty()) return;
  double total = 0.0;
  for (const double l : lat) total += l;
  mean = total / static_cast<double>(mean_divisor);
  std::sort(lat.begin(), lat.end());
  p50 = harness::percentile(lat, 0.50);
  p99 = harness::percentile(lat, 0.99);
}

/// The single-register world. The constructor builds and starts it in
/// run_experiment's order (the set-up); run() simulates to the horizon and
/// harvests.
class SingleWorld {
 public:
  SingleWorld(const harness::ExperimentConfig& cfg, Tracer* tracer, LayerTimes& layers)
      : cfg_(cfg), simulation_(cfg.seed) {
    Tracer::Scope setup(tracer, "setup");
    {
      Tracer::Scope build(tracer, "world.build");
      network_ = std::make_unique<net::Network>(simulation_, delays_for(cfg, tracer, layers));
      network_->set_loss_rate(cfg.loss_rate);
      if (cfg.dissemination == harness::Dissemination::kTree) {
        network_->set_disseminator(std::make_unique<net::TreeDisseminator>(cfg.tree_fanout));
      }
      history_ = std::make_unique<consistency::History>(harness::kInitialValue);
      churn::SystemConfig sys_cfg;
      sys_cfg.initial_size = cfg.n;
      sys_cfg.leave_policy = cfg.leave_policy;
      sys_cfg.exempt = harness::designated_writers(cfg);
      sys_cfg.chronicle = {cfg.chronicle_aggregate, 3 * cfg.delta, cfg.duration};
      system_ = std::make_unique<churn::System>(simulation_, *network_, sys_cfg,
                                                churn_model_for(cfg),
                                                factory_for(cfg, cfg.n, tracer, layers));
      client_ = std::make_unique<client::Client>(simulation_, *system_, *history_, cfg.duration);
      generator_ = workload::make_generator(workload::Env{simulation_, *system_, *client_,
                                                          cfg.workload, cfg.duration,
                                                          harness::designated_writers(cfg)});
      if (cfg.fault.enabled()) {
        fault_decisions_ = std::make_unique<fault::LiveDecisionSource>(simulation_.rng());
        injector_ = std::make_unique<fault::Injector>(simulation_, *system_, *network_, cfg.fault,
                                                      *fault_decisions_,
                                                      harness::designated_writers(cfg));
      }
    }
    {
      Tracer::Scope boot(tracer, "churn.bootstrap");
      system_->bootstrap();
    }
    if (injector_) {
      Tracer::Scope start(tracer, "fault.start");
      injector_->start();
    }
    Tracer::Scope start(tracer, "harness.generator_start");
    generator_->start();
  }

  void run(Tracer* tracer, Execution& ex) {
    const harness::ExperimentConfig& cfg = cfg_;
    harness::MetricsReport& report = ex.report;
    const Clock::time_point run_start = Clock::now();
    {
      Tracer::Scope run(tracer, "run");
      {
        Tracer::Scope loop(tracer, "sim.step_loop");
        const Clock::time_point loop_start = Clock::now();
        ex.counts.events = step_to(simulation_, cfg.duration);
        ex.step_loop_s = seconds_between(loop_start, Clock::now());
      }
      Tracer::Scope harvest(tracer, "harvest");
      const client::OpStats& ops = client_->stats();
      report.reads_issued = ops.reads_issued;
      report.reads_completed = ops.reads_completed;
      report.reads_of_bottom = ops.reads_of_bottom;
      report.writes_issued = ops.writes_issued;
      report.writes_completed = ops.writes_completed;
      report.reads_dropped = ops.reads_dropped;
      report.writes_dropped = ops.writes_dropped;
      report.reads_timed_out = ops.reads_timed_out;
      report.writes_timed_out = ops.writes_timed_out;
      report.op_retries = ops.retries;
      report.joins_started = system_->joins_started();
      report.joins_completed = system_->joins_completed();
      report.joins_abandoned = system_->joins_abandoned();
      report.join_latency_mean =
          system_->joins_completed() == 0
              ? 0.0
              : static_cast<double>(system_->join_latency_total()) /
                    static_cast<double>(system_->joins_completed());
      add_samples(ex.read_latencies, ops.read_latencies);
      add_samples(ex.write_latencies, ops.write_latencies);
      summarize(ops.read_latencies, report.read_latency_mean, report.read_latency_p50,
                report.read_latency_p99, ops.read_latencies.size());
      summarize(ops.write_latencies, report.write_latency_mean, report.write_latency_p50,
                report.write_latency_p99, report.writes_completed);
      const churn::Chronicle& chron = system_->chronicle();
      report.majority_active_always = chron.min_active_at(cfg.duration) * 2 > cfg.n;
      report.min_active_3delta =
          static_cast<double>(chron.min_active_through_window(3 * cfg.delta, cfg.duration));
      if (injector_) {
        const fault::Injector::Stats& fs = injector_->stats();
        report.faults_crashes = fs.crashes;
        report.faults_recoveries = fs.recoveries;
        report.faults_partitions = fs.partitions;
        report.faults_heals = fs.heals;
        report.msgs_dropped_partition = network_->stats().dropped_partition;
        report.msgs_transformed = network_->stats().transformed;
      }
      report.msgs_by_type = network_->delivered_by_type();
      {
        Tracer::Scope check(tracer, "consistency.regularity");
        report.regularity = consistency::RegularityChecker{}.check(*history_);
      }
      {
        Tracer::Scope check(tracer, "consistency.atomicity");
        report.atomicity = consistency::AtomicityChecker{}.check(*history_);
      }
      report.trace_hash = simulation_.trace_hash();
    }
    ex.run_s = seconds_between(run_start, Clock::now());

    add_net_counts(*network_, ex.counts);
    add_arena_counts(simulation_, ex.counts);
    ex.counts.ops_failed = failed_resolutions(*client_);
  }

 private:
  const harness::ExperimentConfig& cfg_;
  // Declared in construction order, so they are destroyed in reverse.
  sim::Simulation simulation_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<consistency::History> history_;
  std::unique_ptr<churn::System> system_;
  std::unique_ptr<client::Client> client_;
  std::unique_ptr<workload::Generator> generator_;
  std::unique_ptr<fault::DecisionSource> fault_decisions_;
  std::unique_ptr<fault::Injector> injector_;
};

/// One shard's world, built in shard::run_sharded's order.
struct ShardWorld {
  std::unique_ptr<net::Network> net;
  std::unique_ptr<consistency::History> history;
  std::unique_ptr<churn::System> system;
  std::unique_ptr<client::Client> client;
  std::size_t n = 0;
};

/// The sharded world: every shard in one Simulation, set up by the
/// constructor, run and harvested by run().
class ShardedWorld {
 public:
  ShardedWorld(const harness::ExperimentConfig& cfg, Tracer* tracer, LayerTimes& layers)
      : cfg_(cfg), simulation_(cfg.seed), worlds_(cfg.shard_count), map_(cfg.shard_count) {
    const std::size_t shard_count = cfg.shard_count;
    const bool writes = cfg.workload.read_frac < 1.0;
    Tracer::Scope setup(tracer, "setup");
    {
      Tracer::Scope build(tracer, "world.build");
      for (std::size_t s = 0; s < shard_count; ++s) {
        ShardWorld& w = worlds_[s];
        w.n = cfg.n / shard_count + (s < cfg.n % shard_count ? 1 : 0);
        w.net = std::make_unique<net::Network>(simulation_, delays_for(cfg, tracer, layers));
        w.net->set_loss_rate(cfg.loss_rate);
        w.history = std::make_unique<consistency::History>(harness::kInitialValue);
        churn::SystemConfig sys_cfg;
        sys_cfg.initial_size = w.n;
        sys_cfg.leave_policy = cfg.leave_policy;
        if (writes) sys_cfg.exempt = {0};
        sys_cfg.chronicle = {cfg.chronicle_aggregate, 3 * cfg.delta, cfg.duration};
        w.system = std::make_unique<churn::System>(simulation_, *w.net, sys_cfg,
                                                   churn_model_for(cfg),
                                                   factory_for(cfg, w.n, tracer, layers));
        w.client = std::make_unique<client::Client>(simulation_, *w.system, *w.history,
                                                    cfg.duration);
        map_.shard(static_cast<shard::ShardId>(s)) = shard::ShardRef{
            w.system.get(), w.client.get(), w.history.get(), w.net.get(), 0, w.n};
      }
      router_ = std::make_unique<shard::ShardedClient>(map_);
      generator_ = std::make_unique<shard::KeyedGenerator>(
          shard::KeyedGenerator::Env{simulation_, *router_, cfg.workload, cfg.duration});
    }
    {
      Tracer::Scope boot(tracer, "churn.bootstrap");
      for (ShardWorld& w : worlds_) w.system->bootstrap();
    }
    Tracer::Scope start(tracer, "harness.generator_start");
    generator_->start();
  }

  void run(Tracer* tracer, Execution& ex) {
    const Clock::time_point run_start = Clock::now();
    {
      Tracer::Scope run(tracer, "run");
      {
        Tracer::Scope loop(tracer, "sim.step_loop");
        const Clock::time_point loop_start = Clock::now();
        ex.counts.events = step_to(simulation_, cfg_.duration);
        ex.step_loop_s = seconds_between(loop_start, Clock::now());
      }
      Tracer::Scope harvest(tracer, "harvest");
      router_->harvest(cfg_, ex.report);
      ex.report.trace_hash = simulation_.trace_hash();
    }
    ex.run_s = seconds_between(run_start, Clock::now());

    if (tracer != nullptr) {
      // harvest() runs the checkers inside its own span; time them by running
      // them again per shard history, after the timed run.
      std::size_t checked = 0;
      std::size_t inversions = 0;
      for (const ShardWorld& w : worlds_) {
        {
          Tracer::Scope check(tracer, "consistency.regularity");
          checked += consistency::RegularityChecker{}.check(*w.history).reads_checked;
        }
        Tracer::Scope check(tracer, "consistency.atomicity");
        inversions += consistency::AtomicityChecker{}.check(*w.history).inversion_count;
      }
      ex.recheck_agrees = checked == ex.report.regularity.reads_checked &&
                          inversions == ex.report.atomicity.inversion_count;
    }
    for (const ShardWorld& w : worlds_) {
      add_net_counts(*w.net, ex.counts);
      ex.counts.ops_failed += failed_resolutions(*w.client);
      const client::OpStats& ops = w.client->stats();
      add_samples(ex.read_latencies, ops.read_latencies);
      add_samples(ex.write_latencies, ops.write_latencies);
    }
    add_arena_counts(simulation_, ex.counts);
  }

 private:
  const harness::ExperimentConfig& cfg_;
  // Declared in construction order, so they are destroyed in reverse.
  sim::Simulation simulation_;
  std::vector<ShardWorld> worlds_;
  shard::ShardMap map_;
  std::unique_ptr<shard::ShardedClient> router_;
  std::unique_ptr<shard::KeyedGenerator> generator_;
};

template <typename World>
Execution execute(const harness::ExperimentConfig& cfg, Tracer* tracer) {
  Execution ex;
  World world(cfg, tracer, ex.layers);
  world.run(tracer, ex);
  return ex;
}

/// The set-up alone; the world is torn down after the clock stops.
template <typename World>
double setup_only(const harness::ExperimentConfig& cfg) {
  LayerTimes untimed;
  const Clock::time_point start = Clock::now();
  const World world(cfg, nullptr, untimed);
  return seconds_between(start, Clock::now());
}

void fill_layer_times(const Tracer& tracer, std::uint32_t rep, LayerTimes& layers) {
  layers.build_s = tracer.total("world.build", rep);
  layers.bootstrap_s = tracer.total("churn.bootstrap", rep);
  layers.generator_start_s = tracer.total("harness.generator_start", rep);
  layers.run_self_s = tracer.self("sim.step_loop", rep);
  layers.harvest_s = tracer.total("harvest", rep);
  layers.regularity_s = tracer.total("consistency.regularity", rep);
  layers.atomicity_s = tracer.total("consistency.atomicity", rep);
}

}  // namespace

Execution execute_world(const harness::ExperimentConfig& cfg, Tracer* tracer) {
  Execution ex = cfg.shard_count > 0 ? execute<ShardedWorld>(cfg, tracer)
                                     : execute<SingleWorld>(cfg, tracer);
  if (tracer != nullptr) fill_layer_times(*tracer, tracer->rep(), ex.layers);
  return ex;
}

double setup_world(const harness::ExperimentConfig& cfg) {
  return cfg.shard_count > 0 ? setup_only<ShardedWorld>(cfg) : setup_only<SingleWorld>(cfg);
}

SearchExecution execute_search(const harness::ExperimentConfig& cfg,
                               const replay::SearchOptions& opt, bool traced) {
  SearchExecution ex;
  const Clock::time_point t0 = Clock::now();
  ex.base = replay::record_base(cfg);
  const Clock::time_point t1 = Clock::now();
  ex.setup_s = seconds_between(t0, t1);
  if (!traced) {
    ex.result = replay::search(cfg, ex.base, opt);
    ex.run_s = seconds_between(t1, Clock::now());
    return ex;
  }

  struct Slot {
    bool violating = false;
    bool inverted = false;
    double perturb_s = 0.0;
    double replay_s = 0.0;
  };
  std::vector<Slot> slots(opt.budget);
  harness::parallel_for(opt.jobs, opt.budget, [&](std::size_t i) {
    const Clock::time_point a = Clock::now();
    const replay::Trace variant = replay::perturb(ex.base, replay::fold64(opt.seed, i), opt);
    const Clock::time_point b = Clock::now();
    replay::RunHooks hooks;
    hooks.replay = &variant;
    const harness::MetricsReport report = harness::run_experiment(cfg, hooks);
    slots[i] = Slot{replay::violates(report), report.atomicity.inversion_count > 0,
                    seconds_between(a, b), seconds_between(b, Clock::now())};
  });
  ex.result.executed = opt.budget;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].violating) {
      ++ex.result.violating;
      if (!ex.result.first_violation) ex.result.first_violation = i;
    }
    if (slots[i].inverted) ++ex.result.inverted;
    ex.perturb_s += slots[i].perturb_s;
    ex.replay_s += slots[i].replay_s;
  }
  if (ex.result.first_violation) {
    // search() ends by regenerating and re-running the first violating
    // variant for its full report; so does the traced loop.
    const Clock::time_point a = Clock::now();
    ex.result.counterexample =
        replay::perturb(ex.base, replay::fold64(opt.seed, *ex.result.first_violation), opt);
    const Clock::time_point b = Clock::now();
    replay::RunHooks hooks;
    hooks.replay = &ex.result.counterexample;
    ex.result.counterexample_report = harness::run_experiment(cfg, hooks);
    ex.perturb_s += seconds_between(a, b);
    ex.replay_s += seconds_between(b, Clock::now());
  }
  ex.run_s = seconds_between(t1, Clock::now());
  return ex;
}

}  // namespace perfbench
