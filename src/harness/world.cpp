#include "harness/world.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "dynreg/abd_register.h"
#include "dynreg/es_register.h"
#include "dynreg/sync_register.h"
#include "harness/aggregate.h"
#include "harness/builders.h"
#include "net/disseminator.h"

namespace dynreg::harness {

std::unique_ptr<net::DelayModel> build_delays(const ExperimentConfig& cfg) {
  if (cfg.timing == Timing::kEventuallySynchronous) {
    return std::make_unique<net::EventuallySynchronousDelay>(cfg.gst, cfg.pre_gst_max,
                                                             cfg.delta);
  }
  return std::make_unique<net::SynchronousDelay>(cfg.delta);
}

churn::System::NodeFactory build_node_factory(const ExperimentConfig& cfg,
                                              std::size_t n) {
  switch (cfg.protocol) {
    case Protocol::kSync:
    case Protocol::kSyncNoWait: {
      SyncConfig sc;
      sc.delta = cfg.delta;
      sc.wait_before_inquiry = cfg.protocol != Protocol::kSyncNoWait;
      sc.delta_pp = cfg.sync_delta_pp;
      sc.refresh_interval = cfg.sync_refresh_interval;
      sc.initial_value = kInitialValue;
      return [sc](sim::ProcessId id, node::Context& ctx, bool initial) {
        return std::make_unique<SyncRegisterNode>(id, ctx, sc, initial);
      };
    }
    case Protocol::kEventuallySync: {
      EsConfig ec;
      ec.n = n;
      // Retransmit cadence scales with the dissemination depth: a flat
      // broadcast completes a round trip within ~2*delta, but over a fanout
      // tree a copy crosses ceil(log_f(n)) hops each way, so the fixed
      // 2*delta timer fired several extra rebroadcast rounds while the
      // deeper quorum was still forming (the E15 message-count gap —
      // docs/PERFORMANCE.md). Flat keeps the historical value byte-for-byte
      // (depth 1 => (1+1)*delta == 2*delta).
      std::size_t depth = 1;
      if (cfg.dissemination == Dissemination::kTree && n > 1) {
        const std::size_t fanout = std::max<std::size_t>(1, cfg.tree_fanout);
        std::size_t reach = 1;  // processes within `depth` hops of the root
        std::size_t level = 1;
        while (reach < n) {
          level = fanout == 1 ? 1 : level * fanout;
          reach += level;
          if (reach < n) ++depth;
        }
      }
      ec.retransmit_interval =
          std::max<sim::Duration>(1, static_cast<sim::Duration>(depth + 1) * cfg.delta);
      ec.atomic_reads = cfg.es_atomic_reads;
      ec.retransmit_backoff = cfg.es_retransmit_backoff;
      ec.validate_replies = cfg.es_validate_replies;
      ec.initial_value = kInitialValue;
      return [ec](sim::ProcessId id, node::Context& ctx, bool initial) {
        return std::make_unique<EsRegisterNode>(id, ctx, ec, initial);
      };
    }
    case Protocol::kAbd: {
      AbdConfig ac;
      ac.n = n;
      ac.initial_value = kInitialValue;
      return [ac](sim::ProcessId id, node::Context& ctx, bool initial) {
        return std::make_unique<AbdRegisterNode>(id, ctx, ac, initial);
      };
    }
  }
  return nullptr;
}

std::vector<sim::ProcessId> designated_writers(const ExperimentConfig& cfg) {
  std::vector<sim::ProcessId> writers;
  if (!cfg.workload.writes_enabled) return writers;
  const std::size_t k = cfg.workload.writer_mode == workload::WriterMode::kConcurrent
                            ? std::max<std::size_t>(1, cfg.workload.concurrent_writers)
                            : 1;
  for (std::size_t w = 0; w < k && w < cfg.n; ++w) {
    writers.push_back(static_cast<sim::ProcessId>(w));
  }
  return writers;
}

RunTap::RunTap(const replay::RunHooks& hooks, bool shared)
    : hooks_(hooks), shared_(shared) {
  if (hooks_.replay != nullptr) {
    // Aliasing ctor: the caller guarantees *hooks.replay outlives the run,
    // so the shared_ptr carries no ownership.
    replayer_.emplace(std::shared_ptr<const replay::Trace>(
        std::shared_ptr<const replay::Trace>(), hooks_.replay));
  }
  if (hooks_.record != nullptr) picks_.emplace(*hooks_.record);
}

std::unique_ptr<net::DelayModel> RunTap::delays(std::unique_ptr<net::DelayModel> live) {
  if (replayer_) {
    return shared_ ? replayer_->make_delay_model_view() : replayer_->make_delay_model();
  }
  if (hooks_.record != nullptr) {
    return std::make_unique<replay::RecordingDelayModel>(std::move(live), *hooks_.record);
  }
  return live;
}

std::unique_ptr<churn::ChurnModel> RunTap::churn(std::unique_ptr<churn::ChurnModel> live,
                                                 std::uint32_t shard) {
  if (replayer_) return replayer_->make_churn_model(shard);
  // Replay re-creates the churn tick loop only when the recording ran one.
  if (hooks_.record != nullptr) hooks_.record->churn_loop = live->rate() > 0.0;
  return live;
}

void RunTap::observe(churn::System& system, client::Client& client, std::uint32_t shard) {
  if (hooks_.record != nullptr) {
    system.set_churn_observer(&churn_recorders_.emplace_back(*hooks_.record, shard));
    client.set_target_observer(&*picks_);
  }
  if (replayer_) client.set_target_chooser(replayer_->target_chooser());
}

std::unique_ptr<fault::DecisionSource> RunTap::fault_decisions(sim::Rng& rng) {
  if (hooks_.replay != nullptr) {
    return std::make_unique<fault::ReplayDecisionSource>(std::shared_ptr<const replay::Trace>(
        std::shared_ptr<const replay::Trace>(), hooks_.replay));
  }
  std::unique_ptr<fault::DecisionSource> live = std::make_unique<fault::LiveDecisionSource>(rng);
  if (hooks_.record == nullptr) return live;
  return std::make_unique<fault::RecordingDecisionSource>(std::move(live), *hooks_.record);
}

GroupSpec group_spec(const ExperimentConfig& cfg, std::size_t n,
                     std::vector<sim::ProcessId> exempt) {
  GroupSpec spec;
  spec.system.initial_size = n;
  spec.system.leave_policy = cfg.leave_policy;
  spec.system.exempt = std::move(exempt);
  spec.system.chronicle = {cfg.chronicle_aggregate, 3 * cfg.delta, cfg.duration};
  spec.delays = build_delays(cfg);
  if (cfg.churn_kind == ChurnKind::kNone || cfg.churn_rate <= 0.0) {
    spec.churn = std::make_unique<churn::NoChurn>();
  } else {
    spec.churn = std::make_unique<churn::ConstantChurn>(cfg.churn_rate);
  }
  spec.factory = build_node_factory(cfg, n);
  spec.loss_rate = cfg.loss_rate;
  if (cfg.dissemination == Dissemination::kTree) spec.tree_fanout = cfg.tree_fanout;
  spec.horizon = cfg.duration;
  if (cfg.fault.enabled()) spec.fault = &cfg.fault;
  return spec;
}

World::World(sim::Simulation& sim, GroupSpec spec, RunTap& tap, std::uint32_t shard)
    : n_(spec.system.initial_size),
      net_(sim, tap.delays(std::move(spec.delays))),
      history_(kInitialValue),
      system_(sim, net_, spec.system, tap.churn(std::move(spec.churn), shard),
              std::move(spec.factory)),
      client_(sim, system_, history_, spec.horizon) {
  net_.set_loss_rate(spec.loss_rate);
  if (spec.tree_fanout > 0) {
    net_.set_disseminator(std::make_unique<net::TreeDisseminator>(spec.tree_fanout));
  }
  tap.observe(system_, client_, shard);
  if (spec.fault != nullptr) {
    fault_decisions_ = tap.fault_decisions(sim.rng());
    injector_ = std::make_unique<fault::Injector>(sim, system_, net_, *spec.fault,
                                                  *fault_decisions_, spec.system.exempt);
  }
}

void World::start() {
  system_.bootstrap();
  if (injector_) injector_->start();
}

shard::ShardRef World::ref(sim::ProcessId writer) {
  return shard::ShardRef{&system_, &client_, &history_, &net_, writer, n_};
}

void World::harvest_faults(MetricsReport& report) const {
  if (!injector_) return;
  const fault::Injector::Stats& fs = injector_->stats();
  report.faults_crashes = fs.crashes;
  report.faults_recoveries = fs.recoveries;
  report.faults_partitions = fs.partitions;
  report.faults_heals = fs.heals;
  report.msgs_dropped_partition = net_.stats().dropped_partition;
  report.msgs_transformed = net_.stats().transformed;
}

namespace {

/// Mean over the samples in their recorded order (the historical summation
/// order, kept bit-for-bit), divided by `count`; then nearest-rank p50/p99.
void summarize(std::vector<double>& samples, double count, double& mean, double& p50,
               double& p99) {
  if (samples.empty()) return;
  double total = 0.0;
  for (const double l : samples) total += l;
  mean = total / count;
  std::sort(samples.begin(), samples.end());
  p50 = percentile(samples, 0.50);
  p99 = percentile(samples, 0.99);
}

}  // namespace

void harvest(const std::vector<shard::ShardRef>& groups, const ExperimentConfig& cfg,
             MetricsReport& report) {
  std::vector<double> reads;
  std::vector<double> writes;
  std::uint64_t join_latency_total = 0;

  for (std::size_t g = 0; g < groups.size(); ++g) {
    const shard::ShardRef& ref = groups[g];
    const client::OpStats& ops = ref.client->stats();
    report.reads_issued += ops.reads_issued;
    report.reads_completed += ops.reads_completed;
    report.reads_of_bottom += ops.reads_of_bottom;
    report.writes_issued += ops.writes_issued;
    report.writes_completed += ops.writes_completed;
    report.reads_dropped += ops.reads_dropped;
    report.writes_dropped += ops.writes_dropped;
    report.reads_timed_out += ops.reads_timed_out;
    report.writes_timed_out += ops.writes_timed_out;
    report.op_retries += ops.retries;

    report.joins_started += ref.system->joins_started();
    report.joins_completed += ref.system->joins_completed();
    report.joins_abandoned += ref.system->joins_abandoned();
    join_latency_total += ref.system->join_latency_total();

    reads.insert(reads.end(), ops.read_latencies.begin(), ops.read_latencies.end());
    writes.insert(writes.end(), ops.write_latencies.begin(), ops.write_latencies.end());

    // The majority/Lemma-2 properties must hold in every membership group.
    const churn::Chronicle& chron = ref.system->chronicle();
    report.majority_active_always =
        report.majority_active_always && chron.min_active_at(cfg.duration) * 2 > ref.n;
    const double min_active = static_cast<double>(
        chron.min_active_through_window(3 * cfg.delta, cfg.duration));
    report.min_active_3delta =
        g == 0 ? min_active : std::min(report.min_active_3delta, min_active);

    consistency::RegularityReport reg = consistency::RegularityChecker{}.check(*ref.history);
    report.regularity.reads_checked += reg.reads_checked;
    report.regularity.concurrent_write_pairs += reg.concurrent_write_pairs;
    report.regularity.violations.insert(report.regularity.violations.end(),
                                        std::make_move_iterator(reg.violations.begin()),
                                        std::make_move_iterator(reg.violations.end()));
    const consistency::InversionReport inv =
        consistency::AtomicityChecker{}.check(*ref.history);
    report.atomicity.reads_checked += inv.reads_checked;
    report.atomicity.inversion_count += inv.inversion_count;

    for (const auto& [type, count] : ref.net->delivered_by_type()) {
      report.msgs_by_type[type] += count;
    }
  }

  report.join_latency_mean =
      report.joins_completed == 0
          ? 0.0
          : static_cast<double>(join_latency_total) /
                static_cast<double>(report.joins_completed);
  summarize(reads, static_cast<double>(reads.size()), report.read_latency_mean,
            report.read_latency_p50, report.read_latency_p99);
  // The write mean divides by writes_completed (== sample count): the
  // formula the pre-client driver used, kept bit-for-bit.
  summarize(writes, static_cast<double>(report.writes_completed), report.write_latency_mean,
            report.write_latency_p50, report.write_latency_p99);
}

}  // namespace dynreg::harness
