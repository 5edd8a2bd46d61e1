// One register group — the paper's system: n processes under churn over a
// delta-bounded network, serving one register — and the one place that
// wires it. run_experiment builds one World driven by workload::Generator,
// or shard_count Worlds in one Simulation behind the shard router driven by
// shard::KeyedGenerator; the scripted experiments build one through
// bench::ScriptedCluster. harvest() folds any list of groups into a
// MetricsReport.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "churn/churn_model.h"
#include "churn/system.h"
#include "client/client.h"
#include "consistency/history.h"
#include "fault/decision.h"
#include "fault/injector.h"
#include "harness/experiment.h"
#include "harness/metrics.h"
#include "net/delay_model.h"
#include "net/network.h"
#include "replay/hooks.h"
#include "replay/recorder.h"
#include "replay/replayer.h"
#include "shard/keyspace.h"
#include "sim/simulation.h"

namespace dynreg::harness {

/// How the Worlds of one run tap its record/replay hooks (replay/hooks.h).
/// Recording wraps each live decision source and appends to the one trace
/// in execution order, churn records tagged with their World's shard.
/// Replay substitutes the trace's decisions: churn demultiplexed by shard
/// tag, picks through one shared chooser, and net verdicts through one
/// positional cursor. With neither hook set every live source passes
/// through untouched. Must outlive every World built against it.
class RunTap {
 public:
  /// `shared`: several Worlds draw on this tap (a sharded run), so replayed
  /// net verdicts go through forwarding views over one shared cursor.
  RunTap(const replay::RunHooks& hooks, bool shared);

  RunTap(const RunTap&) = delete;
  RunTap& operator=(const RunTap&) = delete;

  [[nodiscard]] std::unique_ptr<net::DelayModel> delays(
      std::unique_ptr<net::DelayModel> live);
  [[nodiscard]] std::unique_ptr<churn::ChurnModel> churn(
      std::unique_ptr<churn::ChurnModel> live, std::uint32_t shard);
  /// Installs the churn recorder, pick recorder or replayed chooser.
  void observe(churn::System& system, client::Client& client, std::uint32_t shard);
  /// Live draws from `rng`, recorded into the trace's fault stream, or the
  /// replayed stream — during replay nothing touches the Rng.
  [[nodiscard]] std::unique_ptr<fault::DecisionSource> fault_decisions(sim::Rng& rng);

 private:
  replay::RunHooks hooks_;
  bool shared_;
  std::optional<replay::TraceReplayer> replayer_;
  std::optional<replay::PickRecorder> picks_;
  std::deque<replay::ChurnRecorder> churn_recorders_;
};

/// Everything one World is built from. The live delay and churn models
/// stand unless the tap replays a trace.
struct GroupSpec {
  churn::SystemConfig system;  ///< initial_size is the group's n
  std::unique_ptr<net::DelayModel> delays;
  std::unique_ptr<churn::ChurnModel> churn;
  churn::System::NodeFactory factory;
  double loss_rate = 0.0;
  /// Broadcast fanout over a net::TreeDisseminator; 0 keeps the flat
  /// built-in path, byte-for-byte the pre-seam code.
  std::size_t tree_fanout = 0;
  sim::Time horizon = 0;  ///< the client's
  /// The fault campaign, or null for none (then no injector is built).
  /// The injector spares system.exempt, the pinned writers.
  const fault::Plan* fault = nullptr;
};

/// `cfg`'s group of `n` processes with `exempt` pinned against churn.
GroupSpec group_spec(const ExperimentConfig& cfg, std::size_t n,
                     std::vector<sim::ProcessId> exempt);

/// One register group's owned wiring: network, history, membership,
/// client, and the optional fault injector, built in that order.
class World {
 public:
  World(sim::Simulation& sim, GroupSpec spec, RunTap& tap, std::uint32_t shard = 0);

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Bootstraps the membership, then arms the injector. Start the workload
  /// after every World of the run has started.
  void start();

  [[nodiscard]] net::Network& net() { return net_; }
  [[nodiscard]] churn::System& system() { return system_; }
  [[nodiscard]] client::Client& client() { return client_; }

  /// This group as a shard directory entry (and harvest() input).
  [[nodiscard]] shard::ShardRef ref(sim::ProcessId writer = 0);

  /// The fault-campaign counters; leaves `report` untouched without an
  /// injector.
  void harvest_faults(MetricsReport& report) const;

 private:
  std::size_t n_;
  net::Network net_;
  consistency::History history_;
  churn::System system_;
  client::Client client_;
  std::unique_ptr<fault::DecisionSource> fault_decisions_;
  std::unique_ptr<fault::Injector> injector_;
};

/// Folds every group's op counters, latencies, join and chronicle
/// accounting, delivered traffic and consistency checks into `report`:
/// sums, latency summaries over the samples merged in group order, the
/// chronicle properties AND-ed and min-ed across groups, and the checkers
/// run per group (registers are independent). `cfg` supplies the horizon
/// and delta for the chronicle queries. Per-shard slices are the router's
/// (shard::ShardedClient::harvest); trace_hash is the caller's.
void harvest(const std::vector<shard::ShardRef>& groups, const ExperimentConfig& cfg,
             MetricsReport& report);

}  // namespace dynreg::harness
