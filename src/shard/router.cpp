#include "shard/router.h"

#include <algorithm>
#include <vector>

#include "harness/aggregate.h"
#include "harness/experiment.h"
#include "harness/world.h"

namespace dynreg::shard {

client::OpHandle ShardedClient::read(Key key, client::OpOptions options,
                                     client::OpHook done) {
  ShardRef& ref = map_.shard(owner_of(key));
  const auto target = ref.client->random_active();
  if (!target) return client::OpHandle{};
  return ref.client->session_read(*target, std::move(options), std::move(done));
}

client::OpHandle ShardedClient::write(Key key, client::OpOptions options,
                                      client::OpHook done) {
  ShardRef& ref = map_.shard(owner_of(key));
  if (ref.client->node(ref.writer) == nullptr) return client::OpHandle{};
  return ref.client->session_write(ref.writer, ref.client->next_value(),
                                   std::move(options), std::move(done));
}

void ShardedClient::harvest(const harness::ExperimentConfig& cfg,
                            harness::MetricsReport& report) const {
  harness::harvest(map_.shards(), cfg, report);

  // Per-shard slices, plus the shard-level tail/skew summary over shards
  // that completed anything.
  double hot = 0.0;
  double cold = 0.0;
  bool any = false;
  std::uint64_t total_ops = 0;
  std::uint64_t max_ops = 0;
  for (const ShardRef& ref : map_.shards()) {
    const client::OpStats& ops = ref.client->stats();
    harness::ShardMetrics sm;
    sm.reads_completed = ops.reads_completed;
    sm.writes_completed = ops.writes_completed;
    sm.ops_completed = ops.reads_completed + ops.writes_completed;
    std::vector<double> shard_lat = ops.read_latencies;
    shard_lat.insert(shard_lat.end(), ops.write_latencies.begin(),
                     ops.write_latencies.end());
    if (!shard_lat.empty()) {
      std::sort(shard_lat.begin(), shard_lat.end());
      sm.latency_p50 = harness::percentile(shard_lat, 0.50);
      sm.latency_p99 = harness::percentile(shard_lat, 0.99);
    }
    report.shards.push_back(sm);

    total_ops += sm.ops_completed;
    max_ops = std::max(max_ops, sm.ops_completed);
    if (sm.ops_completed == 0) continue;
    if (!any) {
      hot = cold = sm.latency_p99;
      any = true;
    } else {
      hot = std::max(hot, sm.latency_p99);
      cold = std::min(cold, sm.latency_p99);
    }
  }
  report.shard_hot_p99 = hot;
  report.shard_cold_p99 = cold;
  const double mean_ops =
      report.shards.empty()
          ? 0.0
          : static_cast<double>(total_ops) / static_cast<double>(report.shards.size());
  report.shard_skew = mean_ops == 0.0 ? 0.0 : static_cast<double>(max_ops) / mean_ops;
  report.ops_per_tick = cfg.duration == 0
                            ? 0.0
                            : static_cast<double>(total_ops) /
                                  static_cast<double>(cfg.duration);
}

}  // namespace dynreg::shard
