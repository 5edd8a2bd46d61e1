#include "harness/experiment.h"

#include <deque>
#include <memory>
#include <stdexcept>
#include <vector>

#include "harness/builders.h"
#include "harness/workload.h"
#include "harness/world.h"
#include "replay/hooks.h"
#include "replay/session.h"
#include "replay/trace_io.h"
#include "shard/keyed_workload.h"
#include "shard/keyspace.h"
#include "shard/router.h"

namespace dynreg::harness {

MetricsReport run_experiment(const ExperimentConfig& cfg) {
  replay::Enrolment enrolment([&cfg] { return replay::fingerprint(cfg); }, cfg.seed);
  MetricsReport report = run_experiment(cfg, enrolment.hooks());
  enrolment.finish(report.trace_hash);
  return report;
}

MetricsReport run_experiment(const ExperimentConfig& cfg, const replay::RunHooks& hooks) {
  if (cfg.shard_count > 0 && cfg.fault.enabled()) {
    throw std::invalid_argument(
        "a fault plan cannot run sharded: the fault injector targets a single "
        "register group (drop --shards or the fault plan)");
  }
  if (cfg.shard_count > 0 &&
      cfg.workload.writer_mode == workload::WriterMode::kConcurrent) {
    throw std::invalid_argument(
        "concurrent writers cannot run sharded: each shard has one designated "
        "writer (drop --shards or the multi-writer mode)");
  }

  sim::Simulation sim(cfg.seed);
  RunTap tap(hooks, /*shared=*/cfg.shard_count > 0);
  MetricsReport report;

  if (cfg.shard_count == 0) {
    const std::vector<sim::ProcessId> writers = designated_writers(cfg);
    World world(sim, group_spec(cfg, cfg.n, writers), tap);
    const std::unique_ptr<workload::Generator> generator = workload::make_generator(
        workload::Env{sim, world.system(), world.client(), cfg.workload, cfg.duration,
                      writers});
    world.start();
    generator->start();
    sim.run_until(cfg.duration);
    harvest({world.ref()}, cfg, report);
    world.harvest_faults(report);
  } else {
    // One World per shard in one Simulation, built and started in shard
    // order. Population slice: n/S each, the remainder spread over the first
    // shards. The keyed engine's mix coin decides whether writes exist at
    // all; reads-only configs pin (and exempt) nobody.
    const std::size_t shards = cfg.shard_count;
    const bool writes = cfg.workload.read_frac < 1.0;
    std::deque<World> worlds;
    shard::ShardMap map(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      const std::size_t n = cfg.n / shards + (s < cfg.n % shards ? 1 : 0);
      std::vector<sim::ProcessId> exempt;
      if (writes) exempt.push_back(0);  // the shard's designated writer
      World& world = worlds.emplace_back(sim, group_spec(cfg, n, std::move(exempt)), tap,
                                         static_cast<std::uint32_t>(s));
      map.shard(static_cast<shard::ShardId>(s)) = world.ref(/*writer=*/0);
    }
    shard::ShardedClient router(map);
    shard::KeyedGenerator generator(
        shard::KeyedGenerator::Env{sim, router, cfg.workload, cfg.duration});
    for (World& world : worlds) world.start();
    generator.start();
    sim.run_until(cfg.duration);
    router.harvest(cfg, report);
  }

  report.trace_hash = sim.trace_hash();
  return report;
}

}  // namespace dynreg::harness
