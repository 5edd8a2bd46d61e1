#include "report.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>


namespace perfbench {

void add_samples(Histogram& h, const std::vector<double>& samples) {
  for (const double v : samples) ++h[v];
}

std::uint64_t sample_count(const Histogram& h) {
  std::uint64_t n = 0;
  for (const auto& [value, count] : h) n += count;
  return n;
}

namespace {

std::uint64_t rank_index(std::uint64_t n, double p) {
  return std::min(n - 1, static_cast<std::uint64_t>(std::floor(p * static_cast<double>(n))));
}

}  // namespace

double percentile_of(const Histogram& h, double p) {
  const std::uint64_t index = rank_index(sample_count(h), p);
  std::uint64_t seen = 0;
  for (const auto& [value, count] : h) {
    seen += count;
    if (seen > index) return value;
  }
  return h.rbegin()->first;
}

std::optional<Tail> tail_of(const Histogram& h) {
  const std::uint64_t n = sample_count(h);
  if (n == 0) return std::nullopt;
  for (const double p : {0.99, 0.95, 0.90, 0.75, 0.50}) {
    if (n - 1 - rank_index(n, p) >= 10) return Tail{percentile_of(h, p), p, n};
  }
  return std::nullopt;
}

namespace {

template <typename T>
void compare(std::ostringstream& diff, const char* field, const T& a, const T& b) {
  if (diff.tellp() == 0 && !(a == b)) diff << field;
}

}  // namespace

std::string report_difference(const dynreg::harness::MetricsReport& a,
                              const dynreg::harness::MetricsReport& b) {
  std::ostringstream d;
  compare(d, "reads_issued", a.reads_issued, b.reads_issued);
  compare(d, "reads_completed", a.reads_completed, b.reads_completed);
  compare(d, "reads_of_bottom", a.reads_of_bottom, b.reads_of_bottom);
  compare(d, "writes_issued", a.writes_issued, b.writes_issued);
  compare(d, "writes_completed", a.writes_completed, b.writes_completed);
  compare(d, "reads_dropped", a.reads_dropped, b.reads_dropped);
  compare(d, "writes_dropped", a.writes_dropped, b.writes_dropped);
  compare(d, "reads_timed_out", a.reads_timed_out, b.reads_timed_out);
  compare(d, "writes_timed_out", a.writes_timed_out, b.writes_timed_out);
  compare(d, "op_retries", a.op_retries, b.op_retries);
  compare(d, "joins_started", a.joins_started, b.joins_started);
  compare(d, "joins_completed", a.joins_completed, b.joins_completed);
  compare(d, "joins_abandoned", a.joins_abandoned, b.joins_abandoned);
  compare(d, "read_latency_mean", a.read_latency_mean, b.read_latency_mean);
  compare(d, "read_latency_p50", a.read_latency_p50, b.read_latency_p50);
  compare(d, "read_latency_p99", a.read_latency_p99, b.read_latency_p99);
  compare(d, "write_latency_mean", a.write_latency_mean, b.write_latency_mean);
  compare(d, "write_latency_p50", a.write_latency_p50, b.write_latency_p50);
  compare(d, "write_latency_p99", a.write_latency_p99, b.write_latency_p99);
  compare(d, "join_latency_mean", a.join_latency_mean, b.join_latency_mean);
  compare(d, "majority_active_always", a.majority_active_always, b.majority_active_always);
  compare(d, "min_active_3delta", a.min_active_3delta, b.min_active_3delta);
  compare(d, "faults_crashes", a.faults_crashes, b.faults_crashes);
  compare(d, "faults_recoveries", a.faults_recoveries, b.faults_recoveries);
  compare(d, "faults_partitions", a.faults_partitions, b.faults_partitions);
  compare(d, "faults_heals", a.faults_heals, b.faults_heals);
  compare(d, "msgs_dropped_partition", a.msgs_dropped_partition, b.msgs_dropped_partition);
  compare(d, "msgs_transformed", a.msgs_transformed, b.msgs_transformed);
  compare(d, "shards.size", a.shards.size(), b.shards.size());
  for (std::size_t s = 0; s < a.shards.size() && s < b.shards.size(); ++s) {
    compare(d, "shards.ops_completed", a.shards[s].ops_completed, b.shards[s].ops_completed);
    compare(d, "shards.latency_p50", a.shards[s].latency_p50, b.shards[s].latency_p50);
    compare(d, "shards.latency_p99", a.shards[s].latency_p99, b.shards[s].latency_p99);
  }
  compare(d, "shard_hot_p99", a.shard_hot_p99, b.shard_hot_p99);
  compare(d, "shard_cold_p99", a.shard_cold_p99, b.shard_cold_p99);
  compare(d, "shard_skew", a.shard_skew, b.shard_skew);
  compare(d, "ops_per_tick", a.ops_per_tick, b.ops_per_tick);
  compare(d, "msgs_by_type", a.msgs_by_type, b.msgs_by_type);
  compare(d, "regularity.reads_checked", a.regularity.reads_checked,
          b.regularity.reads_checked);
  compare(d, "regularity.concurrent_write_pairs", a.regularity.concurrent_write_pairs,
          b.regularity.concurrent_write_pairs);
  compare(d, "regularity.violations", a.regularity.violations.size(),
          b.regularity.violations.size());
  compare(d, "atomicity.reads_checked", a.atomicity.reads_checked, b.atomicity.reads_checked);
  compare(d, "atomicity.inversion_count", a.atomicity.inversion_count,
          b.atomicity.inversion_count);
  compare(d, "trace_hash", a.trace_hash, b.trace_hash);
  return d.str();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::size_t cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  const int n = CPU_COUNT(&set);
  return n < 1 ? 1 : static_cast<std::size_t>(n);
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

void write_metrics_json(std::ostream& out, const std::vector<Metric>& metrics) {
  out << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    out << (i == 0 ? "" : ", ") << "\"" << json_escape(m.name) << "\": {\"value\": " << value
        << ", \"unit\": \"" << json_escape(m.unit) << "\", \"kind\": \"" << m.kind << "\"}";
  }
  out << "}";
}

}  // namespace perfbench
