// Metric derivations, report comparison and output formatting.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "harness/metrics.h"

namespace perfbench {

/// Latency samples in ticks: value -> count.
using Histogram = std::map<double, std::uint64_t>;

void add_samples(Histogram& h, const std::vector<double>& samples);
std::uint64_t sample_count(const Histogram& h);

/// Nearest-rank percentile, as harness::percentile: the sample at index
/// min(n-1, floor(p*n)) in sorted order. `h` must not be empty.
double percentile_of(const Histogram& h, double p);

/// The highest nearest-rank percentile (at most p99) of `h` that has at
/// least ten samples beyond it.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;    // e.g. 0.99
  std::uint64_t samples = 0;  // all samples
};
std::optional<Tail> tail_of(const Histogram& h);

/// Empty when `a` and `b` agree on every simulated field of a MetricsReport
/// (op counts, latencies, joins, faults, per-type traffic, shard slices,
/// consistency reports, trace hash); otherwise the first differing field.
std::string report_difference(const dynreg::harness::MetricsReport& a,
                              const dynreg::harness::MetricsReport& b);

double median(std::vector<double> values);

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

/// CPUs this process may run on.
std::size_t cpu_count();

/// One named metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string kind;  // "host" or "sim"
};

/// `{"name": {"value": v, "unit": "u", "kind": "k"}, ...}` with every digit.
void write_metrics_json(std::ostream& out, const std::vector<Metric>& metrics);

}  // namespace perfbench
