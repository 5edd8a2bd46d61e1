// Span recorder for the traced run. Spans (name, start, end, parent) are
// recorded around each layer call the benchmark makes, kept in memory, and
// written out when the benchmark ends. Calls that happen per message copy
// (delay-model verdicts) or per join (node builds) are too frequent for one
// span each; they are aggregated into a call count plus summed time, and that
// time is charged to the innermost open span so self times stay exact.
//
// Self time of a span = its duration minus its child spans' durations minus
// the aggregated time charged to it.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint32_t rep = 0;  // spans of one workload execution share it
    int parent = -1;        // index into spans(), -1 for a root
    double start_s = 0.0;   // since the tracer's epoch
    double end_s = 0.0;
    double children_s = 0.0;    // summed durations of direct child spans
    double aggregated_s = 0.0;  // aggregated call time charged to this span
    [[nodiscard]] double duration() const { return end_s - start_s; }
    [[nodiscard]] double self() const { return duration() - children_s - aggregated_s; }
  };

  /// Count plus summed time of one high-frequency call site.
  struct Aggregate {
    std::uint64_t calls = 0;
    double seconds = 0.0;
  };

  /// Closes its span when it goes out of scope.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
      if (tracer_ != nullptr) index_ = tracer_->open(name);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  void begin_rep(std::uint32_t rep) { rep_ = rep; }
  [[nodiscard]] std::uint32_t rep() const { return rep_; }

  /// Records one aggregated call that took `seconds`.
  void charge(Aggregate& agg, double seconds) {
    ++agg.calls;
    agg.seconds += seconds;
    if (!stack_.empty()) spans_[static_cast<std::size_t>(stack_.back())].aggregated_s += seconds;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Summed duration / self time of every span named `name` in rep `rep`.
  [[nodiscard]] double total(const std::string& name, std::uint32_t rep) const;
  [[nodiscard]] double self(const std::string& name, std::uint32_t rep) const;

  /// One JSON object per line, one line per span.
  void write_jsonl(std::ostream& out) const;

 private:
  int open(const char* name);
  void close(int index);

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::uint32_t rep_ = 0;
};

}  // namespace perfbench
