#include "tracer.h"

namespace perfbench {

int Tracer::open(const char* name) {
  Span span;
  span.name = name;
  span.rep = rep_;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start_s = seconds_between(epoch_, Clock::now());
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_s = seconds_between(epoch_, Clock::now());
  stack_.pop_back();
  if (span.parent >= 0) {
    spans_[static_cast<std::size_t>(span.parent)].children_s += span.duration();
  }
}

double Tracer::total(const std::string& name, std::uint32_t rep) const {
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.rep == rep && s.name == name) sum += s.duration();
  }
  return sum;
}

double Tracer::self(const std::string& name, std::uint32_t rep) const {
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.rep == rep && s.name == name) sum += s.self();
  }
  return sum;
}

void Tracer::write_jsonl(std::ostream& out) const {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name << "\", \"rep\": " << s.rep
        << ", \"parent\": " << s.parent << ", \"start_s\": " << s.start_s
        << ", \"end_s\": " << s.end_s << ", \"self_s\": " << s.self() << "}\n";
  }
}

}  // namespace perfbench
