#include "tracer.hpp"

#include <cstdio>
#include <sstream>

namespace la1::perfbench {

Tracer::Tracer() : origin_(Clock::now()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(Clock::now() - origin_).count();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[static_cast<std::size_t>(index_)].end_s = tracer_->now();
  tracer_->open_.pop_back();
}

Tracer::Scope Tracer::span(const std::string& layer, const std::string& call) {
  if (!enabled_) return Scope(nullptr, -1);
  Span s;
  s.name = layer + "." + call;
  s.layer = layer;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_s = now();
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return Scope(this, index);
}

void Tracer::aggregate(const std::string& layer, const std::string& call,
                       double seconds, std::uint64_t calls) {
  if (!enabled_ || open_.empty()) return;
  Span s;
  s.name = layer + "." + call;
  s.layer = layer;
  s.parent = open_.back();
  // Laid end to end after the parent's start so the trace view shows the
  // aggregates side by side; only their durations enter self_seconds().
  s.start_s = spans_[static_cast<std::size_t>(s.parent)].start_s;
  for (const Span& sibling : spans_) {
    if (sibling.parent == s.parent && sibling.aggregate) {
      s.start_s = sibling.end_s;
    }
  }
  s.end_s = s.start_s + seconds;
  s.calls = calls;
  s.aggregate = true;
  spans_.push_back(std::move(s));
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_s - spans_[i].start_s;
  }
  // Children never overlap one another (one thread, properly nested), so
  // the covered part of a parent is the sum of its children's durations.
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_s - s.start_s;
    }
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    by_layer[spans_[i].layer] += self[i];
  }
  return by_layer;
}

std::string Tracer::chrome_json() const {
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[64];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i != 0) out << ',';
    out << "\n{\"name\":\"" << s.name << "\",\"cat\":\"" << s.layer
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1";
    std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f,\"dur\":%.3f",
                  s.start_s * 1e6, (s.end_s - s.start_s) * 1e6);
    out << buf << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"calls\":" << s.calls << "}}";
  }
  out << "\n]}\n";
  return out.str();
}

}  // namespace la1::perfbench
