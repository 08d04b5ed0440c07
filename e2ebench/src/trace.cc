#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace e2e {

uint32_t Tracer::Begin(const char* name, uint32_t parent,
                       uint64_t iteration) {
  if (!recording_) return 0;
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, parent, iteration, now, now});
  return static_cast<uint32_t>(spans_.size());
}

void Tracer::End(uint32_t id) {
  if (id == 0) return;
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end = now;
}

uint32_t Tracer::Add(const char* name, uint32_t parent, uint64_t iteration,
                     Clock::time_point start, Clock::time_point end) {
  if (!recording_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, parent, iteration, start, end});
  return static_cast<uint32_t>(spans_.size());
}

namespace {

double Ms(Tracer::Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

}  // namespace

std::map<std::string, Tracer::SelfTime> Tracer::SelfByName() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children's intervals per parent, clipped to the parent's interval;
  // their union is what the parent does not own.
  std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
      children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent == 0) continue;
    const Span& p = spans_[s.parent - 1];
    const Clock::time_point a = std::max(s.start, p.start);
    const Clock::time_point b = std::min(s.end, p.end);
    if (a < b) children[s.parent - 1].emplace_back(a, b);
  }
  std::map<std::string, SelfTime> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    Clock::duration covered{0};
    Clock::time_point reach = spans_[i].start;
    for (const auto& [a, b] : kids) {
      const Clock::time_point from = std::max(a, reach);
      if (b > from) {
        covered += b - from;
        reach = b;
      }
    }
    SelfTime& t = self[spans_[i].name];
    t.ms += Ms(spans_[i].end - spans_[i].start - covered);
    ++t.spans;
  }
  return self;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  auto us = [origin](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"parent\": %u, "
                 "\"iteration\": %llu, \"start_us\": %.3f, "
                 "\"end_us\": %.3f}\n",
                 i + 1, s.name, s.parent,
                 static_cast<unsigned long long>(s.iteration), us(s.start),
                 us(s.end));
  }
  return std::fclose(f) == 0;
}

}  // namespace e2e
