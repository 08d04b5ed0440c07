// Span recorder of the traced run. The benchmark wraps every public
// call it makes (LoadFactsParallel, Evaluate, Commit, FreezeIncremental,
// Publish, ExecuteBatch) in a span; per-request child spans come from
// ServeAnswer::micros. Spans stay in memory and are written out once,
// at exit. A span's self time is its duration minus the part of its
// interval that its children cover.
#ifndef LPS_E2EBENCH_TRACE_H_
#define LPS_E2EBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    const char* name;    // a static layer name, e.g. "ingest"
    uint32_t parent;     // 0 = root
    uint64_t iteration;  // iteration or request id
    Clock::time_point start;
    Clock::time_point end;
  };

  /// A disabled tracer records nothing and costs one branch per call.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Traced runs alternate iterations with recording on and off, so the
  /// same run also measures the untraced figures the overhead is
  /// judged against.
  void set_recording(bool on) { recording_ = enabled_ && on; }
  bool recording() const { return recording_; }

  /// Opens a span; returns its id (0 when not recording).
  uint32_t Begin(const char* name, uint32_t parent, uint64_t iteration);
  void End(uint32_t id);
  /// Records an already finished span.
  uint32_t Add(const char* name, uint32_t parent, uint64_t iteration,
               Clock::time_point start, Clock::time_point end);

  struct SelfTime {
    double ms = 0;  // summed over the spans of one name
    size_t spans = 0;
  };
  /// Self time per span name.
  std::map<std::string, SelfTime> SelfByName() const;
  size_t size() const;

  /// Writes one JSON object per span (id, name, parent, iteration,
  /// start/end in microseconds from the first span) to `path`.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_;
  inline static thread_local bool recording_ = false;  // per thread
  mutable std::mutex mu_;  // the writer and reader threads both record
  std::vector<Span> spans_;  // id = index + 1
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer* t, const char* name, uint32_t parent, uint64_t iteration)
      : tracer_(t), id_(t->Begin(name, parent, iteration)) {}
  ~Scope() { tracer_->End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint32_t id_;
};

}  // namespace e2e

#endif  // LPS_E2EBENCH_TRACE_H_
