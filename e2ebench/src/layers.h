// The per-layer metrics. Every workload reports every metric, in one
// fixed order: a layer a workload leaves idle reports 0, which is also
// the reading its "should not move" prediction expects. The names and
// units here must match BENCHMARK.json's per_layer list (run.py checks).
// Counts the input alone fixes (facts inserted, tuples derived, groups
// emitted, spans recorded) have no better direction, so they are
// printed as diag lines instead.
#ifndef LPS_E2EBENCH_LAYERS_H_
#define LPS_E2EBENCH_LAYERS_H_

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.h"

namespace e2e {

class Layers {
 public:
  Layers();
  /// Sets a metric; an unknown name is a benchmark bug and fails.
  void Set(const std::string& name, double value);
  /// A count fixed by the input, printed as a diag line.
  void Count(const std::string& name, double value);
  void Emit(Report* report) const;

 private:
  std::map<std::string, double> values_;
  std::vector<std::pair<std::string, double>> counts_;
};

void FillIngest(const lps::EvalStats& st, double wall_ms, double parse_ms,
                double merge_ms, size_t text_bytes, Layers* out);
void FillEval(const lps::EvalStats& st, double wall_ms, Layers* out);
/// Relation footprint, grouping and set interning of a fixpoint.
void FillStorage(const lps::EvalStats& st, size_t tuples, Layers* out);
/// Mean self time per span of each name plus the tracing overhead
/// (traced runs only).
void FillTrace(const Tracer& tracer, double overhead_frac, Layers* out);

}  // namespace e2e

#endif  // LPS_E2EBENCH_LAYERS_H_
