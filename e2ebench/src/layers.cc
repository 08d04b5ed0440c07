#include "layers.h"

#include <utility>
#include <vector>

namespace e2e {
namespace {

struct Def {
  const char* name;
  const char* unit;
};

// Order is output order.
const std::vector<Def>& Defs() {
  static const std::vector<Def> defs = {
      {"ingest.wall_ms", "ms"},
      {"ingest.parse_ms", "ms"},
      {"ingest.merge_ms", "ms"},
      {"ingest.mb_per_s", "MB/s"},
      {"ingest.scratch_terms", "count"},
      {"ingest.lane_speedup", "x"},
      {"eval.wall_ms", "ms"},
      {"eval.iterations", "count"},
      {"eval.rule_runs", "count"},
      {"eval.tuples_per_s", "1/s"},
      {"eval.parallel_tasks", "count"},
      {"eval.parallel_useful_ratio", "ratio"},
      {"eval.plan_estimate_error", "x"},
      {"eval.lane_speedup", "x"},
      {"groupby.group_elements", "count"},
      {"term.set_interns", "count"},
      {"term.set_intern_hit_ratio", "ratio"},
      {"relation.arena_bytes", "bytes"},
      {"relation.index_bytes", "bytes"},
      {"relation.bytes_per_tuple", "bytes"},
      {"relation.dedup_probes_per_tuple", "ratio"},
      {"incremental.commit_ms_p50", "ms"},
      {"incremental.delta_rounds", "count"},
      {"incremental.overdeleted", "count"},
      {"incremental.rederived", "count"},
      {"incremental.dred_useful_ratio", "ratio"},
      {"incremental.arena_growth", "ratio"},
      {"snapshot.full_ms", "ms"},
      {"snapshot.incremental_ms_p50", "ms"},
      {"snapshot.relations_cloned", "count"},
      {"snapshot.relations_shared", "count"},
      {"snapshot.bytes_shared", "bytes"},
      {"snapshot.fact_chunks_shared", "count"},
      {"snapshot.store_shared_frac", "ratio"},
      {"registry.publish_us", "us"},
      {"registry.live_snapshots_max", "count"},
      {"server.svc_us_p50.demand", "us"},
      {"server.svc_us_p50.set", "us"},
      {"server.svc_us_p50.scan", "us"},
      {"server.svc_us_p50.miss", "us"},
      {"server.queue_wait_ms_p50", "ms"},
      {"server.batch_size_mean", "count"},
      {"server.lane_busy_frac", "ratio"},
      {"server.demand_frac", "ratio"},
      {"server.rewrite_hit_ratio", "ratio"},
      {"server.worker_refreshes", "count"},
      {"server.worker_rebinds", "count"},
      {"server.read_p50_ms", "ms"},
      {"server.read_p90_ms", "ms"},
      {"trace.overhead_frac", "ratio"},
      {"trace.self_ms.build", "ms"},
      {"trace.self_ms.ingest", "ms"},
      {"trace.self_ms.eval", "ms"},
      {"trace.self_ms.cycle", "ms"},
      {"trace.self_ms.incremental", "ms"},
      {"trace.self_ms.snapshot", "ms"},
      {"trace.self_ms.registry", "ms"},
      {"trace.self_ms.batch", "ms"},
      {"trace.self_ms.request", "ms"},
  };
  return defs;
}

// Span name -> the trace.self_ms metric it feeds.
const std::vector<std::pair<const char*, const char*>>& SelfNames() {
  static const std::vector<std::pair<const char*, const char*>> names = {
      {"bench.build", "trace.self_ms.build"},
      {"ingest", "trace.self_ms.ingest"},
      {"eval", "trace.self_ms.eval"},
      {"bench.cycle", "trace.self_ms.cycle"},
      {"incremental", "trace.self_ms.incremental"},
      {"snapshot", "trace.self_ms.snapshot"},
      {"registry", "trace.self_ms.registry"},
      {"server.batch", "trace.self_ms.batch"},
      {"server.request", "trace.self_ms.request"},
  };
  return names;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

Layers::Layers() {
  for (const Def& d : Defs()) values_[d.name] = 0;
}

void Layers::Set(const std::string& name, double value) {
  auto it = values_.find(name);
  if (it == values_.end()) Fail("unknown per-layer metric " + name);
  it->second = value;
}

void Layers::Count(const std::string& name, double value) {
  counts_.emplace_back(name, value);
}

void Layers::Emit(Report* report) const {
  for (const Def& d : Defs()) report->Layer(d.name, values_.at(d.name), d.unit);
  for (const auto& [name, value] : counts_) {
    report->Diagnostic(name, value, "count");
  }
}

void FillIngest(const lps::EvalStats& st, double wall_ms, double parse_ms,
                double merge_ms, size_t text_bytes, Layers* out) {
  out->Set("ingest.wall_ms", wall_ms);
  out->Set("ingest.parse_ms", parse_ms);
  out->Set("ingest.merge_ms", merge_ms);
  out->Set("ingest.mb_per_s",
           Ratio(static_cast<double>(text_bytes) / 1e6, wall_ms / 1e3));
  out->Count("ingest.facts_inserted",
             static_cast<double>(st.ingest.facts_inserted));
  out->Set("ingest.scratch_terms",
           static_cast<double>(st.ingest.scratch_terms));
}

void FillEval(const lps::EvalStats& st, double wall_ms, Layers* out) {
  out->Set("eval.wall_ms", wall_ms);
  out->Set("eval.iterations", static_cast<double>(st.iterations));
  out->Set("eval.rule_runs", static_cast<double>(st.rule_runs));
  out->Count("eval.tuples_derived", static_cast<double>(st.tuples_derived));
  out->Set("eval.tuples_per_s",
           Ratio(static_cast<double>(st.tuples_derived), wall_ms / 1e3));
  out->Set("eval.parallel_tasks", static_cast<double>(st.parallel_tasks));
  out->Set("eval.parallel_useful_ratio",
           Ratio(static_cast<double>(st.tuples_derived),
                 static_cast<double>(st.parallel_tuples)));
  // How many times off the planner's output estimate is, either way.
  const double estimate = Ratio(st.plan_estimated_tuples,
                                static_cast<double>(st.tuples_derived));
  out->Set("eval.plan_estimate_error",
           estimate >= 1 ? estimate : Ratio(1, estimate));
}

void FillStorage(const lps::EvalStats& st, size_t tuples, Layers* out) {
  out->Count("groupby.groups_emitted", static_cast<double>(st.groups_emitted));
  out->Set("groupby.group_elements", static_cast<double>(st.group_elements));
  out->Set("term.set_interns", static_cast<double>(st.set_interns));
  out->Set("term.set_intern_hit_ratio",
           Ratio(static_cast<double>(st.set_intern_hits),
                 static_cast<double>(st.set_interns)));
  out->Set("relation.arena_bytes", static_cast<double>(st.arena_bytes));
  out->Set("relation.index_bytes", static_cast<double>(st.index_bytes));
  out->Set("relation.bytes_per_tuple",
           Ratio(static_cast<double>(st.arena_bytes + st.index_bytes),
                 static_cast<double>(tuples)));
  out->Set("relation.dedup_probes_per_tuple",
           Ratio(static_cast<double>(st.dedup_probes),
                 static_cast<double>(tuples)));
}

void FillTrace(const Tracer& tracer, double overhead_frac, Layers* out) {
  const std::map<std::string, Tracer::SelfTime> self = tracer.SelfByName();
  for (const auto& [span, metric] : SelfNames()) {
    auto it = self.find(span);
    if (it == self.end()) continue;
    out->Set(metric,
             Ratio(it->second.ms, static_cast<double>(it->second.spans)));
  }
  out->Count("trace.spans", static_cast<double>(tracer.size()));
  out->Set("trace.overhead_frac", overhead_frac);
}

}  // namespace e2e
