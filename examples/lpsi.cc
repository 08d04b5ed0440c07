// lpsi: a small LPS interpreter. Loads a program file, evaluates it
// bottom-up, answers its "?- goal." queries through prepared query
// handles (the embedded queries are already lowered, so preparing
// them involves no re-parse), then reads further goals from stdin
// (one per line, no trailing dot required; each line is prepared
// fresh). The REPL also understands dot-commands:
//
//   .stats      evaluation + storage-engine + demand + serving statistics
//   .plan       the join order the planner picks per rule, with the
//               cardinality estimates that drove each choice
//   .serve N Q  freeze the session into a snapshot (copy-on-write
//               against the previous .serve snapshot, so churned
//               sessions republish in time proportional to the delta)
//               and fire Q copies of the most recent goal at a
//               QueryServer with N worker threads, reporting answers,
//               QPS, p50/p99 latency and the sharing achieved
//   .add F      insert the ground fact F (e.g. ".add edge(a, b)") via a
//               MutationBatch commit; the database re-converges at once
//   .retract F  retract the ground fact F the same way
//   .load FILE [lanes]
//               bulk-load a facts-only file through the pipelined
//               parallel loader (Session::LoadFactsParallel): FILE is
//               split into chunks, parsed on `lanes` worker lanes
//               (default: the --lanes value, else hardware concurrency)
//               and merged deterministically; prints the ingest wall
//               time and pipeline counters (also visible via .stats)
//
// With --lanes N both evaluation (Options::threads) and .load default
// to N worker lanes.
//
// With --demand the interpreter skips the up-front fixpoint and
// answers every goal with a bound argument goal-directed: a magic-set
// rewrite of the program (DESIGN.md section 13) derives only the slice
// the goal demands. Goals outside the fragment fall back to the full
// fixpoint transparently (.stats shows the recorded reason).
//
// With --incremental a .add/.retract commit re-converges by delta
// rules (DESIGN.md section 16) instead of a from-scratch re-evaluation;
// .stats then shows the counters of the last maintenance pass: the
// insert pass's delta_rounds, the tuples a retract put in doubt
// (overdeleted) and those of them it proved and kept (rederived).
//
//   build/examples/lpsi [--demand] [--incremental] [--lanes N] program.lps
//   echo "path(a, X)" | build/examples/lpsi --demand program.lps
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>

#include "lps/lps.h"

namespace {

void PrintStats(const lps::EvalStats& s, size_t subsumptions,
                size_t compiles) {
  std::printf("evaluation:\n");
  std::printf("  strata            %zu\n", s.strata);
  std::printf("  iterations        %zu\n", s.iterations);
  std::printf("  rule_runs         %zu\n", s.rule_runs);
  std::printf("  tuples_derived    %zu\n", s.tuples_derived);
  std::printf("  combos_checked    %zu\n", s.combos_checked);
  std::printf("  seed_joins        %zu\n", s.seed_joins);
  std::printf("  empty_branch_runs %zu\n", s.empty_branch_runs);
  std::printf("parallel:\n");
  std::printf("  threads_used       %zu\n", s.threads_used);
  std::printf("  parallel_tasks     %zu\n", s.parallel_tasks);
  std::printf("  parallel_tuples    %zu\n", s.parallel_tuples);
  std::printf("  snapshot_fallbacks %zu\n", s.snapshot_fallbacks);
  std::printf("storage:\n");
  std::printf("  arena_bytes  %zu\n", s.arena_bytes);
  std::printf("  index_bytes  %zu\n", s.index_bytes);
  std::printf("  dedup_probes %llu\n",
              static_cast<unsigned long long>(s.dedup_probes));
  std::printf("grouping/sets:\n");
  std::printf("  groups_emitted  %zu\n", s.groups_emitted);
  std::printf("  group_elements  %zu\n", s.group_elements);
  std::printf("  set_interns     %zu\n", s.set_interns);
  std::printf("  set_intern_hits %zu\n", s.set_intern_hits);
  std::printf("demand:\n");
  std::printf("  magic_predicates %zu\n", s.magic_predicates);
  std::printf("  magic_tuples     %zu\n", s.magic_tuples);
  std::printf("  fallback_reason  %s\n",
              s.demand_fallback_reason.empty()
                  ? "(none)"
                  : s.demand_fallback_reason.c_str());
  std::printf("  compiles_total   %zu  (demand runs that compiled)\n",
              compiles);
  std::printf("incremental:\n");
  std::printf("  delta_rounds       %zu  (insert pass)\n", s.delta_rounds);
  std::printf("  rederived_tuples   %zu  (in doubt, proved, kept)\n",
              s.rederived_tuples);
  std::printf("  overdeleted_tuples %zu  (put in doubt by retracts)\n",
              s.overdeleted_tuples);
  std::printf("planner:\n");
  std::printf("  plan_reorders         %zu\n", s.plan_reorders);
  std::printf("  plan_estimated_tuples %.0f\n", s.plan_estimated_tuples);
  std::printf("  subsumption_hits      %zu\n", s.subsumption_hits);
  std::printf("  subsumptions_total    %zu\n", subsumptions);
  std::printf("ingest (last .load):\n");
  std::printf("  lanes                    %zu\n", s.ingest.lanes);
  std::printf("  chunks                   %zu\n", s.ingest.chunks);
  std::printf("  facts_parsed             %zu\n", s.ingest.facts_parsed);
  std::printf("  general_path_facts       %zu\n",
              s.ingest.general_path_facts);
  std::printf("  facts_inserted           %zu\n", s.ingest.facts_inserted);
  std::printf("  scratch_terms            %zu\n", s.ingest.scratch_terms);
  std::printf("  remap_hits               %zu\n", s.ingest.remap_hits);
  std::printf("  presize_rehashes_avoided %zu\n",
              s.ingest.presize_rehashes_avoided);
  std::printf("  parse_ms                 %.2f\n", s.ingest.parse_ms);
  std::printf("  merge_ms                 %.2f\n", s.ingest.merge_ms);
}

// All-zero (value-initialized) before the first .serve, so .stats is
// always safe to print.
void PrintServeStats(const lps::serve::ServeStats& s) {
  auto u64 = [](uint64_t v) { return static_cast<unsigned long long>(v); };
  std::printf("serving:\n");
  std::printf("  batches           %llu\n", u64(s.batches));
  std::printf("  queries           %llu\n", u64(s.queries));
  std::printf("  demand_queries    %llu\n", u64(s.demand_queries));
  std::printf("  scan_queries      %llu\n", u64(s.scan_queries));
  std::printf("  builtin_queries   %llu\n", u64(s.builtin_queries));
  std::printf("  empty_fast_path   %llu\n", u64(s.empty_fast_path));
  std::printf("  answers           %llu\n", u64(s.answers));
  std::printf("  errors            %llu\n", u64(s.errors));
  std::printf("  rewrites_built    %llu\n", u64(s.rewrites_built));
  std::printf("  rewrite_cache_hits %llu\n", u64(s.rewrite_cache_hits));
  std::printf("  demand_compiles   %llu\n", u64(s.demand_compiles));
  std::printf("  index_misses      %llu\n", u64(s.index_misses));
  std::printf("  worker_rebinds    %llu\n", u64(s.worker_rebinds));
  std::printf("  worker_refreshes  %llu\n", u64(s.worker_refreshes));
  std::printf("  deadline_exceeded %llu\n", u64(s.deadline_exceeded));
  std::printf("  admission_rejected %llu\n", u64(s.admission_rejected));
  std::printf("  relations_shared  %llu\n", u64(s.relations_shared));
  std::printf("  relations_cloned  %llu\n", u64(s.relations_cloned));
  std::printf("  bytes_shared      %llu\n", u64(s.bytes_shared));
  std::printf("  store_shared      %s\n", s.store_shared ? "yes" : "no");
  std::printf("  last_batch_qps    %.0f\n", s.last_batch_qps);
  std::printf("  p50_us            %.1f\n", s.p50_us);
  std::printf("  p99_us            %.1f\n", s.p99_us);
}

// .serve N Q: snapshot the session's current state and serve Q copies
// of `goal` concurrently over N worker threads. Publishing into the
// registry retires the previous .serve snapshot (reclaimed once the
// batch unpins), so repeated .serve commands track session mutations.
// Republication is copy-on-write: the first .serve deep-freezes, every
// later one goes through Session::FreezeIncremental against the
// previous snapshot, so after .add/.retract churn only the touched
// relations are re-cloned (the sharing achieved is printed and shows
// in .stats as relations_shared / bytes_shared).
void Serve(lps::Session* session, lps::serve::SnapshotRegistry* registry,
           lps::serve::ServeStats* total,
           std::shared_ptr<const lps::serve::Snapshot>* prev,
           size_t threads, size_t copies, const std::string& goal) {
  auto snap = session->FreezeIncremental(*prev);
  if (!snap.ok()) {
    std::printf("error: %s\n", snap.status().ToString().c_str());
    return;
  }
  *prev = *snap;
  const lps::serve::CowStats& cow = (*snap)->cow_stats();
  std::printf(
      "%% snapshot: %zu relations shared, %zu cloned, %zu bytes shared, "
      "%zu fact relations shared, store %s\n",
      cow.relations_shared, cow.relations_cloned, cow.bytes_shared,
      cow.fact_chunks_shared, cow.store_shared ? "shared" : "cloned");
  registry->Publish(*snap);
  lps::serve::ServeOptions opts;
  opts.threads = threads;
  opts.record_answers = false;
  lps::serve::QueryServer server(registry, opts);
  auto query = server.Prepare(goal);
  if (!query.ok()) {
    std::printf("error: %s\n", query.status().ToString().c_str());
    return;
  }
  std::vector<lps::serve::ServeRequest> batch(copies);
  for (lps::serve::ServeRequest& req : batch) req.query = *query;
  auto answers = server.ExecuteBatch(batch);
  if (!answers.ok()) {
    std::printf("error: %s\n", answers.status().ToString().c_str());
    return;
  }
  lps::serve::ServeStats s = server.stats();
  std::printf("%% served %zu x %s on %zu threads: %llu answers, "
              "%.0f qps, p50 %.1f us, p99 %.1f us, %llu demand compiles\n",
              copies, goal.c_str(), server.threads(),
              static_cast<unsigned long long>(s.answers),
              s.last_batch_qps, s.p50_us, s.p99_us,
              static_cast<unsigned long long>(s.demand_compiles));
  for (const lps::serve::ServeAnswer& a : *answers) {
    if (!a.status.ok()) {
      std::printf("error: %s\n", a.status.ToString().c_str());
      break;
    }
  }
  // Accumulate counters for .stats; latency/QPS reflect the last batch.
  total->batches += s.batches;
  total->queries += s.queries;
  total->demand_queries += s.demand_queries;
  total->scan_queries += s.scan_queries;
  total->builtin_queries += s.builtin_queries;
  total->empty_fast_path += s.empty_fast_path;
  total->answers += s.answers;
  total->errors += s.errors;
  total->rewrites_built += s.rewrites_built;
  total->rewrite_cache_hits += s.rewrite_cache_hits;
  total->demand_compiles += s.demand_compiles;
  total->index_misses += s.index_misses;
  total->worker_rebinds += s.worker_rebinds;
  total->worker_refreshes += s.worker_refreshes;
  total->deadline_exceeded += s.deadline_exceeded;
  total->admission_rejected += s.admission_rejected;
  total->relations_shared = s.relations_shared;
  total->relations_cloned = s.relations_cloned;
  total->bytes_shared = s.bytes_shared;
  total->store_shared = s.store_shared;
  total->last_batch_qps = s.last_batch_qps;
  total->p50_us = s.p50_us;
  total->p99_us = s.p99_us;
  total->max_us = s.max_us;
}

// In demand mode every goal routes through ExecuteDemand(): bound
// goals evaluate goal-directed, everything else transparently falls
// back to the full fixpoint on the session database - so all-free
// goals still see complete answers even though lpsi never ran an
// up-front Evaluate().
void Answer(lps::Session* session, lps::PreparedQuery* query,
            bool demand) {
  auto cursor = demand ? query->ExecuteDemand() : query->Execute();
  if (!cursor.ok()) {
    std::printf("error: %s\n", cursor.status().ToString().c_str());
    return;
  }
  bool any = false;
  for (const lps::Tuple& t : *cursor) {
    any = true;
    std::printf("%s\n", session->TupleToString(t).c_str());
  }
  if (!cursor->status().ok()) {
    std::printf("error: %s\n", cursor->status().ToString().c_str());
  } else if (!any) {
    std::printf("false.\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool demand = false;
  bool incremental = false;
  size_t lanes = 0;  // 0 = hardware concurrency
  const char* path = nullptr;
  bool bad_usage = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--demand") {
      demand = true;
    } else if (std::string_view(argv[i]) == "--incremental") {
      incremental = true;
    } else if (std::string_view(argv[i]) == "--lanes" && i + 1 < argc) {
      lanes = static_cast<size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      bad_usage = true;
      break;
    }
  }
  if (path == nullptr || bad_usage) {
    std::fprintf(
        stderr,
        "usage: %s [--demand] [--incremental] [--lanes N] <program.lps>\n",
        argv[0]);
    return 2;
  }
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();

  lps::Options options;
  options.incremental = incremental;
  if (lanes != 0) options.threads = lanes;  // default stays sequential
  lps::Session session(lps::LanguageMode::kLDL, options);
  lps::Status st = session.Load(buffer.str());
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  if (demand) {
    // Goal-directed mode: no up-front fixpoint. Compile now so program
    // errors still surface before the first goal.
    st = session.Compile();
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "%% demand mode: evaluating per goal, no up-front "
                 "fixpoint\n");
  } else {
    st = session.Evaluate();
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    const lps::EvalStats& stats = session.eval_stats();
    std::fprintf(stderr, "%% %zu tuples, %zu iterations, %zu strata\n",
                 stats.tuples_derived, stats.iterations, stats.strata);
  }

  // Queries embedded in the file: already lowered by Compile(), so
  // preparing them costs a plan but no parse.
  for (const lps::Literal& q : session.pending_queries()) {
    auto prepared = session.Prepare(q);
    if (!prepared.ok()) {
      std::printf("error: %s\n", prepared.status().ToString().c_str());
      continue;
    }
    std::printf("?- %s\n", prepared->ToString().c_str());
    Answer(&session, &*prepared, demand);
  }

  // Interactive goals and dot-commands.
  lps::serve::SnapshotRegistry registry;
  lps::serve::ServeStats serve_stats;  // all-zero until the first .serve
  // The previous .serve snapshot: FreezeIncremental chains off it so
  // repeated .serve commands republish copy-on-write.
  std::shared_ptr<const lps::serve::Snapshot> last_snapshot;
  std::string last_goal;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    if (line == ".stats" || line == ".stats.") {
      PrintStats(session.eval_stats(), session.demand_subsumption_count(),
                 session.demand_compile_count());
      PrintServeStats(serve_stats);
      continue;
    }
    if (line == ".plan" || line == ".plan.") {
      auto report = session.ExplainPlans();
      if (!report.ok()) {
        std::printf("error: %s\n", report.status().ToString().c_str());
        continue;
      }
      std::printf("%s", report->c_str());
      continue;
    }
    if (line.rfind(".add ", 0) == 0 || line.rfind(".retract ", 0) == 0) {
      const bool insert = line[1] == 'a';
      std::string fact = line.substr(insert ? 5 : 9);
      lps::MutationBatch batch = session.Mutate();
      lps::Status st = insert ? batch.AddText(fact)
                              : batch.RetractText(fact);
      if (st.ok()) st = batch.Commit();
      if (!st.ok()) {
        std::printf("error: %s\n", st.ToString().c_str());
        continue;
      }
      std::printf("%% %s %s (fact epoch %llu)\n",
                  insert ? "added" : "retracted", fact.c_str(),
                  static_cast<unsigned long long>(session.fact_epoch()));
      continue;
    }
    if (line.rfind(".load ", 0) == 0) {
      char file[1024] = {0};
      size_t load_lanes = lanes;  // --lanes default; 0 = hardware
      if (std::sscanf(line.c_str(), ".load %1023s %zu", file,
                      &load_lanes) < 1) {
        std::printf("usage: .load <facts-file> [lanes]\n");
        continue;
      }
      std::ifstream facts_in(file);
      if (!facts_in) {
        std::printf("error: cannot open %s\n", file);
        continue;
      }
      std::stringstream facts;
      facts << facts_in.rdbuf();
      const auto t0 = std::chrono::steady_clock::now();
      lps::Status st = session.LoadFactsParallel(facts.str(), load_lanes);
      const double wall_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - t0)
              .count();
      if (!st.ok()) {
        std::printf("error: %s\n", st.ToString().c_str());
        continue;
      }
      const lps::EvalStats::IngestStats& ig = session.eval_stats().ingest;
      std::printf(
          "%% loaded %zu facts (%zu new, %zu via the clause pipeline) in "
          "%.1f ms: %zu lanes, %zu chunks, parse %.1f ms, merge %.1f ms, "
          "%zu scratch terms, %zu remap hits, %zu rehashes avoided\n",
          ig.facts_parsed, ig.facts_inserted, ig.general_path_facts, wall_ms,
          ig.lanes, ig.chunks, ig.parse_ms, ig.merge_ms, ig.scratch_terms,
          ig.remap_hits, ig.presize_rehashes_avoided);
      // Re-converge so follow-up goals see derivations over the new
      // facts (demand mode keeps evaluating per goal instead).
      if (!demand) {
        lps::Status ev = session.Evaluate();
        if (!ev.ok()) {
          std::printf("error: %s\n", ev.ToString().c_str());
          continue;
        }
      }
      continue;
    }
    if (line.rfind(".serve", 0) == 0) {
      size_t threads = 0, copies = 0;
      if (std::sscanf(line.c_str(), ".serve %zu %zu", &threads, &copies) !=
              2 ||
          copies == 0) {
        std::printf("usage: .serve <threads> <copies>\n");
        continue;
      }
      if (last_goal.empty()) {
        std::printf("error: no goal to serve yet - enter a goal first\n");
        continue;
      }
      Serve(&session, &registry, &serve_stats, &last_snapshot, threads,
            copies, last_goal);
      continue;
    }
    if (line.back() == '.') line.pop_back();
    auto prepared = session.Prepare(line);
    if (!prepared.ok()) {
      std::printf("error: %s\n", prepared.status().ToString().c_str());
      continue;
    }
    last_goal = line;
    Answer(&session, &*prepared, demand);
  }
  return 0;
}
