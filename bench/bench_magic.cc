// Demand (magic-set) evaluation vs the full fixpoint on point queries
// over the TcRandom workload, plus the all-free no-regression guard.
//
// BM_TcFullPoint measures the pre-PR answer path for a point query:
// evaluate the whole transitive closure, then scan. BM_TcMagicPoint
// measures the demand path: every iteration re-runs the rewritten
// program from the EDB in a private database (the rewrite itself is
// cached on the prepared query). The `tuples_derived` counters feed
// the CI ratio gates in scripts/check_bench.py: magic must derive
// >= 5x fewer tuples and run >= 2x faster, with identical answers
// (verified here before measuring - the bench aborts on divergence).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "workloads.h"

namespace lps::bench {
namespace {

std::string TcSource(int n) {
  return RandomGraph(n, 2 * n, 99) + TransitiveClosureRules();
}

std::vector<std::string> SortedAnswers(Session* session,
                                       PreparedQuery* query,
                                       bool demand) {
  auto cursor = demand ? query->ExecuteDemand() : query->Execute();
  if (!cursor.ok()) {
    std::fprintf(stderr, "bench query failed: %s\n",
                 cursor.status().ToString().c_str());
    std::abort();
  }
  auto rows = cursor->ToVector();
  if (!rows.ok()) {
    std::fprintf(stderr, "bench cursor failed: %s\n",
                 rows.status().ToString().c_str());
    std::abort();
  }
  std::vector<std::string> out;
  for (const Tuple& t : *rows) out.push_back(session->TupleToString(t));
  std::sort(out.begin(), out.end());
  return out;
}

// Aborts unless demand and full-fixpoint answers agree exactly.
void VerifyEquivalence(int n, const std::string& goal) {
  auto full = MustLoad(TcSource(n));
  MustEvaluate(full.get());
  auto fq = MustPrepare(full.get(), goal);
  auto full_answers = SortedAnswers(full.get(), &fq, false);

  auto demand = MustLoad(TcSource(n));
  auto dq = MustPrepare(demand.get(), goal);
  auto demand_answers = SortedAnswers(demand.get(), &dq, true);

  if (full_answers != demand_answers) {
    std::fprintf(stderr,
                 "bench_magic: demand answers diverge from full fixpoint "
                 "on %s over TcRandom/%d (%zu vs %zu answers)\n",
                 goal.c_str(), n, demand_answers.size(),
                 full_answers.size());
    std::abort();
  }
}

void BM_TcFullPoint(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto session = MustLoad(TcSource(n));
  auto query = MustPrepare(session.get(), "path(n0, X)");
  size_t tuples = 0, answers = 0;
  for (auto _ : state) {
    session->ResetDatabase();
    MustEvaluate(session.get());
    auto count = query.Execute()->Count();
    if (!count.ok()) std::abort();
    answers = *count;
    tuples = session->eval_stats().tuples_derived;
  }
  state.counters["tuples_derived"] = static_cast<double>(tuples);
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_TcFullPoint)->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_TcMagicPoint(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  VerifyEquivalence(n, "path(n0, X)");
  auto session = MustLoad(TcSource(n));
  auto query = MustPrepare(session.get(), "path(n0, X)");
  size_t tuples = 0, answers = 0;
  for (auto _ : state) {
    // Each execution re-seeds and re-evaluates the cached rewrite in a
    // fresh private database - the steady-state point-query cost.
    auto cursor = query.ExecuteDemand();
    if (!cursor.ok()) std::abort();
    auto count = cursor->Count();
    if (!count.ok()) std::abort();
    answers = *count;
    tuples = session->eval_stats().tuples_derived;
  }
  state.counters["tuples_derived"] = static_cast<double>(tuples);
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["magic_tuples"] = static_cast<double>(
      session->eval_stats().magic_tuples);
}
BENCHMARK(BM_TcMagicPoint)->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond);

// All-free goals must not regress on the demand entry: on a converged
// session ExecuteDemand() records its fallback and takes the lazy scan
// (no rewrite, no re-evaluation).
void BM_TcAllFreeDemand(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto session = MustLoad(TcSource(n));
  MustEvaluate(session.get());
  auto query = MustPrepare(session.get(), "path(X, Y)");
  size_t answers = 0;
  for (auto _ : state) {
    auto count = query.ExecuteDemand()->Count();
    if (!count.ok()) std::abort();
    answers = *count;
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_TcAllFreeDemand)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond);

// Reference for the all-free guard: the same scan through Execute().
void BM_TcAllFreeScan(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto session = MustLoad(TcSource(n));
  MustEvaluate(session.get());
  auto query = MustPrepare(session.get(), "path(X, Y)");
  size_t answers = 0;
  for (auto _ : state) {
    auto count = query.Execute()->Count();
    if (!count.ok()) std::abort();
    answers = *count;
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_TcAllFreeScan)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond);

// Rewrite construction cost (amortized away by the per-pattern cache
// in steady state, but worth tracking).
void BM_MagicRewriteBuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto session = MustLoad(TcSource(n));
  auto query = MustPrepare(session.get(), "path(n0, X)");
  std::vector<bool> bound{true, false};
  for (auto _ : state) {
    auto rw = MagicRewrite(*session->program(), query.goal(), bound);
    if (!rw.ok() || !(*rw).applied) std::abort();
    benchmark::DoNotOptimize((*rw).rewrite);
  }
}
BENCHMARK(BM_MagicRewriteBuild)->Arg(128)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace lps::bench
