// E15: the point of the Session API - compile-once/execute-many. The
// ad-hoc string path (Session::Query) re-parses, re-validates and
// re-plans the goal text on every call; a PreparedQuery pays that
// once at Prepare() time and then only executes. Expected shape:
// prepared execution beats the string path by well over 2x on point
// lookups (where execution is an index probe) and the gap narrows as
// the answer set grows (execution cost dominates); parameter
// re-binding costs nothing beyond a hash-map insert.
#include <benchmark/benchmark.h>

#include "workloads.h"

namespace lps::bench {
namespace {

std::string PathWorkload(int n) {
  return ChainGraph(n) + TransitiveClosureRules();
}

// Ground point query, ad hoc: one parse per call.
void BM_PointQueryAdhocString(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  auto session = MustLoad(PathWorkload(n), LanguageMode::kLPS);
  MustEvaluate(session.get());
  std::string goal = "path(n0, n" + std::to_string(n) + ")";
  for (auto _ : state) {
    auto rows = session->Query(goal);
    if (!rows.ok()) {
      state.SkipWithError(rows.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(*rows);
  }
  state.counters["parses"] =
      static_cast<double>(session->parse_count());
}
BENCHMARK(BM_PointQueryAdhocString)->Arg(64)->Arg(256)->Arg(1024);

// The same ground point query through a PreparedQuery handle.
void BM_PointQueryPrepared(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  auto session = MustLoad(PathWorkload(n), LanguageMode::kLPS);
  MustEvaluate(session.get());
  PreparedQuery q =
      MustPrepare(session.get(), "path(n0, n" + std::to_string(n) + ")");
  for (auto _ : state) {
    auto holds = q.Holds();
    if (!holds.ok()) {
      state.SkipWithError(holds.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(*holds);
  }
  state.counters["parses"] =
      static_cast<double>(session->parse_count());
}
BENCHMARK(BM_PointQueryPrepared)->Arg(64)->Arg(256)->Arg(1024);

// Open query (one bound column, streamed answer set), ad hoc.
void BM_OpenQueryAdhocString(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  auto session = MustLoad(PathWorkload(n), LanguageMode::kLPS);
  MustEvaluate(session.get());
  size_t answers = 0;
  for (auto _ : state) {
    auto rows = session->Query("path(n0, X)");
    if (!rows.ok()) {
      state.SkipWithError(rows.status().ToString().c_str());
      return;
    }
    answers = rows->size();
    benchmark::DoNotOptimize(*rows);
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_OpenQueryAdhocString)->Arg(64)->Arg(256)->Arg(1024);

// The same open query through a PreparedQuery + AnswerCursor.
void BM_OpenQueryPrepared(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  auto session = MustLoad(PathWorkload(n), LanguageMode::kLPS);
  MustEvaluate(session.get());
  PreparedQuery q = MustPrepare(session.get(), "path(n0, X)");
  size_t answers = 0;
  for (auto _ : state) {
    auto cursor = q.Execute();
    if (!cursor.ok()) {
      state.SkipWithError(cursor.status().ToString().c_str());
      return;
    }
    auto count = cursor->Count();
    if (!count.ok()) {
      state.SkipWithError(count.status().ToString().c_str());
      return;
    }
    answers = *count;
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_OpenQueryPrepared)->Arg(64)->Arg(256)->Arg(1024);

// Server pattern: one prepared goal, a different parameter binding per
// request. The ad-hoc equivalent rebuilds and re-parses the goal text.
void BM_ParamQueryAdhocString(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  auto session = MustLoad(PathWorkload(n), LanguageMode::kLPS);
  MustEvaluate(session.get());
  int i = 0;
  for (auto _ : state) {
    std::string goal = "path(n" + std::to_string(i % n) + ", X)";
    i += 7;
    auto rows = session->Query(goal);
    if (!rows.ok()) {
      state.SkipWithError(rows.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(*rows);
  }
}
BENCHMARK(BM_ParamQueryAdhocString)->Arg(256);

void BM_ParamQueryPrepared(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  auto session = MustLoad(PathWorkload(n), LanguageMode::kLPS);
  MustEvaluate(session.get());
  PreparedQuery q = MustPrepare(session.get(), "path(X, Y)");
  // Interned once; Bind is a hash-map insert per request.
  std::vector<TermId> nodes;
  for (int i = 0; i < n; ++i) {
    nodes.push_back(
        session->store()->MakeConstant("n" + std::to_string(i)));
  }
  int i = 0;
  for (auto _ : state) {
    if (!q.Bind("X", nodes[i % n]).ok()) {
      state.SkipWithError("bind failed");
      return;
    }
    i += 7;
    auto cursor = q.Execute();
    if (!cursor.ok()) {
      state.SkipWithError(cursor.status().ToString().c_str());
      return;
    }
    auto count = cursor->Count();
    if (!count.ok()) {
      state.SkipWithError(count.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(*count);
  }
}
BENCHMARK(BM_ParamQueryPrepared)->Arg(256);

// Streaming vs materializing: pull only the first answer of a large
// result set. The cursor stops scanning after one match; the string
// path materializes everything first.
void BM_FirstAnswerAdhocString(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  auto session = MustLoad(PathWorkload(n), LanguageMode::kLPS);
  MustEvaluate(session.get());
  for (auto _ : state) {
    auto rows = session->Query("path(X, Y)");
    if (!rows.ok() || rows->empty()) {
      state.SkipWithError("query failed");
      return;
    }
    benchmark::DoNotOptimize(rows->front());
  }
}
BENCHMARK(BM_FirstAnswerAdhocString)->Arg(256);

void BM_FirstAnswerPreparedCursor(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  auto session = MustLoad(PathWorkload(n), LanguageMode::kLPS);
  MustEvaluate(session.get());
  PreparedQuery q = MustPrepare(session.get(), "path(X, Y)");
  for (auto _ : state) {
    auto cursor = q.Execute();
    if (!cursor.ok()) {
      state.SkipWithError(cursor.status().ToString().c_str());
      return;
    }
    Tuple t;
    if (!cursor->Next(&t)) {
      state.SkipWithError("no answers");
      return;
    }
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_FirstAnswerPreparedCursor)->Arg(256);

// Repeated top-down solving of the paper's BOM rollup (Example 6):
// prepared vs string path, goal solved per "request".
void BM_TopDownAdhocString(benchmark::State& state) {
  auto session =
      MustLoad(BomCatalog(16, 4, 32, 7) + R"(
        sum_costs({}, 0).
        sum_costs(Z, K) :- schoose(Z, P, Rest), cost(P, M),
                           sum_costs(Rest, N), add(M, N, K).
        obj_cost(X, N) :- parts(X, Y), sum_costs(Y, N).
      )",
               LanguageMode::kLPS);
  for (auto _ : state) {
    auto rows = session->SolveTopDown("obj_cost(obj0, N)");
    if (!rows.ok()) {
      state.SkipWithError(rows.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(*rows);
  }
}
BENCHMARK(BM_TopDownAdhocString);

void BM_TopDownPrepared(benchmark::State& state) {
  auto session =
      MustLoad(BomCatalog(16, 4, 32, 7) + R"(
        sum_costs({}, 0).
        sum_costs(Z, K) :- schoose(Z, P, Rest), cost(P, M),
                           sum_costs(Rest, N), add(M, N, K).
        obj_cost(X, N) :- parts(X, Y), sum_costs(Y, N).
      )",
               LanguageMode::kLPS);
  PreparedQuery q = MustPrepare(session.get(), "obj_cost(obj0, N)");
  for (auto _ : state) {
    auto cursor = q.SolveTopDown();
    if (!cursor.ok()) {
      state.SkipWithError(cursor.status().ToString().c_str());
      return;
    }
    auto rows = cursor->ToVector();
    if (!rows.ok()) {
      state.SkipWithError(rows.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(*rows);
  }
}
BENCHMARK(BM_TopDownPrepared);

}  // namespace
}  // namespace lps::bench
