// E10, Theorem 10: the same query in the three equivalent languages -
//   (a) ELPS with restricted universal quantifiers (native),
//   (b) Horn over L+scons  (EliminateQuantifiers, scons recursion),
//   (c) Horn over L+union  (EliminateQuantifiers, union recursion).
// Expected shape: all three agree; the quantifier-free encodings pay a
// per-subset structural recursion (they materialise every subset of
// each witness set), so their cost explodes with set cardinality while
// the native evaluation stays polynomial - the practical argument for
// LPS's native quantifier.
#include <benchmark/benchmark.h>

#include "workloads.h"

namespace lps::bench {
namespace {

std::string AllqWorkload(int sets, int card) {
  std::string source = SetFamily(sets, card, 2 * card, 21);
  for (int i = 0; i < 2 * card; ++i) {
    source += "q(" + std::to_string(i) + ").\n";
  }
  source += "allq(X) :- s(X), forall E in X : q(E).\n";
  return source;
}

void BM_NativeQuantifier(benchmark::State& state) {
  std::string source = AllqWorkload(static_cast<int>(state.range(0)),
                                    static_cast<int>(state.range(1)));
  size_t tuples = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto engine = MustLoad(source, LanguageMode::kLPS);
    state.ResumeTiming();
    tuples = MustEvaluate(engine.get()).tuples_derived;
  }
  state.counters["tuples"] = static_cast<double>(tuples);
}
BENCHMARK(BM_NativeQuantifier)
    ->Args({4, 3})
    ->Args({8, 3})
    ->Args({16, 3})
    ->Args({8, 5})
    ->Args({8, 7})
    ->Args({64, 6})
    ->Args({256, 6});

void RunEliminated(benchmark::State& state, SetPrimitive prim) {
  std::string source = AllqWorkload(static_cast<int>(state.range(0)),
                                    static_cast<int>(state.range(1)));
  size_t tuples = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto engine = MustLoad(source, LanguageMode::kLPS);
    auto rewritten = EliminateQuantifiers(*engine->program(), prim);
    if (!rewritten.ok()) {
      state.SkipWithError(rewritten.status().ToString().c_str());
      return;
    }
    std::unique_ptr<Database> db = engine->database()->FactsFor(*rewritten);
    state.ResumeTiming();
    EvalOptions opts;
    opts.max_tuples = 20000000;
    auto stats = EvaluateProgram(*rewritten, db.get(), opts);
    if (!stats.ok()) {
      state.SkipWithError(stats.status().ToString().c_str());
      return;
    }
    tuples = stats->tuples_derived;
  }
  state.counters["tuples"] = static_cast<double>(tuples);
}

void BM_HornPlusScons(benchmark::State& state) {
  RunEliminated(state, SetPrimitive::kScons);
}
BENCHMARK(BM_HornPlusScons)
    ->Args({4, 3})
    ->Args({8, 3})
    ->Args({16, 3})
    ->Args({8, 4})
    ->Unit(benchmark::kMillisecond);

void BM_HornPlusUnion(benchmark::State& state) {
  RunEliminated(state, SetPrimitive::kUnion);
}
BENCHMARK(BM_HornPlusUnion)
    ->Args({4, 3})
    ->Args({8, 3})
    ->Args({16, 3})
    ->Args({8, 4})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lps::bench

BENCHMARK_MAIN();
