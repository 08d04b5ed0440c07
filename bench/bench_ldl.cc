// E11, Theorem 11: native LDL grouping vs the negation-based
// elimination. Expected shape: native grouping is a single grouped scan
// (near-linear in the EDB); the translation quantifies over candidate
// supersets in the active domain, so it degrades rapidly as the
// candidate pool grows - the asymmetry behind the open question after
// Theorem 12.
#include <benchmark/benchmark.h>

#include "workloads.h"

namespace lps::bench {
namespace {

// keys departments, each with `members` employees; `extra_sets` junk
// candidate sets to grow the active domain for the translation.
std::string GroupingWorkload(int keys, int members, int extra_sets) {
  std::string out;
  for (int k = 0; k < keys; ++k) {
    std::string group = "{";
    for (int m = 0; m < members; ++m) {
      if (m > 0) group += ", ";
      std::string emp =
          "e" + std::to_string(k) + "_" + std::to_string(m);
      out += "emp(d" + std::to_string(k) + ", " + emp + ").\n";
      group += emp;
    }
    group += "}";
    // The witness set must be active for the translation (DESIGN.md).
    out += "dom(" + group + ").\n";
  }
  Rng rng(13);
  for (int i = 0; i < extra_sets; ++i) {
    out += "dom({junk" + std::to_string(rng.Below(64)) + ", junk" +
           std::to_string(rng.Below(64)) + "}).\n";
  }
  out += "team(D, <E>) :- emp(D, E).\n";
  return out;
}

void BM_NativeGrouping(benchmark::State& state) {
  std::string source = GroupingWorkload(static_cast<int>(state.range(0)),
                                        static_cast<int>(state.range(1)),
                                        static_cast<int>(state.range(2)));
  size_t tuples = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto engine = MustLoad(source, LanguageMode::kLDL);
    state.ResumeTiming();
    tuples = MustEvaluate(engine.get()).tuples_derived;
  }
  state.counters["tuples"] = static_cast<double>(tuples);
}
BENCHMARK(BM_NativeGrouping)
    ->Args({4, 4, 0})
    ->Args({16, 4, 0})
    ->Args({64, 4, 0})
    ->Args({16, 16, 0})
    ->Args({16, 4, 64})
    ->Args({256, 8, 0});

void BM_GroupingViaNegation(benchmark::State& state) {
  std::string source = GroupingWorkload(static_cast<int>(state.range(0)),
                                        static_cast<int>(state.range(1)),
                                        static_cast<int>(state.range(2)));
  size_t tuples = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto engine = MustLoad(source, LanguageMode::kLDL);
    auto translated = EliminateGrouping(*engine->program());
    if (!translated.ok()) {
      state.SkipWithError(translated.status().ToString().c_str());
      return;
    }
    std::unique_ptr<Database> db = engine->database()->FactsFor(*translated);
    state.ResumeTiming();
    EvalOptions opts;
    opts.max_tuples = 20000000;
    auto stats = EvaluateProgram(*translated, db.get(), opts);
    if (!stats.ok()) {
      state.SkipWithError(stats.status().ToString().c_str());
      return;
    }
    tuples = stats->tuples_derived;
  }
  state.counters["tuples"] = static_cast<double>(tuples);
}
BENCHMARK(BM_GroupingViaNegation)
    ->Args({4, 4, 0})
    ->Args({16, 4, 0})
    ->Args({16, 4, 64})
    ->Args({16, 16, 0});

// The reverse direction (union -> grouping) for completeness.
void BM_UnionViaGroupingTranslation(benchmark::State& state) {
  int sets = static_cast<int>(state.range(0));
  std::string source = SetFamily(sets, 6, 24, 17) + "t({}).\n" +
                       "u(Z) :- s(X), s(Y), union(X, Y, Z).\n";
  size_t tuples = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto engine = MustLoad(source, LanguageMode::kLDL);
    auto translated = UnionToGrouping(*engine->program());
    if (!translated.ok()) {
      state.SkipWithError(translated.status().ToString().c_str());
      return;
    }
    std::unique_ptr<Database> db = engine->database()->FactsFor(*translated);
    state.ResumeTiming();
    auto stats = EvaluateProgram(*translated, db.get());
    if (!stats.ok()) {
      state.SkipWithError(stats.status().ToString().c_str());
      return;
    }
    tuples = stats->tuples_derived;
  }
  state.counters["tuples"] = static_cast<double>(tuples);
}
BENCHMARK(BM_UnionViaGroupingTranslation)->Arg(4)->Arg(8)->Arg(16);

}  // namespace
}  // namespace lps::bench

BENCHMARK_MAIN();
