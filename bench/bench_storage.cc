// Storage-engine microbenches: raw Relation insert / dedup / probe
// throughput plus whole-fixpoint heap-allocation accounting on the
// TcRandom workload. The allocation counters are the regression gate
// for the row-arena layout: with per-tuple heap vectors (the pre-arena
// layout, unordered containers of Tuple) TcRandom/128 cost 24.7 heap
// allocations per derived tuple and raw Insert cost 3.0 (measured
// 2026-07 at the PR 2 tip); the flat arena brought those to 11.9 and
// ~0, and CI holds the line at half the old-layout number (see the
// allocs-per-tuple gate over BENCH_storage.json in ci.yml).
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "eval/relation.h"
#include "workloads.h"

// ---- Global heap-allocation counter ----------------------------------
//
// Counts every operator new while enabled. Only the workload under
// measurement runs inside the enabled window, so benchmark-library
// bookkeeping does not pollute the numbers.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_allocs{0};

struct AllocWindow {
  AllocWindow() {
    g_allocs.store(0, std::memory_order_relaxed);
    g_count_allocs.store(true, std::memory_order_relaxed);
  }
  ~AllocWindow() { g_count_allocs.store(false, std::memory_order_relaxed); }
  uint64_t count() const { return g_allocs.load(std::memory_order_relaxed); }
};
}  // namespace

void* operator new(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(n ? n : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace lps::bench {
namespace {

constexpr size_t kArity = 3;

std::vector<Tuple> RandomRows(size_t n, uint64_t seed, uint64_t universe) {
  Rng rng(seed);
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Tuple t(kArity);
    for (size_t c = 0; c < kArity; ++c) {
      t[c] = static_cast<TermId>(rng.Below(universe));
    }
    rows.push_back(std::move(t));
  }
  return rows;
}

// Unique-heavy insert stream: the dedup table mostly misses.
void BM_StorageInsert(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<Tuple> rows = RandomRows(n, 7, 1u << 20);
  uint64_t allocs = 0;
  size_t stored = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Relation rel(kArity);
    state.ResumeTiming();
    AllocWindow window;
    for (const Tuple& t : rows) rel.Insert(t);
    benchmark::DoNotOptimize(rel.size());
    allocs = window.count();
    stored = rel.size();
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["allocs"] = static_cast<double>(allocs);
  state.counters["allocs_per_tuple"] =
      static_cast<double>(allocs) / static_cast<double>(stored);
}
BENCHMARK(BM_StorageInsert)->Arg(1024)->Arg(16384)->Arg(131072);

// Duplicate-heavy stream: every insert after the first pass is a dedup
// hit, so this times pure probe + compare work.
void BM_StorageDedup(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<Tuple> rows = RandomRows(n, 11, 1u << 20);
  uint64_t allocs = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Relation rel(kArity);
    for (const Tuple& t : rows) rel.Insert(t);
    state.ResumeTiming();
    AllocWindow window;
    for (const Tuple& t : rows) {
      bool added = rel.Insert(t);
      benchmark::DoNotOptimize(added);
    }
    allocs = window.count();
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["allocs"] = static_cast<double>(allocs);
}
BENCHMARK(BM_StorageDedup)->Arg(1024)->Arg(16384)->Arg(131072);

// Indexed point probes over a prebuilt single-column index (the one
// Relation::Lookup every reader uses), into a reusable out buffer.
void BM_StorageSnapshotProbe(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<Tuple> rows = RandomRows(n, 17, n);
  Relation rel(kArity);
  for (const Tuple& t : rows) rel.Insert(t);
  rel.EnsureIndex(0b001);
  Tuple key(kArity, 0);
  std::vector<uint32_t> out;
  uint64_t hits = 0;
  for (auto _ : state) {
    for (const Tuple& t : rows) {
      key[0] = t[0];
      rel.Lookup(0b001, key, &out);
      hits += out.size();
    }
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_StorageSnapshotProbe)->Arg(1024)->Arg(16384)->Arg(131072);

// Whole-pipeline allocation accounting: transitive closure over a
// random graph, counting every heap allocation made during Evaluate()
// (parsing and loading excluded). allocs_per_tuple is the headline
// number the arena layout must keep >= 2x below the pre-arena 24.7
// (i.e. at most 12.4, the ci.yml gate).
void BM_TcRandomAllocs(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::string source = RandomGraph(n, 2 * n, 99) + TransitiveClosureRules();
  uint64_t allocs = 0;
  size_t tuples = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto session = MustLoad(source, LanguageMode::kLPS);
    // Force compile outside the window: only fixpoint work is counted.
    Options opts;
    opts.max_tuples = 10000000;
    opts.max_iterations = 1000000;
    state.ResumeTiming();
    AllocWindow window;
    EvalStats stats = MustEvaluate(session.get(), opts);
    allocs = window.count();
    tuples = stats.tuples_derived;
  }
  state.counters["allocs"] = static_cast<double>(allocs);
  state.counters["tuples"] = static_cast<double>(tuples);
  state.counters["allocs_per_tuple"] =
      static_cast<double>(allocs) / static_cast<double>(tuples);
}
BENCHMARK(BM_TcRandomAllocs)->Arg(64)->Arg(128);

}  // namespace
}  // namespace lps::bench
