// Concurrent query serving QPS over a frozen snapshot.
//
// BM_ServeThreads/N runs a fixed batch of path(n_i, Y) point queries
// through an N-lane serve::QueryServer against one published snapshot;
// every request takes the demand (magic-set) route into a private
// result database that aliases the snapshot's EDB relations, so the
// lanes share nothing but the immutable snapshot - its EDB included,
// read-only - and the batch should scale near-linearly. The CI gate
// (scripts/check_bench.py --min-ratio) requires the 4-lane batch to be
// >= 2x faster than the 1-lane batch, i.e. >= 2x QPS at 4 threads.
//
// Before measuring, the bench verifies byte-identical answers: the
// rendered rows of a 1-lane and a 4-lane server must agree request by
// request, and the answer counts must match the session's own
// sequential ground truth - it aborts on any divergence, so the QPS
// numbers can never come from wrong answers.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "workloads.h"

namespace lps::bench {
namespace {

constexpr int kNodes = 96;
constexpr int kBatchReps = 4;  // requests per iteration = reps * nodes

std::string TcSource(int n) {
  return RandomGraph(n, 2 * n, 99) + TransitiveClosureRules();
}

std::vector<serve::ServeRequest> PointBatch(size_t query, int nodes,
                                            int reps) {
  std::vector<serve::ServeRequest> batch;
  batch.reserve(static_cast<size_t>(nodes) * reps);
  for (int rep = 0; rep < reps; ++rep) {
    for (int i = 0; i < nodes; ++i) {
      serve::ServeRequest req;
      req.query = query;
      req.params = {{"X", "n" + std::to_string(i)}};
      batch.push_back(std::move(req));
    }
  }
  return batch;
}

size_t MustPrepareServe(serve::QueryServer* server,
                        const std::string& goal) {
  auto id = server->Prepare(goal);
  if (!id.ok()) {
    std::fprintf(stderr, "bench_serving: Prepare failed: %s\n",
                 id.status().ToString().c_str());
    std::abort();
  }
  return *id;
}

std::vector<serve::ServeAnswer> MustExecute(
    serve::QueryServer* server,
    const std::vector<serve::ServeRequest>& batch) {
  auto answers = server->ExecuteBatch(batch);
  if (!answers.ok()) {
    std::fprintf(stderr, "bench_serving: batch failed: %s\n",
                 answers.status().ToString().c_str());
    std::abort();
  }
  for (const serve::ServeAnswer& a : *answers) {
    if (!a.status.ok()) {
      std::fprintf(stderr, "bench_serving: request failed: %s\n",
                   a.status.ToString().c_str());
      std::abort();
    }
  }
  return std::move(*answers);
}

// Aborts unless 1-lane and 4-lane servers return byte-identical
// rendered answers for every request, with counts matching the
// session's sequential ground truth.
void VerifyServingEquivalence(Session* session,
                              serve::SnapshotRegistry* registry) {
  serve::ServeOptions seq_opts;
  seq_opts.threads = 1;
  serve::ServeOptions par_opts;
  par_opts.threads = 4;
  serve::QueryServer seq(registry, seq_opts);
  serve::QueryServer par(registry, par_opts);
  std::vector<serve::ServeRequest> batch =
      PointBatch(MustPrepareServe(&seq, "path(X, Y)"), kNodes, 1);
  MustPrepareServe(&par, "path(X, Y)");
  std::vector<serve::ServeAnswer> a = MustExecute(&seq, batch);
  std::vector<serve::ServeAnswer> b = MustExecute(&par, batch);
  for (size_t i = 0; i < batch.size(); ++i) {
    std::vector<std::string> rows_a = a[i].rows;
    std::vector<std::string> rows_b = b[i].rows;
    std::sort(rows_a.begin(), rows_a.end());
    std::sort(rows_b.begin(), rows_b.end());
    auto truth = session->Query("path(" + batch[i].params[0].second +
                                ", Y)");
    if (!truth.ok()) std::abort();
    if (rows_a != rows_b || a[i].checksum != b[i].checksum ||
        rows_a.size() != truth->size()) {
      std::fprintf(stderr,
                   "bench_serving: answers diverge on %s (seq %zu, "
                   "par %zu, ground truth %zu)\n",
                   batch[i].params[0].second.c_str(), rows_a.size(),
                   rows_b.size(), truth->size());
      std::abort();
    }
  }
}

void BM_ServeThreads(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  auto session = MustLoad(TcSource(kNodes));
  MustEvaluate(session.get());
  serve::SnapshotRegistry registry;
  auto snap = session->Freeze();
  if (!snap.ok()) std::abort();
  registry.Publish(*snap);
  VerifyServingEquivalence(session.get(), &registry);

  serve::ServeOptions opts;
  opts.threads = threads;
  opts.record_answers = false;  // count + checksum only while timing
  serve::QueryServer server(&registry, opts);
  std::vector<serve::ServeRequest> batch =
      PointBatch(MustPrepareServe(&server, "path(X, Y)"), kNodes,
                 kBatchReps);

  size_t answers = 0;
  for (auto _ : state) {
    std::vector<serve::ServeAnswer> out = MustExecute(&server, batch);
    answers = 0;
    for (const serve::ServeAnswer& a : out) answers += a.count;
    benchmark::DoNotOptimize(answers);
  }
  // Only deterministic counters: the baseline compare in
  // scripts/check_bench.py is absolute, so machine-dependent rates
  // (QPS, latency percentiles) stay out of the JSON. The QPS floor is
  // the real_time min-ratio between /1 and /4 instead.
  serve::ServeStats stats = server.stats();
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["rewrites_built"] =
      static_cast<double>(stats.rewrites_built);
}
BENCHMARK(BM_ServeThreads)->Arg(1)->Arg(2)->Arg(4)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

// The registry hot path: pin/unpin cost a batch pays once (amortized
// over every request in it).
void BM_RegistryPinUnpin(benchmark::State& state) {
  auto session = MustLoad(TcSource(16));
  serve::SnapshotRegistry registry;
  auto snap = session->Freeze();
  if (!snap.ok()) std::abort();
  registry.Publish(*snap);
  for (auto _ : state) {
    serve::PinnedSnapshot pin = registry.Pin();
    benchmark::DoNotOptimize(pin.epoch());
  }
}
BENCHMARK(BM_RegistryPinUnpin)->Unit(benchmark::kNanosecond);

// ---- Copy-on-write republication (Session::FreezeIncremental) --------
//
// The republish workload: kShards independent transitive-closure
// shards; every iteration a MutationBatch toggles kChurnEdges extra
// edges inside shard 0 (~1% of the EDB) over already-interned
// constants and re-converges incrementally, then the writer publishes
// a fresh snapshot. BM_RepublishFull pays the deep Freeze() clone of
// all shards; BM_RepublishIncremental chains FreezeIncremental, which
// re-clones only the two touched relations (edge0/path0) and aliases
// everything else - publish cost proportional to the delta. The CI
// gate (check_bench.py --min-ratio) requires incremental republish to
// be >= 5x faster; before any timing, VerifyRepublishEquivalence
// aborts unless the COW snapshot is byte-identical to a deep-clone
// freeze of the same state and actually shared the untouched shards.

constexpr int kShards = 64;
constexpr int kShardNodes = 32;
constexpr int kShardEdges = 64;
constexpr int kChurnEdges = 40;  // ~1% of kShards * kShardEdges facts

// Toggle churn is state-cycling physically as well as logically:
// retraction tombstones a row but keeps its dedup entry, so the next
// insert of the same tuple revives the row in place and the touched
// shard's arena stays flat at any churn depth. The benchmarks
// therefore run unpinned (framework time-targeting), which
// bench_storage's BM_RelationToggleChurn locks in at the storage
// layer.

std::unique_ptr<Session> MustLoadIncremental(const std::string& source) {
  Options opt;
  opt.incremental = true;
  auto session = std::make_unique<Session>(LanguageMode::kLDL, opt);
  Status st = session->Load(source);
  if (st.ok()) st = session->Compile();
  if (!st.ok()) {
    std::fprintf(stderr, "bench_serving: load failed: %s\n",
                 st.ToString().c_str());
    std::abort();
  }
  return session;
}

// The churn set: kChurnEdges shard-0 edges absent from the base graph
// (the base random edges use seed 7; these use disjoint high node
// pairings from seed 1234 checked against nothing - collisions with a
// base edge would only make the toggle a no-op for that edge, which
// the referee would still verify as correct, so determinism is what
// matters, not disjointness).
std::vector<std::pair<std::string, std::string>> ChurnSet() {
  Rng rng(1234);
  std::vector<std::pair<std::string, std::string>> edges;
  edges.reserve(kChurnEdges);
  for (int i = 0; i < kChurnEdges; ++i) {
    edges.emplace_back(
        "s0_n" + std::to_string(rng.Below(kShardNodes)),
        "s0_n" + std::to_string(rng.Below(kShardNodes)));
  }
  return edges;
}

// One churn commit: inserts the churn set when *present is false,
// retracts it when true. Alternating cycles the database between two
// fixed logical states at a fixed arena size (re-adding revives the
// tombstoned rows in place).
void Churn(Session* session, bool* present) {
  TermStore* store = session->store();
  MutationBatch batch = session->Mutate();
  for (const auto& [a, b] : ChurnSet()) {
    Tuple args{store->MakeConstant(a), store->MakeConstant(b)};
    Status st = *present ? batch.Retract("edge0", std::move(args))
                         : batch.Add("edge0", std::move(args));
    if (!st.ok()) {
      std::fprintf(stderr, "bench_serving: churn stage failed: %s\n",
                   st.ToString().c_str());
      std::abort();
    }
  }
  Status st = batch.Commit();
  if (!st.ok()) {
    std::fprintf(stderr, "bench_serving: churn commit failed: %s\n",
                 st.ToString().c_str());
    std::abort();
  }
  *present = !*present;
}

// Referee: after one churn commit, a FreezeIncremental snapshot must
// render the database byte-identically to a deep-clone Freeze of the
// same session state, share every untouched shard, and share the term
// store. Aborts before any timing happens.
void VerifyRepublishEquivalence(Session* session) {
  auto base = session->Freeze();
  if (!base.ok()) std::abort();
  bool present = false;
  Churn(session, &present);
  auto inc = session->FreezeIncremental(*base);
  auto full = session->Freeze();
  if (!inc.ok() || !full.ok()) std::abort();
  const std::string a =
      (*inc)->database().ToCanonicalString((*inc)->signature());
  const std::string b =
      (*full)->database().ToCanonicalString((*full)->signature());
  if (a != b) {
    std::fprintf(stderr,
                 "bench_serving: COW snapshot diverges from deep "
                 "freeze (%zu vs %zu rendered bytes)\n",
                 a.size(), b.size());
    std::abort();
  }
  const serve::CowStats& cow = (*inc)->cow_stats();
  // Churn touches edge0 and path0; every other shard's two relations
  // must be physically shared - the untouched shards' fact relations
  // among them - and no new term was interned.
  const size_t min_shared = 2 * (kShards - 1);
  if (cow.relations_shared < min_shared || !cow.store_shared ||
      cow.bytes_shared == 0 || cow.fact_chunks_shared == 0) {
    std::fprintf(stderr,
                 "bench_serving: expected COW sharing witnesses "
                 "(shared %zu < %zu, store_shared %d, "
                 "fact_chunks_shared %zu)\n",
                 cow.relations_shared, min_shared,
                 static_cast<int>(cow.store_shared),
                 cow.fact_chunks_shared);
    std::abort();
  }
  // Undo the referee's churn so both benchmarks start from the base
  // state.
  Churn(session, &present);
}

std::unique_ptr<Session> RepublishSession() {
  auto session =
      MustLoadIncremental(ShardedTcSource(kShards, kShardNodes,
                                          kShardEdges, 7));
  MustEvaluate(session.get());
  VerifyRepublishEquivalence(session.get());
  return session;
}

void BM_RepublishFull(benchmark::State& state) {
  auto session = RepublishSession();
  bool present = false;
  for (auto _ : state) {
    Churn(session.get(), &present);
    const auto t0 = std::chrono::steady_clock::now();
    auto snap = session->Freeze();
    const auto t1 = std::chrono::steady_clock::now();
    if (!snap.ok()) std::abort();
    benchmark::DoNotOptimize(snap->get());
    state.SetIterationTime(
        std::chrono::duration<double>(t1 - t0).count());
  }
}
BENCHMARK(BM_RepublishFull)->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

void BM_RepublishIncremental(benchmark::State& state) {
  auto session = RepublishSession();
  bool present = false;
  // Seed the chain with an untimed deep freeze: the benchmark measures
  // steady-state republication, not the first publish (which has no
  // prev to share with and degrades to a full freeze by design).
  auto seed = session->Freeze();
  if (!seed.ok()) std::abort();
  std::shared_ptr<const serve::Snapshot> prev = *seed;
  size_t relations_shared = 0;
  size_t bytes_shared = 0;
  for (auto _ : state) {
    Churn(session.get(), &present);
    const auto t0 = std::chrono::steady_clock::now();
    auto snap = session->FreezeIncremental(prev);
    const auto t1 = std::chrono::steady_clock::now();
    if (!snap.ok()) std::abort();
    prev = *snap;
    relations_shared = prev->cow_stats().relations_shared;
    bytes_shared = prev->cow_stats().bytes_shared;
    state.SetIterationTime(
        std::chrono::duration<double>(t1 - t0).count());
  }
  // Deterministic steady-state sharing witnesses (every iteration
  // shares the untouched shards with its predecessor).
  state.counters["relations_shared"] =
      static_cast<double>(relations_shared);
  state.counters["bytes_shared"] = static_cast<double>(bytes_shared);
}
BENCHMARK(BM_RepublishIncremental)->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

// Freeze cost: what the writer pays to publish a fresh epoch (deep
// clone of store + program + database, plus eager index catch-up).
void BM_SnapshotFreeze(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto session = MustLoad(TcSource(n));
  MustEvaluate(session.get());
  for (auto _ : state) {
    auto snap = session->Freeze();
    if (!snap.ok()) std::abort();
    benchmark::DoNotOptimize(snap->get());
  }
}
BENCHMARK(BM_SnapshotFreeze)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lps::bench
