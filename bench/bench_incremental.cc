// Incremental maintenance vs full re-evaluation under fact churn.
//
// Each iteration commits one MutationBatch that retracts ~0.5% of the
// churned EDB facts and re-inserts the ~0.5% retracted by the previous
// iteration (steady-state 1% churn), on two recursive workloads:
//
//   * Ancestry - ancestor closure over a forest of random trees,
//     churning parent edges (local topology churn)
//   * BomReach - reachability + part explosion over a BOM assembly
//     DAG, churning part_of annotations (catalog churn under a stable
//     topology)
//
// BM_*ChurnFull commits with Options::incremental off (every commit
// pays a from-scratch fixpoint); BM_*ChurnIncremental turns it on
// (delta semi-naive inserts + Backward/Forward retracts,
// eval/incremental.h). The CI gate (scripts/check_bench.py
// --min-ratio) requires incremental to be >= 20x faster on both
// workloads.
//
// Before measuring, the bench verifies correctness: several churn
// rounds through the incremental path must leave a database whose
// canonical string equals a from-scratch fixpoint of the same mutated
// program - it aborts on divergence, so the speedup can never come
// from wrong answers.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "workloads.h"

namespace lps::bench {
namespace {

// Ancestry closure over a forest of random trees: the closure (and so
// a full re-evaluation) scales with the whole forest, while a
// retracted parent edge can only put in doubt ancestor pairs routed
// through it - subtree x ancestor chain, a handful of tuples, every
// one of which really goes (a tree has one path between two nodes).
// This is the locality incremental maintenance exists to exploit (org
// charts, file-system hierarchies, ownership trees: closures that are
// huge in aggregate and churn locally), and the case where the
// retract's check must fail fast. The opposite shape - closure over
// dense strongly connected communities, where almost every tuple
// through a retracted edge keeps another derivation - is e2ebench's
// churn_publish workload (DESIGN.md section 16).
constexpr int kForestTrees = 400;
constexpr int kTreeNodes = 25;

std::string AncestrySource() {
  Rng rng(1234);
  std::string out;
  for (int t = 0; t < kForestTrees; ++t) {
    for (int i = 1; i < kTreeNodes; ++i) {
      int p = static_cast<int>(rng.Below(i));  // parent: earlier node
      out += "parent(t" + std::to_string(t) + "n" + std::to_string(i) +
             ", t" + std::to_string(t) + "n" + std::to_string(p) +
             ").\n";
    }
  }
  return out +
         "anc(X, Y) :- parent(X, Y).\n"
         "anc(X, Z) :- anc(X, Y), parent(Y, Z).\n";
}

// BOM reachability: Horn-only (no grouping), so the incremental
// maintainer keeps it instead of falling back. Churn hits the part_of
// annotations - the part catalog turns over fast while the assembly
// topology (and so the expensive `uses` closure) holds still, which is
// the classic view-maintenance deployment shape.
std::string BomReachSource() {
  return BomAssembly(/*objects=*/420, /*parts_per=*/3, /*universe=*/300,
                     /*seed=*/77) +
         "uses(O, S) :- sub(O, S).\n"
         "uses(O, T) :- uses(O, S), sub(S, T).\n"
         "haspart(O, P) :- part_of(P, O).\n"
         "haspart(O, P) :- uses(O, S), part_of(P, S).\n";
}

void MustOk(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "bench_incremental: %s: %s\n", what,
                 st.ToString().c_str());
    std::abort();
  }
}

// The fact text of `f`, as Load() would read it.
std::string FactText(Session* session, const Database::Fact& f) {
  return LiteralToString(*session->store(), *session->signature(),
                         Literal{f.pred, Tuple(f.args.begin(), f.args.end()),
                                 true});
}

// The fact texts of `pred` in the session's database, each as many
// times as it was asserted.
std::vector<std::string> FactTexts(Session* session,
                                   const std::string& pred) {
  std::vector<std::string> out;
  const Signature& sig = *session->signature();
  session->database()->ForEachFact([&](const Database::Fact& f) {
    if (sig.Name(f.pred) == pred) {
      out.insert(out.end(), f.count, FactText(session, f));
    }
  });
  return out;
}

// A churn workload: two disjoint chunks of ~0.5% of the `pred` facts.
// Each Step() retracts one chunk and re-inserts the other, so in
// steady state every commit is half retracts, half inserts, and the
// program oscillates between two states. Ops go through the typed
// Add/Retract path - programmatic churn holds interned tuples, not
// fact text to re-parse per commit (the text path is what Load and
// the referee use).
class Churn {
 public:
  Churn(Session* session, const std::string& pred) : session_(session) {
    const Signature& sig = *session->signature();
    std::vector<Tuple> edges;
    session->database()->ForEachFact([&](const Database::Fact& f) {
      if (sig.Name(f.pred) == pred) {
        pred_ = f.pred;
        edges.emplace_back(f.args.begin(), f.args.end());
      }
    });
    size_t k = (edges.size() + 199) / 200;  // 0.5% per chunk, 1%/batch
    // Stride the picks across all the facts so the churn spreads
    // over the workload instead of clustering at the front.
    size_t stride = edges.size() / (2 * k);
    if (stride == 0) stride = 1;
    for (size_t i = 0; i < k; ++i) a_.push_back(edges[(2 * i) * stride]);
    for (size_t i = 0; i < k; ++i) {
      b_.push_back(edges[(2 * i + 1) * stride]);
    }
    // Pre-retract chunk B so the first Step() has real inserts too.
    MutationBatch batch = session_->Mutate();
    for (const Tuple& e : b_) MustOk(batch.Retract(pred_, e), "stage");
    MustOk(batch.Commit(), "prime commit");
  }

  void Step() {
    const std::vector<Tuple>& out = flip_ ? b_ : a_;
    const std::vector<Tuple>& in = flip_ ? a_ : b_;
    MutationBatch batch = session_->Mutate();
    for (const Tuple& e : in) MustOk(batch.Add(pred_, e), "stage");
    for (const Tuple& e : out) MustOk(batch.Retract(pred_, e), "stage");
    MustOk(batch.Commit(), "churn commit");
    flip_ = !flip_;
  }

  size_t batch_ops() const { return a_.size() + b_.size(); }

 private:
  Session* session_;
  PredicateId pred_ = kInvalidPredicate;
  std::vector<Tuple> a_;
  std::vector<Tuple> b_;
  bool flip_ = false;
};

std::unique_ptr<Session> EvaluatedSession(const std::string& source,
                                          bool incremental) {
  Options options;
  options.incremental = incremental;
  auto session =
      std::make_unique<Session>(LanguageMode::kLPS, options);
  MustOk(session->Load(source), "load");
  MustOk(session->Evaluate(), "evaluate");
  return session;
}

// Divergence check: churn the incremental session a few rounds, then
// compare against a from-scratch fixpoint of its mutated program.
void VerifyChurnConverges(const std::string& source,
                          const std::string& pred) {
  auto inc = EvaluatedSession(source, /*incremental=*/true);
  Churn churn(inc.get(), pred);
  for (int i = 0; i < 3; ++i) churn.Step();
  if (inc->eval_stats().delta_rounds == 0) {
    std::fprintf(stderr,
                 "bench_incremental: incremental path did not run "
                 "(fell back to full re-evaluation?)\n");
    std::abort();
  }

  // Referee: same source, the same net mutations, full fixpoint.
  auto ref = EvaluatedSession(source, /*incremental=*/false);
  {
    const Signature& sig = *inc->signature();
    std::vector<std::pair<std::string, std::string>> facts;
    inc->database()->ForEachFact([&](const Database::Fact& f) {
      facts.insert(facts.end(), f.count,
                   {sig.Name(f.pred), FactText(inc.get(), f)});
    });
    // Rebuild the referee's fact multiset to match: clear by retract
    // of everything it has, then re-add the incremental session's.
    MutationBatch wipe = ref->Mutate();
    for (const std::string& e : FactTexts(ref.get(), pred)) {
      MustOk(wipe.RetractText(e), "referee stage");
    }
    for (const auto& [name, text] : facts) {
      if (name == pred) MustOk(wipe.AddText(text), "referee stage");
    }
    MustOk(wipe.Commit(), "referee commit");
  }
  std::string got =
      inc->database()->ToCanonicalString(inc->program()->signature());
  std::string want =
      ref->database()->ToCanonicalString(ref->program()->signature());
  if (got != want) {
    std::fprintf(stderr,
                 "bench_incremental: incremental database diverged "
                 "from the from-scratch fixpoint on %s churn\n",
                 pred.c_str());
    std::abort();
  }
}

void ChurnLoop(benchmark::State& state, const std::string& source,
               const std::string& pred, bool incremental) {
  auto session = EvaluatedSession(source, incremental);
  Churn churn(session.get(), pred);
  churn.Step();  // settle into the steady-state oscillation
  for (auto _ : state) {
    churn.Step();
  }
  state.counters["batch_ops"] =
      static_cast<double>(churn.batch_ops());
  state.counters["tuples"] =
      static_cast<double>(session->database()->TupleCount());
}

void BM_AncestryChurnFull(benchmark::State& state) {
  ChurnLoop(state, AncestrySource(), "parent", /*incremental=*/false);
}
BENCHMARK(BM_AncestryChurnFull)->Unit(benchmark::kMicrosecond);

void BM_AncestryChurnIncremental(benchmark::State& state) {
  static const bool verified = [] {
    VerifyChurnConverges(AncestrySource(), "parent");
    return true;
  }();
  (void)verified;
  ChurnLoop(state, AncestrySource(), "parent", /*incremental=*/true);
}
BENCHMARK(BM_AncestryChurnIncremental)->Unit(benchmark::kMicrosecond);

void BM_BomReachChurnFull(benchmark::State& state) {
  ChurnLoop(state, BomReachSource(), "part_of", /*incremental=*/false);
}
BENCHMARK(BM_BomReachChurnFull)->Unit(benchmark::kMicrosecond);

void BM_BomReachChurnIncremental(benchmark::State& state) {
  static const bool verified = [] {
    VerifyChurnConverges(BomReachSource(), "part_of");
    return true;
  }();
  (void)verified;
  ChurnLoop(state, BomReachSource(), "part_of", /*incremental=*/true);
}
BENCHMARK(BM_BomReachChurnIncremental)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace lps::bench

BENCHMARK_MAIN();
