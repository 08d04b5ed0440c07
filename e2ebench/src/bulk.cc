// bulk_fixpoint: batch analytics, one build at a time on fresh
// sessions. Each build takes the text of a clustered follows graph
// through LoadFactsParallel at `lanes` lanes, then Evaluate at
// threads = lanes, over a program that mixes a recursive closure with
// grouping heads. Chosen because it is the only workload where ingest,
// the parallel fixpoint, grouping and set interning do most of the
// work while serving and maintenance stay idle.
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "layers.h"

namespace e2e {
namespace {

constexpr char kRules[] =
    "reach(X, Y) :- follows(X, Y).\n"
    "reach(X, Z) :- reach(X, Y), follows(Y, Z).\n"
    "followers(U, <F>) :- follows(F, U).\n"
    "fof(U, <F2>) :- follows(F1, U), follows(F2, F1).\n"
    "circle(U, <V>) :- reach(U, V).\n";

// Sizing: reach holds users x community tuples (every community is
// strongly connected); with follows and the three set-valued relations
// the fixpoint stays under Options::max_tuples (2M) at its default.
// Evaluation takes most of a build: grouping and set interning cost far
// more per tuple than parsing does per fact.
constexpr size_t kUsers = 32000;
constexpr size_t kCommunity = 8;
constexpr size_t kExtraEdges = 1;
constexpr size_t kSmokeUsers = 512;
constexpr size_t kSetupBuilds = 7;
constexpr size_t kLaneProbeBuilds = 3;  // traced run: 1-lane builds

struct Build {
  lps::Status status = lps::Status::OK();  // of the load, then the evaluation
  double load_ms = 0;
  double eval_ms = 0;
  lps::EvalStats stats;
  size_t tuples = 0;
  std::string dump;  // Database::ToString, when asked for
};

// One build on a fresh session, destroyed before returning (untimed).
Build RunBuild(const std::string& text, size_t lanes, bool dump,
               Tracer* tracer, uint32_t parent, uint64_t iteration) {
  Build b;
  lps::Options opts;
  opts.threads = lanes;
  lps::Session session(lps::LanguageMode::kLDL, opts);
  MustOk(session.Load(kRules), "loading rules");
  const Clock::time_point t0 = Clock::now();
  {
    Scope span(tracer, "ingest", parent, iteration);
    b.status = session.LoadFactsParallel(text, lanes);
  }
  const Clock::time_point t1 = Clock::now();
  if (!b.status.ok()) return b;
  {
    Scope span(tracer, "eval", parent, iteration);
    b.status = session.Evaluate();
  }
  b.eval_ms = MsSince(t1);
  b.load_ms = MsBetween(t0, t1);
  b.stats = session.eval_stats();
  b.tuples = session.database()->TupleCount();
  if (dump) b.dump = session.database()->ToString(*session.signature());
  return b;
}

}  // namespace

bool RunBulkFixpoint(const Context& ctx, Tracer* tracer, Report* report) {
  Rng rng(ctx.seed);
  const Graph g = MakeGraph(ctx.smoke ? kSmokeUsers : kUsers, kCommunity,
                            kExtraEdges, &rng);
  const std::string text = FactsText(g.edges);
  report->Info("input", std::to_string(g.edges.size()) + " facts, " +
                            std::to_string(text.size()) + " bytes, " +
                            std::to_string(g.users) + " users, community " +
                            std::to_string(kCommunity));

  // ---- Set-up: warm-up builds (the first one process-cold) -------------
  std::vector<double> setup_s;
  size_t expected_tuples = 0;
  for (size_t i = 0; i < kSetupBuilds; ++i) {
    const Clock::time_point t0 = Clock::now();
    const Build b = RunBuild(text, ctx.lanes, false, tracer, 0, i);
    MustOk(b.status, "set-up build");
    expected_tuples = b.tuples;
    setup_s.push_back(MsSince(t0) / 1e3);
  }

  // ---- Timed builds ---------------------------------------------------
  std::vector<double> build_ms, load_ms, eval_ms, parse_ms, merge_ms;
  std::vector<double> traced_ms, untraced_ms;
  Build last;  // the last build that succeeded
  const Clock::time_point start = Clock::now();
  for (uint64_t i = 0; MsSince(start) < ctx.seconds * 1e3 || i < 3; ++i) {
    tracer->set_recording(i % 2 == 0);
    report->Attempt();
    const Clock::time_point t0 = Clock::now();
    Build b;
    {
      Scope span(tracer, "bench.build", 0, i);
      b = RunBuild(text, ctx.lanes, false, tracer, span.id(), i);
    }
    if (!b.status.ok() || b.tuples != expected_tuples) {
      report->Failure();
      continue;
    }
    (tracer->recording() ? traced_ms : untraced_ms).push_back(MsSince(t0));
    last = std::move(b);
    build_ms.push_back(last.load_ms + last.eval_ms);
    load_ms.push_back(last.load_ms);
    eval_ms.push_back(last.eval_ms);
    parse_ms.push_back(last.stats.ingest.parse_ms);
    merge_ms.push_back(last.stats.ingest.merge_ms);
  }
  tracer->set_recording(false);
  const double peak_rss = PeakRssMb();

  // Referee: the parallel build is byte-identical to a 1-lane Load +
  // Evaluate of the same text. Run after the peak-memory reading, like
  // every referee that holds a dump or a second database.
  {
    const Build parallel = RunBuild(text, ctx.lanes, true, tracer, 0, 0);
    MustOk(parallel.status, "referee build");
    lps::Session seq;
    MustOk(seq.Load(std::string(kRules) + text), "sequential Load");
    MustOk(seq.Evaluate(), "sequential Evaluate");
    if (seq.database()->ToString(*seq.signature()) != parallel.dump) {
      Fail("bulk_fixpoint: parallel build differs from the 1-lane build");
    }
  }
  report->Passed("parallel build byte-identical to a 1-lane Load + Evaluate");

  const double median_build_ms = Median(build_ms);
  report->EndToEnd("setup_s", Median(setup_s), "s");
  report->EndToEnd("peak_rss_mb", peak_rss, "MB");
  report->EndToEnd("latency_p50_ms", median_build_ms, "ms");
  report->EndToEnd("latency_p75_ms", Percentile(build_ms, 0.75), "ms");
  report->EndToEnd("throughput_per_s",
                   static_cast<double>(g.edges.size()) /
                       (median_build_ms / 1e3),
                   "1/s");
  report->Diagnostic("build_s", median_build_ms / 1e3, "s");
  report->Diagnostic("build_p90_ms", Percentile(build_ms, 0.9), "ms");
  report->Diagnostic("builds", static_cast<double>(build_ms.size()), "count");

  // ---- Per-layer figures ----------------------------------------------
  Layers layers;
  const double load_median = Median(load_ms);
  const double eval_median = Median(eval_ms);
  FillIngest(last.stats, load_median, Median(parse_ms), Median(merge_ms),
             text.size(), &layers);
  FillEval(last.stats, eval_median, &layers);
  FillStorage(last.stats, last.tuples, &layers);
  if (ctx.trace) {
    // Lane scaling: the same build at one lane.
    std::vector<double> load1, eval1;
    for (size_t i = 0; i < kLaneProbeBuilds; ++i) {
      const Build b = RunBuild(text, 1, false, tracer, 0, i);
      MustOk(b.status, "1-lane build");
      load1.push_back(b.load_ms);
      eval1.push_back(b.eval_ms);
    }
    layers.Set("ingest.lane_speedup", Median(load1) / load_median);
    layers.Set("eval.lane_speedup", Median(eval1) / eval_median);
    FillTrace(*tracer, Median(traced_ms) / Median(untraced_ms) - 1, &layers);
  }
  layers.Emit(report);
  return true;
}

}  // namespace e2e
