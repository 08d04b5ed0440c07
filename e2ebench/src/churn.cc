// churn_publish: writes beside reads. One writer thread runs a closed
// loop of MutationBatch commits on an Options::incremental session
// (k fresh intra-community edges in, in one commit of eight one of them
// from a user no fact has named yet, and the k oldest window edges out),
// each followed by FreezeIncremental and Publish; one reader thread
// drives a (lanes - 1)-lane QueryServer in an open loop, uniform keys,
// so reads land on fresh epochs. Chosen because the incremental
// maintainer, copy-on-write freeze and the registry do most of the work
// here, and the server runs its worker-refresh path. The program is
// reach only: a grouping rule would turn every commit into a full
// re-evaluation.
#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common.h"
#include "layers.h"
#include "serving.h"

namespace e2e {
namespace {

constexpr char kRules[] =
    "reach(X, Y) :- follows(X, Y).\n"
    "reach(X, Z) :- reach(X, Y), follows(Y, Z).\n";

constexpr size_t kUsers = 16000;  // ~48k base edges
constexpr size_t kCommunity = 64;
constexpr size_t kSmokeUsers = 512;
constexpr size_t kSetups = 5;
constexpr size_t kK = 8;           // inserts and retracts per commit
constexpr size_t kWindow = 2048;   // retractable edges loaded at set-up
constexpr size_t kWarmCycles = 2;  // untimed, before timing and after
constexpr double kReadRate = 40;   // reader open-loop requests per second
// One commit in this many names a new user. A new constant grows the
// term store, which makes every reader worker re-clone (rebind) for that
// epoch; the other commits leave the workers their refresh-in-place path.
constexpr uint64_t kNewUserEvery = 8;

using Edge = std::pair<uint32_t, uint32_t>;

uint64_t EdgeKey(const Edge& e) {
  return (static_cast<uint64_t>(e.first) << 32) | e.second;
}

// The fact set the writer maintains: base edges (never retracted) plus
// a FIFO window of retractable ones.
struct LiveEdges {
  std::vector<Edge> base;
  std::deque<Edge> window;
  std::unordered_set<uint64_t> live;
  size_t community = 0;
  size_t users = 0;      // base users; new users are numbered from here
  uint64_t new_users = 0;

  bool AddFresh(const Edge& e) {
    if (e.first == e.second || !live.insert(EdgeKey(e)).second) return false;
    window.push_back(e);
    return true;
  }
  // A fresh intra-community edge; with `new_user`, from a user no fact
  // has named yet to a random community member.
  Edge FreshEdge(Rng* rng, bool new_user) {
    for (;;) {
      const size_t base_user = rng->Below(users) / community * community;
      const size_t span = std::min(community, users - base_user);
      const Edge e{static_cast<uint32_t>(base_user + rng->Below(span)),
                   static_cast<uint32_t>(base_user + rng->Below(span))};
      if (new_user) {
        const Edge joiner{static_cast<uint32_t>(users + new_users), e.second};
        if (AddFresh(joiner)) {
          ++new_users;
          return joiner;
        }
      } else if (AddFresh(e)) {
        return e;
      }
    }
  }
  std::vector<Edge> All() const {
    std::vector<Edge> all(base);
    all.insert(all.end(), window.begin(), window.end());
    return all;
  }
};

// Referee: the published snapshot equals a from-scratch evaluation of
// the writer's current fact set.
void Checkpoint(const Context& ctx, const lps::serve::Snapshot& snap,
                const LiveEdges& edges, const std::string& when,
                Report* report) {
  lps::Options opts;
  opts.threads = ctx.lanes;
  lps::Session scratch(lps::LanguageMode::kLDL, opts);
  MustOk(scratch.Load(kRules), "loading rules");
  MustOk(scratch.LoadFactsParallel(FactsText(edges.All()), ctx.lanes),
         "from-scratch load");
  MustOk(scratch.Evaluate(), "from-scratch Evaluate");
  if (snap.database().ToCanonicalString(snap.signature()) !=
      scratch.database()->ToCanonicalString(*scratch.signature())) {
    Fail("churn_publish: published snapshot differs from a from-scratch "
         "evaluation " + when);
  }
  report->Passed("published snapshot equals a from-scratch evaluation " +
                 when);
}

// The reader thread: started on construction, stopped and joined on
// destruction.
class Reader {
 public:
  Reader(Deployment* c, std::vector<Request> schedule, Tracer* tracer)
      : schedule_(std::move(schedule)),
        thread_([this, c, tracer] {
          RunOpenLoop(c->server.get(), c->query_ids, schedule_, kReadRate,
                      nullptr, tracer, &tally_, &stop_);
        }) {}
  ~Reader() { Stop(); }
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  const ServeTally& tally() const { return tally_; }

 private:
  std::vector<Request> schedule_;
  ServeTally tally_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: starts once the members above exist
};

}  // namespace

bool RunChurnPublish(const Context& ctx, Tracer* tracer, Report* report) {
  Rng rng(ctx.seed);
  const size_t users = ctx.smoke ? kSmokeUsers : kUsers;
  const Graph g = MakeGraph(users, kCommunity, 1, &rng);
  LiveEdges edges;
  edges.base = g.edges;
  edges.community = kCommunity;
  edges.users = users;
  for (const Edge& e : edges.base) edges.live.insert(EdgeKey(e));
  const size_t window = ctx.smoke ? kWindow / 16 : kWindow;
  while (edges.window.size() < window) edges.FreshEdge(&rng, false);
  const std::string text = FactsText(edges.All());
  report->Info("input", std::to_string(edges.base.size() + window) +
                            " facts, " + std::to_string(text.size()) +
                            " bytes, " + std::to_string(users) +
                            " users, community " + std::to_string(kCommunity) +
                            ", k " + std::to_string(kK));

  // ---- Set-up, several times; the last one is churned -----------------
  std::vector<double> setup_s, freeze_ms, publish_setup_us;
  DeploySpec spec{kRules, &text};
  spec.incremental = true;
  spec.lanes = ctx.lanes;  // commits run on one lane regardless
  spec.server_lanes = std::max<size_t>(ctx.lanes - 1, 1);  // one lane writes
  spec.sets = false;  // the reach-only program has no set-valued route
  Deployment c =
      DeployRepeatedly(spec, kSetups, &setup_s, &freeze_ms, &publish_setup_us);
  const lps::EvalStats setup_stats = c.session->eval_stats();
  const size_t setup_tuples = c.session->database()->TupleCount();
  lps::TermStore* store = c.session->store();

  std::vector<double> visible_ms, commit_ms, freeze_inc_ms, publish_us;
  std::vector<double> traced_ms, untraced_ms;
  double rounds = 0, overdeleted = 0, rederived = 0;
  double cloned = 0, shared = 0, bytes_shared = 0, chunks_shared = 0;
  double store_shared = 0;
  size_t live_max = c.registry->live_snapshots();
  uint64_t fact_ops = 0;

  auto tuple = [store](const Edge& e) {
    return lps::Tuple{store->MakeConstant(UserName(e.first)),
                      store->MakeConstant(UserName(e.second))};
  };
  auto cycle = [&](uint64_t iteration, bool timed) {
    lps::MutationBatch batch = c.session->Mutate();
    for (size_t j = 0; j < kK; ++j) {
      const Edge e = edges.FreshEdge(
          &rng, /*new_user=*/j == 0 && iteration % kNewUserEvery == 0);
      MustOk(batch.Add("follows", tuple(e)), "staging an insert");
    }
    for (size_t j = 0; j < kK; ++j) {
      const Edge e = edges.window.front();
      edges.window.pop_front();
      edges.live.erase(EdgeKey(e));
      MustOk(batch.Retract("follows", tuple(e)), "staging a retract");
    }
    Scope span(tracer, "bench.cycle", 0, iteration);
    const Clock::time_point t0 = Clock::now();
    lps::Status st;
    {
      Scope s(tracer, "incremental", span.id(), iteration);
      st = batch.Commit();
    }
    const Clock::time_point t1 = Clock::now();
    lps::Result<std::shared_ptr<const lps::serve::Snapshot>> next =
        std::shared_ptr<const lps::serve::Snapshot>();
    if (st.ok()) {
      Scope s(tracer, "snapshot", span.id(), iteration);
      next = c.session->FreezeIncremental(c.snapshot);
    }
    const Clock::time_point t2 = Clock::now();
    if (st.ok() && next.ok()) {
      Scope s(tracer, "registry", span.id(), iteration);
      c.snapshot = *next;
      c.registry->Publish(c.snapshot);
    }
    const Clock::time_point t3 = Clock::now();
    if (!timed) {
      MustOk(st, "warm-up commit");
      MustOk(next.status(), "warm-up FreezeIncremental");
      return;
    }
    report->Attempt();
    if (!st.ok() || !next.ok()) {
      report->Failure();
      return;
    }
    fact_ops += 2 * kK;
    const double ms = MsBetween(t0, t3);
    visible_ms.push_back(ms);
    (tracer->recording() ? traced_ms : untraced_ms).push_back(ms);
    commit_ms.push_back(MsBetween(t0, t1));
    freeze_inc_ms.push_back(MsBetween(t1, t2));
    publish_us.push_back(MsBetween(t2, t3) * 1e3);
    const lps::EvalStats& es = c.session->eval_stats();
    rounds += static_cast<double>(es.delta_rounds);
    overdeleted += static_cast<double>(es.overdeleted_tuples);
    rederived += static_cast<double>(es.rederived_tuples);
    const lps::serve::CowStats& cow = c.snapshot->cow_stats();
    cloned += static_cast<double>(cow.relations_cloned);
    shared += static_cast<double>(cow.relations_shared);
    bytes_shared += static_cast<double>(cow.bytes_shared);
    chunks_shared += static_cast<double>(cow.fact_chunks_shared);
    store_shared += cow.store_shared ? 1 : 0;
    live_max = std::max(live_max, c.registry->live_snapshots());
  };

  for (size_t i = 0; i < kWarmCycles; ++i) cycle(i, false);

  // ---- Timed: the writer loop with the reader beside it ---------------
  Traffic traffic(users, /*zipf=*/false, /*sets=*/false, rng.Next());
  // Twice the run's worth of requests: the writer, not the schedule,
  // ends the timed phase.
  Reader reader(
      &c, traffic.Draw(static_cast<size_t>(kReadRate * ctx.seconds * 2)),
      tracer);
  const Clock::time_point start = Clock::now();
  uint64_t cycles = 0;
  while (MsSince(start) < ctx.seconds * 1e3 || cycles < 3) {
    tracer->set_recording(cycles % 2 == 0);
    cycle(cycles++, true);
  }
  tracer->set_recording(false);
  const double writer_s = MsSince(start) / 1e3;
  reader.Stop();
  // Read before the checkpoints, whose from-scratch sessions would
  // otherwise set the high-water mark.
  const double peak_rss = PeakRssMb();
  const ServeTally& tally = reader.tally();
  report->Attempt(tally.attempted);
  report->Failure(tally.failed);
  Checkpoint(ctx, *c.snapshot, edges, "after the timed commits", report);
  for (size_t i = 0; i < kWarmCycles; ++i) cycle(cycles + i, false);
  Checkpoint(ctx, *c.snapshot, edges, "after two more commits", report);

  const double n = static_cast<double>(std::max<size_t>(visible_ms.size(), 1));
  const double visible_p50 = Median(visible_ms);
  const double visible_p75 = Percentile(visible_ms, 0.75);
  const double visible_p90 = Percentile(visible_ms, 0.9);
  const double updates = static_cast<double>(fact_ops) / writer_s;
  report->EndToEnd("setup_s", Median(setup_s), "s");
  report->EndToEnd("peak_rss_mb", peak_rss, "MB");
  report->EndToEnd("latency_p50_ms", visible_p50, "ms");
  report->EndToEnd("latency_p75_ms", visible_p75, "ms");
  report->EndToEnd("throughput_per_s", updates, "1/s");
  report->Diagnostic("visible_p50_ms", visible_p50, "ms");
  report->Diagnostic("visible_p90_ms", visible_p90, "ms");
  report->Diagnostic("updates_per_s", updates, "1/s");
  report->Diagnostic("churn_read_p50_ms", Median(tally.latency_ms), "ms");
  report->Diagnostic("churn_read_p90_ms", Percentile(tally.latency_ms, 0.9),
                     "ms");
  report->Diagnostic("churn_read_p99_ms", Percentile(tally.latency_ms, 0.99),
                     "ms");
  report->Diagnostic("commits", static_cast<double>(visible_ms.size()),
                     "count");
  report->Diagnostic("reads", static_cast<double>(tally.latency_ms.size()),
                     "count");

  // Ingest, eval and relation figures describe the set-up's fixpoint;
  // what churn does to the arenas shows in incremental.arena_growth.
  Layers layers;
  const lps::EvalStats& st = setup_stats;
  FillIngest(st, c.load_ms, st.ingest.parse_ms, st.ingest.merge_ms,
             text.size(), &layers);
  FillEval(st, c.eval_ms, &layers);
  FillStorage(st, setup_tuples, &layers);
  layers.Set("incremental.commit_ms_p50", Median(commit_ms));
  layers.Set("incremental.delta_rounds", rounds / n);
  layers.Set("incremental.overdeleted", overdeleted / n);
  layers.Set("incremental.rederived", rederived / n);
  layers.Set("incremental.dred_useful_ratio",
             overdeleted > 0 ? (overdeleted - rederived) / overdeleted : 0);
  layers.Set("incremental.arena_growth",
             static_cast<double>(c.session->eval_stats().arena_bytes) /
                 static_cast<double>(std::max<size_t>(st.arena_bytes, 1)));
  layers.Set("snapshot.full_ms", Median(freeze_ms));
  layers.Set("snapshot.incremental_ms_p50", Median(freeze_inc_ms));
  layers.Set("snapshot.relations_cloned", cloned / n);
  layers.Set("snapshot.relations_shared", shared / n);
  layers.Set("snapshot.bytes_shared", bytes_shared / n);
  layers.Set("snapshot.fact_chunks_shared", chunks_shared / n);
  layers.Set("snapshot.store_shared_frac", store_shared / n);
  layers.Set("registry.publish_us", Median(publish_us));
  layers.Set("registry.live_snapshots_max", static_cast<double>(live_max));
  FillServer(tally, c.server->stats(), &layers);
  if (ctx.trace) {
    FillTrace(*tracer, Median(traced_ms) / Median(untraced_ms) - 1, &layers);
  }
  layers.Emit(report);
  return true;
}

}  // namespace e2e
