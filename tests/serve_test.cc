// Tests for the concurrent serving subsystem (src/serve/): snapshot
// freezing and cloning invariants, registry epoch/refcount lifecycle
// (pin -> republish -> unpin -> reclamation), read-safe parameter
// resolution, the QueryServer execution paths (scan / demand / builtin
// / empty fast path; demand over a converged snapshot's EDB read in
// place), and a multi-threaded hammer whose per-thread
// answer checksums must match a sequential ground truth - including
// while a writer keeps republishing fresh epochs underneath the
// readers (the TSan target for the whole subsystem).
#include "serve/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "api/session.h"
#include "serve/registry.h"
#include "serve/resolve.h"
#include "serve/snapshot.h"
#include "term/printer.h"

namespace lps {
namespace {

using serve::MissKind;
using serve::PinnedSnapshot;
using serve::QueryServer;
using serve::Resolution;
using serve::ServeAnswer;
using serve::ServeOptions;
using serve::ServeRequest;
using serve::Snapshot;
using serve::SnapshotRegistry;

#define ASSERT_OK(expr)                        \
  do {                                         \
    ::lps::Status _st = (expr);                \
    ASSERT_TRUE(_st.ok()) << _st.ToString();   \
  } while (0)

constexpr const char* kGraph = R"(
  edge(a, b). edge(b, c). edge(c, d). edge(d, e).
  path(X, Y) :- edge(X, Y).
  path(X, Z) :- path(X, Y), edge(Y, Z).
)";

std::shared_ptr<const Snapshot> FreezeGraph(Session* session) {
  auto frozen = session->Freeze();
  EXPECT_TRUE(frozen.ok()) << frozen.status().ToString();
  return *frozen;
}

// ---- TermStore const lookups ----------------------------------------

TEST(TryLookupTest, FindsInternedTermsAndMissesOthers) {
  TermStore store;
  TermId a = store.MakeConstant("a");
  TermId i = store.MakeInt(42);
  TermId f = store.MakeFunction("f", {a, i});
  TermId s = store.MakeSet({a, i});
  const TermStore& cs = store;
  const size_t size_before = store.size();

  EXPECT_EQ(cs.TryLookupConstant("a"), a);
  EXPECT_EQ(cs.TryLookupInt(42), i);
  Symbol fs = cs.symbols().Lookup("f");
  EXPECT_EQ(cs.TryLookupFunction(fs, Tuple{a, i}), f);
  Tuple elems(store.args(s).begin(), store.args(s).end());
  EXPECT_EQ(cs.TryLookupCanonicalSet(elems), s);

  EXPECT_EQ(cs.TryLookupConstant("zzz"), kInvalidTerm);
  EXPECT_EQ(cs.TryLookupInt(-7), kInvalidTerm);
  EXPECT_EQ(cs.TryLookupFunction(fs, Tuple{i, a}), kInvalidTerm);
  Tuple other = {a};
  EXPECT_EQ(cs.TryLookupCanonicalSet(other), kInvalidTerm);
  // Pure probes: nothing was interned by any of the misses.
  EXPECT_EQ(store.size(), size_before);
}

TEST(TryLookupTest, CloneIsPrefixStable) {
  TermStore store;
  TermId a = store.MakeConstant("a");
  TermId s = store.MakeSet({a, store.MakeInt(1)});
  std::unique_ptr<TermStore> clone = store.Clone();
  ASSERT_EQ(clone->size(), store.size());
  // Identical ids denote identical terms in the clone...
  EXPECT_EQ(clone->TryLookupConstant("a"), a);
  EXPECT_EQ(TermToString(*clone, s), TermToString(store, s));
  // ...and ids interned after the clone sit past the shared prefix in
  // both stores independently.
  TermId fresh_in_clone = clone->MakeConstant("post_freeze");
  EXPECT_GE(fresh_in_clone, static_cast<TermId>(store.size()));
  EXPECT_EQ(store.TryLookupConstant("post_freeze"), kInvalidTerm);
}

// ---- Ground-term resolution -----------------------------------------

TEST(ResolveTest, ClassifiesMisses) {
  TermStore store;
  TermId a = store.MakeConstant("a");
  store.MakeInt(5);

  auto hit = serve::TryResolveGroundTerm(store, "a");
  ASSERT_OK(hit.status());
  EXPECT_EQ(hit->id, a);
  EXPECT_EQ(hit->missing, MissKind::kNone);

  auto missing_const = serve::TryResolveGroundTerm(store, "b");
  ASSERT_OK(missing_const.status());
  EXPECT_EQ(missing_const->missing, MissKind::kConstant);

  auto missing_int = serve::TryResolveGroundTerm(store, "17");
  ASSERT_OK(missing_int.status());
  EXPECT_EQ(missing_int->missing, MissKind::kOther);

  // A set over present elements that was itself never interned.
  auto missing_set = serve::TryResolveGroundTerm(store, "{a, 5}");
  ASSERT_OK(missing_set.status());
  EXPECT_EQ(missing_set->missing, MissKind::kOther);

  // A missing constant dominates inside a composite.
  auto nested = serve::TryResolveGroundTerm(store, "{a, b}");
  ASSERT_OK(nested.status());
  EXPECT_EQ(nested->missing, MissKind::kConstant);

  // Malformed / non-ground text is an error, not a miss.
  EXPECT_FALSE(serve::TryResolveGroundTerm(store, "X").ok());
  EXPECT_FALSE(serve::TryResolveGroundTerm(store, "f(a,").ok());
  EXPECT_FALSE(serve::TryResolveGroundTerm(store, "a b").ok());

  // The probes interned nothing; InternGroundTerm does.
  const size_t size_before = store.size();
  EXPECT_EQ(store.size(), size_before);
  auto interned = serve::InternGroundTerm(&store, "{a, 5}");
  ASSERT_OK(interned.status());
  auto again = serve::TryResolveGroundTerm(store, "{a, 5}");
  ASSERT_OK(again.status());
  EXPECT_EQ(again->id, *interned);
  EXPECT_EQ(again->missing, MissKind::kNone);
}

ServeOptions TwoThreads() {
  ServeOptions o;
  o.threads = 2;
  return o;
}

// Sorted rendered answers of `goal_text` with `params`, served by a
// fresh two-lane server over `snap`.
std::vector<std::string> Served(
    std::shared_ptr<const Snapshot> snap, const std::string& goal_text,
    std::vector<std::pair<std::string, std::string>> params) {
  SnapshotRegistry registry;
  registry.Publish(std::move(snap));
  QueryServer server(&registry, TwoThreads());
  auto q = server.Prepare(goal_text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  ServeRequest req;
  req.query = *q;
  req.params = std::move(params);
  auto ans = server.Execute(req);
  EXPECT_TRUE(ans.ok() && ans->status.ok());
  std::vector<std::string> rows(ans->rows.begin(), ans->rows.end());
  std::sort(rows.begin(), rows.end());
  return rows;
}

// ---- Snapshot freezing ----------------------------------------------

TEST(SnapshotTest, FreezeIsImmutableUnderSessionMutation) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(kGraph));
  auto snap = FreezeGraph(&session);
  ASSERT_NE(snap, nullptr);
  EXPECT_TRUE(snap->converged());
  const size_t frozen_rows = snap->database().TupleCount();

  // Mutate the session heavily: the snapshot must not move.
  ASSERT_OK(session.Load("edge(e, f). edge(f, g)."));
  ASSERT_OK(session.Evaluate());
  EXPECT_GT(session.database()->TupleCount(), frozen_rows);
  EXPECT_EQ(snap->database().TupleCount(), frozen_rows);

  // The same goal answered by the live session and by a server over
  // the snapshot: the post-freeze edges are invisible there but
  // visible in the live session.
  auto q = session.Prepare("path(a, X)");
  ASSERT_OK(q.status());
  auto live = q->Execute();
  ASSERT_OK(live.status());
  auto live_rows = live->ToVector();
  ASSERT_OK(live_rows.status());
  std::vector<std::string> frozen_answers = Served(snap, "path(a, X)", {});
  EXPECT_EQ(frozen_answers.size(), 4u);  // b, c, d, e
  EXPECT_GT(live_rows->size(), frozen_answers.size());
}

// ---- Registry lifecycle ---------------------------------------------

TEST(RegistryTest, PinRepublishUnpinReclamationOrder) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(kGraph));
  SnapshotRegistry registry;
  EXPECT_EQ(registry.current_epoch(), 0u);
  EXPECT_EQ(registry.Pin().snapshot(), nullptr);

  uint64_t e1 = registry.Publish(FreezeGraph(&session));
  EXPECT_EQ(e1, 1u);
  EXPECT_EQ(registry.current_epoch(), 1u);

  PinnedSnapshot reader = registry.Pin();
  EXPECT_EQ(reader.epoch(), 1u);
  ASSERT_NE(reader.snapshot(), nullptr);

  // Republish while the reader still holds epoch 1: the old epoch is
  // retired but NOT reclaimed, and new pins land on epoch 2.
  uint64_t e2 = registry.Publish(FreezeGraph(&session));
  EXPECT_EQ(e2, 2u);
  EXPECT_EQ(registry.live_snapshots(), 2u);
  EXPECT_EQ(registry.reclaimed_count(), 0u);
  EXPECT_EQ(registry.Pin().epoch(), 2u);  // temp pin, unpins at once

  // The reader keeps draining on its pinned epoch 1 snapshot.
  EXPECT_EQ(reader->database().TupleCount(),
            registry.Pin().snapshot()->database().TupleCount());

  // Deferred reclamation: epoch 1 dies exactly when its pin drops.
  reader.Release();
  EXPECT_EQ(registry.live_snapshots(), 1u);
  EXPECT_EQ(registry.reclaimed_count(), 1u);

  // An unpinned retired epoch reclaims immediately at Publish.
  registry.Publish(FreezeGraph(&session));
  EXPECT_EQ(registry.live_snapshots(), 1u);
  EXPECT_EQ(registry.reclaimed_count(), 2u);
  EXPECT_EQ(registry.published_count(), 3u);

  // The current epoch never reclaims, however many pins come and go.
  { PinnedSnapshot p1 = registry.Pin(); PinnedSnapshot p2 = registry.Pin(); }
  EXPECT_EQ(registry.live_snapshots(), 1u);
  EXPECT_EQ(registry.current_epoch(), 3u);
}

// ---- QueryServer ----------------------------------------------------

TEST(QueryServerTest, FactMultiplicityHoldsAcrossCommitResetFreezeAndServe) {
  // path is rule-headed and also has a fact, asserted twice and
  // retracted once: it stays a fact through a commit, a reset, a
  // freeze and a served demand request, and goes with its last
  // assertion.
  Options options;
  options.incremental = true;
  Session session(LanguageMode::kLPS, options);
  ASSERT_OK(session.Load(kGraph));
  ASSERT_OK(session.Evaluate());
  {
    MutationBatch batch = session.Mutate();
    ASSERT_OK(batch.AddText("path(x, y)"));
    ASSERT_OK(batch.AddText("path(x, y)"));
    ASSERT_OK(batch.Commit());
  }
  {
    MutationBatch batch = session.Mutate();
    ASSERT_OK(batch.RetractText("path(x, y)"));
    ASSERT_OK(batch.Commit());
  }
  const PredicateId path = session.signature()->Lookup("path", 2);
  const Tuple xy{session.store()->MakeConstant("x"),
                 session.store()->MakeConstant("y")};
  EXPECT_EQ(session.database()->FactCount(path, xy), 1u);
  EXPECT_TRUE(*session.Holds("path(x, y)"));

  session.ResetDatabase();
  EXPECT_EQ(session.database()->FactCount(path, xy), 1u);
  EXPECT_EQ(session.database()->TupleCount(), 5u);  // 4 edges + path(x, y)
  auto snap = session.Freeze();  // evaluates again
  ASSERT_OK(snap.status());
  EXPECT_EQ((*snap)->database().FactCount(path, xy), 1u);
  EXPECT_EQ(Served(*snap, "path(X, Y)", {{"X", "x"}}),
            (std::vector<std::string>{"(x, y)"}));
  EXPECT_EQ(Served(*snap, "path(X, Y)", {{"X", "c"}}),
            (std::vector<std::string>{"(c, d)", "(c, e)"}));

  {
    MutationBatch batch = session.Mutate();
    ASSERT_OK(batch.RetractText("path(x, y)"));
    ASSERT_OK(batch.Commit());
  }
  EXPECT_EQ(session.database()->FactCount(path, xy), 0u);
  EXPECT_FALSE(*session.Holds("path(x, y)"));
  auto gone = session.Freeze();
  ASSERT_OK(gone.status());
  EXPECT_TRUE(Served(*gone, "path(X, Y)", {{"X", "x"}}).empty());
}

TEST(QueryServerTest, DemandOverUnconvergedSnapshotMatchesSession) {
  // Frozen without its fixpoint and with stale derived rows: a demand
  // request seeds from the snapshot's facts alone and answers exactly
  // what the session answers once it has evaluated.
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(kGraph));
  ASSERT_OK(session.Evaluate());
  ASSERT_OK(session.Load("edge(e, f). path(q, r)."));
  serve::FreezeOptions fopts;
  fopts.evaluate = false;
  auto snap = session.Freeze(fopts);
  ASSERT_OK(snap.status());
  EXPECT_FALSE((*snap)->converged());
  ASSERT_OK(session.Evaluate());
  for (const char* from : {"a", "d", "q"}) {
    auto q = session.Prepare(std::string("path(") + from + ", Y)");
    ASSERT_OK(q.status());
    auto rows = q->Execute()->ToVector();
    ASSERT_OK(rows.status());
    std::vector<std::string> want;
    for (const Tuple& t : *rows) want.push_back(session.TupleToString(t));
    std::sort(want.begin(), want.end());
    EXPECT_EQ(Served(*snap, "path(X, Y)", {{"X", from}}), want) << from;
  }
}

TEST(QueryServerTest, DemandOrdersSipByStatisticsLikeSession) {
  // In source order p's rule demands r with nothing bound, so the
  // rewrite derives every one of r's 202 rows; the statistics put the
  // 2-row e first, which binds Y and demands r(b, _) alone. The server
  // must pick the order the session picks, or the snapshot's tuple
  // limit (50) fails the request the session answers.
  std::string src = R"(
    e(a, b). e(b, c). s(b, x1). s(c, x2).
    r(X, Y) :- s(X, Y).
    p(X, Z) :- r(Y, Z), e(X, Y).
  )";
  for (int i = 0; i < 200; ++i) {
    src += "s(k" + std::to_string(i) + ", x" + std::to_string(i) + ").\n";
  }
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(src));
  ASSERT_OK(session.Evaluate());
  Options limited = session.options();
  limited.max_tuples = 50;
  session.set_options(limited);
  auto snap = session.Freeze();
  ASSERT_OK(snap.status());

  auto q = session.Prepare("p(a, W)");
  ASSERT_OK(q.status());
  auto rows = q->ExecuteDemand()->ToVector();
  ASSERT_OK(rows.status());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ(session.TupleToString((*rows)[0]), "(a, x1)");
  EXPECT_EQ(session.eval_stats().magic_tuples, 2u);
  EXPECT_EQ(session.eval_stats().tuples_derived, 3u);

  SnapshotRegistry registry;
  registry.Publish(*snap);
  ServeOptions one_lane;
  one_lane.threads = 1;
  QueryServer server(&registry, one_lane);
  auto id = server.Prepare("p(a, W)");
  ASSERT_OK(id.status());
  ServeRequest req;
  req.query = *id;
  auto ans = server.Execute(req);
  ASSERT_OK(ans.status());
  ASSERT_OK(ans->status);
  EXPECT_EQ(ans->rows, (std::vector<std::string>{"(a, x1)"}));
  EXPECT_EQ(server.stats().demand_queries, 1u);
}

TEST(QueryServerTest, ScanDemandAndEmptyFastPaths) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(kGraph));
  SnapshotRegistry registry;
  registry.Publish(FreezeGraph(&session));
  QueryServer server(&registry, TwoThreads());

  auto path_q = server.Prepare("path(X, Y)");
  ASSERT_OK(path_q.status());
  auto edge_q = server.Prepare("edge(X, Y)");
  ASSERT_OK(edge_q.status());
  EXPECT_FALSE(server.Prepare("path({a}, Y)").ok());  // sort error

  // Demand point query: path(a, Y) has exactly b, c, d, e.
  ServeRequest req;
  req.query = *path_q;
  req.params = {{"X", "a"}};
  auto ans = server.Execute(req);
  ASSERT_OK(ans.status());
  ASSERT_OK(ans->status);
  EXPECT_EQ(ans->count, 4u);
  std::set<std::string> rows(ans->rows.begin(), ans->rows.end());
  EXPECT_TRUE(rows.count("(a, e)")) << ans->rows.size();

  // EDB scan point query on a prebuilt index.
  req.query = *edge_q;
  req.params = {{"X", "b"}};
  ans = server.Execute(req);
  ASSERT_OK(ans.status());
  EXPECT_EQ(ans->count, 1u);
  EXPECT_EQ(ans->rows[0], "(b, c)");

  // Unknown constant: trivially empty without touching a row, on both
  // the scan route and the demand route.
  req.params = {{"X", "nowhere"}};
  ans = server.Execute(req);
  ASSERT_OK(ans.status());
  EXPECT_EQ(ans->count, 0u);
  req.query = *path_q;
  ans = server.Execute(req);
  ASSERT_OK(ans.status());
  EXPECT_EQ(ans->count, 0u);

  // Per-request errors land in the answer, not the batch.
  ServeRequest bad;
  bad.query = 999;
  auto batch = server.ExecuteBatch({bad});
  ASSERT_OK(batch.status());
  EXPECT_FALSE((*batch)[0].status.ok());

  serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.queries, 5u);
  EXPECT_EQ(stats.demand_queries, 1u);
  EXPECT_GE(stats.scan_queries, 1u);
  EXPECT_EQ(stats.empty_fast_path, 2u);
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_GE(stats.rewrites_built, 1u);
  EXPECT_GT(stats.last_batch_qps, 0.0);
}

TEST(QueryServerTest, RewriteCacheHitsAndRebindOnRepublish) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(kGraph));
  SnapshotRegistry registry;
  registry.Publish(FreezeGraph(&session));
  ServeOptions opts;
  opts.threads = 1;  // one worker, so cache behavior is deterministic
  QueryServer server(&registry, opts);
  auto q = server.Prepare("path(X, Y)");
  ASSERT_OK(q.status());

  ServeRequest req;
  req.query = *q;
  for (const char* c : {"a", "b", "a"}) {
    req.params = {{"X", c}};
    auto ans = server.Execute(req);
    ASSERT_OK(ans.status());
    ASSERT_OK(ans->status);
  }
  serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.rewrites_built, 1u);      // one mask, built once
  EXPECT_EQ(stats.rewrite_cache_hits, 2u);  // reused across requests

  // Publish a grown database: the worker re-binds and the new edge
  // becomes visible; the rewrite cache restarts.
  ASSERT_OK(session.Load("edge(e, f)."));
  registry.Publish(FreezeGraph(&session));
  req.params = {{"X", "e"}};
  auto ans = server.Execute(req);
  ASSERT_OK(ans.status());
  ASSERT_EQ(ans->count, 1u);
  EXPECT_EQ(ans->rows[0], "(e, f)");
  stats = server.stats();
  EXPECT_GE(stats.worker_rebinds, 2u);  // initial bind + republish
  EXPECT_EQ(stats.rewrites_built, 2u);
}

TEST(QueryServerTest, FactOnlyRepublishRefreshesWorkerInPlace) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(kGraph));
  SnapshotRegistry registry;
  registry.Publish(FreezeGraph(&session));
  ServeOptions opts;
  opts.threads = 1;  // one worker, so bind accounting is deterministic
  QueryServer server(&registry, opts);
  auto q = server.Prepare("path(X, Y)");
  ASSERT_OK(q.status());

  ServeRequest req;
  req.query = *q;
  req.params = {{"X", "a"}};
  auto ans = server.Execute(req);
  ASSERT_OK(ans.status());
  EXPECT_EQ(ans->count, 4u);

  // Mutate facts over already-interned terms: rule_epoch() and the
  // append-only term-id prefix both stand still, so the republished
  // snapshot is compatible with the worker's bound state. The worker
  // refreshes in place - store clone and rewrite cache kept - instead
  // of re-binding, and the cached rewrite answers over the new facts.
  MutationBatch batch = session.Mutate();
  ASSERT_OK(batch.AddText("edge(b, a)"));  // cycle: path(a, a) appears
  ASSERT_OK(batch.Commit());
  registry.Publish(FreezeGraph(&session));

  ans = server.Execute(req);
  ASSERT_OK(ans.status());
  EXPECT_EQ(ans->count, 5u);  // the new cycle answer is served
  serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.worker_refreshes, 1u);
  EXPECT_EQ(stats.worker_rebinds, 1u);  // only the initial bind
  EXPECT_EQ(stats.rewrites_built, 1u);  // cache survived the republish
  EXPECT_GE(stats.rewrite_cache_hits, 1u);
}

// Rendered rows of the session's own demand evaluation of `goal` with
// X bound to `x`.
std::set<std::string> SessionDemandRows(Session* session,
                                        const std::string& goal,
                                        const std::string& x) {
  std::set<std::string> out;
  auto q = session->Prepare(goal);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  if (!q.ok() || !q->BindText("X", x).ok()) return out;
  auto cursor = q->ExecuteDemand();
  EXPECT_TRUE(cursor.ok()) << cursor.status().ToString();
  if (!cursor.ok()) return out;
  auto rows = cursor->ToVector();
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  if (!rows.ok()) return out;
  for (const Tuple& t : *rows) out.insert(session->TupleToString(t));
  return out;
}

// Serves `goal` with X bound to `x` and returns the answer's rows.
std::set<std::string> ServedRows(QueryServer* server, size_t query,
                                 const std::string& x) {
  ServeRequest req;
  req.query = query;
  req.params = {{"X", x}};
  auto ans = server->Execute(req);
  EXPECT_TRUE(ans.ok() && ans->status.ok());
  if (!ans.ok()) return {};
  return std::set<std::string>(ans->rows.begin(), ans->rows.end());
}

TEST(QueryServerTest, DemandCompilesOncePerWorkerOnOneEpoch) {
  // Every request of one demand goal over one snapshot seeds a database
  // with the same planner statistics, whatever its binding: each worker
  // compiles the rewrite once and reuses the compiled program after.
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(kGraph));
  SnapshotRegistry registry;
  registry.Publish(FreezeGraph(&session));
  QueryServer server(&registry, TwoThreads());
  auto q = server.Prepare("path(X, Y)");
  ASSERT_OK(q.status());
  const std::vector<std::string> from = {"a", "b", "c", "d"};
  std::vector<ServeRequest> batch;
  for (size_t i = 0; i < 16; ++i) {
    ServeRequest req;
    req.query = *q;
    req.params = {{"X", from[i % from.size()]}};
    batch.push_back(req);
  }
  for (int round = 0; round < 2; ++round) {
    auto answers = server.ExecuteBatch(batch);
    ASSERT_OK(answers.status());
    for (size_t i = 0; i < batch.size(); ++i) {
      ASSERT_OK((*answers)[i].status);
      EXPECT_EQ((*answers)[i].count, from.size() - i % from.size());
    }
  }
  serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.demand_queries, 32u);
  EXPECT_EQ(stats.rewrites_built, 2u);   // one per worker
  EXPECT_EQ(stats.demand_compiles, 2u);  // one per worker that served
}

TEST(QueryServerTest, RefreshThatMovesReadStatisticsRecompiles) {
  // A fact-only republish keeps the worker's cached rewrite, but a new
  // edge changes the statistics of a relation the rewrite reads, so
  // the next request compiles again - and answers what the session's
  // own demand evaluation answers.
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(kGraph));
  auto first = session.Freeze();
  ASSERT_OK(first.status());
  SnapshotRegistry registry;
  registry.Publish(*first);
  ServeOptions opts;
  opts.threads = 1;  // one worker, so compile accounting is exact
  QueryServer server(&registry, opts);
  auto q = server.Prepare("path(X, Y)");
  ASSERT_OK(q.status());
  EXPECT_EQ(ServedRows(&server, *q, "a").size(), 4u);
  EXPECT_EQ(ServedRows(&server, *q, "b").size(), 3u);
  EXPECT_EQ(server.stats().demand_compiles, 1u);

  MutationBatch batch = session.Mutate();
  ASSERT_OK(batch.AddText("edge(b, a)"));
  ASSERT_OK(batch.Commit());
  auto next = session.FreezeIncremental(*first);
  ASSERT_OK(next.status());
  registry.Publish(*next);

  EXPECT_EQ(ServedRows(&server, *q, "a"),
            SessionDemandRows(&session, "path(X, Y)", "a"));
  serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.worker_refreshes, 1u);
  EXPECT_EQ(stats.worker_rebinds, 1u);
  EXPECT_EQ(stats.rewrites_built, 1u);   // the rewrite survived
  EXPECT_EQ(stats.demand_compiles, 2u);  // its compiled program did not
  EXPECT_EQ(ServedRows(&server, *q, "c"),
            SessionDemandRows(&session, "path(X, Y)", "c"));
  EXPECT_EQ(server.stats().demand_compiles, 2u);
}

TEST(QueryServerTest, RefreshOfAnUnreadPredicateKeepsTheCompiledProgram) {
  // note/1 is no relation the path rewrite reads: a republish that
  // changes only it leaves the statistics the program was compiled
  // for as they were.
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(std::string(kGraph) + "note(a).\n"));
  auto first = session.Freeze();
  ASSERT_OK(first.status());
  SnapshotRegistry registry;
  registry.Publish(*first);
  ServeOptions opts;
  opts.threads = 1;
  QueryServer server(&registry, opts);
  auto q = server.Prepare("path(X, Y)");
  ASSERT_OK(q.status());
  EXPECT_EQ(ServedRows(&server, *q, "a").size(), 4u);

  MutationBatch batch = session.Mutate();
  ASSERT_OK(batch.AddText("note(b)"));
  ASSERT_OK(batch.Commit());
  auto next = session.FreezeIncremental(*first);
  ASSERT_OK(next.status());
  registry.Publish(*next);

  EXPECT_EQ(ServedRows(&server, *q, "b"),
            SessionDemandRows(&session, "path(X, Y)", "b"));
  serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.worker_refreshes, 1u);
  EXPECT_EQ(stats.demand_compiles, 1u);
}

TEST(QueryServerTest, WideGoalAnswersEachAskPastColumn31) {
  // Two asks of a 34-column goal bind different columns past 31, which
  // no 32-bit mask names: neither may be answered from what the other
  // cached, on the server or through ExecuteDemand().
  auto row = [](const std::string& c32, const std::string& c33) {
    std::string out = "wide(";
    for (int i = 0; i < 32; ++i) out += "k, ";
    return out + c32 + ", " + c33 + ")";
  };
  std::string vars;
  for (int i = 0; i < 34; ++i) {
    vars += (i > 0 ? ", X" : "X") + std::to_string(i);
  }
  const std::string program = row("p", "q1") + ". " + row("p2", "q") +
                              ".\nw(" + vars + ") :- wide(" + vars +
                              ").\n";
  const std::string goal = "w(" + vars + ")";
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(program));
  SnapshotRegistry registry;
  registry.Publish(FreezeGraph(&session));
  QueryServer server(&registry, TwoThreads());
  auto sq = server.Prepare(goal);
  ASSERT_OK(sq.status());
  auto pq = session.Prepare(goal);
  ASSERT_OK(pq.status());
  for (auto [var, value, other] :
       {std::tuple<const char*, const char*, const char*>{"X32", "p", "q1"},
        {"X33", "q", "p2"}}) {
    ServeRequest req;
    req.query = *sq;
    req.params = {{var, value}};
    auto ans = server.Execute(req);
    ASSERT_OK(ans.status());
    ASSERT_OK(ans->status);
    ASSERT_EQ(ans->count, 1u) << var;
    EXPECT_NE(ans->rows[0].find(other), std::string::npos) << var;

    pq->ClearBindings();
    ASSERT_OK(pq->BindText(var, value));
    auto cursor = pq->ExecuteDemand();
    ASSERT_OK(cursor.status());
    auto rows = cursor->ToVector();
    ASSERT_OK(rows.status());
    ASSERT_EQ(rows->size(), 1u) << var;
    EXPECT_NE(session.TupleToString((*rows)[0]).find(other),
              std::string::npos)
        << var;
  }
  // A goal that wide falls back for every binding pattern, so the
  // second ask reuses the fallback the first one cached.
  EXPECT_EQ(server.stats().rewrites_built, 1u);
  EXPECT_EQ(session.demand_rewrite_count(), 1u);
}

// Rendered rows of a session cursor, as a set.
std::set<std::string> RowSet(Session* session, Result<AnswerCursor> cursor) {
  std::set<std::string> out;
  EXPECT_TRUE(cursor.ok()) << cursor.status().ToString();
  if (!cursor.ok()) return out;
  auto rows = cursor->ToVector();
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  if (!rows.ok()) return out;
  for (const Tuple& t : *rows) out.insert(session->TupleToString(t));
  return out;
}

TEST(QueryServerTest, BuiltinGoalsInternIntoWorkerScratch) {
  // X < 3 opens with an active-domain enumeration of X. The server, the
  // session's Execute() and the body of r's rule all run it on the
  // evaluator's step code, and agree on X.
  Session session(LanguageMode::kLDL);
  ASSERT_OK(session.Load("num(1). num(2). num(3). r(X) :- X < 3."));
  SnapshotRegistry registry;
  registry.Publish(FreezeGraph(&session));
  QueryServer server(&registry, TwoThreads());
  auto q = server.Prepare("X < 3");
  ASSERT_OK(q.status());
  ServeRequest req;
  req.query = *q;
  auto ans = server.Execute(req);
  ASSERT_OK(ans.status());
  ASSERT_OK(ans->status);
  std::set<std::string> rows(ans->rows.begin(), ans->rows.end());
  EXPECT_EQ(rows, (std::set<std::string>{"(1, 3)", "(2, 3)"}));

  auto goal = session.Prepare("X < 3");
  ASSERT_OK(goal.status());
  EXPECT_EQ(RowSet(&session, goal->Execute()), rows);
  auto derived = session.Prepare("r(X)");
  ASSERT_OK(derived.status());
  EXPECT_EQ(RowSet(&session, derived->Execute()),
            (std::set<std::string>{"(1)", "(2)"}));
}

TEST(QueryServerTest, SetPatternGoalMatchesLikeARuleBody) {
  // owns(ann, {pen, X}) is a scan goal whose set pattern holds a
  // variable, so each row matches by set unification: through the
  // session's Execute(), through the server's scan route, and in the
  // body of r's rule, whose head rebuilds the matched set.
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(R"(
    owns(ann, {pen, ink}). owns(ann, {pen}). owns(ann, {ink, cap}).
    owns(bob, {pen, cap}).
    r(ann, {pen, X}) :- owns(ann, {pen, X}).
  )"));
  SnapshotRegistry registry;
  registry.Publish(FreezeGraph(&session));
  QueryServer server(&registry, TwoThreads());
  auto q = server.Prepare("owns(ann, {pen, X})");
  ASSERT_OK(q.status());
  ServeRequest req;
  req.query = *q;
  auto ans = server.Execute(req);
  ASSERT_OK(ans.status());
  ASSERT_OK(ans->status);
  EXPECT_EQ(server.stats().scan_queries, 1u);
  std::set<std::string> served(ans->rows.begin(), ans->rows.end());
  EXPECT_EQ(served.size(), 2u);  // {pen, ink} and {pen}

  auto goal = session.Prepare("owns(ann, {pen, X})");
  ASSERT_OK(goal.status());
  EXPECT_EQ(RowSet(&session, goal->Execute()), served);
  auto derived = session.Prepare("r(P, S)");
  ASSERT_OK(derived.status());
  EXPECT_EQ(RowSet(&session, derived->Execute()), served);
}

// Sequential ground truth for the hammer tests: every path(c, _)
// answer set rendered and summarized the same way the server does.
std::map<std::string, size_t> GroundTruthCounts(
    Session* session, const std::vector<std::string>& consts) {
  std::map<std::string, size_t> counts;
  for (const std::string& c : consts) {
    auto rows = session->Query("path(" + c + ", Y)");
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    counts[c] = rows->size();
  }
  return counts;
}

TEST(QueryServerTest, HammerMatchesSequentialGroundTruth) {
  // A denser random-ish graph so point queries have real answer sets.
  Session session(LanguageMode::kLPS);
  std::string facts;
  const size_t n = 24;
  for (size_t i = 0; i < n; ++i) {
    facts += "edge(n" + std::to_string(i) + ", n" +
             std::to_string((i * 7 + 3) % n) + ").\n";
    facts += "edge(n" + std::to_string(i) + ", n" +
             std::to_string((i * 5 + 1) % n) + ").\n";
  }
  ASSERT_OK(session.Load(facts));
  ASSERT_OK(session.Load(
      "path(X, Y) :- edge(X, Y). path(X, Z) :- path(X, Y), edge(Y, Z)."));
  ASSERT_OK(session.Evaluate());

  std::vector<std::string> consts;
  for (size_t i = 0; i < n; ++i) consts.push_back("n" + std::to_string(i));
  std::map<std::string, size_t> truth = GroundTruthCounts(&session, consts);

  SnapshotRegistry registry;
  registry.Publish(FreezeGraph(&session));
  ServeOptions opts;
  opts.threads = 4;
  opts.record_answers = false;  // checksums only, as the bench runs
  QueryServer server(&registry, opts);
  auto q = server.Prepare("path(X, Y)");
  ASSERT_OK(q.status());

  // First a sequential reference pass for the checksums themselves.
  ServeOptions seq_opts;
  seq_opts.threads = 1;
  seq_opts.record_answers = false;
  QueryServer reference(&registry, seq_opts);
  auto ref_q = reference.Prepare("path(X, Y)");
  ASSERT_OK(ref_q.status());
  std::map<std::string, uint64_t> ref_sums;
  for (const std::string& c : consts) {
    ServeRequest req;
    req.query = *ref_q;
    req.params = {{"X", c}};
    auto ans = reference.Execute(req);
    ASSERT_OK(ans.status());
    ASSERT_OK(ans->status);
    EXPECT_EQ(ans->count, truth[c]) << c;
    ref_sums[c] = ans->checksum;
  }

  // Hammer: many copies of every point query in one striped batch.
  std::vector<ServeRequest> batch;
  for (int rep = 0; rep < 8; ++rep) {
    for (const std::string& c : consts) {
      ServeRequest req;
      req.query = *q;
      req.params = {{"X", c}};
      batch.push_back(req);
    }
  }
  auto answers = server.ExecuteBatch(batch);
  ASSERT_OK(answers.status());
  ASSERT_EQ(answers->size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const std::string& c = batch[i].params[0].second;
    const ServeAnswer& a = (*answers)[i];
    ASSERT_OK(a.status);
    EXPECT_EQ(a.count, truth[c]) << c;
    EXPECT_EQ(a.checksum, ref_sums[c]) << c;
  }
  serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.queries, batch.size());
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_GT(stats.p99_us + 1.0, stats.p50_us);
}

TEST(QueryServerTest, ConcurrentWriterRepublication) {
  // Reader threads run batches while the writer keeps growing the
  // session and publishing fresh epochs. Every answer must be
  // internally consistent with *some* published epoch: the path count
  // from n0 only ever grows as edges accumulate.
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(
      "edge(n0, n1).\n"
      "path(X, Y) :- edge(X, Y). path(X, Z) :- path(X, Y), edge(Y, Z)."));
  SnapshotRegistry registry;
  registry.Publish(FreezeGraph(&session));
  QueryServer server(&registry, TwoThreads());
  auto q = server.Prepare("path(X, Y)");
  ASSERT_OK(q.status());

  std::atomic<bool> stop{false};
  std::atomic<size_t> batches{0};
  std::thread reader([&] {
    size_t last = 0;
    while (!stop.load()) {
      ServeRequest req;
      req.query = *q;
      req.params = {{"X", "n0"}};
      auto ans = server.Execute(req);
      ASSERT_TRUE(ans.ok()) << ans.status().ToString();
      ASSERT_TRUE(ans->status.ok()) << ans->status.ToString();
      // Monotone: each epoch only adds reachable nodes.
      ASSERT_GE(ans->count, last);
      last = ans->count;
      ++batches;
    }
  });
  for (int i = 1; i < 12; ++i) {
    ASSERT_OK(session.Load("edge(n" + std::to_string(i) + ", n" +
                           std::to_string(i + 1) + ")."));
    auto frozen = session.Freeze();
    ASSERT_OK(frozen.status());
    registry.Publish(*frozen);
  }
  // Let the reader observe the final epoch at least once.
  size_t seen = batches.load();
  while (batches.load() < seen + 2) std::this_thread::yield();
  stop.store(true);
  reader.join();

  // Exactly one epoch stays live once readers drain; the final answer
  // on a fresh pin sees the full chain.
  ServeRequest req;
  req.query = *q;
  req.params = {{"X", "n0"}};
  auto final_ans = server.Execute(req);
  ASSERT_OK(final_ans.status());
  EXPECT_EQ(final_ans->count, 12u);
  EXPECT_EQ(registry.live_snapshots(), 1u);
  EXPECT_EQ(registry.reclaimed_count(), registry.published_count() - 1);
}

// ---- Demand over a converged snapshot's EDB, read in place ----------

// Session::Query's answers to pred(c<tail> for each constant c, rendered
// the way QueryServer renders rows.
std::map<std::string, std::set<std::string>> SessionRows(
    Session* session, const std::string& pred, const std::string& tail,
    const std::vector<std::string>& consts) {
  std::map<std::string, std::set<std::string>> out;
  for (const std::string& c : consts) {
    auto rows = session->Query(pred + "(" + c + tail);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    if (!rows.ok()) continue;
    for (const Tuple& t : *rows) {
      out[c].insert("(" + TermListToString(*session->store(), t) + ")");
    }
  }
  return out;
}

// Serves pred(X<tail> for every constant through `server`, eight
// copies each striped over its lanes - so several lanes read one
// aliased relation at once - and expects each answer to be the
// session's rendered rows, every request on the demand route.
void ExpectServedRowsMatchSession(Session* session, QueryServer* server,
                                  const std::string& pred,
                                  const std::string& tail,
                                  const std::vector<std::string>& consts) {
  std::map<std::string, std::set<std::string>> truth =
      SessionRows(session, pred, tail, consts);
  auto q = server->Prepare(pred + "(X" + tail);
  ASSERT_OK(q.status());
  std::vector<ServeRequest> batch;
  for (int rep = 0; rep < 8; ++rep) {
    for (const std::string& c : consts) {
      ServeRequest req;
      req.query = *q;
      req.params = {{"X", c}};
      batch.push_back(req);
    }
  }
  const uint64_t demand_before = server->stats().demand_queries;
  auto answers = server->ExecuteBatch(batch);
  ASSERT_OK(answers.status());
  for (size_t i = 0; i < batch.size(); ++i) {
    const std::string& c = batch[i].params[0].second;
    const ServeAnswer& a = (*answers)[i];
    ASSERT_OK(a.status);
    EXPECT_EQ(std::set<std::string>(a.rows.begin(), a.rows.end()), truth[c])
        << pred << "(" << c << tail;
  }
  EXPECT_EQ(server->stats().demand_queries - demand_before, batch.size())
      << pred;
}

TEST(QueryServerTest, DemandOverAliasedEdbMatchesSession) {
  ServeOptions four_lanes;
  four_lanes.threads = 4;
  const std::vector<std::string> consts = {"a", "b", "c", "d", "e"};

  // path/2 has a fact of its own beside its rules (e's only way out);
  // the negated hub/1 heads a rule, so the rewrite evaluates it - and
  // the path closure under it - unrestricted; circle/2 groups.
  Session session(LanguageMode::kLDL);
  ASSERT_OK(session.Load(R"(
    edge(a, b). edge(b, c). edge(c, a). edge(c, d). edge(d, e).
    path(e, a).
    path(X, Y) :- edge(X, Y).
    path(X, Z) :- path(X, Y), edge(Y, Z).
    hub(Y) :- path(Y, Y).
    leaf(X, Y) :- path(X, Y), not hub(Y).
    circle(U, <V>) :- path(U, V).
  )"));
  SnapshotRegistry registry;
  registry.Publish(FreezeGraph(&session));
  QueryServer server(&registry, four_lanes);
  ExpectServedRowsMatchSession(&session, &server, "path", ", Y)", consts);
  ExpectServedRowsMatchSession(&session, &server, "leaf", ", Y)", consts);
  ExpectServedRowsMatchSession(&session, &server, "circle", ", S)", consts);

  // One incremental commit retracts an EDB row, which stays in the
  // republished relation as a tombstone and must not answer, and adds
  // a fact to the rule-headed path/2. Republishing it is fact-only, so
  // the workers refresh in place and must list the new fact.
  Options opt;
  opt.incremental = true;
  Session churned(LanguageMode::kLPS, opt);
  ASSERT_OK(churned.Load(kGraph));
  auto first = churned.Freeze();
  ASSERT_OK(first.status());
  SnapshotRegistry churned_registry;
  churned_registry.Publish(*first);
  QueryServer churned_server(&churned_registry, four_lanes);
  ExpectServedRowsMatchSession(&churned, &churned_server, "path", ", Y)",
                               consts);
  MutationBatch batch = churned.Mutate();
  ASSERT_OK(batch.RetractText("edge(b, c)"));
  ASSERT_OK(batch.AddText("path(e, a)"));
  ASSERT_OK(batch.Commit());
  auto next = churned.FreezeIncremental(*first);
  ASSERT_OK(next.status());
  const PredicateId edge = (*next)->signature().Lookup("edge", 2);
  ASSERT_EQ((*next)->database().FindRelation(edge)->dead_count(), 1u);
  churned_registry.Publish(*next);
  ExpectServedRowsMatchSession(&churned, &churned_server, "path", ", Y)",
                               consts);
  serve::ServeStats stats = churned_server.stats();
  EXPECT_EQ(stats.worker_rebinds, 4u);  // the first bind only
  EXPECT_EQ(stats.worker_refreshes, 4u);
}

TEST(QueryServerTest, DemandIndexMissCopiesOnlyWhenSnapshotLacksIndex) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(kGraph));
  // Serves `goal` once with `var` = `value` over `snap` and returns the
  // request's index_misses, after checking the rows against the session.
  auto misses = [&](std::shared_ptr<const Snapshot> snap,
                    const std::string& goal, const std::string& var,
                    const std::string& value,
                    const std::string& session_goal) -> uint64_t {
    SnapshotRegistry registry;
    registry.Publish(snap);
    QueryServer server(&registry, TwoThreads());
    auto q = server.Prepare(goal);
    auto truth = session.Query(session_goal);
    if (!q.ok() || !truth.ok()) {
      ADD_FAILURE() << session_goal << ": prepare or ground truth failed";
      return 0;
    }
    ServeRequest req;
    req.query = *q;
    req.params = {{var, value}};
    auto ans = server.Execute(req);
    if (!ans.ok() || !ans->status.ok()) {
      ADD_FAILURE() << session_goal << ": serving failed";
      return 0;
    }
    std::set<std::string> want;
    for (const Tuple& t : *truth) {
      want.insert("(" + TermListToString(*session.store(), t) + ")");
    }
    EXPECT_EQ(std::set<std::string>(ans->rows.begin(), ans->rows.end()),
              want)
        << session_goal;
    EXPECT_EQ(server.stats().demand_queries, 1u);
    return server.stats().index_misses;
  };

  // Binding only the second argument of the left-linear closure makes
  // the rewrite probe edge/2 by its second column, which no fixpoint
  // plan indexed: the request copies edge to build that index, and the
  // published relation is left as it was.
  std::shared_ptr<const Snapshot> plain = FreezeGraph(&session);
  const PredicateId edge = plain->signature().Lookup("edge", 2);
  const Relation* published = plain->database().FindRelation(edge);
  ASSERT_FALSE(published->HasIndexBuilt(ColumnBit(1)));
  EXPECT_GE(misses(plain, "path(X, Y)", "Y", "d", "path(X, d)"), 1u);
  EXPECT_FALSE(published->HasIndexBuilt(ColumnBit(1)));
  EXPECT_EQ(plain->database().FindRelation(edge), published);

  // Freezing with that index serves the same goal with no copy...
  serve::FreezeOptions fopts;
  fopts.indexes.push_back({"edge", 2, ColumnBit(1)});
  auto indexed = session.Freeze(fopts);
  ASSERT_OK(indexed.status());
  EXPECT_EQ(misses(*indexed, "path(X, Y)", "Y", "d", "path(X, d)"), 0u);

  // ...and a first-argument point query never needed one: the common
  // path aliases the snapshot's relation rather than copying it.
  EXPECT_EQ(misses(plain, "path(X, Y)", "X", "a", "path(a, Y)"), 0u);
}

TEST(SnapshotTest, IndexSpecsAreValidatedAndMaskZeroBuildsNothing) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(kGraph));
  // A bit at or past the arity names a column edge/2 does not have:
  // the freeze fails before anything is cloned, naming the predicate
  // and the mask (building it read past the row arena).
  serve::FreezeOptions bad;
  bad.indexes.push_back({"edge", 2, 0b100});
  auto rejected = session.Freeze(bad);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  const std::string& why = rejected.status().message();
  EXPECT_NE(why.find("edge/2"), std::string::npos) << why;
  EXPECT_NE(why.find("mask 4"), std::string::npos) << why;
  // Incremental republication validates the same way.
  auto base = session.Freeze();
  ASSERT_OK(base.status());
  EXPECT_EQ(session.FreezeIncremental(*base, bad).status().code(),
            StatusCode::kInvalidArgument);
  // From arity 32 on every mask is in range (the check never shifts by
  // 32 or more), and unknown predicates stay skipped.
  serve::FreezeOptions wide;
  wide.indexes.push_back({"nosuch", 40, 0xffffffffu});
  wide.indexes.push_back({"nosuch", 32, 0x80000000u});
  ASSERT_OK(session.Freeze(wide).status());

  // Mask 0 builds nothing: an unbound scan lists rows without an index.
  serve::FreezeOptions zero;
  zero.indexes.push_back({"edge", 2, 0});
  auto snap = session.Freeze(zero);
  ASSERT_OK(snap.status());
  const Relation* edge = (*snap)->database().FindRelation(
      (*snap)->signature().Lookup("edge", 2));
  ASSERT_NE(edge, nullptr);
  EXPECT_FALSE(edge->HasIndexBuilt(0));
  for (const RelationStats::MaskStats& m : edge->Stats().masks) {
    EXPECT_NE(m.mask, 0u);
  }
}

// ---- Copy-on-write republication (Session::FreezeIncremental) -------

// Two independent predicate families, so a mutation confined to one
// leaves the other physically untouched.
constexpr const char* kTwoFamilies = R"(
  edge(a, b). edge(b, c).
  color(a, red). color(b, blue).
  path(X, Y) :- edge(X, Y).
  path(X, Z) :- path(X, Y), edge(Y, Z).
  hue(Y) :- color(X, Y).
)";

// pred name -> relation pointer, the physical-sharing witness.
std::unordered_map<std::string, const Relation*> RelationPointers(
    const Snapshot& snap) {
  std::unordered_map<std::string, const Relation*> out;
  for (const auto& [pred, rel] : snap.database().Relations()) {
    out[snap.signature().Name(pred)] = rel;
  }
  return out;
}

TEST(CowSnapshotTest, SharesUnchangedClonesMutatedByteIdentical) {
  Options opt;
  opt.incremental = true;
  Session session(LanguageMode::kLPS, opt);
  ASSERT_OK(session.Load(kTwoFamilies));
  ASSERT_OK(session.Evaluate());
  auto base = session.Freeze();
  ASSERT_OK(base.status());
  // A full freeze clones everything and shares nothing.
  EXPECT_EQ((*base)->cow_stats().relations_shared, 0u);
  EXPECT_FALSE((*base)->cow_stats().store_shared);

  // Mutate the edge family only, over already-interned constants.
  MutationBatch batch = session.Mutate();
  ASSERT_OK(batch.AddText("edge(c, a)"));
  ASSERT_OK(batch.Commit());

  auto inc = session.FreezeIncremental(*base);
  ASSERT_OK(inc.status());
  auto full = session.Freeze();
  ASSERT_OK(full.status());

  // Byte identity with the deep-clone freeze of the same state.
  EXPECT_EQ((*inc)->database().ToCanonicalString((*inc)->signature()),
            (*full)->database().ToCanonicalString((*full)->signature()));

  // Physical sharing: untouched family aliased, touched family cloned.
  auto base_rels = RelationPointers(**base);
  auto inc_rels = RelationPointers(**inc);
  EXPECT_EQ(inc_rels.at("color"), base_rels.at("color"));
  EXPECT_EQ(inc_rels.at("hue"), base_rels.at("hue"));
  EXPECT_NE(inc_rels.at("edge"), base_rels.at("edge"));
  EXPECT_NE(inc_rels.at("path"), base_rels.at("path"));

  const serve::CowStats& cow = (*inc)->cow_stats();
  EXPECT_GE(cow.relations_shared, 2u);  // color, hue
  EXPECT_GE(cow.relations_cloned, 2u);  // edge, path
  EXPECT_GT(cow.bytes_shared, 0u);
  // No new constant was interned, so the stores alias too.
  EXPECT_TRUE(cow.store_shared);
  EXPECT_EQ(&(*inc)->store(), &(*base)->store());

  // The chain serves correctly: a server over the COW snapshot answers
  // exactly like one over the deep clone.
  SnapshotRegistry registry;
  registry.Publish(*inc);
  QueryServer server(&registry, TwoThreads());
  auto q = server.Prepare("path(X, Y)");
  ASSERT_OK(q.status());
  ServeRequest req;
  req.query = *q;
  req.params = {{"X", "c"}};
  auto ans = server.Execute(req);
  ASSERT_OK(ans.status());
  ASSERT_OK(ans->status);
  EXPECT_EQ(ans->count, 3u);  // c -> a -> b -> c
  serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.relations_shared, cow.relations_shared);
  EXPECT_TRUE(stats.store_shared);
}

TEST(CowSnapshotTest, ClonesStoreWhenNewTermsIntern) {
  Options opt;
  opt.incremental = true;
  Session session(LanguageMode::kLPS, opt);
  ASSERT_OK(session.Load(kTwoFamilies));
  ASSERT_OK(session.Evaluate());
  auto base = session.Freeze();
  ASSERT_OK(base.status());

  // `d` is a fresh constant: the term store grew, so it cannot alias.
  MutationBatch batch = session.Mutate();
  ASSERT_OK(batch.AddText("edge(c, d)"));
  ASSERT_OK(batch.Commit());
  auto inc = session.FreezeIncremental(*base);
  ASSERT_OK(inc.status());
  EXPECT_FALSE((*inc)->cow_stats().store_shared);
  EXPECT_NE(&(*inc)->store(), &(*base)->store());
  // Untouched relations still alias: store sharing and relation
  // sharing are independent decisions.
  EXPECT_GE((*inc)->cow_stats().relations_shared, 2u);
  auto full = session.Freeze();
  ASSERT_OK(full.status());
  EXPECT_EQ((*inc)->database().ToCanonicalString((*inc)->signature()),
            (*full)->database().ToCanonicalString((*full)->signature()));
}

TEST(CowSnapshotTest, RejectsForeignPrevAndNullPrevIsFullFreeze) {
  Session a(LanguageMode::kLPS);
  ASSERT_OK(a.Load(kGraph));
  auto a_snap = a.Freeze();
  ASSERT_OK(a_snap.status());

  Session b(LanguageMode::kLPS);
  ASSERT_OK(b.Load(kGraph));
  // Content ticks are only meaningful along one session's lineage.
  auto foreign = b.FreezeIncremental(*a_snap);
  EXPECT_FALSE(foreign.ok());

  // No previous snapshot: degrades to a full freeze, not an error.
  auto first = b.FreezeIncremental(nullptr);
  ASSERT_OK(first.status());
  EXPECT_EQ((*first)->cow_stats().relations_shared, 0u);
  EXPECT_FALSE((*first)->cow_stats().store_shared);
  EXPECT_EQ((*first)->database().TupleCount(),
            (*a_snap)->database().TupleCount());
}

// ---- Admission control ----------------------------------------------

TEST(QueryServerTest, ExpiredBatchDeadlineRejectsWithoutWork) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(kGraph));
  SnapshotRegistry registry;
  registry.Publish(FreezeGraph(&session));
  ServeOptions opts;
  opts.threads = 2;
  opts.batch_timeout_micros = 1e-4;  // expired by the time any request starts
  QueryServer server(&registry, opts);
  auto q = server.Prepare("path(X, Y)");
  ASSERT_OK(q.status());

  ServeRequest req;
  req.query = *q;
  req.params = {{"X", "a"}};
  auto batch = server.ExecuteBatch({req, req, req});
  ASSERT_OK(batch.status());
  for (const ServeAnswer& ans : *batch) {
    EXPECT_EQ(ans.status.code(), StatusCode::kDeadlineExceeded)
        << ans.status.ToString();
    EXPECT_EQ(ans.count, 0u);  // rejected before any work
  }
  serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.admission_rejected, 3u);
  EXPECT_EQ(stats.deadline_exceeded, 0u);
  EXPECT_EQ(stats.errors, 0u);  // a deadline is policy, not malfunction
}

TEST(QueryServerTest, MidEvalDeadlineReturnsTypedPartialPromptly) {
  // An effectively unbounded demand evaluation: counting to a billion
  // one semi-naive iteration at a time. The snapshot is frozen
  // unevaluated (a fixpoint freeze would never finish) and the limits
  // are raised so the deadline is the only thing that can stop it.
  Options opt;
  opt.max_iterations = 1000000000;
  opt.max_tuples = 1000000000;
  Session session(LanguageMode::kLDL, opt);
  ASSERT_OK(session.Load(
      "seed(go, 0).\n"
      "count(T, N) :- seed(T, N).\n"
      "count(T, M) :- count(T, N), lt(N, 1000000000), add(N, 1, M).\n"
      "echo(T, N) :- seed(T, N).\n"));
  ASSERT_OK(session.Compile());
  serve::FreezeOptions fopts;
  fopts.evaluate = false;
  auto snap = session.Freeze(fopts);
  ASSERT_OK(snap.status());
  SnapshotRegistry registry;
  registry.Publish(*snap);
  QueryServer server(&registry, TwoThreads());
  auto unbounded = server.Prepare("count(T, X)");
  ASSERT_OK(unbounded.status());
  // The mates take the demand route too (the snapshot is unevaluated,
  // so a plain EDB scan would be trivially empty): a non-recursive
  // rule whose magic evaluation derives one tuple immediately.
  auto cheap = server.Prepare("echo(T, X)");
  ASSERT_OK(cheap.status());

  constexpr double kDeadlineMicros = 400000;  // 400ms
  ServeRequest pathological;
  pathological.query = *unbounded;
  pathological.params = {{"T", "go"}};
  pathological.timeout_micros = kDeadlineMicros;
  ServeRequest mate;
  mate.query = *cheap;
  mate.params = {{"T", "go"}};
  std::vector<ServeRequest> batch{pathological, mate, mate, mate};

  const auto t0 = std::chrono::steady_clock::now();
  auto answers = server.ExecuteBatch(batch);
  const double elapsed_micros =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - t0).count();
  ASSERT_OK(answers.status());
  ASSERT_EQ(answers->size(), 4u);

  // The pathological lane returns a typed partial outcome within 2x
  // the configured deadline (the acceptance bound: cooperative checks
  // run every iteration and every ~1k executor steps).
  const ServeAnswer& cut = (*answers)[0];
  EXPECT_EQ(cut.status.code(), StatusCode::kDeadlineExceeded)
      << cut.status.ToString();
  EXPECT_TRUE(cut.partial);
  EXPECT_LT(elapsed_micros, 2 * kDeadlineMicros);

  // ...without stalling its lane-mates.
  for (size_t i = 1; i < answers->size(); ++i) {
    ASSERT_OK((*answers)[i].status);
    EXPECT_EQ((*answers)[i].count, 1u);  // echo(go, 0)
  }
  serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.admission_rejected, 0u);
  EXPECT_EQ(stats.errors, 0u);
}

TEST(QueryServerTest, ZeroDeadlineUnlimitedAndMaxTuplesTruncates) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(kGraph));
  SnapshotRegistry registry;
  registry.Publish(FreezeGraph(&session));
  QueryServer server(&registry, TwoThreads());
  auto q = server.Prepare("path(X, Y)");
  ASSERT_OK(q.status());

  // Zero timeout (the default) means no deadline at all.
  ServeRequest req;
  req.query = *q;
  req.params = {{"X", "a"}};
  auto ans = server.Execute(req);
  ASSERT_OK(ans.status());
  ASSERT_OK(ans->status);
  EXPECT_FALSE(ans->partial);
  EXPECT_EQ(ans->count, 4u);

  // max_tuples caps the answer set: a prefix comes back marked partial
  // with an OK status (a cap is an answer-shape contract, not an
  // overload outcome).
  req.max_tuples = 2;
  ans = server.Execute(req);
  ASSERT_OK(ans.status());
  ASSERT_OK(ans->status);
  EXPECT_TRUE(ans->partial);
  EXPECT_EQ(ans->count, 2u);
  EXPECT_EQ(ans->rows.size(), 2u);

  serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.deadline_exceeded, 0u);
  EXPECT_EQ(stats.admission_rejected, 0u);
}

TEST(QueryServerTest, BuiltinGoalStopsAtTheCapAndTheDeadline) {
  // X < Y enumerates both variables over 1,500 ints: 2.25M candidate
  // pairs. The builtin route's plan stops at the deadline and at the
  // cap instead of running through before either is looked at.
  std::string facts;
  for (int i = 0; i < 1500; ++i) {
    facts += "num(" + std::to_string(i) + ").\n";
  }
  Session session(LanguageMode::kLDL);
  ASSERT_OK(session.Load(facts));
  SnapshotRegistry registry;
  registry.Publish(FreezeGraph(&session));
  ServeOptions one_lane;
  one_lane.threads = 1;
  QueryServer server(&registry, one_lane);
  auto q = server.Prepare("X < Y");
  ASSERT_OK(q.status());

  ServeRequest timed;
  timed.query = *q;
  timed.timeout_micros = 1000;
  auto ans = server.Execute(timed);
  ASSERT_OK(ans.status());
  EXPECT_EQ(ans->status.code(), StatusCode::kDeadlineExceeded)
      << ans->status.ToString();
  EXPECT_TRUE(ans->partial);

  ServeRequest capped;
  capped.query = *q;
  capped.max_tuples = 10;
  ans = server.Execute(capped);
  ASSERT_OK(ans.status());
  ASSERT_OK(ans->status);
  EXPECT_TRUE(ans->partial);
  EXPECT_EQ(ans->count, 10u);
  EXPECT_EQ(ans->rows.size(), 10u);

  serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.errors, 0u);
}

// ---- COW republish soak ---------------------------------------------

// A writer republishes FreezeIncremental snapshots under sustained
// reader load, with a periodic byte-identity referee against a
// deep-clone freeze. PR runs exercise the path for a fraction of a
// second; the nightly TSan job sets LPS_SERVE_SOAK_SECONDS=60 (see
// .github/workflows/ci.yml soak-serving).
TEST(QueryServerTest, SoakCowRepublishUnderReaderLoad) {
  double seconds = 0.2;
  if (const char* env = std::getenv("LPS_SERVE_SOAK_SECONDS")) {
    seconds = std::max(0.05, std::atof(env));
  }
  Options opt;
  opt.incremental = true;
  Session session(LanguageMode::kLPS, opt);
  std::string facts;
  const int n = 16;
  for (int i = 0; i + 1 < n; ++i) {
    facts += "edge(n" + std::to_string(i) + ", n" +
             std::to_string(i + 1) + ").\n";
  }
  ASSERT_OK(session.Load(facts));
  ASSERT_OK(session.Load(
      "path(X, Y) :- edge(X, Y). path(X, Z) :- path(X, Y), edge(Y, Z)."));
  ASSERT_OK(session.Evaluate());
  auto first = session.Freeze();
  ASSERT_OK(first.status());
  std::shared_ptr<const Snapshot> prev = *first;
  SnapshotRegistry registry;
  registry.Publish(prev);
  QueryServer server(&registry, TwoThreads());
  auto q = server.Prepare("path(X, Y)");
  ASSERT_OK(q.status());

  std::atomic<bool> stop{false};
  std::atomic<size_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      while (!stop.load()) {
        ServeRequest req;
        req.query = *q;
        req.params = {{"X", "n" + std::to_string(r)}};
        auto ans = server.Execute(req);
        ASSERT_TRUE(ans.ok()) << ans.status().ToString();
        ASSERT_TRUE(ans->status.ok()) << ans->status.ToString();
        ASSERT_GE(ans->count, static_cast<size_t>(n - 2 - r));
        ++reads;
      }
    });
  }

  // Writer: toggle a shortcut edge over existing constants, republish
  // a COW snapshot each commit, referee every 8th epoch.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  size_t epochs = 0;
  bool present = false;
  while (std::chrono::steady_clock::now() < deadline) {
    MutationBatch batch = session.Mutate();
    ASSERT_OK(present ? batch.RetractText("edge(n0, n5)")
                      : batch.AddText("edge(n0, n5)"));
    ASSERT_OK(batch.Commit());
    present = !present;
    auto inc = session.FreezeIncremental(prev);
    ASSERT_OK(inc.status());
    if (++epochs % 8 == 0) {
      auto full = session.Freeze();
      ASSERT_OK(full.status());
      ASSERT_EQ(
          (*inc)->database().ToCanonicalString((*inc)->signature()),
          (*full)->database().ToCanonicalString((*full)->signature()));
    }
    prev = *inc;
    registry.Publish(prev);
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_GT(epochs, 0u);
  EXPECT_GT(reads.load(), 0u);
  serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.deadline_exceeded, 0u);
}

}  // namespace
}  // namespace lps
