// QueryServer: N worker threads answering prepared point queries
// against the snapshot currently published in a SnapshotRegistry.
//
// Concurrency model (DESIGN.md section 15): a batch pins the current
// epoch once, fans its requests out over a WorkerPool, and unpins when
// the last request drains. Between pin and unpin the execution path is
// lock-free - every read touches only the immutable snapshot (const
// TermStore::TryLookup* probes, the const Relation::Lookup over
// prebuilt indexes, active-domain reads) and every *write* goes to
// state a worker owns privately:
//
//  * a TermStore clone of the snapshot store (the per-connection
//    intern scratch: parameter terms, magic rewrite variables and
//    builtin results intern here, never in the shared store; TermIds
//    interned here cross-compare soundly with snapshot ids because
//    clones preserve the id prefix - see TermStore::Clone);
//  * a Program re-bound to that clone, plus per-query plans and a
//    per-(query, binding-mask) magic-rewrite cache, each rewrite with
//    its compiled program: a worker compiles a rewrite once per
//    rebind, and again only after a refresh that changes the planner
//    statistics of the relations it reads;
//  * a private result Database per demand query, owned for exactly the
//    duration of one request. It owns only the magic and adorned
//    relations plus the base rows of rule-headed predicates: every
//    relation of a predicate heading no rule is aliased from the
//    pinned snapshot copy-on-write (Database::SeedFacts) and read in
//    place, so a request costs the slice it demands, not the size of
//    the EDB. Only a probe that needs an index the snapshot lacks
//    copies the relation it indexes (Database::EnsureIndex copies a
//    shared relation before building).
//
// Workers re-bind (fresh clone, caches dropped) only when the batch
// pins a *newer* epoch than the one they were bound to, so steady-state
// serving against one snapshot pays the clone once per worker.
//
// Answers come back rendered (surface-syntax strings) with an
// order-insensitive checksum, because two workers may intern the same
// post-freeze term under different ids - rendered rows compare across
// workers and across a sequential ground-truth run, raw TermIds do
// not.
#ifndef LPS_SERVE_SERVER_H_
#define LPS_SERVE_SERVER_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "api/goal_exec.h"
#include "base/worker_pool.h"
#include "serve/registry.h"

namespace lps::serve {

struct ServeOptions {
  /// Worker lanes (each one thread plus its private intern scratch).
  /// 0 = one per hardware thread (WorkerPool::ResolveLanes).
  size_t threads = 0;
  /// Fill ServeAnswer::rows with the rendered answers. Off, answers are
  /// only counted and checksummed - the benchmark mode.
  bool record_answers = true;

  // ---- Admission control (defaults: everything unlimited) ------------

  /// Per-batch deadline in microseconds: ExecuteBatch stamps one
  /// deadline when the batch starts and every request shares it. A
  /// request whose turn comes after the deadline is rejected without
  /// doing any work (admission_rejected); one caught mid-flight
  /// returns a kDeadlineExceeded partial answer. 0 = no batch deadline.
  double batch_timeout_micros = 0;
  /// Default per-request timeout in microseconds, measured from the
  /// request's own start; a request's timeout_micros overrides it.
  /// 0 = no per-request deadline.
  double default_timeout_micros = 0;
  /// Default per-request answer cap; a request's max_tuples overrides
  /// it. A capped request returns the first `max_tuples` answers with
  /// ServeAnswer::partial set. 0 = unlimited.
  size_t default_max_tuples = 0;
};

/// One point query: a prepared query id plus ground parameter values
/// as (variable name, term text) pairs, e.g. {"X", "n17"}.
struct ServeRequest {
  size_t query = 0;
  std::vector<std::pair<std::string, std::string>> params;
  /// Per-request overrides of the ServeOptions admission defaults
  /// (0 = use the default).
  double timeout_micros = 0;
  size_t max_tuples = 0;
};

struct ServeAnswer {
  Status status = Status::OK();
  /// Rendered answer tuples "(t1, ..., tn)" (iff record_answers).
  std::vector<std::string> rows;
  /// Answer count (also with record_answers off).
  size_t count = 0;
  /// Order-insensitive checksum over the rendered rows; equal answer
  /// sets give equal checksums regardless of worker or answer order.
  uint64_t checksum = 0;
  /// Wall-clock service time of this request.
  double micros = 0;
  /// True when rows/count are a prefix of the full answer set: the
  /// request hit its max_tuples cap (status stays OK) or its deadline
  /// (status is kDeadlineExceeded - a typed partial outcome, not a
  /// server error).
  bool partial = false;
  /// Non-normative diagnostics: empty-fast-path and fallback notes.
  std::string note;
};

/// Cumulative server counters plus the latency profile of the most
/// recent batch. All zero before the first batch.
struct ServeStats {
  uint64_t queries = 0;         // requests served (including errors)
  uint64_t demand_queries = 0;  // answered by a magic-set evaluation
  uint64_t scan_queries = 0;    // answered by a snapshot relation scan
  uint64_t builtin_queries = 0; // answered by a builtin goal plan
  uint64_t empty_fast_path = 0; // proven empty without touching rows
  uint64_t errors = 0;          // requests with !status.ok()
  uint64_t answers = 0;         // total answer tuples produced
  uint64_t rewrites_built = 0;  // magic rewrites constructed
  uint64_t rewrite_cache_hits = 0;
  // Demand evaluations that compiled their rewrite's program; the rest
  // of demand_queries reused the one their worker compiled before, for
  // the same planner statistics (api/goal_exec.h).
  uint64_t demand_compiles = 0;
  // Requests whose snapshot reads found no prebuilt index: a scan that
  // fell back to walking rows, or a demand evaluation that copied an
  // aliased relation to build the index its rewrite probes.
  uint64_t index_misses = 0;
  uint64_t worker_rebinds = 0;  // worker re-clones after a new epoch
  /// Worker took the cheap path on a new epoch: the republished
  /// snapshot has the same rule_epoch/store_size/signature as the one
  /// the worker is bound to (a fact-only republish), so the clone and
  /// every cached plan and magic rewrite survive - only the snapshot
  /// pointer advances. The observable witness that serving state keys
  /// on rules, not facts.
  uint64_t worker_refreshes = 0;
  uint64_t batches = 0;
  // ---- Admission control (not counted into `errors`: a deadline is a
  // policy outcome, not a malfunction) --------------------------------
  uint64_t deadline_exceeded = 0;   // requests cut off mid-flight
  uint64_t admission_rejected = 0;  // requests rejected before any work

  // ---- Copy-on-write republication witnesses of the snapshot the
  // most recent batch pinned (Snapshot::cow_stats): how much of it
  // aliases the previous snapshot. ------------------------------------
  uint64_t relations_shared = 0;
  uint64_t relations_cloned = 0;
  uint64_t bytes_shared = 0;
  bool store_shared = false;

  // Most recent batch:
  double last_batch_micros = 0;
  double last_batch_qps = 0;
  double p50_us = 0;  // per-request latency percentiles
  double p99_us = 0;
  double max_us = 0;
};

class QueryServer {
 public:
  /// `registry` must outlive the server and have at least one snapshot
  /// published before Prepare/Execute are called.
  explicit QueryServer(SnapshotRegistry* registry, ServeOptions options = {});

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Parses and validates `goal_text` against the current snapshot and
  /// registers it; returns the query id ServeRequests refer to. Each
  /// worker materializes its own plan from the text on first use (and
  /// again after re-binding to a newer epoch).
  Result<size_t> Prepare(const std::string& goal_text);

  /// Serves one request (a batch of one).
  Result<ServeAnswer> Execute(const ServeRequest& request);

  /// Pins the current epoch once, serves every request across the
  /// worker pool, unpins, and updates stats(). Requests are striped
  /// over the lanes; answers come back in request order. Per-request
  /// failures (unknown query id, malformed parameter, sort conflicts)
  /// land in the corresponding ServeAnswer::status - the batch itself
  /// only fails when no snapshot has been published yet.
  Result<std::vector<ServeAnswer>> ExecuteBatch(
      const std::vector<ServeRequest>& requests);

  ServeStats stats() const;
  size_t threads() const { return pool_.size(); }

 private:
  /// One prepared query as materialized in one worker's private
  /// store/program (parsed from the shared goal text).
  struct QueryEntry {
    bool materialized = false;
    Status error = Status::OK();  // sticky parse/validate failure
    PreparedGoal prepared;
    DemandRewriteCache rewrites;
  };

  /// Everything a lane owns privately. Only its own thread touches a
  /// Worker during a batch; the post-Run merge in ExecuteBatch reads
  /// the deltas after the pool barrier (WorkerPool::Run blocks until
  /// every lane returns, which publishes the writes).
  struct Worker {
    uint64_t epoch = 0;  // epoch the clones below were taken from
    // Compatibility key of the snapshot the clones were taken from: a
    // newer epoch whose snapshot matches all three is a fact-only
    // republish and refreshes the worker in place (see BindWorker).
    uint64_t rule_epoch = 0;
    size_t store_size = 0;
    size_t sig_preds = 0;
    std::unique_ptr<TermStore> store;
    std::unique_ptr<Program> program;
    std::vector<QueryEntry> entries;  // indexed by query id
    // What a demand request seeds its private database with from the
    // snapshot (Database::SeedFacts), listed by BindWorker on every
    // rebind and refresh.
    Database::FactSeed seed;
    ServeStats delta;                 // counters gathered this batch
    std::vector<double> latencies;    // per-request micros this batch
  };

  /// Binds the worker to `pin`'s snapshot. Same epoch: no-op. Newer
  /// epoch with unchanged rules, term store and signature (a fact-only
  /// republish): keeps the clone and every materialized entry - plans
  /// and magic rewrites are pure functions of the rules, and demand
  /// facts are read from the pinned snapshot at execution time (a
  /// rewrite's compiled program is kept too, and recompiled by the
  /// next request only if the statistics it was planned from moved).
  /// Anything else: re-clones store/program and drops all entries.
  /// Either way re-lists the worker's fact `seed`.
  void BindWorker(Worker* w, const PinnedSnapshot& pin);
  /// Parses/validates/plans queries_[query] into w->entries[query].
  QueryEntry& Materialize(Worker* w, const Snapshot& snap, size_t query);
  ServeAnswer ExecuteOne(Worker* w, const Snapshot& snap,
                         const ServeRequest& request,
                         std::chrono::steady_clock::time_point batch_deadline);
  /// ExecuteOne's work: fills *out and returns the answer's status
  /// (*admission = rejected before any work). Everything the request
  /// allocates is freed before it returns, inside the timed span.
  Status Answer(Worker* w, const Snapshot& snap, const ServeRequest& request,
                std::chrono::steady_clock::time_point t0,
                std::chrono::steady_clock::time_point batch_deadline,
                bool* admission, ServeAnswer* out);

  SnapshotRegistry* registry_;
  ServeOptions options_;
  WorkerPool pool_;
  std::vector<Worker> workers_;  // one per lane, sized pool_.size()

  /// Serializes Prepare/ExecuteBatch (one batch in flight at a time)
  /// and guards queries_/stats_.
  mutable std::mutex mu_;
  std::vector<std::string> queries_;  // goal text by id
  ServeStats stats_;
};

}  // namespace lps::serve

#endif  // LPS_SERVE_SERVER_H_
