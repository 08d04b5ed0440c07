#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <functional>

#include "api/goal_exec.h"
#include "base/hash.h"
#include "eval/flat_join.h"
#include "parse/parser.h"
#include "serve/resolve.h"
#include "term/printer.h"
#include "unify/unify.h"

namespace lps::serve {

namespace {

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0)
      .count();
}

// Rendered-row emission: surface syntax is the one representation two
// workers (or a worker and a sequential ground-truth run) agree on -
// post-freeze TermIds may differ per private store, rendered text never
// does. The checksum is a sum of mixed row hashes, so it is invariant
// under answer order.
void EmitRow(const TermStore& store, TupleRef t, bool record,
             ServeAnswer* out) {
  std::string row = TermListToString(store, t);
  row.insert(row.begin(), '(');
  row.push_back(')');
  out->checksum += Mix64(std::hash<std::string>{}(row));
  ++out->count;
  if (record) out->rows.push_back(std::move(row));
}

void MergeCounters(ServeStats* into, const ServeStats& d) {
  into->queries += d.queries;
  into->demand_queries += d.demand_queries;
  into->scan_queries += d.scan_queries;
  into->builtin_queries += d.builtin_queries;
  into->empty_fast_path += d.empty_fast_path;
  into->errors += d.errors;
  into->answers += d.answers;
  into->rewrites_built += d.rewrites_built;
  into->rewrite_cache_hits += d.rewrite_cache_hits;
  into->demand_compiles += d.demand_compiles;
  into->index_misses += d.index_misses;
  into->worker_rebinds += d.worker_rebinds;
  into->worker_refreshes += d.worker_refreshes;
  into->deadline_exceeded += d.deadline_exceeded;
  into->admission_rejected += d.admission_rejected;
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double pos = p * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<size_t>(pos + 0.5)];
}

}  // namespace

QueryServer::QueryServer(SnapshotRegistry* registry, ServeOptions options)
    : registry_(registry),
      options_(options),
      pool_(WorkerPool::ResolveLanes(options.threads)),
      workers_(pool_.size()) {}

void QueryServer::BindWorker(Worker* w, const PinnedSnapshot& pin) {
  if (w->store != nullptr && w->epoch == pin.epoch()) return;
  const Snapshot& snap = *pin.snapshot();
  if (w->store != nullptr && w->rule_epoch == snap.rule_epoch() &&
      w->store_size == snap.store_size() &&
      w->sig_preds == snap.signature().size()) {
    // Fact-only republish: the rules, the frozen term-id prefix and
    // the predicate table are all unchanged, so the worker's clone,
    // goal plans and cached magic rewrites stay valid (rewrites carry
    // no facts; ExecuteOne reads facts from the pinned snapshot). Only
    // advance the epoch.
    w->epoch = pin.epoch();
    ++w->delta.worker_refreshes;
  } else {
    w->store = snap.store().Clone();
    w->program =
        std::make_unique<Program>(snap.program().CloneInto(w->store.get()));
    w->entries.clear();
    w->epoch = pin.epoch();
    w->rule_epoch = snap.rule_epoch();
    w->store_size = snap.store_size();
    w->sig_preds = snap.signature().size();
    ++w->delta.worker_rebinds;
  }
  // What a demand request over this snapshot seeds, listed once per
  // epoch (facts change on a refresh too) instead of per request.
  w->seed = snap.database().ListFactSeed(snap.program());
}

QueryServer::QueryEntry& QueryServer::Materialize(Worker* w,
                                                  const Snapshot& snap,
                                                  size_t query) {
  if (w->entries.size() < queries_.size()) {
    w->entries.resize(queries_.size());
  }
  QueryEntry& e = w->entries[query];
  if (e.materialized) return e;
  e.materialized = true;
  Result<Literal> goal = ParseGoalText(queries_[query], snap.mode(),
                                       w->store.get(),
                                       &w->program->signature());
  Result<PreparedGoal> prepared =
      goal.ok() ? PrepareGoal(*w->store, *w->program, snap.mode(),
                              *std::move(goal))
                : goal.status();
  if (prepared.ok()) {
    e.prepared = *std::move(prepared);
  } else {
    e.error = prepared.status();
  }
  return e;
}

ServeAnswer QueryServer::ExecuteOne(
    Worker* w, const Snapshot& snap, const ServeRequest& req,
    Clock::time_point batch_deadline) {
  const Clock::time_point t0 = Clock::now();
  ServeAnswer out;
  ++w->delta.queries;
  bool admission = false;  // rejected before any work (vs cut mid-flight)
  out.status = Answer(w, snap, req, t0, batch_deadline, &admission, &out);
  // Stamped once Answer has returned, so the service time includes
  // freeing what the request allocated (its private database above all).
  out.micros = MicrosSince(t0);
  w->latencies.push_back(out.micros);
  w->delta.answers += out.count;
  if (!out.status.ok()) {
    if (out.status.code() == StatusCode::kDeadlineExceeded) {
      // Policy outcome, not a malfunction: tracked separately so
      // `errors` keeps meaning "something went wrong".
      if (admission) {
        ++w->delta.admission_rejected;
      } else {
        ++w->delta.deadline_exceeded;
      }
    } else {
      ++w->delta.errors;
    }
  }
  return out;
}

Status QueryServer::Answer(Worker* w, const Snapshot& snap,
                           const ServeRequest& req, Clock::time_point t0,
                           Clock::time_point batch_deadline, bool* admission,
                           ServeAnswer* out) {
  // ---- Admission control ---------------------------------------------
  // Effective deadline = min(batch deadline, request start + timeout);
  // either side absent (zero) drops out. A request whose turn comes
  // after the deadline has already passed is rejected without doing
  // any work, so one pathological lane-mate cannot make this request
  // burn budget it no longer has.
  const double timeout_micros =
      req.timeout_micros > 0 ? req.timeout_micros
                             : options_.default_timeout_micros;
  Clock::time_point deadline = batch_deadline;
  if (timeout_micros > 0) {
    const Clock::time_point request_deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double, std::micro>(timeout_micros));
    if (deadline == Clock::time_point{} || request_deadline < deadline) {
      deadline = request_deadline;
    }
  }
  if (deadline != Clock::time_point{} && t0 >= deadline) {
    *admission = true;
    out->note = "admission rejected: deadline expired before start";
    return Status::DeadlineExceeded(
        "admission rejected: deadline expired before request start");
  }
  const size_t max_tuples =
      req.max_tuples > 0 ? req.max_tuples : options_.default_max_tuples;
  // True when the row cap was reached (emission should stop; the
  // answer stays OK but is marked partial).
  auto capped = [&]() -> bool {
    if (max_tuples == 0 || out->count < max_tuples) return false;
    out->partial = true;
    if (out->note.empty()) out->note = "truncated: max_tuples reached";
    return true;
  };

  if (req.query >= queries_.size()) {
    return Status::InvalidArgument("unknown query id " +
                                   std::to_string(req.query));
  }
  QueryEntry& e = Materialize(w, snap, req.query);
  if (!e.error.ok()) return e.error;
  const Literal& goal = e.prepared.goal;

  TermStore* store = w->store.get();
  const BuiltinOptions& builtins = snap.options().builtins;

  // ---- Resolve parameters read-only against the worker store --------
  struct Param {
    TermId var;
    TermId id;
    MissKind miss;
    const std::string* text;
  };
  std::vector<Param> params;
  params.reserve(req.params.size());
  MissKind worst = MissKind::kNone;
  for (const auto& [name, text] : req.params) {
    TermId var = kInvalidTerm;
    for (TermId v : e.prepared.vars) {
      if (store->symbols().Name(store->symbol(v)) == name) {
        var = v;
        break;
      }
    }
    if (var == kInvalidTerm) {
      return Status::NotFound("goal " + queries_[req.query] +
                              " has no variable " + name);
    }
    Result<Resolution> r = TryResolveGroundTerm(*store, text);
    if (!r.ok()) return r.status();
    Resolution res = *r;
    if (res.missing == MissKind::kNone && res.id >= snap.store_size()) {
      // Interned into this worker's scratch by an earlier request: the
      // id exists but is younger than the freeze, so it occurs in no
      // snapshot row. Classified exactly like a fresh miss; the id is
      // kept so the demand path can bind it without re-interning.
      res.missing = store->kind(res.id) == TermKind::kConstant
                        ? MissKind::kConstant
                        : MissKind::kOther;
    }
    if (res.missing == MissKind::kConstant) {
      worst = MissKind::kConstant;
    } else if (res.missing == MissKind::kOther &&
               worst == MissKind::kNone) {
      worst = MissKind::kOther;
    }
    params.push_back({var, res.id, res.missing, &text});
  }

  const bool is_builtin = w->program->signature().IsBuiltin(goal.pred);
  const bool demand_route = !is_builtin && e.prepared.plan.demand_candidate;

  // The empty fast path (serve/resolve.h): a missing plain constant is
  // underivable - empty on every route; a missing int/set/function
  // term is empty on a pure snapshot scan, but a demand evaluation
  // could still derive it, and a builtin could compute it, so those
  // routes intern into the scratch store and run.
  if (!is_builtin && (worst == MissKind::kConstant ||
                      (worst != MissKind::kNone && !demand_route))) {
    ++w->delta.empty_fast_path;
    out->note = "empty fast path: parameter not in snapshot";
    return Status::OK();
  }

  // ---- Bind ----------------------------------------------------------
  Substitution bindings;
  for (Param& p : params) {
    if (p.id == kInvalidTerm) {
      Result<TermId> interned = InternGroundTerm(store, *p.text);
      if (!interned.ok()) return interned.status();
      p.id = *interned;
    }
    if (!SortAllowsBinding(*store, p.var, p.id)) {
      return Status::SortError("parameter value " + *p.text +
                               " has the wrong sort for goal " +
                               queries_[req.query]);
    }
    bindings.Bind(p.var, p.id);
  }

  if (is_builtin) {
    // Builtin goals run their plan against the snapshot's active
    // domains; computed terms (sums, unions) intern into the scratch.
    ++w->delta.builtin_queries;
    std::vector<Tuple> rows;
    LPS_RETURN_IF_ERROR(AnswerBuiltinGoal(store, snap.database(), builtins,
                                          goal, e.prepared.plan.body.steps,
                                          bindings, &rows));
    for (const Tuple& t : rows) {
      if (capped()) break;
      EmitRow(*store, t, options_.record_answers, out);
    }
    return Status::OK();
  }

  AppliedGoal applied = ApplyGoal(store, goal, bindings);
  // Renders `src`'s rows into *out until the cap or the deadline, which
  // it probes per row through the evaluator's CheckDeadline countdown.
  auto stream = [&](RelationScanSource* src) -> Status {
    TupleRef t;
    uint32_t deadline_tick = 0;
    for (;;) {
      if (capped()) return Status::OK();
      if (!CheckDeadline(deadline, &deadline_tick).ok()) {
        out->partial = true;
        return Status::DeadlineExceeded("deadline exceeded streaming answers");
      }
      Result<bool> more = src->Next(&t);
      if (!more.ok()) return more.status();
      if (!*more) return Status::OK();
      EmitRow(*store, t, options_.record_answers, out);
    }
  };
  // Read-only stream over the frozen snapshot relation (prebuilt
  // indexes or a bounded scan; never a lazy build). It answers every
  // goal demand does not: the snapshot already holds the fixpoint
  // (Snapshot::converged), so the scan answers are complete.
  auto scan = [&]() -> Status {
    ++w->delta.scan_queries;
    RelationScanSource src(store, builtins.unify,
                           snap.database().FindRelation(goal.pred),
                           std::move(applied));
    if (!src.index_hit()) ++w->delta.index_misses;
    return stream(&src);
  };
  if (!demand_route || !applied.any_bound) return scan();

  // ---- Demand (magic-set) evaluation in a private database -----------
  bool built = false;
  LPS_ASSIGN_OR_RETURN(DemandRewriteCache::Entry* entry,
                       e.rewrites.Get(*w->program, goal, applied,
                                      snap.database(), snap.options().reorder,
                                      &built));
  if (built) {
    ++w->delta.rewrites_built;
  } else {
    ++w->delta.rewrite_cache_hits;
  }
  if (entry->rewrite == nullptr) {
    out->note = "demand fallback: " + entry->fallback_reason;
    return scan();
  }
  ++w->delta.demand_queries;
  const MagicProgram& rw = *entry->rewrite;
  EvalOptions eval_opts = snap.options().eval();
  eval_opts.threads = 1;  // lanes are the parallelism; no nested pools
  // Cooperative deadline inside the fixpoint (eval/bottomup.h): a
  // pathological goal returns a typed kDeadlineExceeded instead of
  // starving this lane for the rest of the batch.
  eval_opts.deadline = deadline;
  // The facts come from the pinned snapshot. Sound against the worker
  // store because a refresh requires store_size equality - every fact
  // term id sits inside the shared frozen prefix. The snapshot is
  // const, so it is no index home: an index the snapshot lacks is
  // built on a copy (Database::EnsureIndex).
  Database db(store, &rw.program.signature());
  bool compiled = false;
  Status es = EvaluateDemand(entry, applied, snap.database(), w->seed,
                             nullptr, eval_opts, &db, nullptr, &compiled);
  if (compiled) ++w->delta.demand_compiles;
  // An aliased relation that is no longer the snapshot's was copied to
  // build an index the snapshot lacks (FreezeOptions::indexes adds it).
  for (PredicateId p : w->seed.aliased) {
    if (db.FindRelation(p) != snap.database().FindRelation(p)) {
      ++w->delta.index_misses;
      break;
    }
  }
  if (!es.ok()) {
    if (es.code() == StatusCode::kDeadlineExceeded) out->partial = true;
    return es;
  }
  RelationScanSource src(store, builtins.unify,
                         db.EnsureIndex(rw.goal.pred, applied.mask),
                         std::move(applied));
  return stream(&src);
}

Result<size_t> QueryServer::Prepare(const std::string& goal_text) {
  std::lock_guard<std::mutex> lock(mu_);
  PinnedSnapshot pin = registry_->Pin();
  if (pin.snapshot() == nullptr) {
    return Status::InvalidArgument(
        "Prepare before any snapshot was published");
  }
  Worker& w = workers_[0];
  BindWorker(&w, pin);
  queries_.push_back(goal_text);
  const size_t id = queries_.size() - 1;
  QueryEntry& e = Materialize(&w, *pin.snapshot(), id);
  if (!e.error.ok()) {
    Status s = e.error;
    queries_.pop_back();
    w.entries.resize(queries_.size());
    return s;
  }
  return id;
}

Result<ServeAnswer> QueryServer::Execute(const ServeRequest& request) {
  LPS_ASSIGN_OR_RETURN(std::vector<ServeAnswer> answers,
                       ExecuteBatch({request}));
  return std::move(answers[0]);
}

Result<std::vector<ServeAnswer>> QueryServer::ExecuteBatch(
    const std::vector<ServeRequest>& requests) {
  std::lock_guard<std::mutex> lock(mu_);
  PinnedSnapshot pin = registry_->Pin();
  if (pin.snapshot() == nullptr) {
    return Status::InvalidArgument(
        "ExecuteBatch before any snapshot was published");
  }
  const Clock::time_point t0 = Clock::now();
  // One deadline for the whole batch (zero timeout = none): requests
  // already past it when their turn comes are admission-rejected.
  Clock::time_point batch_deadline{};
  if (options_.batch_timeout_micros > 0) {
    batch_deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double, std::micro>(
                     options_.batch_timeout_micros));
  }
  std::vector<ServeAnswer> answers(requests.size());
  const Snapshot& snap = *pin.snapshot();
  const size_t lanes = pool_.size();
  // Requests are striped over the lanes; every lane writes disjoint
  // `answers` slots and touches only its own Worker, so the job needs
  // no synchronization. Run's return is the barrier that publishes
  // the workers' writes to the merge below.
  pool_.Run([&](size_t lane) {
    Worker& w = workers_[lane];
    BindWorker(&w, pin);
    for (size_t i = lane; i < requests.size(); i += lanes) {
      answers[i] = ExecuteOne(&w, snap, requests[i], batch_deadline);
    }
  });
  const double batch_micros = MicrosSince(t0);

  std::vector<double> latencies;
  for (Worker& w : workers_) {
    MergeCounters(&stats_, w.delta);
    w.delta = ServeStats{};
    latencies.insert(latencies.end(), w.latencies.begin(),
                     w.latencies.end());
    w.latencies.clear();
  }
  ++stats_.batches;
  // Sharing witnesses of the snapshot this batch served from
  // (overwritten per batch, like the latency profile): how much of it
  // was aliased from its predecessor by FreezeIncremental.
  const CowStats& cow = snap.cow_stats();
  stats_.relations_shared = cow.relations_shared;
  stats_.relations_cloned = cow.relations_cloned;
  stats_.bytes_shared = cow.bytes_shared;
  stats_.store_shared = cow.store_shared;
  stats_.last_batch_micros = batch_micros;
  stats_.last_batch_qps =
      (requests.empty() || batch_micros <= 0)
          ? 0.0
          : static_cast<double>(requests.size()) * 1e6 / batch_micros;
  std::sort(latencies.begin(), latencies.end());
  stats_.p50_us = Percentile(latencies, 0.5);
  stats_.p99_us = Percentile(latencies, 0.99);
  stats_.max_us = latencies.empty() ? 0 : latencies.back();
  return answers;
}

ServeStats QueryServer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace lps::serve
