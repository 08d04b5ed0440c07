#include "eval/incremental.h"

#include <unordered_map>
#include <unordered_set>

#include "unify/unify.h"

namespace lps {

namespace {

// Early-stop sentinel threaded out of ExecSteps by the re-derivation
// continuation: the first witness ends the search. kAlreadyExists is
// never produced by body execution, so the pair (code, message) cannot
// collide with a real error.
constexpr char kWitnessMsg[] = "incremental rederive witness";

bool IsWitness(const Status& st) {
  return st.code() == StatusCode::kAlreadyExists &&
         st.message() == kWitnessMsg;
}

}  // namespace

IncrementalMaintainer::IncrementalMaintainer(const Program* program,
                                             Database* db,
                                             EvalOptions options)
    : program_(program), db_(db), eval_(program, db, options) {}

Result<bool> IncrementalMaintainer::Maintain(
    const std::vector<FactOp>& inserts,
    const std::vector<FactOp>& retracts, const FactCounts& edb_counts) {
  ineligible_reason_.clear();
  edb_counts_ = &edb_counts;
  LPS_RETURN_IF_ERROR(eval_.CompileRules());

  // Eligibility: deletion is only invertible rule-by-rule in the Horn
  // fragment. Negation and grouping are non-monotone (a deletion can
  // create tuples), and quantified / enumerating rules observe whole
  // domains rather than deltas; any of them forces a full re-fixpoint.
  for (const auto& rule : eval_.rules_) {
    if (!rule.horn_simple) {
      ineligible_reason_ =
          "rule outside the Horn fragment (quantifier, grouping, or "
          "domain enumeration): " +
          program_->signature().Name(rule.clause->head.pred);
      return false;
    }
    for (const Literal& lit : rule.clause->body) {
      if (!lit.positive) {
        ineligible_reason_ =
            "negated body literal in rule for " +
            program_->signature().Name(rule.clause->head.pred);
        return false;
      }
    }
  }

  LPS_RETURN_IF_ERROR(Retract(retracts));
  LPS_RETURN_IF_ERROR(Insert(inserts));

  // Cheap storage counters only: IndexBytes walks every posting
  // bucket, far more work than a small batch itself. The caller keeps
  // the last fully computed index_bytes.
  Database::StorageStats storage =
      db_->storage_stats(/*with_index_bytes=*/false);
  eval_.stats_.arena_bytes = storage.arena_bytes;
  eval_.stats_.dedup_probes = storage.dedup_probes;
  return true;
}

Status IncrementalMaintainer::Retract(const std::vector<FactOp>& retracts) {
  const Signature& sig = program_->signature();

  // The over-deleted set, per predicate: `rows` in discovery order (the
  // frontier is a slice of it), `member` for dedup. References into
  // this map stay valid across inserts (unordered_map is node-based).
  struct Deleted {
    std::vector<RowId> rows;
    std::unordered_set<RowId> member;
  };
  std::unordered_map<PredicateId, Deleted> deleted;
  size_t total = 0;
  auto record = [&](PredicateId pred, RowId r) {
    Deleted& d = deleted[pred];
    if (!d.member.insert(r).second) return false;
    d.rows.push_back(r);
    ++total;
    return true;
  };
  for (const FactOp& op : retracts) {
    RowId r = db_->FindRow(op.pred, op.args);
    if (r != Relation::kNoRow) record(op.pred, r);  // absent: no-op
  }
  if (total == 0) return Status::OK();

  // Over-delete fixpoint (DRed phase 1): grow the set with every tuple
  // that has a derivation through an already-condemned one. All rows
  // stay live for the duration - the over-estimate deliberately joins
  // against the pre-batch database - so the condemned frontier is fed
  // to the scans as an explicit-rows delta.
  std::unordered_map<PredicateId, size_t> frontier_done;
  for (;;) {
    ++eval_.stats_.delta_rounds;
    std::unordered_map<PredicateId, std::pair<size_t, size_t>> frontier;
    for (auto& [pred, d] : deleted) {
      size_t begin = frontier_done.count(pred) ? frontier_done[pred] : 0;
      if (begin < d.rows.size()) frontier[pred] = {begin, d.rows.size()};
      frontier_done[pred] = d.rows.size();
    }
    if (frontier.empty()) break;
    for (auto& rule : eval_.rules_) {
      const Literal& head = rule.clause->head;
      auto condemn = [&](const Tuple& out) -> Status {
        RowId r = db_->FindRow(head.pred, out);
        if (r != Relation::kNoRow && record(head.pred, r)) {
          ++eval_.stats_.tuples_derived;
        }
        return Status::OK();
      };
      for (size_t li : rule.plan.free_literals) {
        const Literal& lit = rule.clause->body[li];
        if (!lit.positive || sig.IsBuiltin(lit.pred)) continue;
        auto fit = frontier.find(lit.pred);
        if (fit == frontier.end()) continue;
        ++eval_.stats_.rule_runs;
        LPS_RETURN_IF_ERROR(RunDelta(
            rule,
            DeltaSpec{li, fit->second.first, fit->second.second,
                      &deleted[lit.pred].rows},
            condemn));
      }
    }
  }
  eval_.stats_.overdeleted_tuples += total;

  // Phase boundary: tombstone the whole over-deleted set at once, so
  // re-derivation sees exactly the surviving under-approximation.
  for (auto& [pred, d] : deleted) {
    for (RowId r : d.rows) db_->EraseRow(pred, r);
  }

  std::unordered_map<PredicateId,
                     std::vector<const BottomUpEvaluator::CompiledRule*>>
      rules_by_head;
  for (const auto& rule : eval_.rules_) {
    rules_by_head[rule.clause->head.pred].push_back(&rule);
  }

  // Tuple -> still-dead condemned row, so the propagation pass can
  // recognize a freshly derived head as a revivable casualty.
  std::unordered_map<PredicateId,
                     std::unordered_map<Tuple, RowId, TupleHash>>
      dead_index;
  for (auto& [pred, d] : deleted) {
    const Relation* rel = db_->FindRelation(pred);
    auto& by_tuple = dead_index[pred];
    for (RowId r : d.rows) {
      TupleRef t = rel->row(r);
      by_tuple.emplace(Tuple(t.begin(), t.end()), r);
    }
  }

  // Revived rows per predicate in revival order; the propagation
  // frontier below is a window of it (same shape as the over-delete
  // pass). Reviving keeps the arena row, so RowIds stay stable.
  std::unordered_map<PredicateId, std::vector<RowId>> revived;
  auto revive = [&](PredicateId pred, RowId r) {
    db_->ReviveRow(pred, r);
    revived[pred].push_back(r);
    ++eval_.stats_.rederived_tuples;
  };

  // Re-derivation (DRed phase 2). The maintainable fragment is
  // positive Horn, so re-derivation is a *monotone* fixpoint and needs
  // no stratification. EDB facts of the post-batch program revive
  // unconditionally first: one probe of the fact-count index per
  // casualty.
  for (const auto& [pred, by_tuple] : dead_index) {
    auto pit = edb_counts_->find(pred);
    if (pit == edb_counts_->end()) continue;
    const Relation* rel = db_->FindRelation(pred);
    for (const auto& [args, row] : by_tuple) {
      if (!rel->IsLive(row) && pit->second.count(args) > 0) {
        revive(pred, row);
      }
    }
  }

  // Then one counting-style witness sweep: a casualty revives iff the
  // surviving database still derives it (head-bound body search, first
  // witness wins). For non-recursive programs this sweep is already
  // complete.
  Tuple tuple;
  for (auto& [pred, d] : deleted) {
    auto rit = rules_by_head.find(pred);
    const Relation* rel = db_->FindRelation(pred);
    for (RowId r : d.rows) {
      if (rel->IsLive(r)) continue;  // already revived as an EDB fact
      {
        TupleRef view = rel->row(r);
        tuple.assign(view.begin(), view.end());
      }
      bool alive = false;
      if (rit != rules_by_head.end()) {
        for (const auto* rule : rit->second) {
          LPS_ASSIGN_OR_RETURN(alive, Derives(*rule, tuple));
          if (alive) break;
        }
      }
      if (alive) revive(pred, r);
    }
  }

  // Then propagate: each revival can re-support further casualties, so
  // delta-join the newly revived rows through the rules (explicit-rows
  // delta, exactly like the over-delete pass) and revive any derived
  // head that is a still-dead casualty - never a repeated sweep over
  // the whole condemned set.
  std::unordered_map<PredicateId, size_t> prop_done;
  for (;;) {
    ++eval_.stats_.delta_rounds;
    std::unordered_map<PredicateId, std::pair<size_t, size_t>> frontier;
    for (auto& [pred, rows] : revived) {
      size_t begin = prop_done.count(pred) ? prop_done[pred] : 0;
      if (begin < rows.size()) frontier[pred] = {begin, rows.size()};
      prop_done[pred] = rows.size();
    }
    if (frontier.empty()) break;
    for (auto& rule : eval_.rules_) {
      const Literal& head = rule.clause->head;
      auto dit = dead_index.find(head.pred);
      if (dit == dead_index.end()) continue;  // head cannot be dead
      auto rederive = [&](const Tuple& out) -> Status {
        auto hit = dit->second.find(out);
        if (hit != dit->second.end() &&
            !db_->FindRelation(head.pred)->IsLive(hit->second)) {
          revive(head.pred, hit->second);
        }
        return Status::OK();
      };
      for (size_t li : rule.plan.free_literals) {
        const Literal& lit = rule.clause->body[li];
        if (!lit.positive || sig.IsBuiltin(lit.pred)) continue;
        auto fit = frontier.find(lit.pred);
        if (fit == frontier.end()) continue;
        ++eval_.stats_.rule_runs;
        LPS_RETURN_IF_ERROR(RunDelta(
            rule,
            DeltaSpec{li, fit->second.first, fit->second.second,
                      &revived[lit.pred]},
            rederive));
      }
    }
  }
  return Status::OK();
}

template <typename Fn>
Status IncrementalMaintainer::RunDelta(
    const BottomUpEvaluator::CompiledRule& rule, const DeltaSpec& spec,
    Fn fn) {
  const std::vector<PlanStep>& steps = rule.DeltaSteps(spec.literal_index);
  if (rule.parallel_safe) {
    LiveRows rows(db_);
    HeadSink sink(*program_, rule.clause->head, fn);
    return FlatJoin(*program_, &rows, &sink, &scratch_)
        .Run(FlatJob{rule.clause, &steps, spec});
  }
  TermStore* store = program_->store();
  Substitution theta;
  Tuple out;
  return eval_.ExecSteps(
      rule, steps, 0, &theta, &spec, [&](Substitution* t) -> Status {
        LPS_RETURN_IF_ERROR(BuildHead(
            *program_, rule.clause->head,
            [&](TermId a) { return t->Apply(store, a); }, &out));
        return fn(out);
      });
}

Result<bool> IncrementalMaintainer::Derives(
    const BottomUpEvaluator::CompiledRule& rule, const Tuple& t) {
  const Literal& head = rule.clause->head;
  if (head.args.size() != t.size()) return false;
  if (rule.parallel_safe) {
    // Bind the head against the target through the sort check a body
    // scan makes, then search the body for a first witness. The trail
    // is empty between kernel runs and is left that way.
    const TermStore& store = *program_->store();
    FlatBindings& binds = scratch_.binds;
    bool ok = true;
    for (size_t i = 0; i < head.args.size() && ok; ++i) {
      TermId v = binds.Apply(store, head.args[i]);
      if (!store.IsVariable(v)) {
        ok = v == t[i];
      } else if (SortAllowsBinding(store, v, t[i])) {
        binds.Bind(v, t[i]);
      } else {
        ok = false;
      }
    }
    struct WitnessSink {
      bool found = false;
      Status Emit(const FlatBindings&) {
        found = true;
        return Status::OK();
      }
      bool Done() const { return found; }
    } sink;
    Status st = Status::OK();
    if (ok) {
      ++eval_.stats_.rule_runs;
      LiveRows rows(db_);
      FlatJoin join(*program_, &rows, &sink, &scratch_);
      st = join.Run(FlatJob{rule.clause, &rule.plan.free_plan.steps, {}});
    }
    binds.Undo(0);
    LPS_RETURN_IF_ERROR(st);
    return sink.found;
  }
  // Pre-bind the head against the target tuple; each unifier seeds a
  // body search whose scans then run with those columns bound.
  Unifier unifier(program_->store(), eval_.options_.builtins.unify);
  std::vector<Substitution> unifiers;
  LPS_RETURN_IF_ERROR(unifier.EnumerateTuples(
      std::span<const TermId>(head.args.data(), head.args.size()),
      std::span<const TermId>(t.data(), t.size()), &unifiers));
  for (const Substitution& u : unifiers) {
    Substitution theta = u;
    ++eval_.stats_.rule_runs;
    Status st = eval_.ExecSteps(
        rule, rule.plan.free_plan.steps, 0, &theta, nullptr,
        [](Substitution*) {
          return Status::AlreadyExists(kWitnessMsg);
        });
    if (IsWitness(st)) return true;
    LPS_RETURN_IF_ERROR(st);
  }
  return false;
}

Status IncrementalMaintainer::Insert(const std::vector<FactOp>& inserts) {
  const Signature& sig = program_->signature();

  // Watermark every scanned predicate at its pre-batch size, then
  // append the net-new EDB rows: the first delta round joins exactly
  // the batch, later rounds exactly the previous round's derivations
  // (appends are contiguous, so range-mode deltas suffice here).
  std::unordered_map<PredicateId, size_t> mark;
  auto ensure_mark = [&](PredicateId pred) {
    if (!mark.count(pred)) mark[pred] = db_->RelationSize(pred);
  };
  for (const auto& rule : eval_.rules_) {
    for (size_t li : rule.plan.free_literals) {
      const Literal& lit = rule.clause->body[li];
      if (lit.positive && !sig.IsBuiltin(lit.pred)) ensure_mark(lit.pred);
    }
  }
  for (const FactOp& op : inserts) ensure_mark(op.pred);

  // An insert that lands on a tuple DRed tombstoned earlier *revives*
  // its original row, which sits below the watermark - range deltas
  // would silently miss it. Log every reviving insert (seed facts and
  // in-round derivations alike) and feed the rows back as explicit
  // rows-mode deltas each round.
  db_->EnableReviveLog();
  struct ReviveLogGuard {
    Database* db;
    ~ReviveLogGuard() { db->DisableReviveLog(); }
  } revive_guard{db_};

  size_t added = 0;
  for (const FactOp& op : inserts) {
    if (db_->AddTuple(op.pred, op.args)) {
      ++eval_.stats_.tuples_derived;
      ++added;
    }
  }
  if (added == 0) return Status::OK();

  for (;;) {
    if (++eval_.stats_.delta_rounds > eval_.options_.max_iterations) {
      return Status::ResourceExhausted("iteration limit exceeded");
    }
    uint64_t version_before = db_->version();
    std::unordered_map<PredicateId, std::pair<size_t, size_t>> delta;
    for (auto& [pred, m] : mark) {
      size_t end = db_->RelationSize(pred);
      if (m < end) delta[pred] = {m, end};
      m = end;
    }
    // Below-watermark revives since the previous round (revived rows
    // never overlap the append ranges: no erase runs during Insert, so
    // every revived RowId predates the initial marks). Revives on
    // unscanned predicates are dropped, exactly like appends to them.
    std::unordered_map<PredicateId, std::vector<RowId>> revived;
    for (const Database::ReviveEvent& ev : db_->TakeReviveLog()) {
      if (mark.count(ev.pred)) revived[ev.pred].push_back(ev.row);
    }
    if (delta.empty() && revived.empty()) break;
    for (auto& rule : eval_.rules_) {
      auto insert = [&](const Tuple& out) {
        return eval_.AddDerived(rule.clause->head.pred, out);
      };
      for (size_t li : rule.plan.free_literals) {
        const Literal& lit = rule.clause->body[li];
        if (!lit.positive || sig.IsBuiltin(lit.pred)) continue;
        auto it = delta.find(lit.pred);
        if (it != delta.end()) {
          ++eval_.stats_.rule_runs;
          LPS_RETURN_IF_ERROR(RunDelta(
              rule, DeltaSpec{li, it->second.first, it->second.second},
              insert));
        }
        auto rv = revived.find(lit.pred);
        if (rv != revived.end()) {
          ++eval_.stats_.rule_runs;
          LPS_RETURN_IF_ERROR(RunDelta(
              rule, DeltaSpec{li, 0, rv->second.size(), &rv->second},
              insert));
        }
      }
    }
    if (db_->version() == version_before) break;
  }
  return Status::OK();
}

}  // namespace lps
