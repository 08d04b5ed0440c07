// The flat join kernel: one scan -> bind -> recurse loop for every rule
// in the flat fragment (DESIGN.md section 11) - rules whose plan holds
// only kScan steps and kNegated checks on user predicates, with every
// body and head argument a ground term or a plain variable. Such a rule
// binds nothing but plain variables, so a trail of (var, value) pairs
// replaces the general executor's per-row Substitution copies, and it
// never interns a term.
//
// The kernel is a template over two policies:
//  * Rows - when a probe's index is built. Both policies hand the
//    kernel a const Relation* and probe it with the one const
//    Relation::Lookup. LiveRows builds the index a probe needs first
//    (Database::EnsureIndex), because sinks insert while it runs (the
//    evaluator's first pass) or nobody planned its probes beforehand
//    (a retract's checks and propagation); FrozenRows never builds,
//    because nobody writes its database until the join ends
//    (semi-naive delta rounds, maintenance inserts included, and
//    grouping bodies, on any number of lanes, over indexes built
//    before the round).
//  * Sink - what a solution becomes: an inserted tuple, a buffered one,
//    a (key, element) group pair, a rule instance a retract checks.
#ifndef LPS_EVAL_FLAT_JOIN_H_
#define LPS_EVAL_FLAT_JOIN_H_

#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#include "base/status.h"
#include "eval/database.h"
#include "eval/plan.h"
#include "lang/program.h"
#include "unify/unify.h"

namespace lps {

/// Cooperative deadline probe: reads the clock only on every 1024th
/// call (counted through *tick, which the caller owns), so the per-step
/// cost is one branch and an increment. Returns kDeadlineExceeded once
/// `deadline` has passed; always OK when no deadline is set (the epoch,
/// time_point{}).
inline Status CheckDeadline(std::chrono::steady_clock::time_point deadline,
                            uint32_t* tick) {
  if (deadline == std::chrono::steady_clock::time_point{}) {
    return Status::OK();
  }
  if ((++*tick & 1023u) != 0) return Status::OK();
  if (std::chrono::steady_clock::now() >= deadline) {
    return Status::DeadlineExceeded("evaluation deadline exceeded");
  }
  return Status::OK();
}

/// Trail-based variable bindings: a small undo stack with linear lookup.
struct FlatBindings {
  std::vector<std::pair<TermId, TermId>> binds;
  size_t Mark() const { return binds.size(); }
  void Undo(size_t mark) { binds.resize(mark); }
  void Bind(TermId var, TermId value) { binds.emplace_back(var, value); }
  TermId Apply(const TermStore& store, TermId term) const {
    if (store.node(term).kind != TermKind::kVariable) return term;
    for (auto it = binds.rbegin(); it != binds.rend(); ++it) {
      if (it->first == term) return it->second;
    }
    return term;
  }
};

/// Delta restriction for one scan literal. Range mode (rows == nullptr)
/// restricts the scan to arena rows [begin, end) - a contiguous
/// semi-naive watermark window - and skips tombstones. Rows mode
/// restricts it to the explicit RowIds rows[begin..end), which sit at
/// arbitrary arena positions (the rows a round's inserts revived, the
/// rows a retract deletes) and are taken as given, tombstoned or not. Either way
/// the scan walks the delta itself and re-checks every bound column.
struct DeltaSpec {
  static constexpr size_t kNone = static_cast<size_t>(-1);
  size_t literal_index = kNone;
  size_t begin = 0;
  size_t end = 0;
  const std::vector<RowId>* rows = nullptr;
};

/// One kernel run: `steps` of `clause`'s body, with `delta` restricting
/// the scan of one literal (or none, literal_index == kNone).
struct FlatJob {
  const Clause* clause = nullptr;
  const std::vector<PlanStep>* steps = nullptr;
  DeltaSpec delta;
};

/// Per-run kernel state, reusable across runs so a steady-state join
/// allocates nothing per row: the binding trail, a probe key and a
/// probe-hit buffer per plan depth, and the deadline countdown.
struct FlatScratch {
  FlatBindings binds;
  std::vector<Tuple> keys;
  std::vector<std::vector<RowId>> hits;
  std::chrono::steady_clock::time_point deadline{};
  uint32_t deadline_tick = 0;
};

/// Rows policy for a database that changes while the join runs: each
/// probe first brings its index up to date with what earlier sinks
/// inserted. Database::EnsureIndex copies a shared relation rather
/// than index it in place, so the join may read relations shared with
/// another database.
class LiveRows {
 public:
  explicit LiveRows(Database* db) : db_(db) {}
  const Relation* Find(PredicateId pred) const {
    return db_->FindRelation(pred);
  }
  /// Fills `hits` and returns the relation it probed (null when
  /// absent): one relation-map lookup per probe.
  const Relation* Probe(PredicateId pred, uint32_t mask, TupleRef key,
                        std::vector<RowId>* hits) {
    const Relation* rel = db_->EnsureIndex(pred, mask);
    if (rel != nullptr) rel->Lookup(mask, key, hits);
    return rel;
  }
  bool Contains(PredicateId pred, TupleRef t) const {
    return db_->Contains(pred, t);
  }

 private:
  Database* db_;
};

/// Rows policy for a database frozen for the join's duration: pure
/// reads, safe from any number of lanes. The caller builds the indexes
/// the join probes beforehand; a probe that finds none scans instead
/// (correct, but counted in fallbacks()).
class FrozenRows {
 public:
  explicit FrozenRows(const Database* db) : db_(db) {}
  const Relation* Find(PredicateId pred) const {
    return db_->FindRelation(pred);
  }
  const Relation* Probe(PredicateId pred, uint32_t mask, TupleRef key,
                        std::vector<RowId>* hits) {
    const Relation* rel = db_->FindRelation(pred);
    if (rel != nullptr && !rel->Lookup(mask, key, hits)) ++fallbacks_;
    return rel;
  }
  bool Contains(PredicateId pred, TupleRef t) const {
    return db_->Contains(pred, t);
  }
  size_t fallbacks() const { return fallbacks_; }

 private:
  const Database* db_;
  size_t fallbacks_ = 0;
};

/// Builds the ground head tuple of `head` into *out, resolving each
/// argument through `apply`. Shared by both executors, so an unsafe
/// clause fails with the same message whichever one runs it.
template <typename Apply>
Status BuildHead(const Program& program, const Literal& head, Apply apply,
                 Tuple* out) {
  out->clear();
  for (TermId a : head.args) {
    TermId t = apply(a);
    if (!program.store()->is_ground(t)) {
      return Status::SafetyError(
          "head variable not bound by the body in clause for " +
          program.signature().Name(head.pred) + " (unsafe clause)");
    }
    out->push_back(t);
  }
  return Status::OK();
}

/// Sink that hands each derived ground head tuple to `fn` (Status
/// fn(const Tuple&)); the tuple is a reused buffer, so `fn` copies what
/// it keeps.
template <typename Fn>
class HeadSink {
 public:
  HeadSink(const Program& program, const Literal& head, Fn fn)
      : program_(program), head_(head), fn_(std::move(fn)) {}
  Status Emit(const FlatBindings& binds) {
    const TermStore& store = *program_.store();
    LPS_RETURN_IF_ERROR(BuildHead(
        program_, head_, [&](TermId a) { return binds.Apply(store, a); },
        &out_));
    return fn_(out_);
  }
  bool Done() const { return false; }

 private:
  const Program& program_;
  const Literal& head_;
  Fn fn_;
  Tuple out_;
};

/// The kernel. Run() executes a job from the bindings already on the
/// trail (a retract's check pre-binds the head) and restores the trail
/// before returning. Every step visits its rows in a fixed order, so a
/// job whose delta literal is its outermost scan emits the same stream
/// whether its delta runs whole or split into consecutive chunks - what
/// makes a merged round independent of the lane count.
template <typename Rows, typename Sink>
class FlatJoin {
 public:
  FlatJoin(const Program& program, Rows* rows, Sink* sink,
           FlatScratch* scratch)
      : store_(*program.store()),
        sig_(program.signature()),
        rows_(rows),
        sink_(sink),
        s_(scratch) {}

  Status Run(const FlatJob& job) {
    job_ = &job;
    if (s_->keys.size() < job.steps->size()) {
      s_->keys.resize(job.steps->size());
      s_->hits.resize(job.steps->size());
    }
    return Step(0);
  }

 private:
  Status Step(size_t idx) {
    LPS_RETURN_IF_ERROR(CheckDeadline(s_->deadline, &s_->deadline_tick));
    const std::vector<PlanStep>& steps = *job_->steps;
    if (idx == steps.size()) return sink_->Emit(s_->binds);
    const PlanStep& step = steps[idx];
    const Literal& lit = job_->clause->body[step.literal_index];

    // key[i] is column i's value where the trail already determines it
    // (kInvalidTerm otherwise); mask has the index-addressable ones.
    Tuple& key = s_->keys[idx];
    key.resize(lit.args.size());
    uint32_t mask = 0;
    bool all_bound = true;
    for (size_t i = 0; i < lit.args.size(); ++i) {
      TermId v = s_->binds.Apply(store_, lit.args[i]);
      if (store_.IsVariable(v)) {
        key[i] = kInvalidTerm;
        all_bound = false;
      } else {
        key[i] = v;
        mask |= ColumnBit(i);
      }
    }

    if (step.kind == StepKind::kNegated) {
      // Stratification puts negated predicates in strictly lower
      // strata, so their relations are final here.
      if (!all_bound) {
        return Status::SafetyError(
            "literal " + sig_.Name(lit.pred) +
            " is not ground where a ground check is required (unsafe "
            "clause?)");
      }
      return rows_->Contains(lit.pred, key) ? Status::OK() : Step(idx + 1);
    }
    if (step.kind != StepKind::kScan) {
      return Status::Internal("non-flat plan step in the flat join kernel");
    }

    // One relation-map lookup per scan: a probe when the literal has
    // bound columns an index can serve, else a find of the relation to
    // walk.
    const DeltaSpec& delta = job_->delta;
    const bool is_delta = delta.literal_index == step.literal_index;
    std::vector<RowId>& hits = s_->hits[idx];
    const Relation* rel = !is_delta && !all_bound && mask != 0
                              ? rows_->Probe(lit.pred, mask, key, &hits)
                              : rows_->Find(lit.pred);
    if (rel == nullptr) return Status::OK();
    if (is_delta) {
      // Walk the delta itself: intersecting an index probe with it
      // would cost more than re-checking the bound columns per row.
      for (size_t i = delta.begin; i < delta.end && !sink_->Done(); ++i) {
        RowId r = delta.rows != nullptr ? (*delta.rows)[i]
                                        : static_cast<RowId>(i);
        if (delta.rows == nullptr && !rel->IsLive(r)) continue;
        LPS_RETURN_IF_ERROR(TryRow(*rel, lit, key, r, idx));
      }
      return Status::OK();
    }
    if (all_bound) {
      // One dedup probe (Find skips tombstones); no full-width index.
      return rel->Find(key) == Relation::kNoRow ? Status::OK()
                                                : Step(idx + 1);
    }
    if (mask == 0) {
      // Rows a sink appends during the walk land past n and are left
      // to later probes.
      const size_t n = rel->size();
      for (size_t i = 0; i < n && !sink_->Done(); ++i) {
        RowId r = static_cast<RowId>(i);
        if (!rel->IsLive(r)) continue;
        LPS_RETURN_IF_ERROR(TryRow(*rel, lit, key, r, idx));
      }
      return Status::OK();
    }
    // Lookup lists live rows only.
    for (RowId r : hits) {
      if (sink_->Done()) break;
      LPS_RETURN_IF_ERROR(TryRow(*rel, lit, key, r, idx));
    }
    return Status::OK();
  }

  // Binds row r against `lit` and recurses. The row view is read only
  // before the recursion: a sink's insert may move the arena.
  Status TryRow(const Relation& rel, const Literal& lit, const Tuple& key,
                RowId r, size_t idx) {
    TupleRef row = rel.row(r);
    const size_t mark = s_->binds.Mark();
    bool ok = true;
    for (size_t i = 0; i < lit.args.size() && ok; ++i) {
      if (key[i] != kInvalidTerm) {
        ok = row[i] == key[i];
        continue;
      }
      // A variable repeated earlier in this literal is bound by now.
      TermId v = s_->binds.Apply(store_, lit.args[i]);
      if (!store_.IsVariable(v)) {
        ok = v == row[i];
      } else if (SortAllowsBinding(store_, v, row[i])) {
        s_->binds.Bind(v, row[i]);
      } else {
        ok = false;
      }
    }
    Status st = ok ? Step(idx + 1) : Status::OK();
    s_->binds.Undo(mark);
    return st;
  }

  const TermStore& store_;
  const Signature& sig_;
  Rows* rows_;
  Sink* sink_;
  FlatScratch* s_;
  const FlatJob* job_ = nullptr;
};

}  // namespace lps

#endif  // LPS_EVAL_FLAT_JOIN_H_
