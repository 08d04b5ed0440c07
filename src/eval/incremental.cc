#include "eval/incremental.h"

#include <algorithm>
#include <span>
#include <utility>

#include "base/id_table.h"
#include "unify/unify.h"

namespace lps {

namespace {

// How a predicate's live rows stand before a retract checks anything.
constexpr uint8_t kSettled = 0;  // no retracted predicate reaches it
                                 // through rule bodies: every row stays
constexpr uint8_t kBase = 1;     // retracted and heads no rule: every row
                                 // but the retracted ones stays
constexpr uint8_t kDerived = 2;  // reached and heads a rule: a row in
                                 // doubt needs a check

// Memo bits of one fact during a retract.
constexpr uint8_t kQueued = 1;      // on the deletion worklist
constexpr uint8_t kChecked = 2;     // visited by a check
constexpr uint8_t kProved = 4;      // derivable from proved facts: stays
constexpr uint8_t kDisproved = 8;   // unproved when its check ended
constexpr uint8_t kRetracted = 16;  // one of the batch's retracted facts

uint64_t FactKey(PredicateId pred, RowId row) {
  return (static_cast<uint64_t>(pred) << 32) | row;
}

// Memo bits per fact, keyed by FactKey: a table that grows with the
// facts a retract touches, never with a relation.
class FactMemo {
 public:
  uint8_t Get(uint64_t key) const {
    const uint32_t i =
        table_.Find(key, [&](uint32_t e) { return keys_[e] == key; });
    return i == IdTable::kNone ? 0 : bits_[i];
  }
  // The bits of `key`, inserted as 0 when absent. The reference is
  // invalidated by the next At().
  uint8_t& At(uint64_t key) {
    const uint32_t fresh = static_cast<uint32_t>(keys_.size());
    const uint32_t i = table_.FindOrInsert(
        key, fresh, [&](uint32_t e) { return keys_[e] == key; },
        [&](uint32_t e) { return keys_[e]; });
    if (i == fresh) {
      keys_.push_back(key);
      bits_.push_back(0);
    }
    return bits_[i];
  }

 private:
  IdTable table_;
  std::vector<uint64_t> keys_;  // by table id
  std::vector<uint8_t> bits_;
};

// Flat-kernel sink handing each solution's bindings to fn(apply); the
// kernel stops walking once *stop is set.
template <typename Fn>
class InstanceSink {
 public:
  InstanceSink(const TermStore& store, Fn* fn, const bool* stop)
      : store_(store), fn_(fn), stop_(stop) {}
  Status Emit(const FlatBindings& binds) {
    return (*fn_)([&](TermId a) { return binds.Apply(store_, a); });
  }
  bool Done() const { return stop_ != nullptr && *stop_; }

 private:
  const TermStore& store_;
  Fn* fn_;
  const bool* stop_;
};

}  // namespace

// One retract's Backward/Forward state. The check is a depth-first
// search with an explicit stack, since derivation chains run tens of
// facts deep: a frame is a checked fact plus the rule instances
// deriving it that it still has to explore. Instances and their open
// body facts live in two stacks shared by all frames; a frame's slices
// sit above its parent's and are dropped when it pops.
struct IncrementalMaintainer::Retraction {
  struct Frame {
    FactRef fact;
    size_t first_inst;  // inst[first_inst, inst_end): its instances
    size_t inst_end;
    size_t body_begin;  // body[body_begin..): their open body facts
    size_t next_inst;   // the instance being explored
    size_t next_body;   // its next body fact
  };

  FactMemo memo;
  std::vector<uint8_t> pred_class;  // PredicateId -> kSettled, kBase
                                    // or kDerived
  // PredicateId -> indices into the compiled rules heading it (kDerived
  // predicates only) / (rule, body literal) pairs scanning it.
  std::vector<std::vector<size_t>> by_head;
  std::vector<std::vector<std::pair<size_t, size_t>>> by_body;
  // Rule index -> its body plan with the head's variables bound.
  std::vector<std::vector<PlanStep>> head_steps;

  std::vector<Frame> stack;
  std::vector<std::pair<size_t, size_t>> inst;  // [begin, end) of body
  std::vector<FactRef> body;
  std::vector<FactRef> checked_now;  // checked by the current top level
  size_t pending = 0;                // of those, not yet proved
  std::vector<FactRef> saturate;     // proved, not yet forward-saturated
  std::vector<FactRef> heads;        // heads one saturation join proves
  std::vector<FactRef> instance;     // body facts of one instance
  std::vector<RowId> one_row;        // the saturating fact's delta
  Tuple fact;                        // the fact being visited
  Tuple head;                        // a derived head
  Tuple atom;                        // a body fact being looked up
};

IncrementalMaintainer::IncrementalMaintainer(const Program* program,
                                             Database* db,
                                             EvalOptions options)
    : program_(program), db_(db), eval_(program, db, options) {}

IncrementalMaintainer::~IncrementalMaintainer() = default;

Result<bool> IncrementalMaintainer::Maintain(
    const std::vector<FactOp>& inserts,
    const std::vector<FactOp>& retracts) {
  ineligible_reason_.clear();
  LPS_ASSIGN_OR_RETURN(compiled_, eval_.Compile(eval_.PlanningStats()));
  eval_.Bind(compiled_);

  // Eligibility: deletion is only invertible rule-by-rule in the Horn
  // fragment. Negation and grouping are non-monotone (a deletion can
  // create tuples), and quantified / enumerating rules observe whole
  // domains rather than deltas; any of them forces a full re-fixpoint.
  for (const CompiledRule& rule : compiled_.rules) {
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
  const TermStore& store = *program_->store();

  std::vector<FactRef> frontier;
  for (const FactOp& op : retracts) {
    RowId r = db_->FindRow(op.pred, op.args);
    if (r != Relation::kNoRow) frontier.push_back({op.pred, r});
  }
  if (frontier.empty()) return Status::OK();  // all absent: a no-op
  bf_ = std::make_unique<Retraction>();
  Retraction& s = *bf_;

  // Which predicates a retract can reach: the retracted ones, then
  // every rule head with a reached body literal. Facts of the rest are
  // never in doubt, so no check ever re-proves them.
  const size_t npred = sig.size();
  s.pred_class.assign(npred, kSettled);
  for (FactRef f : frontier) s.pred_class[f.pred] = kBase;
  for (bool grew = true; grew;) {
    grew = false;
    for (const CompiledRule& rule : compiled_.rules) {
      uint8_t& head = s.pred_class[rule.clause->head.pred];
      if (head == kDerived) continue;
      bool reached = head == kBase;  // a retracted, rule-headed predicate
      for (const Literal& lit : rule.clause->body) {
        reached = reached || (!sig.IsBuiltin(lit.pred) &&
                              s.pred_class[lit.pred] != kSettled);
      }
      if (reached) {
        head = kDerived;
        grew = true;
      }
    }
  }

  // The rules a check or a propagation can run, and each rule's body
  // plan with its head bound: a check enumerates the instances deriving
  // one known tuple. Planned from the statistics this commit compiled
  // the rules for.
  const PlannerStats* stats = compiled_.stats ? &*compiled_.stats : nullptr;
  s.by_head.assign(npred, {});
  s.by_body.assign(npred, {});
  s.head_steps.resize(compiled_.rules.size());
  for (size_t i = 0; i < compiled_.rules.size(); ++i) {
    const CompiledRule& rule = compiled_.rules[i];
    const Clause& clause = *rule.clause;
    const PredicateId head = clause.head.pred;
    if (s.pred_class[head] != kDerived) continue;
    s.by_head[head].push_back(i);
    for (size_t li = 0; li < clause.body.size(); ++li) {
      const PredicateId p = clause.body[li].pred;
      if (!sig.IsBuiltin(p) && s.pred_class[p] != kSettled) {
        s.by_body[p].emplace_back(i, li);
      }
    }
    std::vector<TermId> head_vars;
    for (TermId a : clause.head.args) store.CollectVariables(a, &head_vars);
    // Binding more variables only unblocks literals, so this plan
    // enumerates no domain where the free plan does not.
    s.head_steps[i] = BuildBodyPlan(store, sig, clause,
                                    rule.plan.free_literals, head_vars, {},
                                    stats)
                          .steps;
  }

  // The retracted rows are in doubt. One whose predicate heads no rule
  // is disproved outright: it is no longer a fact.
  std::vector<FactRef> retracted = std::move(frontier);
  frontier.clear();
  for (FactRef f : retracted) {
    uint8_t& m = s.memo.At(FactKey(f.pred, f.row));
    if (m & kQueued) continue;  // retracted twice
    m = kQueued | kRetracted;
    if (s.pred_class[f.pred] == kBase) m |= kChecked | kDisproved;
    ++eval_.stats_.overdeleted_tuples;
    frontier.push_back(f);
  }

  // Rounds: check the queued facts, then propagate the underivable ones
  // by delta joins through them over the live database - before they
  // are tombstoned, so a body that repeats their predicate still
  // matches them at every position - queueing the heads derived, and
  // only then tombstone them.
  std::vector<std::vector<RowId>> doomed(npred);
  std::vector<PredicateId> doomed_preds;
  while (!frontier.empty()) {
    for (FactRef f : frontier) {
      if (!(s.memo.Get(FactKey(f.pred, f.row)) & kChecked)) {
        LPS_RETURN_IF_ERROR(Check(f));
      }
      if (s.memo.Get(FactKey(f.pred, f.row)) & kProved) continue;
      if (doomed[f.pred].empty()) doomed_preds.push_back(f.pred);
      doomed[f.pred].push_back(f.row);
    }
    frontier.clear();
    for (PredicateId p : doomed_preds) {
      for (const auto& [ri, li] : s.by_body[p]) {
        // The delta-first plan keeps the join's cost proportional to the
        // rows propagated, not to the largest body relation.
        const CompiledRule& rule = compiled_.rules[ri];
        const Literal& head = rule.clause->head;
        LPS_RETURN_IF_ERROR(ForEachInstance(
            rule, rule.DeltaSteps(li),
            DeltaSpec{li, 0, doomed[p].size(), &doomed[p]}, nullptr, nullptr,
            [&](auto apply) -> Status {
              LPS_RETURN_IF_ERROR(BuildHead(*program_, head, apply, &s.head));
              RowId h = db_->FindRow(head.pred, s.head);
              if (h == Relation::kNoRow) return Status::OK();
              uint8_t& m = s.memo.At(FactKey(head.pred, h));
              if (m & (kQueued | kProved)) return Status::OK();
              m |= kQueued;
              frontier.push_back({head.pred, h});
              return Status::OK();
            }));
      }
    }
    for (PredicateId p : doomed_preds) {
      for (RowId r : doomed[p]) db_->EraseRow(p, r);
      doomed[p].clear();
    }
    doomed_preds.clear();
    // The first round tombstoned every retracted row of a rule-less
    // predicate: its live rows left are all facts, settled from now on.
    std::replace(s.pred_class.begin(), s.pred_class.end(), kBase, kSettled);
  }
  bf_.reset();
  return Status::OK();
}

IncrementalMaintainer::Standing IncrementalMaintainer::Classify(
    FactRef f) const {
  if (f.row == Relation::kNoRow) return Standing::kDisproved;
  const uint8_t cls = bf_->pred_class[f.pred];
  if (cls == kSettled) return Standing::kProved;
  const uint8_t m = bf_->memo.Get(FactKey(f.pred, f.row));
  if (m & kProved) return Standing::kProved;
  if (m & kDisproved) return Standing::kDisproved;
  if (m & kChecked) return Standing::kPending;
  return cls == kBase ? Standing::kProved : Standing::kOpen;
}

Status IncrementalMaintainer::Check(FactRef f) {
  Retraction& s = *bf_;
  LPS_RETURN_IF_ERROR(Visit(f));
  while (!s.stack.empty()) {
    Retraction::Frame& t = s.stack.back();
    if ((s.memo.Get(FactKey(t.fact.pred, t.fact.row)) & kProved) ||
        t.next_inst == t.inst_end) {
      s.inst.resize(t.first_inst);
      s.body.resize(t.body_begin);
      s.stack.pop_back();
      continue;
    }
    // Walk the instance's open body facts. A pending one (checked in
    // this top-level check, unproved so far) does not stop the walk:
    // forward saturation proves the head once every body fact is
    // proved, and that needs every one of them checked.
    const auto [b, e] = s.inst[t.next_inst];
    bool descended = false;
    while (!descended && b + t.next_body < e) {
      const FactRef g = s.body[b + t.next_body++];
      const Standing st = Classify(g);
      // A disproved body fact means this instance never proves the head.
      if (st == Standing::kDisproved) t.next_body = e - b;
      descended = st == Standing::kOpen;
      if (descended) LPS_RETURN_IF_ERROR(Visit(g));  // may push: t dangles
    }
    if (descended) continue;
    ++t.next_inst;
    t.next_body = 0;
  }
  // Every fact this check left unproved has no derivation from facts
  // that can still be proved, for the rest of the commit.
  for (FactRef g : s.checked_now) {
    uint8_t& m = s.memo.At(FactKey(g.pred, g.row));
    if (!(m & kProved)) m |= kDisproved;
  }
  s.checked_now.clear();
  s.pending = 0;
  return Status::OK();
}

Status IncrementalMaintainer::Visit(FactRef f) {
  Retraction& s = *bf_;
  {
    uint8_t& m = s.memo.At(FactKey(f.pred, f.row));
    m |= kChecked;
    if (!(m & kRetracted)) ++eval_.stats_.overdeleted_tuples;
  }
  s.checked_now.push_back(f);
  ++s.pending;
  const Relation& rel = *db_->FindRelation(f.pred);
  if (rel.base_count(f.row) > 0) return Prove(f);  // still a fact
  TupleRef view = rel.row(f.row);
  s.fact.assign(view.begin(), view.end());

  // Backward step: every rule instance deriving f over the live
  // database. An instance with a disproved body fact is dropped, one
  // whose body facts are all proved proves f at once (and ends the
  // enumeration), and the rest are kept with their open body facts.
  const size_t first_inst = s.inst.size();
  const size_t body_begin = s.body.size();
  bool proved = false;
  for (size_t ri : s.by_head[f.pred]) {
    const CompiledRule& rule = compiled_.rules[ri];
    LPS_RETURN_IF_ERROR(ForEachInstance(
        rule, s.head_steps[ri], DeltaSpec{}, &s.fact, &proved,
        [&](auto apply) -> Status {
          s.instance.clear();
          BodyFacts(rule, apply, &s.instance);
          const size_t b = s.body.size();
          for (FactRef g : s.instance) {
            const Standing st = Classify(g);
            if (st == Standing::kDisproved) {
              s.body.resize(b);
              return Status::OK();
            }
            if (st != Standing::kProved) s.body.push_back(g);
          }
          if (s.body.size() == b) {
            proved = true;
          } else {
            s.inst.emplace_back(b, s.body.size());
          }
          return Status::OK();
        }));
    if (proved) break;
  }
  if (proved) {
    s.inst.resize(first_inst);
    s.body.resize(body_begin);
    return Prove(f);
  }
  if (s.inst.size() > first_inst) {
    s.stack.push_back(Retraction::Frame{f, first_inst, s.inst.size(),
                                        body_begin, first_inst, 0});
  }
  return Status::OK();
}

Status IncrementalMaintainer::Prove(FactRef f) {
  Retraction& s = *bf_;
  auto prove = [&](FactRef g) {
    s.memo.At(FactKey(g.pred, g.row)) |= kProved;
    ++eval_.stats_.rederived_tuples;
    --s.pending;
    s.saturate.push_back(g);
  };
  prove(f);
  // Forward saturation: every instance through a newly proved fact
  // whose other body facts are proved proves its head, if that head is
  // checked and still unproved. Once no checked fact awaits a proof,
  // nothing is left to saturate.
  while (!s.saturate.empty() && s.pending > 0) {
    const FactRef g = s.saturate.back();
    s.saturate.pop_back();
    s.one_row.assign(1, g.row);
    for (const auto& [ri, li] : s.by_body[g.pred]) {
      const CompiledRule& rule = compiled_.rules[ri];
      const Literal& head = rule.clause->head;
      s.heads.clear();
      LPS_RETURN_IF_ERROR(ForEachInstance(
          rule, rule.DeltaSteps(li), DeltaSpec{li, 0, 1, &s.one_row},
          nullptr, nullptr, [&](auto apply) -> Status {
            LPS_RETURN_IF_ERROR(BuildHead(*program_, head, apply, &s.head));
            const RowId h = db_->FindRow(head.pred, s.head);
            const FactRef hf{head.pred, h};
            if (h == Relation::kNoRow ||
                Classify(hf) != Standing::kPending) {
              return Status::OK();
            }
            s.instance.clear();
            BodyFacts(rule, apply, &s.instance);
            for (FactRef b : s.instance) {
              if (Classify(b) != Standing::kProved) return Status::OK();
            }
            s.heads.push_back(hf);
            return Status::OK();
          }));
      for (FactRef h : s.heads) {
        if (!(s.memo.Get(FactKey(h.pred, h.row)) & kProved)) prove(h);
      }
    }
  }
  s.saturate.clear();
  return Status::OK();
}

template <typename Apply>
void IncrementalMaintainer::BodyFacts(const CompiledRule& rule, Apply apply,
                                      std::vector<FactRef>* out) {
  const Signature& sig = program_->signature();
  Tuple& atom = bf_->atom;
  for (const Literal& lit : rule.clause->body) {
    // Builtins are not facts, and a settled predicate's rows are
    // proved: neither needs its row.
    if (sig.IsBuiltin(lit.pred) || bf_->pred_class[lit.pred] == kSettled) {
      continue;
    }
    atom.clear();
    for (TermId a : lit.args) atom.push_back(apply(a));
    out->push_back({lit.pred, db_->FindRow(lit.pred, atom)});
  }
}

template <typename Fn>
Status IncrementalMaintainer::ForEachInstance(
    const CompiledRule& rule, const std::vector<PlanStep>& steps,
    const DeltaSpec& spec, const Tuple* head, const bool* stop, Fn fn) {
  ++eval_.stats_.rule_runs;
  const Literal& h = rule.clause->head;
  if (rule.parallel_safe) {
    // Bind the head through the sort check a body scan makes. The
    // trail is empty between kernel runs and is left that way.
    const TermStore& store = *program_->store();
    FlatBindings& binds = scratch_.binds;
    bool ok = true;
    for (size_t i = 0; head != nullptr && i < h.args.size() && ok; ++i) {
      TermId v = binds.Apply(store, h.args[i]);
      if (!store.IsVariable(v)) {
        ok = v == (*head)[i];
      } else if (SortAllowsBinding(store, v, (*head)[i])) {
        binds.Bind(v, (*head)[i]);
      } else {
        ok = false;
      }
    }
    Status st = Status::OK();
    if (ok) {
      LiveRows rows(db_);
      InstanceSink<Fn> sink(store, &fn, stop);
      st = FlatJoin(*program_, &rows, &sink, &scratch_)
               .Run(FlatJob{rule.clause, &steps, spec});
    }
    binds.Undo(0);
    return st;
  }
  TermStore* store = program_->store();
  const DeltaSpec* delta =
      spec.literal_index == DeltaSpec::kNone ? nullptr : &spec;
  auto cont = [&](Substitution* theta) -> Status {
    if (stop != nullptr && *stop) return Status::OK();
    return fn([&](TermId a) { return theta->Apply(store, a); });
  };
  if (head == nullptr) {
    Substitution theta;
    return eval_.ExecSteps(rule, steps, 0, &theta, delta, cont);
  }
  // Each unifier of the head with the tuple seeds a body search whose
  // scans then run with those columns bound.
  Unifier unifier(store, eval_.options_.builtins.unify);
  std::vector<Substitution> unifiers;
  LPS_RETURN_IF_ERROR(unifier.EnumerateTuples(
      std::span<const TermId>(h.args.data(), h.args.size()),
      std::span<const TermId>(head->data(), head->size()), &unifiers));
  for (Substitution& theta : unifiers) {
    if (stop != nullptr && *stop) break;
    LPS_RETURN_IF_ERROR(eval_.ExecSteps(rule, steps, 0, &theta, delta, cont));
  }
  return Status::OK();
}

Status IncrementalMaintainer::Insert(const std::vector<FactOp>& inserts) {
  // Below the pre-batch watermarks the database is at fixpoint, so the
  // evaluator's delta rounds re-converge it from the net-new rows: the
  // first round joins exactly the batch, appended or revived.
  BottomUpEvaluator::Marks marks;
  for (const auto& [pred, rel] : db_->Relations()) marks[pred] = rel->size();
  bool added = false;
  for (const FactOp& op : inserts) {
    added = eval_.AddRow(op.pred, op.args) || added;
  }
  if (!added) return Status::OK();
  return eval_.Reconverge(std::move(marks));
}

}  // namespace lps
