#include "eval/bottomup.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "lang/validate.h"
#include "term/printer.h"
#include "term/set_algebra.h"

namespace lps {

namespace {

// Smallest delta/scan chunk worth forking for: shared by the task
// chunking and the pool gate so the two cannot drift.
constexpr size_t kMinChunkTuples = 16;

// Appends the grouping key of `clause`'s head (every argument but the
// grouped one) to *key and sets *elem to the grouped variable's value,
// each resolved through `apply`. Shared by both executors.
template <typename Apply>
Status GroupPair(const Program& program, const Clause& clause, Apply apply,
                 std::vector<TermId>* key, TermId* elem) {
  const TermStore& store = *program.store();
  const GroupSpec& g = *clause.grouping;
  for (size_t i = 0; i < clause.head.args.size(); ++i) {
    if (i == g.arg_index) continue;
    TermId v = apply(clause.head.args[i]);
    if (!store.is_ground(v)) {
      return Status::SafetyError(
          "unbound head variable in grouping clause for " +
          program.signature().Name(clause.head.pred));
    }
    key->push_back(v);
  }
  *elem = apply(g.grouped_var);
  if (!store.is_ground(*elem)) {
    return Status::SafetyError(
        "grouped variable not bound by the body of the grouping clause "
        "for " +
        program.signature().Name(clause.head.pred));
  }
  return Status::OK();
}

// Kernel sink for a flat grouping body: buffers each solution's
// (key, element) pair flat (see FlatOutput).
class GroupSink {
 public:
  GroupSink(const Program& program, const Clause& clause,
            std::vector<TermId>* keys, std::vector<TermId>* elems)
      : program_(program), clause_(clause), keys_(keys), elems_(elems) {}
  Status Emit(const FlatBindings& binds) {
    const TermStore& store = *program_.store();
    TermId elem = kInvalidTerm;
    LPS_RETURN_IF_ERROR(GroupPair(
        program_, clause_, [&](TermId a) { return binds.Apply(store, a); },
        keys_, &elem));
    elems_->push_back(elem);
    return Status::OK();
  }
  bool Done() const { return false; }

 private:
  const Program& program_;
  const Clause& clause_;
  std::vector<TermId>* keys_;
  std::vector<TermId>* elems_;
};

// RAII lease of a recycled buffer from a pool: cleared on acquire,
// returned with its capacity intact on destruction, so steady-state
// join loops allocate nothing per scan step. A pool (rather than a
// fixed per-depth slot) is required for correctness: seed plans and
// empty-branch plans restart at depth 0 while outer free-plan frames
// still hold their buffers.
template <typename Buf>
class Lease {
 public:
  explicit Lease(std::vector<Buf>* pool) : pool_(pool) {
    if (!pool->empty()) {
      buf_ = std::move(pool->back());
      pool->pop_back();
      buf_.clear();
    }
  }
  ~Lease() { pool_->push_back(std::move(buf_)); }
  Lease(const Lease&) = delete;
  Lease& operator=(const Lease&) = delete;
  Buf& operator*() { return buf_; }

 private:
  std::vector<Buf>* pool_;
  Buf buf_;
};

}  // namespace

BottomUpEvaluator::BottomUpEvaluator(const Program* program, Database* db,
                                     EvalOptions options)
    : program_(program), db_(db), options_(options) {}

Status BottomUpEvaluator::Evaluate() {
  LPS_ASSIGN_OR_RETURN(CompiledProgram compiled, Compile(PlanningStats()));
  return Run(compiled);
}

std::optional<PlannerStats> BottomUpEvaluator::PlanningStats() const {
  // The database holds the EDB facts already, so extensional
  // cardinalities are real; IDB relations (possibly still empty on a
  // first evaluation) are marked derived so they estimate as
  // unknown-sized, not empty. A pure function of the database contents,
  // so every lane count - and every re-run over the same facts -
  // compiles the identical plans.
  if (!options_.reorder) return std::nullopt;
  return PlannerStats::FromDatabase(*db_, *program_);
}

Result<CompiledProgram> BottomUpEvaluator::Compile(
    std::optional<PlannerStats> stats) const {
  const TermStore& store = *program_->store();
  const Signature& sig = program_->signature();
  CompiledProgram out;
  LPS_ASSIGN_OR_RETURN(out.strat, Stratify(*program_));
  out.stats = std::move(stats);
  const PlannerStats* planner = out.stats ? &*out.stats : nullptr;
  out.rules.resize(program_->clauses().size());
  for (size_t i = 0; i < program_->clauses().size(); ++i) {
    CompiledRule& r = out.rules[i];
    r.clause = &program_->clauses()[i];
    LPS_ASSIGN_OR_RETURN(r.plan,
                         BuildRulePlan(store, sig, *r.clause, planner));
    if (r.plan.free_plan.reordered || r.plan.seed_plan.reordered) {
      ++out.plan_reorders;
    }
    if (r.plan.free_plan.est_out >= 0) {
      out.plan_estimated_tuples += r.plan.free_plan.est_out;
    }
    bool has_enum = false;
    for (const PlanStep& s : r.plan.free_plan.steps) {
      if (s.kind == StepKind::kEnumAtom || s.kind == StepKind::kEnumSet ||
          s.kind == StepKind::kEnumAny) {
        has_enum = true;
      }
    }
    r.horn_simple = !r.plan.has_quantifiers &&
                    !r.clause->grouping.has_value() && !has_enum;
    AnalyzeRuleForParallel(&r);
    const size_t stratum = out.strat.pred_stratum[r.clause->head.pred];
    for (size_t li : r.plan.free_literals) {
      const Literal& lit = r.clause->body[li];
      if (lit.positive && !sig.IsBuiltin(lit.pred) &&
          out.strat.pred_stratum[lit.pred] == stratum) {
        r.in_stratum_literals.push_back(li);
      }
    }
  }
  return out;
}

void BottomUpEvaluator::Bind(const CompiledProgram& compiled) {
  compiled_ = &compiled;
  last_version_.assign(compiled.rules.size(), UINT64_MAX);
  stats_.plan_reorders = compiled.plan_reorders;
  stats_.plan_estimated_tuples = compiled.plan_estimated_tuples;
}

Status BottomUpEvaluator::Run(const CompiledProgram& compiled) {
  const TermStore& store = *program_->store();
  const size_t set_interns_before = store.set_interns();
  const size_t set_intern_hits_before = store.set_intern_hits();
  Bind(compiled);
  stats_.strata = compiled.strat.num_strata;

  // Resolve the lane count; only semi-naive evaluation shards work
  // (naive mode never starts a pool - see EvalOptions::threads) and
  // only flat rules with an in-stratum (delta) literal - or flat
  // grouping rules, whose body scans shard without a delta - ever
  // generate tasks worth sharing, so anything else never pays for a
  // pool (and threads_used stays 0, truthfully).
  size_t lanes = WorkerPool::ResolveLanes(options_.threads);
  // A flat grouping rule only ever shards its first scan step's rows.
  // EDB relations are fully loaded at this point, so one that cannot
  // reach the chunking floor never will; IDB-fed scans grow during
  // evaluation and must be assumed shardable.
  auto grouping_rule_can_shard = [&](const CompiledRule& r) {
    for (const PlanStep& s : r.plan.free_plan.steps) {
      if (s.kind != StepKind::kScan) continue;
      PredicateId p = r.clause->body[s.literal_index].pred;
      for (const Clause& c : program_->clauses()) {
        if (c.head.pred == p) return true;  // IDB: size unknown yet
      }
      return db_->RelationSize(p) >= 2 * kMinChunkTuples;
    }
    return false;  // no scan step: always runs inline
  };
  bool any_sharded_rule = false;
  for (const CompiledRule& r : compiled.rules) {
    if ((r.group_parallel_safe && grouping_rule_can_shard(r)) ||
        (r.parallel_safe && !r.in_stratum_literals.empty())) {
      any_sharded_rule = true;
      break;
    }
  }
  if (lanes > 1 && options_.semi_naive && any_sharded_rule) {
    if (pool_ == nullptr || pool_->size() != lanes) {
      pool_ = std::make_unique<WorkerPool>(lanes);
    }
    stats_.threads_used = lanes;
  } else {
    pool_.reset();
  }

  Status status;
  for (const std::vector<size_t>& clauses : compiled.strat.strata_clauses) {
    status = EvaluateStratum(clauses);
    if (!status.ok()) break;
  }
  compiled_ = nullptr;
  LPS_RETURN_IF_ERROR(status);

  Database::StorageStats storage = db_->storage_stats();
  stats_.arena_bytes = storage.arena_bytes;
  stats_.index_bytes = storage.index_bytes;
  stats_.dedup_probes = storage.dedup_probes;
  stats_.set_interns = store.set_interns() - set_interns_before;
  stats_.set_intern_hits =
      store.set_intern_hits() - set_intern_hits_before;
  return Status::OK();
}

Status BottomUpEvaluator::EvaluateStratum(
    const std::vector<size_t>& clause_indices, Marks* marks) {
  const std::vector<CompiledRule>& rules = compiled_->rules;

  // Grouping rules first: their bodies live in strictly lower strata,
  // so one pass computes them completely.
  for (size_t ci : clause_indices) {
    if (rules[ci].clause->grouping.has_value()) {
      LPS_RETURN_IF_ERROR(RunGroupingRule(rules[ci]));
    }
  }

  // Delta watermarks per predicate. Without caller marks, round 0 is
  // the first pass and only takes them, so a relation complete before
  // it (an EDB one) brings no delta to later rounds.
  const bool first_pass = marks == nullptr;
  Marks own_marks;
  Marks& mark = first_pass ? own_marks : *marks;
  size_t& rounds = first_pass ? stats_.iterations : stats_.delta_rounds;
  for (size_t round = 0;; ++round) {
    if (++rounds > options_.max_iterations) {
      return Status::ResourceExhausted("iteration limit exceeded");
    }
    // Unconditional clock read per round: rounds are coarse enough that
    // the step-granular countdown (CheckDeadline) could wrap many rows
    // before firing on pathologically wide deltas.
    if (options_.deadline != std::chrono::steady_clock::time_point{} &&
        std::chrono::steady_clock::now() >= options_.deadline) {
      return Status::DeadlineExceeded("evaluation deadline exceeded");
    }
    uint64_t version_before = db_->version();
    const bool delta_round = options_.semi_naive && (round > 0 || !first_pass);

    // This round's deltas: what the previous round appended and
    // revived. No erase runs during a fixpoint, so every revived row
    // predates the marks and no range covers it.
    Deltas delta;
    if (options_.semi_naive) {
      for (size_t ci : clause_indices) {
        for (size_t li : rules[ci].in_stratum_literals) {
          PredicateId p = rules[ci].clause->body[li].pred;
          auto [it, fresh] = delta.try_emplace(p);
          if (!fresh) continue;
          Delta& d = it->second;
          d.end = db_->RelationSize(p);
          d.begin = std::exchange(mark[p], d.end);
          auto rv = revived_.find(p);
          if (rv != revived_.end()) d.revived = std::move(rv->second);
        }
      }
    }
    revived_.clear();

    // The flat rules' delta round runs first, against the database as
    // frozen at the round's start; the other rules then run on
    // ExecSteps and see its merged derivations.
    if (delta_round) {
      LPS_RETURN_IF_ERROR(RunFlatRound(clause_indices, delta));
    }

    for (size_t ci : clause_indices) {
      const CompiledRule& r = rules[ci];
      if (r.clause->grouping.has_value()) continue;  // ran above

      if (options_.semi_naive && r.horn_simple) {
        if (!delta_round) {
          ++stats_.rule_runs;
          LPS_RETURN_IF_ERROR(r.parallel_safe ? RunFlatFirstPass(r)
                                              : RunRule(r, nullptr));
        } else if (!r.parallel_safe) {
          for (size_t li : r.in_stratum_literals) {
            for (const DeltaSpec& spec :
                 delta.at(r.clause->body[li].pred).Specs(li)) {
              if (spec.begin >= spec.end) continue;  // empty delta
              ++stats_.rule_runs;
              LPS_RETURN_IF_ERROR(RunRule(r, &spec));
            }
          }
        }
      } else {
        // Naive mode, or a complex rule: re-run whenever anything it
        // could observe changed.
        if (!options_.semi_naive || last_version_[ci] != db_->version()) {
          last_version_[ci] = db_->version();
          ++stats_.rule_runs;
          if (r.plan.has_quantifiers) {
            LPS_RETURN_IF_ERROR(RunEmptyBranch(r));
          }
          LPS_RETURN_IF_ERROR(RunRule(r, nullptr));
        }
      }
    }

    if (db_->version() == version_before) break;
  }
  return Status::OK();
}

Status BottomUpEvaluator::Reconverge(Marks marks) {
  return EvaluateStratum(compiled_->strat.strata_clauses[0], &marks);
}

Status BottomUpEvaluator::RunRule(const CompiledRule& rule,
                                  const DeltaSpec* delta) {
  Substitution theta;
  const std::vector<PlanStep>& steps =
      delta == nullptr ? rule.plan.free_plan.steps
                       : rule.DeltaSteps(delta->literal_index);
  return ExecSteps(rule, steps, 0, &theta, delta,
                   [this, &rule](Substitution* t) {
                     return HandleQuantifiers(rule, t,
                                              [this, &rule](Substitution* t2) {
                                                return EmitHead(rule, t2);
                                              });
                   });
}

const std::vector<PlanStep>& CompiledRule::DeltaSteps(size_t li) const {
  const std::vector<size_t>& lits = plan.free_literals;
  size_t pos = std::find(lits.begin(), lits.end(), li) - lits.begin();
  if (pos < plan.delta_plans.size() && !plan.delta_plans[pos].steps.empty()) {
    return plan.delta_plans[pos].steps;
  }
  return plan.free_plan.steps;
}

Status BottomUpEvaluator::RunFlatFirstPass(const CompiledRule& rule) {
  const Literal& head = rule.clause->head;
  const FlatJob job{rule.clause, &rule.plan.free_plan.steps, {}};
  LiveRows rows(db_);
  HeadSink sink(*program_, head, [&](const Tuple& t) {
    return AddDerived(head.pred, t);
  });
  scratch_.deadline = options_.deadline;
  FlatJoin join(*program_, &rows, &sink, &scratch_);
  return join.Run(job);
}

Status BottomUpEvaluator::RunFlatRound(
    const std::vector<size_t>& clause_indices, const Deltas& delta) {
  std::vector<FlatJob> tasks;
  for (size_t ci : clause_indices) {
    const CompiledRule& r = compiled_->rules[ci];
    if (!r.parallel_safe) continue;
    for (size_t li : r.in_stratum_literals) {
      for (const DeltaSpec& spec :
           delta.at(r.clause->body[li].pred).Specs(li)) {
        if (spec.begin >= spec.end) continue;  // empty delta
        ++stats_.rule_runs;
        FlatJob job{r.clause, &r.DeltaSteps(li), spec};
        PrepareIndexes(job);
        AppendTasks(job, &tasks);
      }
    }
  }
  std::vector<FlatOutput> outputs = RunFlatTasks(tasks);
  for (size_t t = 0; t < tasks.size(); ++t) {
    FlatOutput& out = outputs[t];
    LPS_RETURN_IF_ERROR(out.status);
    for (TupleRef row : out.derived.rows()) {
      LPS_RETURN_IF_ERROR(AddDerived(tasks[t].clause->head.pred, row));
    }
  }
  return Status::OK();
}

void BottomUpEvaluator::PrepareIndexes(const FlatJob& job) {
  const TermStore& store = *program_->store();
  std::vector<TermId> bound;
  for (const PlanStep& step : *job.steps) {
    if (step.kind != StepKind::kScan) continue;
    const Literal& lit = job.clause->body[step.literal_index];
    uint32_t mask = 0;
    bool all_bound = true;
    for (size_t i = 0; i < lit.args.size(); ++i) {
      TermId a = lit.args[i];
      if (store.is_ground(a) ||
          std::find(bound.begin(), bound.end(), a) != bound.end()) {
        mask |= ColumnBit(i);
      } else {
        all_bound = false;
      }
    }
    // The kernel walks a delta literal's rows and answers a fully bound
    // probe with Find, so neither needs an index.
    if (!all_bound && step.literal_index != job.delta.literal_index) {
      db_->EnsureIndex(lit.pred, mask);
    }
    for (TermId a : lit.args) {
      if (store.IsVariable(a)) bound.push_back(a);
    }
  }
}

void BottomUpEvaluator::AppendTasks(const FlatJob& job,
                                    std::vector<FlatJob>* tasks) const {
  const size_t len = job.delta.end - job.delta.begin;
  const size_t chunks =
      pool_ == nullptr
          ? 1
          : std::clamp<size_t>(len / kMinChunkTuples, 1, pool_->size() * 4);
  size_t at = job.delta.begin;
  for (size_t c = 0; c < chunks; ++c) {
    FlatJob chunk = job;
    chunk.delta.begin = at;
    at += len / chunks + (c < len % chunks ? 1 : 0);
    chunk.delta.end = at;
    tasks->push_back(chunk);
  }
}

std::vector<BottomUpEvaluator::FlatOutput> BottomUpEvaluator::RunFlatTasks(
    const std::vector<FlatJob>& tasks) {
  std::vector<FlatOutput> outputs(tasks.size());
  // Runs task t into its own output slot. Reads only state nobody
  // writes until every task is done, so any lane may run any task.
  auto run = [&](size_t t) {
    const Clause& clause = *tasks[t].clause;
    FlatOutput& out = outputs[t];
    FrozenRows rows(db_);
    FlatScratch scratch;
    scratch.deadline = options_.deadline;
    if (clause.grouping.has_value()) {
      GroupSink sink(*program_, clause, &out.group_keys, &out.group_elems);
      out.status = FlatJoin(*program_, &rows, &sink, &scratch).Run(tasks[t]);
    } else {
      const PredicateId pred = clause.head.pred;
      out.derived = Relation(clause.head.args.size());
      // Deduplicating in the task keeps the buffer and the max_tuples
      // check counting distinct tuples, not join multiplicity.
      HeadSink sink(*program_, clause.head, [&](const Tuple& tuple) {
        if (db_->Contains(pred, tuple) || !out.derived.Insert(tuple)) {
          return Status::OK();
        }
        if (out.derived.size() > options_.max_tuples) {
          return Status::ResourceExhausted("tuple limit exceeded");
        }
        return Status::OK();
      });
      out.status = FlatJoin(*program_, &rows, &sink, &scratch).Run(tasks[t]);
    }
    out.snapshot_fallbacks = rows.fallbacks();
  };
  const bool pooled = pool_ != nullptr && tasks.size() > 1;
  if (pooled) {
    // Workers claim tasks off a shared counter; the pool's join barrier
    // publishes their output slots back to this thread.
    std::atomic<size_t> next{0};
    pool_->Run([&](size_t) {
      for (size_t t; (t = next.fetch_add(1, std::memory_order_relaxed)) <
                     tasks.size();) {
        run(t);
      }
    });
  } else {
    for (size_t t = 0; t < tasks.size(); ++t) run(t);
  }
  for (const FlatOutput& out : outputs) {
    stats_.snapshot_fallbacks += out.snapshot_fallbacks;
    if (pooled) {
      ++stats_.parallel_tasks;
      stats_.parallel_tuples += out.derived.size();
    }
  }
  return outputs;
}

Status BottomUpEvaluator::RunGroupingRule(const CompiledRule& rule) {
  ++stats_.rule_runs;
  const Clause& clause = *rule.clause;
  const GroupSpec& g = *clause.grouping;
  TermStore* store = program_->store();
  group_acc_.Reset(clause.head.args.size() - 1);

  // Flat grouping rules run on the kernel; the (key, element) stream is
  // the same at every lane count, so the emitted database is too.
  if (rule.group_parallel_safe) {
    LPS_RETURN_IF_ERROR(RunFlatGrouping(rule));
  } else {
    Substitution theta;
    Lease<Tuple> key_lease(&tuple_pool_);
    Tuple& key = *key_lease;
    LPS_RETURN_IF_ERROR(ExecSteps(
        rule, rule.plan.free_plan.steps, 0, &theta, nullptr,
        [&](Substitution* t) {
          return HandleQuantifiers(rule, t, [&](Substitution* t2) {
            key.clear();
            TermId elem = kInvalidTerm;
            LPS_RETURN_IF_ERROR(GroupPair(
                *program_, clause,
                [&](TermId a) { return t2->Apply(store, a); }, &key, &elem));
            group_acc_.AppendPair(key, elem);
            return Status::OK();
          });
        }));
  }

  // Emit one tuple per group in first-witness order (Definition 14).
  // Only witnessed groups are produced; see DESIGN.md on the
  // empty-group convention. SetBuilder canonicalizes (sorts + dedups)
  // each group's element stream through the set intern table.
  Lease<Tuple> out_lease(&tuple_pool_);
  Tuple& out = *out_lease;
  for (uint32_t gi = 0; gi < group_acc_.num_groups(); ++gi) {
    set_builder_.Clear();
    group_acc_.ForEachElement(
        gi, [this](TermId e) { set_builder_.Add(e); });
    TermId set = set_builder_.Build(store);
    TupleRef key = group_acc_.key(gi);
    out.clear();
    size_t k = 0;
    for (size_t i = 0; i < clause.head.args.size(); ++i) {
      if (i == g.arg_index) {
        out.push_back(set);
      } else {
        out.push_back(key[k++]);
      }
    }
    LPS_RETURN_IF_ERROR(AddDerived(clause.head.pred, out));
  }
  stats_.groups_emitted += group_acc_.num_groups();
  stats_.group_elements += group_acc_.total_elements();
  return Status::OK();
}

Status BottomUpEvaluator::RunFlatGrouping(const CompiledRule& rule) {
  const std::vector<PlanStep>& steps = rule.plan.free_plan.steps;
  FlatJob job{rule.clause, &steps, {}};
  // With lanes to share it, shard the first scan: it is the outermost
  // loop, so its chunks' streams concatenate to the unsplit one.
  auto first_scan = std::find_if(steps.begin(), steps.end(), [](auto& s) {
    return s.kind == StepKind::kScan;
  });
  if (pool_ != nullptr && first_scan != steps.end()) {
    size_t li = first_scan->literal_index;
    const Relation* rel = db_->FindRelation(rule.clause->body[li].pred);
    job.delta = DeltaSpec{li, 0, rel == nullptr ? 0 : rel->size()};
  }
  // Grouping bodies read strictly lower strata: the relations are final.
  PrepareIndexes(job);
  std::vector<FlatJob> tasks;
  AppendTasks(job, &tasks);
  const size_t kw = group_acc_.key_width();
  for (FlatOutput& out : RunFlatTasks(tasks)) {
    LPS_RETURN_IF_ERROR(out.status);
    const TermId* kp = out.group_keys.data();
    for (size_t i = 0; i < out.group_elems.size(); ++i, kp += kw) {
      group_acc_.AppendPair(TupleRef(kp, kw), out.group_elems[i]);
    }
  }
  return Status::OK();
}

Status BottomUpEvaluator::RunEmptyBranch(const CompiledRule& rule) {
  // Definition 4: (forall x in {}) phi is true, so whenever some
  // quantifier range is empty the whole body holds and the head follows
  // for every active-domain value of the remaining head variables.
  ++stats_.empty_branch_runs;
  TermStore* store = program_->store();
  Substitution theta;
  return ExecSteps(
      rule, rule.plan.empty_branch_plan.steps, 0, &theta, nullptr,
      [&](Substitution* t) {
        bool some_empty = false;
        for (const Quantifier& q : rule.clause->quantifiers) {
          TermId range = t->Apply(store, q.range);
          if (!store->is_ground(range) ||
              store->kind(range) != TermKind::kSet) {
            return Status::SafetyError(
                "quantifier range not bound in empty-range branch");
          }
          if (store->args(range).empty()) {
            some_empty = true;
            break;
          }
        }
        if (!some_empty) return Status::OK();
        return EmitHead(rule, t);
      });
}

void BottomUpEvaluator::AnalyzeRuleForParallel(CompiledRule* rule) const {
  const TermStore& store = *program_->store();
  const Signature& sig = program_->signature();
  rule->parallel_safe = false;
  rule->group_parallel_safe = false;
  // Two admissible shapes: plain flat Horn rules and flat grouping
  // rules. Quantified grouping stays on ExecSteps - HandleQuantifiers
  // can intern terms.
  const bool grouping = rule->clause->grouping.has_value();
  if (!rule->horn_simple && !grouping) return;
  if (grouping && rule->plan.has_quantifiers) return;

  // Flat arguments (ground terms - set and function constants included,
  // since they are interned once at parse time - or plain variables)
  // are the ones a binding trail resolves without interning anything.
  auto flat = [&](TermId a) {
    return store.is_ground(a) || store.IsVariable(a);
  };
  for (const PlanStep& step : rule->plan.free_plan.steps) {
    // Builtins can intern new terms (arithmetic, set construction; a
    // negated one runs set-op checks), and enumeration steps appear
    // only outside the fragment.
    if (step.kind != StepKind::kScan && step.kind != StepKind::kNegated) {
      return;
    }
    const Literal& lit = rule->clause->body[step.literal_index];
    if (sig.IsBuiltin(lit.pred)) return;
    if (!std::all_of(lit.args.begin(), lit.args.end(), flat)) return;
  }
  // A grouping head's grouped position holds the grouped variable
  // itself; only its key arguments must be flat.
  const Literal& head = rule->clause->head;
  for (size_t i = 0; i < head.args.size(); ++i) {
    if (grouping && i == rule->clause->grouping->arg_index) continue;
    if (!flat(head.args[i])) return;
  }
  (grouping ? rule->group_parallel_safe : rule->parallel_safe) = true;
}

Result<bool> MatchRow(TermStore* store, UnifyOptions unify,
                      TupleRef patterns, uint32_t mask, TupleRef row,
                      Substitution* ext, std::vector<Substitution>* unifiers) {
  unifiers->clear();
  std::vector<size_t> complex;
  for (size_t i = 0; i < patterns.size(); ++i) {
    if (MaskHasColumn(mask, i)) continue;
    TermId p = ext->Apply(store, patterns[i]);
    if (store->is_ground(p)) {
      if (p != row[i]) return false;
    } else if (store->IsVariable(p)) {
      if (!SortAllowsBinding(*store, p, row[i])) return false;
      ext->Bind(p, row[i]);
    } else {
      complex.push_back(i);
    }
  }
  if (complex.empty()) return true;
  std::vector<TermId> pat, val;
  for (size_t i : complex) {
    pat.push_back(ext->Apply(store, patterns[i]));
    val.push_back(row[i]);
  }
  Unifier unifier(store, unify);
  LPS_RETURN_IF_ERROR(unifier.EnumerateTuples(pat, val, unifiers));
  return !unifiers->empty();
}

Status ExecBuiltinStep(TermStore* store, const Database& db,
                       const BuiltinOptions& builtins,
                       std::span<const Literal> body, const PlanStep& step,
                       Substitution* theta, const StepNext& next) {
  auto enumerate = [&](const std::vector<TermId>& domain) -> Status {
    size_t n = domain.size();  // snapshot: domain may grow
    for (size_t i = 0; i < n; ++i) {
      Substitution extended = *theta;
      extended.Bind(step.var, domain[i]);
      LPS_RETURN_IF_ERROR(next(&extended));
    }
    return Status::OK();
  };
  switch (step.kind) {
    case StepKind::kBuiltin: {
      const Literal& lit = body[step.literal_index];
      std::vector<TermId> args(lit.args.size());
      for (size_t i = 0; i < args.size(); ++i) {
        args[i] = theta->Apply(store, lit.args[i]);
      }
      return EvalBuiltin(store, lit.pred, args, builtins,
                         [&](const Substitution& ext) {
                           Substitution extended = *theta;
                           for (const auto& [v, t] : ext.bindings()) {
                             extended.Bind(v, t);
                           }
                           return next(&extended);
                         });
    }
    case StepKind::kEnumAtom:
    case StepKind::kEnumSet:
    case StepKind::kEnumAny:
      if (theta->IsBound(step.var)) return next(theta);
      if (step.kind == StepKind::kEnumAtom) {
        return enumerate(db.atom_domain());
      }
      if (step.kind == StepKind::kEnumSet) return enumerate(db.set_domain());
      LPS_RETURN_IF_ERROR(enumerate(db.atom_domain()));
      return enumerate(db.set_domain());
    case StepKind::kScan:
    case StepKind::kNegated:
      break;
  }
  return Status::Internal("ExecBuiltinStep given a relation step");
}

Status BottomUpEvaluator::ExecSteps(
    const CompiledRule& rule, const std::vector<PlanStep>& steps,
    size_t idx, Substitution* theta, const DeltaSpec* delta,
    const std::function<Status(Substitution*)>& cont) {
  LPS_RETURN_IF_ERROR(CheckDeadline(options_.deadline, &deadline_tick_));
  if (idx == steps.size()) return cont(theta);
  const PlanStep& step = steps[idx];
  TermStore* store = program_->store();

  switch (step.kind) {
    case StepKind::kScan: {
      const Literal& lit = rule.clause->body[step.literal_index];
      Lease<Tuple> patterns_lease(&tuple_pool_);
      Tuple& patterns = *patterns_lease;
      patterns.resize(lit.args.size());
      uint32_t mask = 0;
      for (size_t i = 0; i < lit.args.size(); ++i) {
        patterns[i] = theta->Apply(store, lit.args[i]);
        if (store->is_ground(patterns[i])) mask |= ColumnBit(i);
      }
      bool is_delta =
          delta != nullptr && delta->literal_index == step.literal_index;
      bool rows_mode = is_delta && delta->rows != nullptr;
      // An explicit-rows delta (revived rows, or the rows a retract
      // propagates) sits at scattered arena positions: mask 0 builds no
      // index and has MatchRow re-check every bound column per row.
      if (rows_mode) mask = 0;
      const Relation* rel = db_->EnsureIndex(lit.pred, mask);
      if (rel == nullptr) return Status::OK();
      Lease<std::vector<RowId>> indices_lease(&rowid_pool_);
      std::vector<RowId>& indices = *indices_lease;
      if (rows_mode) {
        // The rows were picked deliberately; they are iterated as
        // given, tombstoned or not.
        indices.assign(delta->rows->begin() + delta->begin,
                       delta->rows->begin() + delta->end);
      } else if (is_delta && mask == 0) {
        // Unbound range-mode delta: the rows are a contiguous arena
        // suffix, so enumerate them directly instead of walking the
        // whole relation just to drop everything outside the range.
        indices.reserve(delta->end - delta->begin);
        for (size_t ti = delta->begin; ti < delta->end; ++ti) {
          indices.push_back(static_cast<RowId>(ti));
        }
      } else {
        // The probe lists live rows only; its key is read at the mask's
        // (ground) columns.
        rel->Lookup(mask, patterns, &indices);
      }
      for (RowId ti : indices) {
        if (is_delta && !rows_mode &&
            (ti < delta->begin || ti >= delta->end)) {
          continue;
        }
        // A range delta lists tombstoned rows too; skip them here.
        if (!rows_mode && !rel->IsLive(ti)) continue;
        // The row is read only while it matches, before the recursion
        // below may grow (and reallocate) the arena.
        Substitution ext = *theta;
        std::vector<Substitution> unifiers;
        LPS_ASSIGN_OR_RETURN(
            bool match, MatchRow(store, options_.builtins.unify, patterns,
                                 mask, rel->row(ti), &ext, &unifiers));
        if (!match) continue;
        if (unifiers.empty()) {
          LPS_RETURN_IF_ERROR(
              ExecSteps(rule, steps, idx + 1, &ext, delta, cont));
          continue;
        }
        for (const Substitution& u : unifiers) {
          Substitution ext2 = ext;
          for (const auto& [v, t] : u.bindings()) ext2.Bind(v, t);
          LPS_RETURN_IF_ERROR(
              ExecSteps(rule, steps, idx + 1, &ext2, delta, cont));
        }
      }
      return Status::OK();
    }
    case StepKind::kBuiltin:
    case StepKind::kEnumAtom:
    case StepKind::kEnumSet:
    case StepKind::kEnumAny:
      return ExecBuiltinStep(store, *db_, options_.builtins,
                             rule.clause->body, step, theta,
                             [&](Substitution* next) {
                               return ExecSteps(rule, steps, idx + 1, next,
                                                delta, cont);
                             });
    case StepKind::kNegated: {
      const Literal& lit = rule.clause->body[step.literal_index];
      LPS_ASSIGN_OR_RETURN(bool holds, LiteralHolds(lit, *theta));
      // lit.positive is false: the check passes when the atom fails.
      if (!holds) {
        return ExecSteps(rule, steps, idx + 1, theta, delta, cont);
      }
      return Status::OK();
    }
  }
  return Status::Internal("unknown plan step");
}

Result<bool> BottomUpEvaluator::LiteralHolds(const Literal& lit,
                                             const Substitution& theta) {
  TermStore* store = program_->store();
  const Signature& sig = program_->signature();
  Lease<Tuple> args_lease(&tuple_pool_);
  Tuple& args = *args_lease;
  args.resize(lit.args.size());
  for (size_t i = 0; i < args.size(); ++i) {
    args[i] = theta.Apply(store, lit.args[i]);
    if (!store->is_ground(args[i])) {
      return Status::SafetyError(
          "literal " + sig.Name(lit.pred) +
          " is not ground where a ground check is required (unsafe "
          "clause?)");
    }
  }
  if (sig.IsBuiltin(lit.pred)) {
    return CheckBuiltin(store, lit.pred, args, options_.builtins);
  }
  return db_->Contains(lit.pred, args);
}

Status BottomUpEvaluator::HandleQuantifiers(
    const CompiledRule& rule, Substitution* theta,
    const std::function<Status(Substitution*)>& cont) {
  const Clause& clause = *rule.clause;
  if (clause.quantifiers.empty()) return cont(theta);
  TermStore* store = program_->store();

  // Resolve the ranges; all must be ground sets here.
  std::vector<std::vector<TermId>> ranges;
  ranges.reserve(clause.quantifiers.size());
  std::vector<TermId> qvars;
  for (const Quantifier& q : clause.quantifiers) {
    TermId r = theta->Apply(store, q.range);
    if (!store->is_ground(r) || store->kind(r) != TermKind::kSet) {
      return Status::SafetyError("quantifier range not bound: " +
                                 TermToString(*store, q.range));
    }
    if (store->args(r).empty()) {
      // Vacuous truth is handled by the empty-range branch.
      return Status::OK();
    }
    auto elems = store->args(r);
    ranges.emplace_back(elems.begin(), elems.end());
    qvars.push_back(q.var);
  }

  const std::vector<size_t>& qlits = rule.plan.quantified_literals;
  if (qlits.empty()) return cont(theta);

  // Verifies all combinations for a candidate binding of free vars.
  auto verify_all = [&](Substitution* base) -> Result<bool> {
    std::vector<size_t> idx(ranges.size(), 0);
    for (;;) {
      Substitution combo = *base;
      for (size_t i = 0; i < ranges.size(); ++i) {
        combo.Bind(qvars[i], ranges[i][idx[i]]);
      }
      ++stats_.combos_checked;
      for (size_t li : qlits) {
        const Literal& lit = clause.body[li];
        LPS_ASSIGN_OR_RETURN(bool holds, LiteralHolds(lit, combo));
        if (holds != lit.positive) return false;
      }
      size_t i = 0;
      while (i < ranges.size() && ++idx[i] == ranges[i].size()) {
        idx[i] = 0;
        ++i;
      }
      if (i == ranges.size()) break;
    }
    return true;
  };

  if (rule.plan.seed_vars.empty()) {
    LPS_ASSIGN_OR_RETURN(bool ok, verify_all(theta));
    if (ok) return cont(theta);
    return Status::OK();
  }

  // Division with first-element seeding: solve the quantified literals
  // at the first combination to obtain candidate bindings for the
  // seed variables, then verify each candidate on all combinations.
  ++stats_.seed_joins;
  Substitution first = *theta;
  for (size_t i = 0; i < ranges.size(); ++i) {
    first.Bind(qvars[i], ranges[i][0]);
  }

  // Dedup candidates by their seed-variable values.
  std::vector<std::vector<TermId>> seen;
  return ExecSteps(
      rule, rule.plan.seed_plan.steps, 0, &first, nullptr,
      [&](Substitution* sol) -> Status {
        std::vector<TermId> fingerprint;
        fingerprint.reserve(rule.plan.seed_vars.size());
        for (TermId v : rule.plan.seed_vars) {
          fingerprint.push_back(sol->Apply(store, v));
        }
        if (std::find(seen.begin(), seen.end(), fingerprint) !=
            seen.end()) {
          return Status::OK();
        }
        seen.push_back(fingerprint);
        Substitution candidate = *theta;
        for (size_t i = 0; i < rule.plan.seed_vars.size(); ++i) {
          candidate.Bind(rule.plan.seed_vars[i], fingerprint[i]);
        }
        LPS_ASSIGN_OR_RETURN(bool ok, verify_all(&candidate));
        if (ok) return cont(&candidate);
        return Status::OK();
      });
}

Status BottomUpEvaluator::EmitHead(const CompiledRule& rule,
                                   Substitution* theta) {
  if (rule.clause->grouping.has_value()) {
    return Status::Internal("EmitHead called for grouping rule");
  }
  TermStore* store = program_->store();
  Lease<Tuple> out_lease(&tuple_pool_);
  LPS_RETURN_IF_ERROR(BuildHead(
      *program_, rule.clause->head,
      [&](TermId a) { return theta->Apply(store, a); }, &*out_lease));
  return AddDerived(rule.clause->head.pred, *out_lease);
}

Status BottomUpEvaluator::AddDerived(PredicateId pred, TupleRef t) {
  if (AddRow(pred, t) && ++stats_.tuples_derived > options_.max_tuples) {
    return Status::ResourceExhausted("tuple limit exceeded");
  }
  return Status::OK();
}

bool BottomUpEvaluator::AddRow(PredicateId pred, TupleRef t) {
  Relation::InsertOutcome out = db_->AddTupleEx(pred, t);
  if (out.revived) revived_[pred].push_back(out.row);
  return out.added;
}

Result<EvalStats> EvaluateProgram(const Program& program, Database* db,
                                  EvalOptions options) {
  BottomUpEvaluator eval(&program, db, options);
  LPS_RETURN_IF_ERROR(eval.Evaluate());
  return eval.stats();
}

}  // namespace lps
