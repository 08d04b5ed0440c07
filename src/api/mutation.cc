#include "api/mutation.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "api/session.h"
#include "eval/incremental.h"

namespace lps {

Status MutationBatch::Add(const std::string& pred, Tuple args) {
  return StageNamed(true, pred, std::move(args));
}

Status MutationBatch::Add(PredicateId pred, Tuple args) {
  return Stage(true, pred, std::move(args));
}

Status MutationBatch::Retract(const std::string& pred, Tuple args) {
  return StageNamed(false, pred, std::move(args));
}

Status MutationBatch::Retract(PredicateId pred, Tuple args) {
  return Stage(false, pred, std::move(args));
}

Status MutationBatch::AddText(const std::string& fact) {
  return StageText(true, fact);
}

Status MutationBatch::RetractText(const std::string& fact) {
  return StageText(false, fact);
}

Status MutationBatch::Stage(bool insert, PredicateId pred, Tuple args) {
  if (done_) {
    return Status::InvalidArgument("staging into a consumed batch");
  }
  // Validate here so Commit()'s program updates cannot fail half-way
  // (mirrors Program::AddFact's checks).
  const Signature& sig = session_->program()->signature();
  if (sig.IsSpecial(pred)) {
    return Status::InvalidArgument("facts may not use special predicate " +
                                   sig.Name(pred));
  }
  if (args.size() != sig.info(pred).arity()) {
    return Status::InvalidArgument("arity mismatch in fact for " +
                                   sig.Name(pred));
  }
  for (TermId t : args) {
    if (!session_->store()->is_ground(t)) {
      return Status::InvalidArgument("facts must be ground: " +
                                     sig.Name(pred));
    }
  }
  ops_.push_back(Op{insert, pred, std::move(args)});
  return Status::OK();
}

Status MutationBatch::StageNamed(bool insert, const std::string& pred,
                                 Tuple args) {
  if (done_) {
    return Status::InvalidArgument("staging into a consumed batch");
  }
  Signature& sig = session_->program()->signature();
  PredicateId id = sig.Lookup(pred, args.size());
  if (id == kInvalidPredicate) {
    // Unknown predicate: nothing to retract; inserts declare it by
    // inference from the argument sorts.
    if (!insert) return Status::OK();
    std::vector<Sort> sorts;
    sorts.reserve(args.size());
    for (TermId a : args) sorts.push_back(session_->store()->sort(a));
    LPS_ASSIGN_OR_RETURN(id, sig.Declare(pred, std::move(sorts)));
  }
  return Stage(insert, id, std::move(args));
}

Status MutationBatch::StageText(bool insert, const std::string& fact) {
  if (done_) {
    return Status::InvalidArgument("staging into a consumed batch");
  }
  std::string text = fact;
  while (!text.empty() &&
         (text.back() == '.' || text.back() == ' ' ||
          text.back() == '\n' || text.back() == '\t')) {
    text.pop_back();
  }
  ++session_->parse_count_;
  LPS_ASSIGN_OR_RETURN(
      Literal lit,
      ParseGoalText(text, session_->mode_, session_->store_.get(),
                    &session_->program_->signature()));
  return Stage(insert, lit.pred, std::move(lit.args));
}

void MutationBatch::Abort() {
  done_ = true;
  ops_.clear();
}

Status MutationBatch::Commit() {
  if (done_) {
    return Status::InvalidArgument("batch already committed or aborted");
  }
  done_ = true;
  Session* s = session_;
  if (ops_.empty()) return Status::OK();
  // Flush staged source first so the batch applies to the program it
  // was staged against.
  LPS_RETURN_IF_ERROR(s->Compile());

  // Net effect per touched tuple: program facts are a multiset (AddFact
  // never deduplicated), the database a set, so a tuple's database
  // membership changes exactly when its fact count crosses zero. The
  // counts come from the session's persistent fact-count index - built
  // with one fact-list scan on the first commit, maintained
  // incrementally afterwards - so netting costs O(ops), not O(facts).
  if (!s->fact_counts_valid_) {
    s->fact_counts_.clear();
    for (const Literal& f : s->program()->facts()) {
      ++s->fact_counts_[f.pred][f.args];
    }
    s->fact_counts_valid_ = true;
  }
  struct Net {
    size_t count = 0;     // multiset count, replayed through the ops
    size_t physical = 0;  // copies on the fact list (>= count)
    bool before = false;  // in the database when the batch started
  };
  std::unordered_map<PredicateId, std::unordered_map<Tuple, Net, TupleHash>>
      net;
  for (const Op& op : ops_) net[op.pred][op.args];
  for (auto& [pred, tuples] : net) {
    auto pit = s->fact_counts_.find(pred);
    for (auto& [args, n] : tuples) {
      if (pit != s->fact_counts_.end()) {
        auto it = pit->second.find(args);
        if (it != pit->second.end()) n.count = it->second;
      }
      n.physical = n.count;
      n.before = n.count > 0;
    }
  }

  bool facts_changed = false;
  size_t surplus_total = 0;
  for (const Op& op : ops_) {
    Net& n = net[op.pred][op.args];
    if (op.insert) {
      LPS_RETURN_IF_ERROR(s->program_->AddFact(op.pred, op.args));
      ++n.count;
      ++n.physical;
      facts_changed = true;
    } else if (n.count > 0) {
      --n.count;
      ++surplus_total;
      facts_changed = true;
    }
  }
  // Physical removal: a tuple keeps its final count many copies. One
  // pass over the fact list - pred-filtered through a dense bitmap,
  // stopping as soon as every surplus copy is found - collects the
  // earliest surplus positions (all copies are identical literals, and
  // earliest-first matches the per-op removal this replaces) for one
  // compaction. Insert-only batches skip the pass entirely.
  if (surplus_total > 0) {
    PredicateId max_pred = 0;
    for (const auto& [pred, tuples] : net) {
      if (pred > max_pred) max_pred = pred;
    }
    std::vector<char> touched(static_cast<size_t>(max_pred) + 1, 0);
    for (const auto& [pred, tuples] : net) {
      for (const auto& [args, n] : tuples) {
        if (n.physical > n.count) touched[pred] = 1;
      }
    }
    std::vector<size_t> drop;
    drop.reserve(surplus_total);
    const FactLedger& fact_list = s->program()->facts();
    PredicateId last_pred = kInvalidPredicate;
    std::unordered_map<Tuple, Net, TupleHash>* tuples = nullptr;
    size_t i = 0;
    for (const Literal& f : fact_list) {
      if (drop.size() >= surplus_total) break;
      const size_t index = i++;
      if (f.pred >= touched.size() || !touched[f.pred]) continue;
      if (f.pred != last_pred) {  // facts cluster by predicate
        last_pred = f.pred;
        tuples = &net[f.pred];
      }
      auto it = tuples->find(f.args);
      if (it == tuples->end()) continue;
      Net& n = it->second;
      if (n.physical > n.count) {
        --n.physical;
        drop.push_back(index);
      }
    }
    s->program_->RemoveFactsAt(drop);  // built ascending
  }
  if (!facts_changed) return Status::OK();
  // Write the batch's final counts back into the index.
  for (auto& [pred, tuples] : net) {
    auto& by_tuple = s->fact_counts_[pred];
    for (auto& [args, n] : tuples) {
      if (n.count == 0) {
        by_tuple.erase(args);
      } else {
        by_tuple[args] = n.count;
      }
    }
  }
  ++s->fact_epoch_;
  ++s->program_epoch_;  // demand answers change; rule_epoch_ does not

  std::vector<IncrementalMaintainer::FactOp> inserts;
  std::vector<IncrementalMaintainer::FactOp> retracts;
  for (auto& [pred, tuples] : net) {
    for (auto& [args, n] : tuples) {
      bool now = n.count > 0;
      if (n.before == now) continue;
      auto& side = now ? inserts : retracts;
      side.push_back({pred, args});
    }
  }

  if (!s->converged_) {
    // Deferred mode (session never evaluated, or stale since the last
    // rule commit): the facts take effect at the next Evaluate(). A
    // stale non-empty database cannot un-derive retracted tuples by
    // re-evaluating, so drop it and let Evaluate() rebuild.
    if (!retracts.empty() && s->db_->TupleCount() > 0) s->ResetDatabase();
    return Status::OK();
  }
  if (inserts.empty() && retracts.empty()) return Status::OK();

  if (s->options_.incremental) {
    IncrementalMaintainer maintainer(s->program_.get(), s->db_.get(),
                                     s->options_.eval());
    Result<bool> maintained =
        maintainer.Maintain(inserts, retracts, s->fact_counts_);
    if (!maintained.ok()) {
      // A failed pass leaves a partial model: drop it, so the session
      // is no longer converged and the next Evaluate() or Freeze()
      // rebuilds from the facts instead of serving it.
      s->ResetDatabase();
      return maintained.status();
    }
    if (*maintained) {
      // The maintainer skips the O(index-buckets) IndexBytes walk;
      // keep the last fully computed figure.
      size_t index_bytes = s->eval_stats_.index_bytes;
      // The ingest block (last LoadFactsParallel) survives overwrites.
      const EvalStats::IngestStats ingest = s->eval_stats_.ingest;
      s->eval_stats_ = maintainer.stats();
      s->eval_stats_.index_bytes = index_bytes;
      s->eval_stats_.ingest = ingest;
      return Status::OK();  // still converged
    }
    // Outside the maintainable fragment: fall through to the exact
    // from-scratch path.
  }
  s->ResetDatabase();
  return s->Evaluate();
}

}  // namespace lps
