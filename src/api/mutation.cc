#include "api/mutation.h"

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
  // Check here so Commit() cannot fail half-way.
  LPS_RETURN_IF_ERROR(CheckFact(*session_->store(),
                                session_->program()->signature(), pred,
                                args));
  ops_.push_back(Op{insert, pred, std::move(args)});
  return Status::OK();
}

Status MutationBatch::StageNamed(bool insert, const std::string& pred,
                                 Tuple args) {
  if (done_) {
    return Status::InvalidArgument("staging into a consumed batch");
  }
  PredicateId id = session_->program()->signature().Lookup(pred, args.size());
  if (id != kInvalidPredicate) return Stage(insert, id, std::move(args));
  // Unknown predicate: an insert declares it by inference from the
  // argument sorts, at Commit(). A retract nets against the inserts this
  // batch staged before it; with none there is nothing to retract.
  size_t k = 0;
  while (k < fresh_.size() && (fresh_[k].first != pred ||
                               fresh_[k].second.size() != args.size())) {
    ++k;
  }
  if (k == fresh_.size() && !insert) return Status::OK();
  std::vector<Sort> sorts;
  sorts.reserve(args.size());
  for (TermId a : args) {
    if (!session_->store()->is_ground(a)) {
      return Status::InvalidArgument("facts must be ground: " + pred);
    }
    sorts.push_back(session_->store()->sort(a));
  }
  if (k == fresh_.size()) fresh_.emplace_back(pred, std::move(sorts));
  ops_.push_back(Op{insert, kInvalidPredicate, std::move(args), k});
  return Status::OK();
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
  fresh_.clear();
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
  std::vector<PredicateId> declared;
  for (auto& [name, sorts] : fresh_) {
    LPS_ASSIGN_OR_RETURN(PredicateId id,
                         s->program_->signature().Declare(name, sorts));
    declared.push_back(id);
  }

  // Net effect per touched tuple, against its base count: the facts
  // are a multiset (Add never deduplicates), the database a set, so a
  // tuple's membership changes exactly when its count crosses zero.
  // O(ops): one count probe per distinct tuple.
  Database* db = s->db_.get();
  struct Net {
    uint32_t before = 0;
    uint32_t count = 0;
  };
  std::unordered_map<PredicateId, std::unordered_map<Tuple, Net, TupleHash>>
      net;
  // First touches in op order.
  std::vector<std::pair<PredicateId, std::pair<const Tuple, Net>*>> touched;
  for (const Op& op : ops_) {
    const PredicateId pred =
        op.pred == kInvalidPredicate ? declared[op.fresh] : op.pred;
    auto [it, fresh] = net[pred].try_emplace(op.args);
    Net& n = it->second;
    if (fresh) {
      n.before = n.count = db->FactCount(pred, op.args);
      touched.emplace_back(pred, &*it);
    }
    if (op.insert) {
      ++n.count;
    } else if (n.count > 0) {
      --n.count;
    }
  }

  // A count that stays above zero changes here and now. A retracted
  // fact's count drops to zero before maintenance, so no check proves
  // it from itself; an inserted fact's count is raised only once it
  // is in the database, so maintenance still sees its row as new.
  bool facts_changed = false;
  std::vector<IncrementalMaintainer::FactOp> inserts;
  std::vector<uint32_t> insert_counts;
  std::vector<IncrementalMaintainer::FactOp> retracts;
  for (const auto& [pred, entry] : touched) {
    const auto& [args, n] = *entry;
    if (n.count == n.before) continue;
    facts_changed = true;
    if (n.before == 0) {
      inserts.push_back({pred, args});
      insert_counts.push_back(n.count);
      continue;
    }
    db->SetFactCount(pred, args, n.count);
    if (n.count == 0) retracts.push_back({pred, args});
  }
  if (!facts_changed) return Status::OK();
  ++s->fact_epoch_;

  auto count_inserts = [&] {
    for (size_t i = 0; i < inserts.size(); ++i) {
      db->SetFactCount(inserts[i].pred, inserts[i].args, insert_counts[i]);
    }
  };
  // The batch's facts without maintenance: the inserted ones stored
  // with their counts, the retracted ones gone. Resetting the database
  // to its facts then drops whatever was derived from them.
  auto apply = [&] {
    count_inserts();
    for (const auto& op : retracts) db->EraseTuple(op.pred, op.args);
  };

  if (!s->converged_) {
    // Deferred mode (session never evaluated, or stale since the last
    // rule commit): the consequences follow at the next Evaluate(). A
    // stale database cannot un-derive retracted tuples, or forget the
    // terms only they carried, by re-evaluating, so a retract resets it
    // to its facts now: readers that do not evaluate first (top-down
    // solving, scans, an unevaluated freeze) never see a tuple derived
    // from a retracted fact.
    apply();
    if (!retracts.empty()) s->ResetDatabase();
    return Status::OK();
  }
  if (inserts.empty() && retracts.empty()) return Status::OK();

  if (s->options_.incremental) {
    IncrementalMaintainer maintainer(s->program_.get(), db,
                                     s->options_.eval());
    Result<bool> maintained = maintainer.Maintain(inserts, retracts);
    if (!maintained.ok()) {
      // A failed pass leaves a partial model: drop it, so the session
      // is no longer converged and the next Evaluate() or Freeze()
      // rebuilds from the facts instead of serving it.
      apply();
      s->ResetDatabase();
      return maintained.status();
    }
    if (*maintained) {
      count_inserts();
      // The maintainer skips the O(index-buckets) IndexBytes walk;
      // keep the last fully computed figure.
      EvalStats stats = maintainer.stats();
      stats.index_bytes = s->eval_stats_.index_bytes;
      s->set_eval_stats(std::move(stats));
      return Status::OK();  // still converged
    }
    // Outside the maintainable fragment: fall through to the exact
    // from-scratch path.
  }
  apply();
  s->ResetDatabase();
  return s->Evaluate();
}

}  // namespace lps
