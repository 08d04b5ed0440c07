// Defines Session::Freeze here rather than in src/api/ so the api
// headers only need forward declarations of the serve types (no
// include cycle). A snapshot is read through a QueryServer
// (serve/server.h).
#include "serve/snapshot.h"

#include <string>
#include <unordered_set>

#include "api/session.h"

namespace lps {

Result<std::shared_ptr<const serve::Snapshot>> Session::Freeze() {
  return FreezeIncremental(nullptr, serve::FreezeOptions{});
}

Result<std::shared_ptr<const serve::Snapshot>> Session::Freeze(
    const serve::FreezeOptions& opts) {
  return FreezeIncremental(nullptr, opts);
}

Result<std::shared_ptr<const serve::Snapshot>> Session::FreezeIncremental(
    const std::shared_ptr<const serve::Snapshot>& prev) {
  return FreezeIncremental(prev, serve::FreezeOptions{});
}

Result<std::shared_ptr<const serve::Snapshot>> Session::FreezeIncremental(
    const std::shared_ptr<const serve::Snapshot>& prev,
    const serve::FreezeOptions& opts) {
  for (const serve::FreezeOptions::IndexSpec& spec : opts.indexes) {
    // A bit at or past the arity names a column the rows do not have.
    if (spec.arity < Relation::kMaxIndexedColumns &&
        (spec.mask >> spec.arity) != 0) {
      return Status::InvalidArgument(
          "FreezeOptions::indexes: mask " + std::to_string(spec.mask) +
          " on " + spec.pred + "/" + std::to_string(spec.arity) +
          " has a bit at or past the arity");
    }
  }
  if (prev != nullptr && prev->session_id() != session_id_) {
    return Status::InvalidArgument(
        "FreezeIncremental: prev snapshot was frozen by a different "
        "session (relation content ticks are lineage-local)");
  }
  LPS_RETURN_IF_ERROR(Compile());
  // A session already at fixpoint - e.g. right after an incremental
  // MutationBatch commit - republishes without paying a redundant
  // re-evaluation; the delta maintenance already converged the
  // database.
  if (opts.evaluate && !converged_) LPS_RETURN_IF_ERROR(Evaluate());

  auto snap = std::shared_ptr<serve::Snapshot>(new serve::Snapshot());
  // Share the whole term store when nothing was interned since prev
  // froze: both arenas are append-only, so equal term and symbol
  // counts mean identical content (the common case when a mutation
  // batch churns facts over already-interned constants). Otherwise
  // take the prefix-stable Clone - ids shared relations carry all
  // predate prev's freeze and resolve identically in the fresh clone.
  const bool store_unchanged =
      prev != nullptr && store_->size() == prev->store().size() &&
      store_->symbols().size() == prev->store().symbols().size();
  if (store_unchanged) {
    snap->store_ = prev->store_;
  } else {
    snap->store_ = store_->Clone();
  }
  // The program is always re-cloned: it is rules only, and CloneInto
  // shares the clause vector and copies the signature - no
  // re-interning, so a shared store is never mutated here.
  snap->program_ = std::make_unique<Program>(
      program_->CloneInto(snap->store_.get()));
  // Catch the session's own indexes up before cloning: an index the
  // fixpoint built early and then stopped probing would otherwise be
  // caught up again in every snapshot cloned from it.
  db_->FreezeIndexes();
  snap->db_ = db_->CloneInto(snap->store_.get(), &snap->program_->signature(),
                             prev == nullptr ? nullptr : &prev->database());
  for (const serve::FreezeOptions::IndexSpec& spec : opts.indexes) {
    PredicateId pred =
        snap->program_->signature().Lookup(spec.pred, spec.arity);
    // A no-op when the (possibly shared) relation already carries the
    // index; a shared relation missing it is copied first, which the
    // witness pass below counts as cloned.
    if (pred != kInvalidPredicate) snap->db_->EnsureIndex(pred, spec.mask);
  }
  snap->db_->FreezeIndexes();
  snap->mode_ = mode_;
  snap->options_ = options_;
  snap->converged_ = converged_;
  snap->store_size_ = snap->store_->size();
  snap->rule_epoch_ = rule_epoch_;
  snap->session_id_ = session_id_;

  // Sharing witnesses, by physical pointer identity against prev (the
  // ground truth - computed after index provisioning, which may have
  // unshared a relation). Without a prev everything is cloned.
  serve::CowStats& cow = snap->cow_;
  std::unordered_set<const Relation*> prev_rels;
  if (prev != nullptr) {
    for (const auto& [pred, rel] : prev->database().Relations()) {
      prev_rels.insert(rel);
    }
    cow.store_shared = store_unchanged;
  }
  for (const auto& [pred, rel] : snap->db_->Relations()) {
    if (prev_rels.count(rel)) {
      ++cow.relations_shared;
      cow.bytes_shared += rel->ArenaBytes();
      if (rel->base_rows() > 0) ++cow.fact_chunks_shared;
    } else {
      ++cow.relations_cloned;
    }
  }
  return std::shared_ptr<const serve::Snapshot>(std::move(snap));
}

}  // namespace lps
