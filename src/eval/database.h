// The evaluation database: one Relation per predicate plus the active
// Herbrand domains. It is also the program's one fact store: a ground
// fact (Definition 6's EDB) is a row whose base count is above 0
// (Relation::base_count), so facts and the tuples derived from them
// share one relation, and the multiset semantics of adding and
// retracting facts lives in the counts.
//
// The paper's semantics ranges over the full (infinite) Herbrand
// universe; the engine evaluates over the *active domain* - every
// ground term that occurs in a stored tuple, plus the empty set (which
// Definition 4's vacuous-truth rule makes ubiquitous). Quantified
// variables whose value is not otherwise constrained range over these
// domains (see DESIGN.md, substitution table).
//
// Relations may be shared between databases (a snapshot and its
// successor, a demand request and the snapshot it reads, and a demand
// evaluation and the session database, only while it runs). Readers use
// const paths only - FindRelation, Relation::Lookup, Contains - and the
// only writes are inserts, erases and index builds, every one of which
// copies a shared relation first. That copy-on-write is the single
// guard on shared relations: an evaluator never needs to know which
// of its relations are shared.
#ifndef LPS_EVAL_DATABASE_H_
#define LPS_EVAL_DATABASE_H_

#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "eval/relation.h"
#include "lang/program.h"

namespace lps {

class Database {
 public:
  Database(TermStore* store, const Signature* sig);

  TermStore* store() const { return store_; }

  /// Mutable accessor; creates the relation on first use. Relations
  /// are held by shared_ptr so a database can share unchanged ones with
  /// another (CloneInto with a `prev`, AliasRelation); this accessor,
  /// like every other write path here (inserts, erases, EnsureIndex),
  /// copies-on-write when the relation is shared, so a mutation can
  /// never be observed through the other database. A session relation
  /// is shared only with published snapshots and, while a demand
  /// evaluation runs, with its private database, so the hot evaluation
  /// paths rarely pay the copy.
  Relation& relation(PredicateId pred);
  const Relation* FindRelation(PredicateId pred) const;

  /// Inserts a ground tuple; returns true if new. Registers the tuple's
  /// terms (and, recursively, set elements) in the active domains. The
  /// TermIds are copied into the relation's row arena; `t` need not
  /// outlive the call.
  bool AddTuple(PredicateId pred, TupleRef t) {
    return AddTupleEx(pred, t).added;
  }
  bool AddTuple(PredicateId pred, std::initializer_list<TermId> t) {
    return AddTuple(pred, TupleRef(t.begin(), t.size()));
  }

  /// AddTuple with the full Relation::InsertOutcome: the evaluator
  /// reads `.revived`, since a revived row sits below its delta
  /// watermarks and must reach the next round another way
  /// (BottomUpEvaluator::AddRow); fact writers read `.row`.
  Relation::InsertOutcome AddTupleEx(PredicateId pred, TupleRef t);

  // ---- Facts ---------------------------------------------------------

  /// Asserts the ground fact p(args) once more: inserts its row when
  /// absent or tombstoned (as AddTuple does) and raises the row's base
  /// count by one. Returns true if the tuple is new. The fact must pass
  /// CheckFact (lang/validate.h).
  bool AddFact(PredicateId pred, TupleRef args);
  bool AddFact(PredicateId pred, std::initializer_list<TermId> args) {
    return AddFact(pred, TupleRef(args.begin(), args.size()));
  }

  /// Base count of p(args): 0 when it is absent or only derived.
  uint32_t FactCount(PredicateId pred, TupleRef args) const;

  /// Sets p(args)'s base count; retracting a fact sets a lower one. A
  /// count above 0 inserts the row first when it is absent. A count of
  /// 0 leaves the row where it is: it may still be derived, and the
  /// caller tombstones it when it is not.
  void SetFactCount(PredicateId pred, TupleRef args, uint32_t count);

  /// One base fact: `args`, asserted `count` times, under `pred`.
  struct Fact {
    PredicateId pred;
    TupleRef args;
    uint32_t count;
  };

  /// Calls fn(const Fact&) on every base fact in (PredicateId, row)
  /// order, each row once. fn must not insert into this database.
  template <typename Fn>
  void ForEachFact(Fn&& fn) const {
    for (PredicateId p : SortedPredicates()) {
      const Relation& rel = *FindRelation(p);
      if (rel.base_rows() == 0) continue;
      for (RowId r = 0; r < rel.size(); ++r) {
        if (rel.base_count(r) > 0) fn(Fact{p, rel.row(r), rel.base_count(r)});
      }
    }
  }

  /// Distinct base facts: rows with a base count above 0.
  size_t fact_count() const;

  /// What seeding an evaluation with this database's facts (SeedFacts)
  /// takes, listed once per program and fact set: the predicates that
  /// head no rule, whose relations hold only facts and are shared
  /// whole, and the base rows of the rule-headed ones, which are copied
  /// so their derived rows stay behind.
  struct FactSeed {
    std::vector<PredicateId> aliased;
    std::vector<std::pair<PredicateId, RowId>> copied;
  };
  FactSeed ListFactSeed(const Program& program) const;

  /// The one way a database is seeded with another's facts: aliases
  /// `seed.aliased` from `src` (AliasRelation) and copies
  /// `seed.copied`, in order and with their counts, into fresh
  /// relations. `seed` must be listed from `src` since its last
  /// change. Registers no term in the active domains: a demand
  /// evaluation never reads them (magic.cc rejects every rewrite with
  /// an enumeration step). With `index_home` - `src` itself, when the
  /// caller may write it (a session's own database) - an index this
  /// database needs on a relation it still shares with `src` is built
  /// in src's relation and shared again (EnsureIndex), so it is built
  /// once for every later evaluation instead of on a copy each time.
  void SeedFacts(const Database& src, const FactSeed& seed,
                 Database* index_home = nullptr);

  /// A fresh database for evaluating `program` that holds this one's
  /// facts and nothing derived: seeded by SeedFacts, with active
  /// domains registered from its rows in (PredicateId, row) order, so
  /// a term only a retracted fact carried is gone. `program` must
  /// share this database's term store and extend its signature (a
  /// transform's output does). Session::ResetDatabase is this.
  std::unique_ptr<Database> FactsFor(const Program& program) const;

  /// Takes an ended Relation::BulkLoad (run on relation(pred) for some
  /// pred) into the version. After it, the database is as AddFact of
  /// each fact in input order would have left it, provided the caller
  /// registered the facts' terms (RegisterTerm) in that order. Returns
  /// the facts that became live.
  size_t EndBulkLoad(const Relation::BulkLoad::Outcome& out);

  bool Contains(PredicateId pred, TupleRef t) const;
  bool Contains(PredicateId pred, std::initializer_list<TermId> t) const {
    return Contains(pred, TupleRef(t.begin(), t.size()));
  }

  /// RowId of the live row storing `t`, or Relation::kNoRow.
  RowId FindRow(PredicateId pred, TupleRef t) const;

  /// Tombstones the live row storing `t` (Relation::EraseRow). Active
  /// domains are append-only and keep any terms the row contributed -
  /// harmless for the incremental fragment, which never enumerates
  /// domains (see DESIGN.md section 16). Returns false if absent.
  bool EraseTuple(PredicateId pred, TupleRef t);

  /// Tombstones row r of pred's relation (Relation::EraseRow).
  bool EraseRow(PredicateId pred, RowId r);

  /// Ground atoms of sort a seen so far.
  const std::vector<TermId>& atom_domain() const { return domains_->atoms; }
  /// Ground sets seen so far (always contains {}).
  const std::vector<TermId>& set_domain() const { return domains_->sets; }

  /// Adds a ground term (and its subterms) to the active domains without
  /// storing any tuple. Used to seed domains, e.g. with all subsets of
  /// an EDB set for the disjoint-union examples.
  void RegisterTerm(TermId t);

  /// Total stored tuples across all relations.
  size_t TupleCount() const;

  /// Monotonically increasing version; bumped by every successful
  /// AddTuple / new domain registration. Rule-level change tracking in
  /// the evaluator compares versions.
  uint64_t version() const { return version_; }

  /// Version of a single relation (its size) plus domain sizes; used to
  /// detect novelty for specific predicates.
  size_t RelationSize(PredicateId pred) const;

  /// Planner statistics (Relation::Stats) of every materialized
  /// relation, in unspecified order. Consumers key by PredicateId, so
  /// the unordered_map iteration order never influences a plan.
  std::vector<std::pair<PredicateId, RelationStats>> CollectStats() const;

  /// Aggregate storage-engine footprint across the relations this
  /// database holds alone (see Relation::ArenaBytes / IndexBytes /
  /// dedup_probes); a relation shared with another database
  /// (AliasRelation, CloneInto with a `prev`) is that database's
  /// storage and is not walked. IndexBytes walks every posting bucket,
  /// so callers on a per-commit fast path (incremental maintenance)
  /// pass `with_index_bytes = false` and keep the last fully computed
  /// figure instead.
  struct StorageStats {
    size_t arena_bytes = 0;
    size_t index_bytes = 0;
    uint64_t dedup_probes = 0;
  };
  StorageStats storage_stats(bool with_index_bytes = true) const;

  /// Deterministic dump: relations ordered by PredicateId, rows in
  /// insertion order (dead rows skipped).
  std::string ToString(const Signature& sig) const;

  /// Order-independent dump: relations ordered by PredicateId, rendered
  /// rows sorted lexicographically per relation. Two databases holding
  /// the same tuple sets compare equal here even when insertion orders
  /// differ - the equivalence witness for incremental maintenance,
  /// whose re-derivation order legitimately differs from a from-scratch
  /// fixpoint's.
  std::string ToCanonicalString(const Signature& sig) const;

  // ---- Snapshot publication (serve/snapshot.h) -----------------------

  /// Copy re-bound to `store` and `sig`, which must resolve every
  /// TermId / PredicateId this database holds identically - i.e. be
  /// the TermStore::Clone() of this database's store and the signature
  /// of a Program::CloneInto against it. Copies rows, domains, indexes
  /// and the version counter, so the clone is byte-equivalent for
  /// every read. With `prev` (incremental snapshot republication,
  /// Session::FreezeIncremental), a relation whose content_tick matches
  /// the same predicate's relation in `prev` - one that has not changed
  /// since `prev` was frozen from this database - shares prev's
  /// immutable Relation object (arena, dedup table and per-mask indexes
  /// included) instead of being deep-copied. `prev` must be a frozen
  /// snapshot database of the same session lineage (enforced by the
  /// caller via snapshot session ids).
  std::unique_ptr<Database> CloneInto(TermStore* store, const Signature* sig,
                                      const Database* prev = nullptr) const;

  /// Makes `src`'s relation for `pred` this database's relation too
  /// (replacing any it had; a no-op when `src` has none), shared the
  /// way CloneInto with a `prev` shares: reads see `src`'s rows and
  /// indexes in place, and the first write - an insert or an index
  /// build - copies the relation first, so `src` never observes it.
  /// Both databases must resolve pred's TermIds identically (see
  /// CloneInto). The serving path's demand requests alias a converged
  /// snapshot's EDB relations this way (serve/server.cc).
  void AliasRelation(PredicateId pred, const Database& src);

  /// The one way an index gets built: makes `pred`'s relation carry a
  /// per-mask index for `mask` covering every row, so its Lookup(mask)
  /// hits, and returns the relation - or null when it is absent (none
  /// is created). Builds nothing for mask 0 (Lookup lists rows without
  /// an index) or when the index already covers every row; a shared
  /// relation is copied only when it must build, so an indexed
  /// snapshot relation stays shared - unless it is shared with the
  /// seeding database's `index_home` (SeedFacts), which builds it.
  const Relation* EnsureIndex(PredicateId pred, uint32_t mask);

  /// Catches up every index of every relation
  /// (Relation::FreezeIndexes); the last mutation before a snapshot is
  /// published. Relations shared with another database (CloneInto
  /// with a `prev`) are skipped: they were frozen when first published
  /// and are unchanged since, so catch-up would be a no-op - and
  /// routing it through the copy-on-write accessor would needlessly
  /// unshare them.
  void FreezeIndexes();

  /// (pred, relation) pointer of every materialized relation, in
  /// unspecified order. Pointer equality with another database's entry
  /// witnesses physical sharing - the introspection hook behind the
  /// relations_shared / bytes_shared serving stats and the COW tests.
  std::vector<std::pair<PredicateId, const Relation*>> Relations() const;

 private:
  /// Mutable lookup without creation; copies-on-write like relation().
  Relation* MutableRelation(PredicateId pred);

  /// The active Herbrand domains, held behind a shared_ptr so clones
  /// (CloneInto) alias them instead of copying the registered-term
  /// set. Append-only; RegisterTerm privatizes the
  /// object first whenever it is shared with another database, so a
  /// published snapshot never observes a mutation.
  struct TermDomains {
    std::vector<TermId> atoms;
    std::vector<TermId> sets;
    /// Bit t is set once term t is registered. The bits live in pages
    /// of 4096 ids, a page allocated when a term of its range is first
    /// registered: a database that registers few terms (a demand
    /// request's) pays a page per range it touches plus a 4-byte page
    /// entry per 4096 ids below the highest one - never a bit per term
    /// of the store.
    static constexpr int kPageBits = 12;
    static constexpr size_t kPageWords = size_t{1} << (kPageBits - 6);
    std::vector<uint32_t> page_of;  // t >> kPageBits -> page + 1, 0 = none
    std::vector<uint64_t> pages;    // kPageWords words per page

    bool Has(TermId t) const {
      const size_t p = t >> kPageBits;
      if (p >= page_of.size() || page_of[p] == 0) return false;
      const uint64_t w =
          pages[(page_of[p] - 1) * kPageWords + ((t >> 6) & (kPageWords - 1))];
      return (w >> (t & 63)) & 1;
    }
    /// Sets bit t; false if it was set already.
    bool Add(TermId t) {
      const size_t p = t >> kPageBits;
      if (p >= page_of.size()) page_of.resize(p + 1, 0);
      if (page_of[p] == 0) {
        pages.resize(pages.size() + kPageWords, 0);
        page_of[p] = static_cast<uint32_t>(pages.size() / kPageWords);
      }
      uint64_t& w =
          pages[(page_of[p] - 1) * kPageWords + ((t >> 6) & (kPageWords - 1))];
      const uint64_t bit = uint64_t{1} << (t & 63);
      if (w & bit) return false;
      w |= bit;
      return true;
    }
  };

  /// RegisterTerm body after the copy-on-write privatization check.
  void RegisterTermOwned(TermId t);

  /// The predicates with a relation, ascending: the deterministic order
  /// of every whole-database walk.
  std::vector<PredicateId> SortedPredicates() const;

  TermStore* store_;
  const Signature* sig_;
  std::unordered_map<PredicateId, std::shared_ptr<Relation>> relations_;
  std::shared_ptr<TermDomains> domains_;
  uint64_t version_ = 0;
  Database* index_home_ = nullptr;  // see SeedFacts
};

}  // namespace lps

#endif  // LPS_EVAL_DATABASE_H_
