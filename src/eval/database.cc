#include "eval/database.h"

#include <algorithm>

#include "lang/clause.h"
#include "term/printer.h"

namespace lps {

Database::Database(TermStore* store, const Signature* sig)
    : store_(store), sig_(sig),
      domains_(std::make_shared<TermDomains>()) {
  RegisterTerm(store_->EmptySet());
}

namespace {

// Copy-on-write: a relation shared with another database (a published
// snapshot, or a demand request aliasing one) is privatized before any
// mutation escapes.
Relation* Own(std::shared_ptr<Relation>* rel) {
  if (rel->use_count() > 1) *rel = std::make_shared<Relation>(**rel);
  return rel->get();
}

}  // namespace

Relation& Database::relation(PredicateId pred) {
  auto it = relations_.find(pred);
  if (it != relations_.end()) return *Own(&it->second);
  size_t arity = sig_->info(pred).arity();
  return *relations_.emplace(pred, std::make_shared<Relation>(arity))
              .first->second;
}

Relation* Database::MutableRelation(PredicateId pred) {
  auto it = relations_.find(pred);
  if (it == relations_.end()) return nullptr;
  return Own(&it->second);
}

const Relation* Database::FindRelation(PredicateId pred) const {
  auto it = relations_.find(pred);
  return it == relations_.end() ? nullptr : it->second.get();
}

Relation::InsertOutcome Database::AddTupleEx(PredicateId pred,
                                             TupleRef t) {
  for (TermId term : t) RegisterTerm(term);
  Relation::InsertOutcome out = relation(pred).InsertRow(t);
  if (out.added) ++version_;
  return out;
}

bool Database::AddFact(PredicateId pred, TupleRef args) {
  Relation::InsertOutcome out = AddTupleEx(pred, args);
  Relation& rel = relation(pred);
  rel.SetBaseCount(out.row, rel.base_count(out.row) + 1);
  return out.added;
}

uint32_t Database::FactCount(PredicateId pred, TupleRef args) const {
  const Relation* rel = FindRelation(pred);
  RowId r = rel == nullptr ? Relation::kNoRow : rel->Find(args);
  return r == Relation::kNoRow ? 0 : rel->base_count(r);
}

void Database::SetFactCount(PredicateId pred, TupleRef args,
                            uint32_t count) {
  RowId r = count > 0 ? AddTupleEx(pred, args).row : FindRow(pred, args);
  if (r != Relation::kNoRow) relation(pred).SetBaseCount(r, count);
}

size_t Database::fact_count() const {
  size_t n = 0;
  for (const auto& [pred, rel] : relations_) n += rel->base_rows();
  return n;
}

Database::FactSeed Database::ListFactSeed(const Program& program) const {
  std::vector<bool> heads_rule(program.signature().size());
  for (const Clause& c : program.clauses()) heads_rule[c.head.pred] = true;
  FactSeed seed;
  for (PredicateId p : SortedPredicates()) {
    const Relation& rel = *FindRelation(p);
    if (p >= heads_rule.size() || !heads_rule[p]) {
      seed.aliased.push_back(p);
      continue;
    }
    if (rel.base_rows() == 0) continue;
    for (RowId r = 0; r < rel.size(); ++r) {
      if (rel.base_count(r) > 0) seed.copied.emplace_back(p, r);
    }
  }
  return seed;
}

void Database::SeedFacts(const Database& src, const FactSeed& seed,
                         Database* index_home) {
  index_home_ = index_home;
  for (PredicateId p : seed.aliased) AliasRelation(p, src);
  for (const auto& [p, r] : seed.copied) {
    const Relation& from = *src.FindRelation(p);
    Relation& to = relation(p);
    to.SetBaseCount(to.InsertRow(from.row(r)).row, from.base_count(r));
  }
}

std::unique_ptr<Database> Database::FactsFor(const Program& program) const {
  auto db = std::make_unique<Database>(store_, &program.signature());
  db->SeedFacts(*this, ListFactSeed(program));
  for (PredicateId p : db->SortedPredicates()) {
    const Relation& rel = *db->FindRelation(p);
    for (RowId r = 0; r < rel.size(); ++r) {
      if (!rel.IsLive(r)) continue;
      for (TermId t : rel.row(r)) db->RegisterTerm(t);
    }
  }
  return db;
}

size_t Database::EndBulkLoad(const Relation::BulkLoad::Outcome& out) {
  version_ += out.added;
  return out.added;
}

bool Database::Contains(PredicateId pred, TupleRef t) const {
  const Relation* rel = FindRelation(pred);
  return rel != nullptr && rel->Contains(t);
}

RowId Database::FindRow(PredicateId pred, TupleRef t) const {
  const Relation* rel = FindRelation(pred);
  return rel == nullptr ? Relation::kNoRow : rel->Find(t);
}

bool Database::EraseTuple(PredicateId pred, TupleRef t) {
  Relation* rel = MutableRelation(pred);
  if (rel == nullptr) return false;
  RowId r = rel->Find(t);
  if (r == Relation::kNoRow || !rel->EraseRow(r)) return false;
  ++version_;
  return true;
}

bool Database::EraseRow(PredicateId pred, RowId r) {
  Relation* rel = MutableRelation(pred);
  if (rel == nullptr || !rel->EraseRow(r)) return false;
  ++version_;
  return true;
}

void Database::RegisterTerm(TermId t) {
  if (domains_->Has(t) || !store_->is_ground(t)) return;
  // Copy-on-write: domains shared with a published snapshot
  // (CloneInto aliases them) are privatized before the first mutation
  // escapes.
  if (domains_.use_count() > 1) {
    domains_ = std::make_shared<TermDomains>(*domains_);
  }
  RegisterTermOwned(t);
}

void Database::RegisterTermOwned(TermId t) {
  if (!store_->is_ground(t)) return;
  if (!domains_->Add(t)) return;
  ++version_;
  if (store_->sort(t) == Sort::kSet) {
    domains_->sets.push_back(t);
    for (TermId e : store_->args(t)) RegisterTermOwned(e);
  } else {
    domains_->atoms.push_back(t);
    // Atoms built from function symbols contribute their subterms too.
    for (TermId a : store_->args(t)) RegisterTermOwned(a);
  }
}

size_t Database::TupleCount() const {
  size_t n = 0;
  for (const auto& [pred, rel] : relations_) n += rel->live_size();
  return n;
}

size_t Database::RelationSize(PredicateId pred) const {
  const Relation* rel = FindRelation(pred);
  return rel == nullptr ? 0 : rel->size();
}

std::vector<std::pair<PredicateId, RelationStats>> Database::CollectStats()
    const {
  std::vector<std::pair<PredicateId, RelationStats>> out;
  out.reserve(relations_.size());
  for (const auto& [pred, rel] : relations_) {
    out.emplace_back(pred, rel->Stats());
  }
  return out;
}

Database::StorageStats Database::storage_stats(
    bool with_index_bytes) const {
  StorageStats s;
  for (const auto& [pred, rel] : relations_) {
    if (rel.use_count() > 1) continue;  // another database's storage
    s.arena_bytes += rel->ArenaBytes();
    if (with_index_bytes) s.index_bytes += rel->IndexBytes();
    s.dedup_probes += rel->dedup_probes();
  }
  return s;
}

std::unique_ptr<Database> Database::CloneInto(TermStore* store,
                                              const Signature* sig,
                                              const Database* prev) const {
  auto clone = std::make_unique<Database>(store, sig);
  clone->relations_.reserve(relations_.size());
  for (const auto& [pred, rel] : relations_) {
    if (prev != nullptr) {
      auto it = prev->relations_.find(pred);
      if (it != prev->relations_.end() &&
          it->second->content_tick() == rel->content_tick()) {
        // Unchanged since prev froze it: alias prev's immutable object.
        // Equal ticks imply identical content (NextContentTick is
        // process-wide unique), and prev's copy is already
        // index-frozen.
        clone->relations_.emplace(pred, it->second);
        continue;
      }
    }
    // Relation's value semantics copy arenas and indexes, so the clone
    // never aliases this database's storage.
    clone->relations_.emplace(pred, std::make_shared<Relation>(*rel));
  }
  // Plain member copies overwrite the constructor's {}-registration.
  // Domains alias rather than copy: they are append-only, and
  // RegisterTerm on either side privatizes before writing.
  clone->domains_ = domains_;
  clone->version_ = version_;
  return clone;
}

void Database::AliasRelation(PredicateId pred, const Database& src) {
  auto it = src.relations_.find(pred);
  if (it != src.relations_.end()) relations_.insert_or_assign(pred, it->second);
}

const Relation* Database::EnsureIndex(PredicateId pred, uint32_t mask) {
  auto it = relations_.find(pred);
  if (it == relations_.end()) return nullptr;
  if (mask == 0 || it->second->HasIndexBuilt(mask)) return it->second.get();
  if (index_home_ != nullptr) {
    auto home = index_home_->relations_.find(pred);
    if (home != index_home_->relations_.end() && home->second == it->second) {
      // Dropping this share first lets the home build in place unless
      // a snapshot shares the relation too.
      it->second.reset();
      Own(&home->second)->EnsureIndex(mask);
      it->second = home->second;
      return it->second.get();
    }
  }
  Relation* rel = Own(&it->second);
  rel->EnsureIndex(mask);
  return rel;
}

void Database::FreezeIndexes() {
  for (auto& [pred, rel] : relations_) {
    if (rel.use_count() > 1) continue;  // shared => frozen at prior publish
    rel->FreezeIndexes();
  }
}

std::vector<std::pair<PredicateId, const Relation*>> Database::Relations()
    const {
  std::vector<std::pair<PredicateId, const Relation*>> out;
  out.reserve(relations_.size());
  for (const auto& [pred, rel] : relations_) {
    out.emplace_back(pred, rel.get());
  }
  return out;
}

std::vector<PredicateId> Database::SortedPredicates() const {
  // relations_ is an unordered_map, so sort by predicate id: dump order
  // must not vary run to run (locked in by DatabaseTest).
  std::vector<PredicateId> preds;
  preds.reserve(relations_.size());
  for (const auto& [pred, rel] : relations_) preds.push_back(pred);
  std::sort(preds.begin(), preds.end());
  return preds;
}

std::string Database::ToString(const Signature& sig) const {
  std::string out;
  for (PredicateId p : SortedPredicates()) {
    const Relation& rel = *FindRelation(p);
    for (RowId r = 0; r < rel.size(); ++r) {
      if (!rel.IsLive(r)) continue;
      out += sig.Name(p);
      out += '(';
      out += TermListToString(*store_, rel.row(r));
      out += ").\n";
    }
  }
  return out;
}

std::string Database::ToCanonicalString(const Signature& sig) const {
  std::string out;
  std::vector<std::string> rows;
  for (PredicateId p : SortedPredicates()) {
    const Relation& rel = *FindRelation(p);
    rows.clear();
    rows.reserve(rel.live_size());
    for (RowId r = 0; r < rel.size(); ++r) {
      if (!rel.IsLive(r)) continue;
      std::string line = sig.Name(p);
      line += '(';
      line += TermListToString(*store_, rel.row(r));
      line += ").\n";
      rows.push_back(std::move(line));
    }
    std::sort(rows.begin(), rows.end());
    for (std::string& line : rows) out += line;
  }
  return out;
}

}  // namespace lps
