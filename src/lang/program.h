// A program's rules: the clauses of Definition 6 over a shared term
// store. Its ground facts (the EDB) are not kept here: they live in the
// evaluation database (eval/database.h), the one fact store.
#ifndef LPS_LANG_PROGRAM_H_
#define LPS_LANG_PROGRAM_H_

#include <memory>
#include <utility>
#include <vector>

#include "lang/clause.h"
#include "lang/signature.h"

namespace lps {

class Program {
 public:
  explicit Program(TermStore* store)
      : store_(store), signature_(&store->symbols()),
        clauses_(std::make_shared<std::vector<Clause>>()) {}

  // Copyable: transforms take a Program and return a rewritten one
  // sharing the same TermStore.
  Program(const Program&) = default;
  Program& operator=(const Program&) = default;

  TermStore* store() const { return store_; }
  Signature& signature() { return signature_; }
  const Signature& signature() const { return signature_; }

  void AddClause(Clause clause) {
    mutable_clauses()->push_back(std::move(clause));
  }

  const std::vector<Clause>& clauses() const { return *clauses_; }
  /// Copy-on-write: Program copies (transform pipelines, snapshot
  /// freezes) share the clause vector; the first mutation through
  /// this accessor privatizes it, so no copy ever observes another's
  /// edits and an unchanged copy costs one shared_ptr bump.
  std::vector<Clause>* mutable_clauses() {
    if (clauses_.use_count() > 1) {
      clauses_ = std::make_shared<std::vector<Clause>>(*clauses_);
    }
    return clauses_.get();
  }

  /// Renders the rules, one clause per line.
  std::string ToString() const;

  /// A copy re-bound to `store`, which must resolve every TermId and
  /// Symbol this program references to the same term/name - i.e. be a
  /// TermStore::Clone() of this program's store (or a clone's clone).
  /// The copy's signature points into `store`'s symbol table, so the
  /// original session can keep interning without the copy observing
  /// anything. This is how a frozen serve::Snapshot and each server
  /// worker get their isolated program view.
  Program CloneInto(TermStore* store) const {
    Program out = *this;
    out.store_ = store;
    out.signature_.RebindSymbols(&store->symbols());
    return out;
  }

 private:
  TermStore* store_;
  Signature signature_;
  // Shared between copies until one side mutates (mutable_clauses).
  std::shared_ptr<std::vector<Clause>> clauses_;
};

}  // namespace lps

#endif  // LPS_LANG_PROGRAM_H_
