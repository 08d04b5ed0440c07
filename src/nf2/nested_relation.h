// Non-first-normal-form (nested) relations [JS82] - the data model the
// paper's Examples 4 and 6 draw from. Columns are atom- or set-sorted;
// `Unnest` is the operation of Example 4 and `Nest` its inverse
// (grouping by the remaining columns). ExportFacts bridges a nested
// relation into a session's EDB, through a mutation batch.
#ifndef LPS_NF2_NESTED_RELATION_H_
#define LPS_NF2_NESTED_RELATION_H_

#include <string>
#include <vector>

#include "eval/relation.h"
#include "lang/program.h"

namespace lps {

class MutationBatch;

class NestedRelation {
 public:
  NestedRelation(std::vector<std::string> column_names,
                 std::vector<Sort> column_sorts);

  size_t arity() const { return sorts_.size(); }
  const std::vector<std::string>& column_names() const { return names_; }
  const std::vector<Sort>& column_sorts() const { return sorts_; }
  const std::vector<Tuple>& rows() const { return rows_; }
  size_t size() const { return rows_.size(); }

  /// Adds a ground row; checks arity and column sorts.
  Status AddRow(const TermStore& store, Tuple row);

  /// Example 4: replaces the set column `column` by one row per element.
  /// Rows with an empty set in that column vanish.
  Result<NestedRelation> Unnest(const TermStore& store,
                                size_t column) const;

  /// [JS82] nest: groups rows by all columns except `column` (which must
  /// be atom-sorted) and collects the values into a set column.
  Result<NestedRelation> Nest(TermStore* store, size_t column) const;

  /// Natural ordering-insensitive equality (same rows as a set).
  bool SameRows(const NestedRelation& other) const;

  /// Stages every row as a fact for `pred` (declared at commit if
  /// necessary) into `batch`; the facts take effect when the caller
  /// commits it.
  Status ExportFacts(MutationBatch* batch, const std::string& pred) const;

  /// Builds a nested relation from an evaluated Relation.
  static Result<NestedRelation> FromRelation(
      const TermStore& store, const Relation& rel,
      std::vector<std::string> column_names, std::vector<Sort> sorts);

  std::string ToString(const TermStore& store) const;

 private:
  std::vector<std::string> names_;
  std::vector<Sort> sorts_;
  std::vector<Tuple> rows_;
};

}  // namespace lps

#endif  // LPS_NF2_NESTED_RELATION_H_
