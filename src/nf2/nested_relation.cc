#include "nf2/nested_relation.h"

#include <algorithm>
#include <map>

#include "api/mutation.h"
#include "term/printer.h"

namespace lps {

NestedRelation::NestedRelation(std::vector<std::string> column_names,
                               std::vector<Sort> column_sorts)
    : names_(std::move(column_names)), sorts_(std::move(column_sorts)) {}

Status NestedRelation::AddRow(const TermStore& store, Tuple row) {
  if (row.size() != arity()) {
    return Status::InvalidArgument("row arity mismatch");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (!store.is_ground(row[i])) {
      return Status::InvalidArgument("rows must be ground");
    }
    Sort s = store.sort(row[i]);
    if (sorts_[i] != Sort::kAny && s != sorts_[i]) {
      return Status::SortError("column " + names_[i] + " expects " +
                               SortToString(sorts_[i]) + ", got " +
                               SortToString(s));
    }
  }
  if (std::find(rows_.begin(), rows_.end(), row) == rows_.end()) {
    rows_.push_back(std::move(row));
  }
  return Status::OK();
}

Result<NestedRelation> NestedRelation::Unnest(const TermStore& store,
                                              size_t column) const {
  if (column >= arity()) {
    return Status::OutOfRange("unnest column out of range");
  }
  if (sorts_[column] != Sort::kSet) {
    return Status::SortError("unnest requires a set-sorted column");
  }
  std::vector<Sort> sorts = sorts_;
  sorts[column] = Sort::kAny;  // elements may themselves be sets (ELPS)
  NestedRelation out(names_, std::move(sorts));
  for (const Tuple& row : rows_) {
    for (TermId e : store.args(row[column])) {
      Tuple r = row;
      r[column] = e;
      LPS_RETURN_IF_ERROR(out.AddRow(store, std::move(r)));
    }
  }
  return out;
}

Result<NestedRelation> NestedRelation::Nest(TermStore* store,
                                            size_t column) const {
  if (column >= arity()) {
    return Status::OutOfRange("nest column out of range");
  }
  std::vector<Sort> sorts = sorts_;
  sorts[column] = Sort::kSet;
  NestedRelation out(names_, std::move(sorts));

  std::map<Tuple, std::vector<TermId>> groups;
  for (const Tuple& row : rows_) {
    Tuple key;
    key.reserve(arity() - 1);
    for (size_t i = 0; i < arity(); ++i) {
      if (i != column) key.push_back(row[i]);
    }
    groups[std::move(key)].push_back(row[column]);
  }
  for (auto& [key, elements] : groups) {
    TermId set = store->MakeSet(std::span<const TermId>(elements));
    Tuple r;
    r.reserve(arity());
    size_t k = 0;
    for (size_t i = 0; i < arity(); ++i) {
      r.push_back(i == column ? set : key[k++]);
    }
    LPS_RETURN_IF_ERROR(out.AddRow(*store, std::move(r)));
  }
  return out;
}

bool NestedRelation::SameRows(const NestedRelation& other) const {
  if (rows_.size() != other.rows_.size()) return false;
  std::vector<Tuple> a = rows_, b = other.rows_;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

Status NestedRelation::ExportFacts(MutationBatch* batch,
                                   const std::string& pred) const {
  for (const Tuple& row : rows_) {
    LPS_RETURN_IF_ERROR(batch->Add(pred, row));
  }
  return Status::OK();
}

Result<NestedRelation> NestedRelation::FromRelation(
    const TermStore& store, const Relation& rel,
    std::vector<std::string> column_names, std::vector<Sort> sorts) {
  if (column_names.size() != rel.arity() || sorts.size() != rel.arity()) {
    return Status::InvalidArgument("schema arity mismatch");
  }
  NestedRelation out(std::move(column_names), std::move(sorts));
  for (RowId r = 0; r < rel.size(); ++r) {
    if (!rel.IsLive(r)) continue;
    TupleRef t = rel.row(r);
    LPS_RETURN_IF_ERROR(out.AddRow(store, Tuple(t.begin(), t.end())));
  }
  return out;
}

std::string NestedRelation::ToString(const TermStore& store) const {
  std::string out;
  for (size_t i = 0; i < names_.size(); ++i) {
    if (i > 0) out += " | ";
    out += names_[i];
  }
  out += '\n';
  for (const Tuple& row : rows_) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += " | ";
      out += TermToString(store, row[i]);
    }
    out += '\n';
  }
  return out;
}

}  // namespace lps
