// Arena-backed group-by accumulator for grouping heads (Definition 14).
//
// Uses the storage engine's dedup design (eval/relation.h): group keys
// live in one contiguous TermId arena (group g = the span at
// g * key_width), an IdTable (base/id_table.h) maps key spans to dense
// group ordinals (first-witness order), and each group's elements
// form a posting chain in a shared posting arena.
// Steady-state accumulation therefore costs zero heap allocations per
// (key, element) pair - the replacement for the per-row Tuple +
// unordered_map node traffic of the previous std::unordered_map<Tuple,
// vector<TermId>> accumulator.
//
// Ordinals are assigned in first-witness order and CollectElements
// preserves append order, so a deterministic (key, element) input
// stream reproduces a deterministic emission sequence - the property
// the parallel grouping merge relies on for byte-identical databases
// at any lane count (DESIGN.md section 14).
#ifndef LPS_EVAL_GROUPBY_H_
#define LPS_EVAL_GROUPBY_H_

#include <cstdint>
#include <vector>

#include "base/id_table.h"
#include "eval/relation.h"
#include "term/term.h"

namespace lps {

class GroupAccumulator {
 public:
  /// Clears all groups and re-keys the accumulator. Capacity of every
  /// internal buffer is retained, so a reused accumulator reaches
  /// steady state after the first rule run.
  void Reset(size_t key_width);

  /// Dense ordinal of `key` (size key_width), creating the group on
  /// first witness.
  uint32_t Upsert(TupleRef key);

  /// Appends one element to group `group` (duplicates kept; canonical
  /// set construction dedups at emission).
  void Append(uint32_t group, TermId element);

  void AppendPair(TupleRef key, TermId element) {
    Append(Upsert(key), element);
  }

  size_t num_groups() const { return heads_.size(); }
  size_t key_width() const { return key_width_; }

  /// Key tuple of group g; valid until the next Upsert.
  TupleRef key(uint32_t g) const {
    return TupleRef(key_arena_.data() + size_t{g} * key_width_,
                    key_width_);
  }

  /// Visits group g's elements in append order.
  template <typename Fn>
  void ForEachElement(uint32_t g, Fn&& fn) const {
    for (uint32_t at = heads_[g]; at != 0; at = postings_[at - 1].next) {
      fn(postings_[at - 1].elem);
    }
  }

  /// Elements appended across all groups (pre-dedup).
  size_t total_elements() const { return postings_.size(); }

 private:
  size_t key_width_ = 0;
  std::vector<TermId> key_arena_;    // num_groups * key_width ids
  IdTable groups_;                   // key -> group ordinal
  struct Posting {
    TermId elem;
    uint32_t next;  // posting index + 1; 0 = end of chain
  };
  std::vector<Posting> postings_;
  std::vector<uint32_t> heads_;  // posting index + 1 per group; 0 = none
  std::vector<uint32_t> tails_;
};

}  // namespace lps

#endif  // LPS_EVAL_GROUPBY_H_
