// Flat row-arena tuple storage for one predicate, with open-addressed
// hash indexes on bound-column masks.
//
// Every stored row lives in one contiguous TermId arena (row i = the
// span at i * arity), addressed by dense RowIds. The dedup table and
// the per-mask indexes store only RowIds and hash/compare directly
// against the arena, so inserting a tuple costs zero per-tuple heap
// allocations (amortized) and probes touch cache-friendly flat memory
// instead of chasing per-tuple vector headers. Set-valued columns are
// interned TermIds, so comparisons stay O(1) per column (the paper's
// set-interning win, now without allocator traffic on top).
#ifndef LPS_EVAL_RELATION_H_
#define LPS_EVAL_RELATION_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

#include "base/hash.h"
#include "base/id_table.h"
#include "term/term.h"

namespace lps {

/// An owned tuple of interned TermIds. Boundary type only: stored rows
/// live in the Relation's arena and are viewed through TupleRef;
/// Tuples are materialized where ownership must outlive the store
/// (AnswerCursor::ToVector, staged mutations, scratch buffers).
using Tuple = std::vector<TermId>;

/// Zero-copy view of one stored row (or of any TermId sequence). Views
/// into a Relation are invalidated by its next Insert.
using TupleRef = std::span<const TermId>;

/// Dense row handle within one Relation: row r occupies the arena span
/// [r * arity, (r + 1) * arity).
using RowId = uint32_t;

struct TupleHash {
  size_t operator()(const Tuple& t) const { return HashRange(t); }
};

/// Process-wide monotonic counter for Relation content versioning.
/// Every successful content mutation (new row, erase, revive, base
/// count change) stamps the relation with a fresh tick; copies inherit
/// the source's tick.
/// Ticks are never reused, so tick equality between two Relation
/// objects witnesses that one was copied from the other (possibly
/// transitively) with no content change since - the sharing test for
/// copy-on-write snapshot republication (serve/snapshot.h), robust
/// against same-count-different-content histories (erase X + revive Y)
/// and against databases rebuilt from scratch.
uint64_t NextContentTick();

/// Cheap statistics snapshot of one relation, extracted from state the
/// storage engine already maintains: the live row count and, for every
/// per-mask index built so far, how many distinct keys its bucket
/// table holds over how many indexed rows. The cost-based join planner
/// (eval/plan.h PlannerStats) turns these into bound-selectivity
/// estimates; nothing here triggers an index build or a scan.
struct RelationStats {
  size_t live_rows = 0;
  /// Physical rows in the arena, tombstones included: what a full scan
  /// actually walks. Sustained retract-heavy churn can grow this past
  /// live_rows (re-adding an erased tuple revives its row, but rows
  /// retracted and never re-added stay as tombstones), and the planner
  /// charges scans by it.
  size_t arena_rows = 0;
  struct MaskStats {
    uint32_t mask = 0;
    size_t distinct_keys = 0;  // bucket count of the per-mask index
    size_t rows_indexed = 0;   // indexed row prefix, dead rows included
    bool operator==(const MaskStats&) const = default;
  };
  /// One entry per built index, in unspecified order (look up by mask).
  std::vector<MaskStats> masks;

  /// Equal counts and the same index entries, in any order.
  bool operator==(const RelationStats& o) const {
    return live_rows == o.live_rows && arena_rows == o.arena_rows &&
           std::is_permutation(masks.begin(), masks.end(), o.masks.begin(),
                               o.masks.end());
  }
};

/// Append-only tuple set over a flat row arena. Row order is insertion
/// order, which the semi-naive evaluator exploits: rows at RowId >=
/// some watermark form the delta of an iteration.
///
/// A row may also be a base fact: its base count is how many times the
/// tuple was asserted as a fact and not retracted (the program's facts
/// are a multiset), and 0 marks a row that is only derived. The counts
/// are allocated with the relation's first fact, so a relation that
/// holds none pays nothing for them.
///
/// Retraction is tombstoning, not compaction: EraseRow marks the row
/// dead but leaves the arena, the dedup entry, and every per-mask
/// posting list untouched, so RowIds (and the watermark arithmetic
/// built on them) stay stable. The dedup table keeps exactly one
/// entry per stored tuple value, dead or alive: Insert of a tuple
/// whose probe lands on a dead row *revives* that row in place
/// instead of appending a duplicate, so toggle churn (retract/insert
/// of the same facts) runs at steady arena size. Readers filter
/// through IsLive - Lookup does it internally, walkers of rows() must
/// do it themselves. An erase/revive round trip is invisible to the
/// indexes.
///
/// Reads and index builds are separate: Lookup is the one probe, and
/// it is const - it never builds or extends an index - so any number
/// of threads may probe while no insert or index build runs. Indexes
/// are built only by EnsureIndex (callers go through
/// Database::EnsureIndex, which copies a shared relation first).
class Relation {
 public:
  /// Bound-column masks are 32-bit, so only the first 32 columns can
  /// ever be mask-bound. Wider relations still store and match fine:
  /// ColumnBit() returns 0 past the limit, which routes those columns
  /// through the scan-side equality re-check instead of the index.
  static constexpr size_t kMaxIndexedColumns = 32;

  /// Find() result for a row that is absent (or tombstoned).
  static constexpr RowId kNoRow = static_cast<RowId>(-1);

  explicit Relation(size_t arity)
      : arity_(arity), content_tick_(NextContentTick()) {}

  size_t arity() const { return arity_; }
  /// Content version stamp (see NextContentTick). Equal ticks on two
  /// relations imply identical content (rows, tombstones, dedup state);
  /// index sets may still differ (index builds don't change content).
  uint64_t content_tick() const { return content_tick_; }
  /// Arena row count, dead rows included - the watermark domain.
  size_t size() const { return num_rows_; }
  /// Rows currently alive (size() minus tombstones).
  size_t live_size() const { return num_rows_ - dead_count_; }
  size_t dead_count() const { return dead_count_; }

  /// False iff row r was erased (and not revived).
  bool IsLive(RowId r) const {
    return r >= dead_.size() || !dead_[r];
  }

  /// Base (explicit-fact) count of row r; 0 for a derived row.
  uint32_t base_count(RowId r) const {
    return r < base_.size() ? base_[r] : 0;
  }
  /// Sets row r's base count. A change is a content change: it takes a
  /// fresh content tick.
  void SetBaseCount(RowId r, uint32_t count);
  /// Rows whose base count is above 0.
  size_t base_rows() const { return base_rows_; }

  /// Zero-copy view of row r; valid until the next Insert.
  TupleRef row(RowId r) const {
    return TupleRef(arena_.data() + static_cast<size_t>(r) * arity_,
                    arity_);
  }

  /// Owned copy of row r (survives later inserts).
  Tuple MaterializeRow(RowId r) const {
    TupleRef t = row(r);
    return Tuple(t.begin(), t.end());
  }

  // ---- Row iteration: for (TupleRef t : rel.rows()) ------------------
  // The range is a snapshot of [0, size()) at call time; inserting
  // while iterating invalidates the views (copy rows first if the loop
  // body can insert).

  class RowIterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = TupleRef;
    using difference_type = std::ptrdiff_t;

    RowIterator(const TermId* base, size_t arity, size_t i)
        : base_(base), arity_(arity), i_(i) {}
    TupleRef operator*() const {
      return TupleRef(base_ + i_ * arity_, arity_);
    }
    RowIterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const RowIterator& o) const { return i_ == o.i_; }
    bool operator!=(const RowIterator& o) const { return i_ != o.i_; }

   private:
    const TermId* base_;
    size_t arity_;
    size_t i_;
  };

  class RowRange {
   public:
    RowRange(const TermId* base, size_t arity, size_t n)
        : base_(base), arity_(arity), n_(n) {}
    RowIterator begin() const { return RowIterator(base_, arity_, 0); }
    RowIterator end() const { return RowIterator(base_, arity_, n_); }
    size_t size() const { return n_; }

   private:
    const TermId* base_;
    size_t arity_;
    size_t n_;
  };

  RowRange rows() const { return RowRange(arena_.data(), arity_, num_rows_); }

  /// Result of InsertRow: whether the tuple became newly live, whether
  /// that happened by reviving a tombstoned arena row (as opposed to
  /// appending a fresh one), and the RowId it lives at either way.
  struct InsertOutcome {
    bool added = false;    // tuple was absent-or-dead and is now live
    bool revived = false;  // added by flipping a tombstone, not appending
    RowId row = kNoRow;    // where the tuple lives (valid even if !added)
  };

  /// Inserts; if the dedup probe lands on a tombstoned row holding the
  /// same tuple, that row is revived in place (its RowId, dedup entry,
  /// and index postings all serve again) instead of appending a
  /// duplicate arena row. The row's TermIds are copied into the arena;
  /// `t` need not outlive the call.
  InsertOutcome InsertRow(TupleRef t);

  class BulkLoad;

  /// Inserts; returns true if the tuple became newly live (fresh
  /// append or tombstone revive).
  bool Insert(TupleRef t) { return InsertRow(t).added; }
  bool Insert(std::initializer_list<TermId> t) {
    return Insert(TupleRef(t.begin(), t.size()));
  }

  /// Pre-grows the arena and the dedup table for `additional_rows`
  /// upcoming inserts: the arena reserves capacity and the dedup table
  /// jumps straight to the smallest power-of-two size whose load
  /// factor accommodates size() + additional_rows, paying at most one
  /// rehash now instead of the log-many doubling rehashes the inserts
  /// would otherwise trigger. Returns the number of doubling rehashes
  /// those inserts will no longer perform. Physical layout only: no
  /// content change, so the content tick is NOT advanced (tick equality
  /// still witnesses identical rows/tombstones; callers comparing ticks
  /// never see capacity).
  size_t Reserve(size_t additional_rows);

  bool Contains(TupleRef t) const;
  bool Contains(std::initializer_list<TermId> t) const {
    return Contains(TupleRef(t.begin(), t.size()));
  }

  /// RowId of the live row equal to `t`, or kNoRow.
  RowId Find(TupleRef t) const;

  /// Tombstones row r: marks it dead. The arena, the dedup entry, and
  /// the per-mask indexes keep the row (readers skip it via IsLive;
  /// the retained dedup entry is what lets a later Insert of the same
  /// tuple revive r instead of appending). Returns false if r was
  /// already dead.
  bool EraseRow(RowId r);

  /// Undoes EraseRow: marks r live again, so its still-present dedup
  /// entry and postings serve it again. Returns false if r was not
  /// dead.
  bool Revive(RowId r);

  /// Builds (or catches up) the index for `mask` over all rows
  /// currently stored, so that Lookup(mask, ...) hits it until the next
  /// insert.
  void EnsureIndex(uint32_t mask);

  /// Catches every existing per-mask index up to the current row count,
  /// so a subsequent Lookup always hits a prebuilt index for those
  /// masks. Freeze-time step of snapshot publication
  /// (serve/snapshot.h).
  void FreezeIndexes();

  /// True iff the index for `mask` exists and covers every stored row,
  /// i.e. EnsureIndex(mask) would be a pure no-op. Lets
  /// Database::EnsureIndex leave an indexed shared relation shared
  /// instead of copying it just to rebuild an index it already carries.
  bool HasIndexBuilt(uint32_t mask) const;

  /// The probe: fills `out` with the RowIds (ascending) of the live
  /// rows whose columns selected by `mask` (bit i = column i bound)
  /// equal the corresponding entries of `key` (entries for unbound
  /// columns are ignored); mask 0 lists every live row. Never builds or
  /// extends an index and never mutates the relation. Returns true when
  /// an index covering every row answered it (or mask is 0), false when
  /// it had to scan (the result is correct either way).
  bool Lookup(uint32_t mask, TupleRef key, std::vector<RowId>* out) const;
  bool Lookup(uint32_t mask, std::initializer_list<TermId> key,
              std::vector<RowId>* out) const {
    return Lookup(mask, TupleRef(key.begin(), key.size()), out);
  }

  /// Statistics snapshot for the cost-based planner: live rows plus
  /// the distinct-key count of every index built so far. Pure reads of
  /// already-materialized state (no index build, no row scan), so it
  /// is safe to call concurrently with Lookup readers as long as no
  /// insert runs - the same frozen-relation contract.
  RelationStats Stats() const;

  // ---- Storage accounting (EvalStats / .stats) -----------------------

  /// Bytes reserved by the row arena.
  size_t ArenaBytes() const;
  /// Bytes reserved by the dedup table and every per-mask index.
  size_t IndexBytes() const;
  /// Open-addressing probes made by Insert-side dedup so far. Counted
  /// only on the mutating path, so concurrent Contains/Lookup readers
  /// stay pure (no shared counter races during the parallel
  /// phase).
  uint64_t dedup_probes() const { return dedup_.probes(); }

 private:
  /// One per-mask index: a table of bucket ordinals over posting lists
  /// of RowIds. Keys are never copied - a bucket is identified by its
  /// first RowId and hashed/compared by projecting that row's masked
  /// columns straight from the arena.
  struct Index {
    uint32_t mask;
    size_t built_up_to = 0;                    // row prefix indexed
    IdTable buckets;                           // key -> bucket ordinal
    std::vector<std::vector<RowId>> postings;  // ordinal -> ascending
  };

  static size_t HashMasked(TupleRef t, uint32_t mask);
  static bool MaskedEquals(TupleRef a, TupleRef b, uint32_t mask);

  size_t RowHash(RowId r) const { return HashRange(row(r)); }
  /// The row whose masked columns are bucket b's key.
  TupleRef BucketKey(const Index& ix, uint32_t b) const {
    return row(ix.postings[b].front());
  }
  /// Indexes the rows `ix` has not seen yet.
  void CatchUp(Index* ix);

  size_t arity_;
  uint64_t content_tick_ = 0;
  size_t num_rows_ = 0;
  std::vector<TermId> arena_;         // num_rows_ * arity_ TermIds
  /// Tuple value -> RowId. Exactly one entry per stored tuple value,
  /// dead rows included (erasing keeps the entry so re-insert can
  /// revive the row), so the entry count is always num_rows_.
  IdTable dedup_;
  std::vector<bool> dead_;            // sized lazily on first erase
  size_t dead_count_ = 0;
  std::vector<uint32_t> base_;        // sized lazily on first fact
  size_t base_rows_ = 0;
  std::vector<Index> indexes_;
};

/// Loads n facts with the dedup probes split across threads. The
/// result is exactly that of inserting the facts in input order with
/// InsertRow and raising each one's base count: the same rows in the
/// same order, the same base counts, the same tombstone revivals.
///
/// The constructor sizes the dedup table for every fact (Reserve) and
/// grows the arena by n rows, one per input index. A fact is staged by
/// writing its row at Row(i) and calling Staged(i), which records its
/// dedup home slot. The table's slots are cut into `parts` contiguous
/// ranges and a fact belongs to the part its home slot falls in, so
/// equal facts share a part: each part is probed by one thread, which
/// calls Probe(part, i) for that part's staged facts in ascending i
/// and, through IdTable::ProbeRange, reads and writes only its own
/// slots and the rows they name. Probe places a first occurrence in
/// the table under its staged row or notes the row it repeats; a probe
/// that would run past the part's last slot waits for End. End (one
/// thread, after every Probe) finishes those, moves the first
/// occurrences down over the repeats in input order, sets base counts,
/// revives repeated tombstoned rows, renumbers the table's entries to
/// the final RowIds and sets its entry count.
///
///   Relation::BulkLoad load(&rel, n, parts);
///   // stage:   copy fact i to load.Row(i); load.Staged(i);
///   // thread k, ascending i:  if (load.part(i) == k) load.Probe(k, i);
///   Relation::BulkLoad::Outcome out = load.End();
///
/// Stage and Probe may overlap: a fact can be probed as soon as it is
/// staged (and that is published to the probing thread). The relation
/// must not be used otherwise between construction and End, and
/// size() + n must stay below 2^32 - 1. A load touches its relation
/// alone, so loads of different relations may run and end at once.
class Relation::BulkLoad {
 public:
  BulkLoad(Relation* rel, size_t n, size_t parts);

  TermId* Row(size_t i) {
    return rel_->arena_.data() + (stored_ + i) * rel_->arity_;
  }
  /// Records the home slot of fact i, whose row is written; returns
  /// its part.
  size_t Staged(size_t i);
  size_t part(size_t i) const { return PartOf(home_[i]); }
  void Probe(size_t part, size_t i);
  /// Cache hint for an upcoming Probe of staged fact i.
  void Prefetch(size_t i) const { rel_->dedup_.Prefetch(home_[i]); }

  struct Outcome {
    size_t added = 0;  // facts that became live
  };
  Outcome End();

  /// Doubling rehashes the presizing spared (Relation::Reserve).
  size_t rehashes_avoided() const { return rehashes_avoided_; }

 private:
  static constexpr uint32_t kFirst = IdTable::kNone;
  struct alignas(64) PartState {
    size_t end = 0;                  // one past the part's last slot
    std::vector<uint32_t> deferred;  // input indexes, ascending
    uint64_t probes = 0;
  };

  // Slot s is in part floor(s * parts / capacity); the capacity is a
  // power of two.
  size_t PartOf(size_t slot) const { return (slot * parts_) >> shift_; }
  // Places fact i at the first empty slot in [slot, end), or notes the
  // row it repeats; false when the probe reaches `end` first.
  bool ProbeFrom(size_t slot, size_t end, size_t i, uint64_t* probes);

  Relation* rel_;
  size_t stored_;  // rows stored before the load
  size_t n_;
  size_t parts_;
  int shift_ = 0;  // log2 of the dedup table's capacity
  size_t rehashes_avoided_ = 0;
  // Per fact, written before it is read (so never zero-filled): its
  // dedup home slot, and kFirst for a first occurrence, else the arena
  // row of the occurrence it repeats (a stored row, or stored_ + j for
  // fact j). End rewrites dest_ of a first occurrence to its RowId.
  std::unique_ptr<uint32_t[]> home_;
  std::unique_ptr<uint32_t[]> dest_;
  std::vector<PartState> parts_state_;
};

/// Bit for column i in a bound-column mask. Columns past
/// kMaxIndexedColumns get bit 0, i.e. they are never mask-bound; scan
/// code re-checks such columns by direct equality instead.
inline constexpr uint32_t ColumnBit(size_t i) {
  return i < Relation::kMaxIndexedColumns
             ? (uint32_t{1} << i)
             : uint32_t{0};
}

/// Whether column i is bound in `mask` (false past kMaxIndexedColumns).
inline constexpr bool MaskHasColumn(uint32_t mask, size_t i) {
  return i < Relation::kMaxIndexedColumns && ((mask >> i) & 1u) != 0;
}

}  // namespace lps

#endif  // LPS_EVAL_RELATION_H_
