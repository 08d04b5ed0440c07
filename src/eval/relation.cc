#include "eval/relation.h"

#include <algorithm>
#include <atomic>
#include <bit>

namespace lps {

uint64_t NextContentTick() {
  // Relaxed is enough: ticks only need to be unique and monotonic per
  // observer, never to order unrelated memory operations.
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

namespace {

bool RowsEqual(TupleRef a, TupleRef b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

}  // namespace

size_t Relation::HashMasked(TupleRef t, uint32_t mask) {
  size_t seed = 0x51ULL;
  // Iterate set bits only: mask bits are guaranteed < 32 by ColumnBit,
  // so this never reads past column 31.
  for (uint32_t m = mask; m != 0; m &= m - 1) {
    size_t i = static_cast<size_t>(std::countr_zero(m));
    HashCombine(&seed, std::hash<uint64_t>{}(t[i]));
  }
  return seed;
}

bool Relation::MaskedEquals(TupleRef a, TupleRef b, uint32_t mask) {
  for (uint32_t m = mask; m != 0; m &= m - 1) {
    size_t i = static_cast<size_t>(std::countr_zero(m));
    if (a[i] != b[i]) return false;
  }
  return true;
}

Relation::InsertOutcome Relation::InsertRow(TupleRef t) {
  const RowId fresh = static_cast<RowId>(num_rows_);
  const RowId r = dedup_.FindOrInsert(
      HashRange(t), fresh, [&](RowId e) { return RowsEqual(row(e), t); },
      [&](RowId e) { return RowHash(e); });
  if (r != fresh) {
    if (IsLive(r)) return {false, false, r};
    // The probe landed on a tombstoned row holding this tuple: revive
    // it in place. Its RowId, dedup entry, and every posting that lists
    // it serve again; the arena does not grow.
    dead_[r] = false;
    --dead_count_;
    content_tick_ = NextContentTick();
    return {true, true, r};
  }
  arena_.insert(arena_.end(), t.begin(), t.end());
  ++num_rows_;
  content_tick_ = NextContentTick();
  return {true, false, r};
}

size_t Relation::Reserve(size_t additional_rows) {
  arena_.reserve((num_rows_ + additional_rows) * arity_);
  return dedup_.Reserve(additional_rows,
                        [&](RowId e) { return RowHash(e); });
}

Relation::BulkLoad::BulkLoad(Relation* rel, size_t n, size_t parts)
    : rel_(rel),
      stored_(rel->num_rows_),
      n_(n),
      parts_(std::max<size_t>(1, parts)),
      home_(std::make_unique_for_overwrite<uint32_t[]>(n)),
      dest_(std::make_unique_for_overwrite<uint32_t[]>(n)),
      parts_state_(parts_) {
  // Every fact fits under the load factor, so the table never grows
  // (and its parts never move) while the load runs.
  rehashes_avoided_ = rel->Reserve(n);
  rel->arena_.resize((stored_ + n) * rel->arity_);
  const size_t cap = rel->dedup_.capacity();
  shift_ = std::countr_zero(cap);
  for (size_t part = 0; part < parts_; ++part) {
    parts_state_[part].end = ((part + 1) * cap + parts_ - 1) / parts_;
  }
}

size_t Relation::BulkLoad::Staged(size_t i) {
  const size_t slot =
      rel_->dedup_.Home(HashRange(TupleRef(Row(i), rel_->arity_)));
  home_[i] = static_cast<uint32_t>(slot);
  return PartOf(slot);
}

bool Relation::BulkLoad::ProbeFrom(size_t slot, size_t end, size_t i,
                                   uint64_t* probes) {
  const TupleRef t(Row(i), rel_->arity_);
  const RowId staged = static_cast<RowId>(stored_ + i);
  const RowId r = rel_->dedup_.ProbeRange(
      slot, end, staged,
      [&](RowId e) { return RowsEqual(rel_->row(e), t); }, probes);
  if (r == IdTable::kNone) return false;
  dest_[i] = r == staged ? kFirst : r;
  return true;
}

void Relation::BulkLoad::Probe(size_t part, size_t i) {
  PartState& ps = parts_state_[part];
  if (!ProbeFrom(home_[i], ps.end, i, &ps.probes)) {
    ps.deferred.push_back(static_cast<uint32_t>(i));
  }
}

Relation::BulkLoad::Outcome Relation::BulkLoad::End() {
  Relation& rel = *rel_;
  Outcome out;
  // Probes that reached their part's end, in input order, probing on
  // through the other parts now that no thread owns them. A repeat of
  // such a fact was deferred too: every slot between their home and
  // the part's end was taken when the first one ran.
  std::vector<uint32_t> deferred;
  uint64_t probes = 0;
  for (PartState& ps : parts_state_) {
    probes += ps.probes;
    deferred.insert(deferred.end(), ps.deferred.begin(), ps.deferred.end());
  }
  std::sort(deferred.begin(), deferred.end());
  const size_t cap = rel.dedup_.capacity();
  for (uint32_t i : deferred) {
    // Wraps around once at most: the table always has an empty slot.
    if (!ProbeFrom(home_[i], cap, i, &probes)) ProbeFrom(0, cap, i, &probes);
  }

  // First occurrences move down over the repeats, in input order; each
  // fact raises the base count of the row it landed on.
  const size_t arity = rel.arity_;
  RowId next = static_cast<RowId>(stored_);
  rel.base_.resize(stored_ + n_, 0);
  for (size_t i = 0; i < n_; ++i) {
    RowId r;
    if (dest_[i] == kFirst) {
      r = next++;
      if (r != stored_ + i) {
        std::copy_n(Row(i), arity, rel.arena_.begin() + r * arity);
      }
      dest_[i] = r;
      ++out.added;
    } else if (dest_[i] >= stored_) {
      r = dest_[dest_[i] - stored_];
    } else {
      r = dest_[i];
      if (!rel.IsLive(r)) {
        rel.dead_[r] = false;
        --rel.dead_count_;
        ++out.added;
      }
    }
    if (rel.base_[r]++ == 0) ++rel.base_rows_;
  }
  if (next != stored_ + n_) {
    // Repeats shifted the first occurrences: renumber their entries.
    rel.dedup_.Renumber(static_cast<RowId>(stored_),
                        [&](RowId e) { return dest_[e - stored_]; });
  }
  rel.dedup_.EndRangeProbes(next, probes);
  rel.num_rows_ = next;
  rel.arena_.resize(next * arity);
  rel.base_.resize(next);
  if (n_ > 0) rel.content_tick_ = NextContentTick();
  return out;
}

bool Relation::Contains(TupleRef t) const {
  return Find(t) != kNoRow;
}

RowId Relation::Find(TupleRef t) const {
  const RowId r = dedup_.Find(HashRange(t),
                              [&](RowId e) { return RowsEqual(row(e), t); });
  // One entry per tuple value, so a dead hit means the tuple is absent.
  return r != IdTable::kNone && IsLive(r) ? r : kNoRow;
}

bool Relation::EraseRow(RowId r) {
  if (r >= num_rows_ || !IsLive(r)) return false;
  // The dedup entry stays: it now marks a tombstoned value that a
  // later Insert of the same tuple revives in place.
  if (dead_.size() < num_rows_) dead_.resize(num_rows_, false);
  dead_[r] = true;
  ++dead_count_;
  content_tick_ = NextContentTick();
  return true;
}

bool Relation::Revive(RowId r) {
  if (r >= dead_.size() || !dead_[r]) return false;
  // The dedup entry survived the erase (and dedup admits no duplicate
  // value while it stands), so reviving is just flipping the bit.
  dead_[r] = false;
  --dead_count_;
  content_tick_ = NextContentTick();
  return true;
}

void Relation::SetBaseCount(RowId r, uint32_t count) {
  if (base_count(r) == count) return;
  if (base_.size() <= r) base_.resize(num_rows_, 0);
  if (base_[r] == 0) {
    ++base_rows_;
  } else if (count == 0) {
    --base_rows_;
  }
  base_[r] = count;
  content_tick_ = NextContentTick();
}

void Relation::EnsureIndex(uint32_t mask) {
  for (Index& ix : indexes_) {
    if (ix.mask == mask) {
      CatchUp(&ix);
      return;
    }
  }
  indexes_.push_back(Index{mask, 0, IdTable(IdTable::kMinCapacity), {}});
  CatchUp(&indexes_.back());
}

void Relation::FreezeIndexes() {
  for (Index& ix : indexes_) CatchUp(&ix);
}

void Relation::CatchUp(Index* ix) {
  const uint32_t mask = ix->mask;
  // Insertion order, so posting lists stay ascending.
  for (size_t i = ix->built_up_to; i < num_rows_; ++i) {
    const RowId r = static_cast<RowId>(i);
    const TupleRef t = row(r);
    const uint32_t fresh = static_cast<uint32_t>(ix->postings.size());
    const uint32_t b = ix->buckets.FindOrInsert(
        HashMasked(t, mask), fresh,
        [&](uint32_t e) { return MaskedEquals(BucketKey(*ix, e), t, mask); },
        [&](uint32_t e) { return HashMasked(BucketKey(*ix, e), mask); });
    if (b == fresh) {
      ix->postings.emplace_back(1, r);
    } else {
      ix->postings[b].push_back(r);
    }
  }
  ix->built_up_to = num_rows_;
}

bool Relation::HasIndexBuilt(uint32_t mask) const {
  for (const Index& ix : indexes_) {
    if (ix.mask == mask) return ix.built_up_to == num_rows_;
  }
  return false;
}

bool Relation::Lookup(uint32_t mask, TupleRef key,
                      std::vector<RowId>* out) const {
  out->clear();
  if (mask == 0) {
    out->reserve(num_rows_ - dead_count_);
    for (size_t i = 0; i < num_rows_; ++i) {
      if (IsLive(static_cast<RowId>(i))) {
        out->push_back(static_cast<RowId>(i));
      }
    }
    return true;
  }
  for (const Index& ix : indexes_) {
    if (ix.mask != mask || ix.built_up_to < num_rows_) continue;
    const uint32_t b = ix.buckets.Find(HashMasked(key, mask), [&](uint32_t e) {
      return MaskedEquals(BucketKey(ix, e), key, mask);
    });
    if (b != IdTable::kNone) {
      // Tombstoned rows stay listed and are skipped.
      for (RowId ti : ix.postings[b]) {
        if (IsLive(ti)) out->push_back(ti);
      }
    }
    return true;
  }
  // No index covers every row: scan.
  for (size_t i = 0; i < num_rows_; ++i) {
    if (!IsLive(static_cast<RowId>(i))) continue;
    TupleRef t = row(static_cast<RowId>(i));
    bool match = true;
    for (size_t c = 0; c < arity_ && match; ++c) {
      if (MaskHasColumn(mask, c) && t[c] != key[c]) match = false;
    }
    if (match) out->push_back(static_cast<RowId>(i));
  }
  return false;
}

RelationStats Relation::Stats() const {
  RelationStats s;
  s.live_rows = num_rows_ - dead_count_;
  // Tombstoned rows stay in the arena and in every posting list until
  // a rebuild, so scans and probes pay for them even though they yield
  // nothing. Report the physical row count alongside the live one: the
  // planner charges scans by rows *walked*, which keeps cost-based
  // plans from parking on a relation that churn has filled with dead
  // rows (DESIGN.md section 17).
  s.arena_rows = num_rows_;
  s.masks.reserve(indexes_.size());
  for (const Index& ix : indexes_) {
    if (ix.built_up_to == 0 || ix.postings.empty()) continue;
    s.masks.push_back({ix.mask, ix.postings.size(), ix.built_up_to});
  }
  return s;
}

size_t Relation::ArenaBytes() const {
  return arena_.capacity() * sizeof(TermId);
}

size_t Relation::IndexBytes() const {
  size_t bytes = dedup_.bytes();
  for (const Index& ix : indexes_) {
    bytes += ix.buckets.bytes();
    bytes += ix.postings.capacity() * sizeof(std::vector<RowId>);
    for (const std::vector<RowId>& bucket : ix.postings) {
      bytes += bucket.capacity() * sizeof(RowId);
    }
  }
  return bytes;
}

}  // namespace lps
