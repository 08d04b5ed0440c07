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

constexpr size_t kInitialSlots = 16;

bool RowsEqual(TupleRef a, TupleRef b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

// Home slot for a hash: Mix64 first (see base/hash.h - unmixed
// HashCombine output clusters sequential TermIds under a power-of-two
// mask, which makes linear-probe misses quadratic).
size_t Slot(size_t hash, size_t cap_mask) {
  return static_cast<size_t>(Mix64(hash)) & cap_mask;
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
  if (dedup_slots_.empty()) dedup_slots_.assign(kInitialSlots, 0);
  // The table holds exactly one entry per arena row (dead rows keep
  // theirs), so num_rows_ is the exact entry count for the load test.
  if ((num_rows_ + 1) * 4 > dedup_slots_.size() * 3) GrowDedup();
  const size_t cap_mask = dedup_slots_.size() - 1;
  size_t slot = Slot(HashRange(t), cap_mask);
  for (;;) {
    ++dedup_probes_;
    uint32_t entry = dedup_slots_[slot];
    if (entry == 0) break;
    if (RowsEqual(row(entry - 1), t)) {
      const RowId r = entry - 1;
      if (IsLive(r)) return {false, false, r};
      // The probe landed on a tombstoned row holding this tuple:
      // revive it in place. Its RowId, dedup entry, and every posting
      // that lists it serve again; the arena does not grow.
      dead_[r] = false;
      --dead_count_;
      content_tick_ = NextContentTick();
      return {true, true, r};
    }
    slot = (slot + 1) & cap_mask;
  }
  const RowId r = static_cast<RowId>(num_rows_);
  dedup_slots_[slot] = r + 1;
  arena_.insert(arena_.end(), t.begin(), t.end());
  ++num_rows_;
  content_tick_ = NextContentTick();
  return {true, false, r};
}

void Relation::GrowDedup() {
  const size_t cap = dedup_slots_.size() * 2;
  std::vector<uint32_t> fresh(cap, 0);
  const size_t cap_mask = cap - 1;
  for (uint32_t entry : dedup_slots_) {
    if (entry == 0) continue;
    size_t slot = Slot(HashRange(row(entry - 1)), cap_mask);
    while (fresh[slot] != 0) slot = (slot + 1) & cap_mask;
    fresh[slot] = entry;
  }
  dedup_slots_.swap(fresh);
}

size_t Relation::Reserve(size_t additional_rows) {
  const size_t target_rows = num_rows_ + additional_rows;
  arena_.reserve(target_rows * arity_);
  size_t cap = dedup_slots_.empty() ? kInitialSlots : dedup_slots_.size();
  size_t doublings = 0;
  while (target_rows * 4 > cap * 3) {
    cap *= 2;
    ++doublings;
  }
  if (doublings == 0) return 0;
  if (dedup_slots_.empty()) {
    // No entries yet: allocate at final size, zero rehash work at all.
    dedup_slots_.assign(cap, 0);
    return doublings;
  }
  // One rehash straight to the final size, in place of the `doublings`
  // incremental rehashes the upcoming inserts would have triggered.
  std::vector<uint32_t> fresh(cap, 0);
  const size_t cap_mask = cap - 1;
  for (uint32_t entry : dedup_slots_) {
    if (entry == 0) continue;
    size_t slot = Slot(HashRange(row(entry - 1)), cap_mask);
    while (fresh[slot] != 0) slot = (slot + 1) & cap_mask;
    fresh[slot] = entry;
  }
  dedup_slots_.swap(fresh);
  return doublings;
}

Relation::BulkLoad::BulkLoad(Relation* rel, size_t n, size_t parts)
    : rel_(rel),
      stored_(rel->num_rows_),
      n_(n),
      parts_(std::max<size_t>(1, parts)),
      home_(std::make_unique_for_overwrite<uint32_t[]>(n)),
      dest_(std::make_unique_for_overwrite<uint32_t[]>(n)),
      parts_state_(parts_) {
  if (rel->dedup_slots_.empty()) rel->dedup_slots_.assign(kInitialSlots, 0);
  // Every fact fits under the load factor, so the table never grows
  // (and its parts never move) while the load runs.
  rehashes_avoided_ = rel->Reserve(n);
  rel->arena_.resize((stored_ + n) * rel->arity_);
  const size_t cap = rel->dedup_slots_.size();
  shift_ = std::countr_zero(cap);
  for (size_t part = 0; part < parts_; ++part) {
    parts_state_[part].end = ((part + 1) * cap + parts_ - 1) / parts_;
  }
}

size_t Relation::BulkLoad::Staged(size_t i) {
  const size_t slot = Slot(HashRange(TupleRef(Row(i), rel_->arity_)),
                           rel_->dedup_slots_.size() - 1);
  home_[i] = static_cast<uint32_t>(slot);
  return PartOf(slot);
}

bool Relation::BulkLoad::ProbeFrom(size_t slot, size_t end, size_t i,
                                   uint64_t* probes) {
  std::vector<uint32_t>& slots = rel_->dedup_slots_;
  const TupleRef t(Row(i), rel_->arity_);
  for (; slot < end; ++slot) {
    ++*probes;
    const uint32_t entry = slots[slot];
    if (entry == 0) {
      slots[slot] = static_cast<uint32_t>(stored_ + i + 1);
      dest_[i] = kFirst;
      return true;
    }
    if (RowsEqual(rel_->row(entry - 1), t)) {
      dest_[i] = entry - 1;
      return true;
    }
  }
  return false;
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
  for (PartState& ps : parts_state_) {
    rel.dedup_probes_ += ps.probes;
    deferred.insert(deferred.end(), ps.deferred.begin(), ps.deferred.end());
  }
  std::sort(deferred.begin(), deferred.end());
  const size_t cap = rel.dedup_slots_.size();
  for (uint32_t i : deferred) {
    // Wraps around once at most: the table always has an empty slot.
    if (!ProbeFrom(home_[i], cap, i, &rel.dedup_probes_)) {
      ProbeFrom(0, cap, i, &rel.dedup_probes_);
    }
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
    for (uint32_t& entry : rel.dedup_slots_) {
      if (entry > stored_) entry = dest_[entry - 1 - stored_] + 1;
    }
  }
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
  if (dedup_slots_.empty()) return kNoRow;
  const size_t cap_mask = dedup_slots_.size() - 1;
  size_t slot = Slot(HashRange(t), cap_mask);
  for (;;) {
    uint32_t entry = dedup_slots_[slot];
    if (entry == 0) return kNoRow;
    if (RowsEqual(row(entry - 1), t)) {
      // One entry per tuple value, so this is the only candidate: a
      // dead hit means the tuple is absent, no need to probe further.
      return IsLive(entry - 1) ? entry - 1 : kNoRow;
    }
    slot = (slot + 1) & cap_mask;
  }
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
  indexes_.push_back(Index{mask, 0, {}, {}});
  indexes_.back().slots.assign(kInitialSlots, 0);
  CatchUp(&indexes_.back());
}

void Relation::FreezeIndexes() {
  for (Index& ix : indexes_) CatchUp(&ix);
}

void Relation::CatchUp(Index* ix) {
  // Insertion order, so posting lists stay ascending.
  for (size_t i = ix->built_up_to; i < num_rows_; ++i) {
    IndexInsert(ix, static_cast<RowId>(i));
  }
  ix->built_up_to = num_rows_;
}

void Relation::IndexInsert(Index* ix, RowId r) {
  if ((ix->postings.size() + 1) * 4 > ix->slots.size() * 3) {
    GrowIndex(ix, *this);
  }
  TupleRef t = row(r);
  const size_t cap_mask = ix->slots.size() - 1;
  size_t slot = Slot(HashMasked(t, ix->mask), cap_mask);
  for (;;) {
    uint32_t entry = ix->slots[slot];
    if (entry == 0) {
      ix->slots[slot] = static_cast<uint32_t>(ix->postings.size()) + 1;
      ix->postings.emplace_back(1, r);
      return;
    }
    std::vector<RowId>& bucket = ix->postings[entry - 1];
    if (MaskedEquals(row(bucket.front()), t, ix->mask)) {
      bucket.push_back(r);
      return;
    }
    slot = (slot + 1) & cap_mask;
  }
}

void Relation::GrowIndex(Index* ix, const Relation& rel) {
  const size_t cap = ix->slots.size() * 2;
  std::vector<uint32_t> fresh(cap, 0);
  const size_t cap_mask = cap - 1;
  for (uint32_t entry : ix->slots) {
    if (entry == 0) continue;
    size_t slot = Slot(
        HashMasked(rel.row(ix->postings[entry - 1].front()), ix->mask),
        cap_mask);
    while (fresh[slot] != 0) slot = (slot + 1) & cap_mask;
    fresh[slot] = entry;
  }
  ix->slots.swap(fresh);
}

const std::vector<RowId>* Relation::ProbeIndex(const Index& ix,
                                               TupleRef key) const {
  if (ix.slots.empty()) return nullptr;
  const size_t cap_mask = ix.slots.size() - 1;
  size_t slot = Slot(HashMasked(key, ix.mask), cap_mask);
  for (;;) {
    uint32_t entry = ix.slots[slot];
    if (entry == 0) return nullptr;
    const std::vector<RowId>& bucket = ix.postings[entry - 1];
    if (MaskedEquals(row(bucket.front()), key, ix.mask)) return &bucket;
    slot = (slot + 1) & cap_mask;
  }
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
    const std::vector<RowId>* bucket = ProbeIndex(ix, key);
    if (bucket != nullptr) {
      // Tombstoned rows stay listed and are skipped.
      for (RowId ti : *bucket) {
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
  size_t bytes = dedup_slots_.capacity() * sizeof(uint32_t);
  for (const Index& ix : indexes_) {
    bytes += ix.slots.capacity() * sizeof(uint32_t);
    bytes += ix.postings.capacity() * sizeof(std::vector<RowId>);
    for (const std::vector<RowId>& bucket : ix.postings) {
      bytes += bucket.capacity() * sizeof(RowId);
    }
  }
  return bytes;
}

}  // namespace lps
