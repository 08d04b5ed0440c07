// Open-addressed hash table from keys to dense uint32_t ids. Every
// table of the engine that hands out or looks up such ids is a use of
// it: the relation dedup table and per-mask indexes, the term and
// symbol interners, the group-by keys and the retract memo (DESIGN.md
// §12).
//
// The table stores ids only. The keys they name live in the caller's
// arena (rows, term nodes, names), and the caller supplies the hash and
// the equality. Slots hold id + 1, and 0 marks an empty slot. The
// capacity is a power of two, a hash's home slot is Mix64(hash) masked
// to it (base/hash.h), probing is linear, and the table doubles before
// an insert would take it past 3/4 full. A rehash re-places the entries
// in slot order, so one insert sequence always leaves one layout and
// costs one probe count.
#ifndef LPS_BASE_ID_TABLE_H_
#define LPS_BASE_ID_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/hash.h"

namespace lps {

class IdTable {
 public:
  /// "No entry": what Find returns when no key matches, and ProbeRange
  /// when it reaches its end.
  static constexpr uint32_t kNone = UINT32_MAX;
  /// Capacity of the first allocation.
  static constexpr size_t kMinCapacity = 16;

  /// `capacity` (0 or a power of two) slots now; 0 allocates
  /// kMinCapacity at the first insert.
  explicit IdTable(size_t capacity = 0) : slots_(capacity, 0) {}

  /// Entries stored.
  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }
  /// Bytes reserved by the slot array.
  size_t bytes() const { return slots_.capacity() * sizeof(uint32_t); }
  /// Slots read by FindOrInsert, and by the range probes EndRangeProbes
  /// reported. Find counts nothing.
  uint64_t probes() const { return probes_; }

  /// The stored id whose key `eq(id)` accepts among those hashed to
  /// `hash`, or kNone. Writes nothing, so any number of threads may
  /// call it while no thread inserts.
  template <typename Eq>
  uint32_t Find(size_t hash, Eq&& eq) const {
    if (slots_.empty()) return kNone;
    const size_t mask = slots_.size() - 1;
    for (size_t slot = Home(hash);; slot = (slot + 1) & mask) {
      const uint32_t entry = slots_[slot];
      if (entry == 0) return kNone;
      if (eq(entry - 1)) return entry - 1;
    }
  }

  /// Find, inserting `id` when nothing matches: returns the matching
  /// id, or `id` when it was inserted. The caller mints `id`, which no
  /// entry holds yet. `hash_of(stored id)` rehashes the entries when
  /// the table grows, which it does before probing.
  template <typename Eq, typename HashOf>
  uint32_t FindOrInsert(size_t hash, uint32_t id, Eq&& eq,
                        HashOf&& hash_of) {
    if (slots_.empty()) {
      Resize(kMinCapacity, hash_of);
    } else if ((size_ + 1) * 4 > slots_.size() * 3) {
      Resize(2 * slots_.size(), hash_of);
    }
    const size_t mask = slots_.size() - 1;
    for (size_t slot = Home(hash);; slot = (slot + 1) & mask) {
      ++probes_;
      const uint32_t entry = slots_[slot];
      if (entry == 0) {
        slots_[slot] = id + 1;
        ++size_;
        return id;
      }
      if (eq(entry - 1)) return entry - 1;
    }
  }

  /// Sizes the table for `additional` more entries in one allocation
  /// or rehash, to the capacity those inserts would have doubled up to.
  /// Returns the doublings it spared them.
  template <typename HashOf>
  size_t Reserve(size_t additional, HashOf&& hash_of) {
    size_t capacity = slots_.empty() ? kMinCapacity : slots_.size();
    size_t doublings = 0;
    while ((size_ + additional) * 4 > capacity * 3) {
      capacity *= 2;
      ++doublings;
    }
    if (capacity != slots_.size()) Resize(capacity, hash_of);
    return doublings;
  }

  /// Empties the table and keeps its capacity.
  void Clear() {
    std::fill(slots_.begin(), slots_.end(), 0);
    size_ = 0;
  }

  // ---- Partitioned probing (Relation::BulkLoad) ----------------------
  // Threads that own disjoint slot ranges probe them at once, with the
  // table sized beforehand (Reserve) so it never grows meanwhile; one
  // thread ends the run with EndRangeProbes.

  /// Home slot of `hash` at the current capacity, which is not 0.
  size_t Home(size_t hash) const {
    return static_cast<size_t>(Mix64(hash)) & (slots_.size() - 1);
  }
  /// Cache hint for a probe that starts at `slot`.
  void Prefetch(size_t slot) const {
    __builtin_prefetch(slots_.data() + slot);
  }

  /// FindOrInsert from `slot` that reads only the slots before `end`:
  /// returns kNone when it reaches `end` first. It writes only the
  /// empty slot it fills and counts its probes into *probes alone, and
  /// size() leaves out what it inserts until EndRangeProbes.
  template <typename Eq>
  uint32_t ProbeRange(size_t slot, size_t end, uint32_t id, Eq&& eq,
                      uint64_t* probes) {
    for (; slot < end; ++slot) {
      ++*probes;
      const uint32_t entry = slots_[slot];
      if (entry == 0) {
        slots_[slot] = id + 1;
        return id;
      }
      if (eq(entry - 1)) return entry - 1;
    }
    return kNone;
  }

  /// Replaces every stored id >= `first` with renumber(id).
  template <typename Fn>
  void Renumber(uint32_t first, Fn&& renumber) {
    for (uint32_t& entry : slots_) {
      if (entry > first) entry = renumber(entry - 1) + 1;
    }
  }

  /// Ends a run of range probes: the table holds `size` entries, and
  /// the run's `probes` join probes().
  void EndRangeProbes(size_t size, uint64_t probes) {
    size_ = size;
    probes_ += probes;
  }

 private:
  template <typename HashOf>
  void Resize(size_t capacity, HashOf& hash_of) {
    std::vector<uint32_t> old(capacity, 0);
    old.swap(slots_);
    const size_t mask = capacity - 1;
    for (uint32_t entry : old) {
      if (entry == 0) continue;
      size_t slot = Home(hash_of(entry - 1));
      while (slots_[slot] != 0) slot = (slot + 1) & mask;
      slots_[slot] = entry;
    }
  }

  std::vector<uint32_t> slots_;
  size_t size_ = 0;
  uint64_t probes_ = 0;
};

}  // namespace lps

#endif  // LPS_BASE_ID_TABLE_H_
