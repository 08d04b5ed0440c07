// Tests for the Status/Result error-handling substrate and string
// helpers.
#include "base/status.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <unordered_map>
#include <vector>

#include "base/hash.h"
#include "base/id_table.h"
#include "base/strings.h"
#include "base/worker_pool.h"

namespace lps {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorsCarryCodeAndMessage) {
  Status st = Status::SortError("boom");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kSortError);
  EXPECT_EQ(st.message(), "boom");
  EXPECT_EQ(st.ToString(), "SortError: boom");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kStratificationError);
       ++c) {
    EXPECT_STRNE(StatusCodeToString(static_cast<StatusCode>(c)),
                 "Unknown");
  }
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
}

TEST(ResultTest, ValueAndStatusAccess) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  EXPECT_EQ(ok.ValueOr(0), 42);

  Result<int> err = Status::NotFound("nope");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(err.ValueOr(7), 7);
}

TEST(ResultTest, MoveOnlyValues) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Result<int> DoubleIfPositive(int x) {
  LPS_RETURN_IF_ERROR(FailIfNegative(x));
  return 2 * x;
}

Result<int> ChainThrough(int x) {
  LPS_ASSIGN_OR_RETURN(int doubled, DoubleIfPositive(x));
  return doubled + 1;
}

TEST(ResultTest, MacrosPropagate) {
  auto good = ChainThrough(3);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 7);
  auto bad = ChainThrough(-3);
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({}, ", "), "");
  EXPECT_EQ(Join({"a"}, ", "), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, " | "), "a | b | c");
}

TEST(StringsTest, IntegerLiteral) {
  EXPECT_TRUE(IsIntegerLiteral("0"));
  EXPECT_TRUE(IsIntegerLiteral("-42"));
  EXPECT_TRUE(IsIntegerLiteral("123456"));
  EXPECT_FALSE(IsIntegerLiteral(""));
  EXPECT_FALSE(IsIntegerLiteral("-"));
  EXPECT_FALSE(IsIntegerLiteral("12a"));
  EXPECT_FALSE(IsIntegerLiteral("a12"));
}

TEST(HashTest, RangeHashingIsOrderSensitive) {
  std::vector<uint32_t> a = {1, 2, 3};
  std::vector<uint32_t> b = {3, 2, 1};
  std::vector<uint32_t> c = {1, 2, 3};
  EXPECT_EQ(HashRange(a), HashRange(c));
  EXPECT_NE(HashRange(a), HashRange(b));  // overwhelmingly likely
}


// ---- WorkerPool ------------------------------------------------------

// ---- IdTable ---------------------------------------------------------

// Keys for an IdTable: they live in the caller's vector, and the hash
// collides on purpose. Even keys all hash to one value whose home is
// the last slot at every capacity up to 2^16, so their probes wrap
// around at once; odd keys share six more hash values. Probe chains
// run long, cross the array's end, and every growth rehashes them.
class CollidingKeys {
 public:
  CollidingKeys() {
    while ((Mix64(last_slot_hash_) & 0xFFFF) != 0xFFFF) ++last_slot_hash_;
  }
  size_t Hash(uint64_t k) const {
    return k % 2 == 0 ? last_slot_hash_ : k % 6;
  }
  auto Eq(uint64_t k) const {
    return [this, k](uint32_t id) { return keys[id] == k; };
  }
  auto HashOf() const {
    return [this](uint32_t id) { return Hash(keys[id]); };
  }
  uint32_t Find(const IdTable& table, uint64_t k) const {
    return table.Find(Hash(k), Eq(k));
  }

  std::vector<uint64_t> keys;  // by id

 private:
  size_t last_slot_hash_ = 0;
};

TEST(IdTableTest, MatchesUnorderedMapUnderCollisions) {
  std::mt19937_64 rng(7);
  CollidingKeys ck;
  IdTable table;
  std::unordered_map<uint64_t, uint32_t> oracle;
  for (int round = 0; round < 3; ++round) {
    for (int op = 0; op < 3000; ++op) {
      const uint64_t k = rng() % 2000;
      if (rng() % 3 == 0) {
        const uint64_t probes = table.probes();
        auto it = oracle.find(k);
        EXPECT_EQ(ck.Find(table, k),
                  it == oracle.end() ? IdTable::kNone : it->second);
        EXPECT_EQ(table.probes(), probes);  // Find counts nothing
        continue;
      }
      const uint32_t fresh = static_cast<uint32_t>(ck.keys.size());
      const uint64_t probes = table.probes();
      const uint32_t id =
          table.FindOrInsert(ck.Hash(k), fresh, ck.Eq(k), ck.HashOf());
      EXPECT_GT(table.probes(), probes);
      auto [it, inserted] = oracle.emplace(k, fresh);
      ASSERT_EQ(id, it->second);
      if (inserted) ck.keys.push_back(k);
      ASSERT_EQ(table.size(), oracle.size());
      // A power of two, never past 3/4 full.
      EXPECT_EQ(table.capacity() & (table.capacity() - 1), 0u);
      EXPECT_LE(table.size() * 4, table.capacity() * 3);
    }

    // Reserve jumps to the capacity the inserts would double up to.
    const size_t capacity = table.capacity();
    const size_t doublings = table.Reserve(3000, ck.HashOf());
    EXPECT_EQ(table.capacity(), capacity << doublings);
    EXPECT_LE((table.size() + 3000) * 4, table.capacity() * 3);
    EXPECT_GT((table.size() + 3000) * 4, table.capacity() / 2 * 3);
    EXPECT_EQ(table.Reserve(3000, ck.HashOf()), 0u);
    for (const auto& [k, id] : oracle) EXPECT_EQ(ck.Find(table, k), id);

    // Clear keeps the capacity; the next round refills it.
    const size_t reserved = table.capacity();
    table.Clear();
    oracle.clear();
    ck.keys.clear();
    EXPECT_EQ(table.size(), 0u);
    EXPECT_EQ(table.capacity(), reserved);
    for (uint64_t k = 0; k < 20; ++k) {
      EXPECT_EQ(ck.Find(table, k), IdTable::kNone);
    }
  }
}

TEST(IdTableTest, RangeProbesWithRenumberingMatchSequentialInserts) {
  // Relation::BulkLoad's partitioned dedup: staged keys probe, part by
  // part, only their part's slots; probes that reach a part's end (the
  // wrapping ones among them) finish afterwards over the whole array.
  // First occurrences are then renumbered densely in input order.
  std::mt19937_64 rng(11);
  CollidingKeys ck;
  IdTable table;
  std::unordered_map<uint64_t, uint32_t> oracle;
  for (int i = 0; i < 300; ++i) {
    const uint64_t k = rng() % 1500;
    const uint32_t fresh = static_cast<uint32_t>(ck.keys.size());
    if (table.FindOrInsert(ck.Hash(k), fresh, ck.Eq(k), ck.HashOf()) ==
        fresh) {
      ck.keys.push_back(k);
      oracle.emplace(k, fresh);
    }
  }
  const uint32_t stored = static_cast<uint32_t>(ck.keys.size());
  const uint64_t probes_before = table.probes();

  constexpr size_t kStaged = 2000;
  constexpr size_t kParts = 3;
  std::vector<uint64_t> staged(kStaged);
  for (uint64_t& k : staged) k = rng() % 1500;
  table.Reserve(kStaged, ck.HashOf());
  ck.keys.insert(ck.keys.end(), staged.begin(), staged.end());
  const size_t capacity = table.capacity();
  auto part_of = [&](size_t slot) { return slot * kParts / capacity; };
  auto part_end = [&](size_t part) {
    return ((part + 1) * capacity + kParts - 1) / kParts;
  };

  std::vector<uint32_t> got(kStaged, IdTable::kNone);
  std::vector<uint32_t> deferred;
  uint64_t probes = 0;
  for (size_t part = 0; part < kParts; ++part) {
    for (size_t i = 0; i < kStaged; ++i) {
      const size_t home = table.Home(ck.Hash(staged[i]));
      if (part_of(home) != part) continue;
      got[i] = table.ProbeRange(home, part_end(part),
                                static_cast<uint32_t>(stored + i),
                                ck.Eq(staged[i]), &probes);
      if (got[i] == IdTable::kNone) deferred.push_back(i);
    }
  }
  EXPECT_FALSE(deferred.empty());  // the last part's keys wrap
  std::sort(deferred.begin(), deferred.end());
  for (uint32_t i : deferred) {
    const uint32_t id = static_cast<uint32_t>(stored + i);
    const size_t home = table.Home(ck.Hash(staged[i]));
    got[i] = table.ProbeRange(home, capacity, id, ck.Eq(staged[i]), &probes);
    if (got[i] == IdTable::kNone) {
      got[i] = table.ProbeRange(0, capacity, id, ck.Eq(staged[i]), &probes);
    }
    ASSERT_NE(got[i], IdTable::kNone);
  }
  EXPECT_EQ(table.size(), stored);  // range probes leave the count
  EXPECT_EQ(table.probes(), probes_before);

  std::vector<uint32_t> final_id(kStaged);
  uint32_t next = stored;
  for (size_t i = 0; i < kStaged; ++i) {
    if (got[i] == stored + i) {
      final_id[i] = next++;
    } else if (got[i] >= stored) {
      final_id[i] = final_id[got[i] - stored];
    } else {
      final_id[i] = got[i];
    }
    auto [it, inserted] =
        oracle.emplace(staged[i], static_cast<uint32_t>(oracle.size()));
    EXPECT_EQ(final_id[i], it->second);
  }
  table.Renumber(stored, [&](uint32_t id) { return final_id[id - stored]; });
  table.EndRangeProbes(next, probes);
  EXPECT_EQ(table.size(), oracle.size());
  EXPECT_EQ(table.probes(), probes_before + probes);

  ck.keys.resize(next);
  for (const auto& [k, id] : oracle) ck.keys[id] = k;
  for (const auto& [k, id] : oracle) EXPECT_EQ(ck.Find(table, k), id);
  // Inserts go on from the renumbered count.
  const uint64_t k = 5000;
  EXPECT_EQ(table.FindOrInsert(ck.Hash(k), next, ck.Eq(k), ck.HashOf()),
            next);
}

TEST(WorkerPoolTest, RunsEveryLaneExactlyOnce) {
  WorkerPool pool(4);
  ASSERT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(4);
  pool.Run([&](size_t lane) { hits[lane].fetch_add(1); });
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(WorkerPoolTest, ReusableAcrossManyRuns) {
  WorkerPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.Run([&](size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 150);
}

TEST(WorkerPoolTest, SingleLanePoolRunsInline) {
  WorkerPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  pool.Run([&](size_t lane) {
    EXPECT_EQ(lane, 0u);
    seen = std::this_thread::get_id();
  });
  EXPECT_EQ(seen, caller);
}

TEST(WorkerPoolTest, ZeroLanesClampsToOne) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(WorkerPoolTest, SharedCounterWorkClaiming) {
  // The evaluator's scheduling pattern: lanes drain a task counter.
  WorkerPool pool(4);
  constexpr size_t kTasks = 1000;
  std::atomic<size_t> next{0};
  std::vector<std::atomic<int>> done(kTasks);
  pool.Run([&](size_t) {
    for (;;) {
      size_t t = next.fetch_add(1);
      if (t >= kTasks) break;
      done[t].fetch_add(1);
    }
  });
  for (size_t i = 0; i < kTasks; ++i) ASSERT_EQ(done[i].load(), 1);
}

TEST(WorkerPoolTest, HardwareConcurrencyNeverZero) {
  EXPECT_GE(WorkerPool::HardwareConcurrency(), 1u);
}
}  // namespace
}  // namespace lps
