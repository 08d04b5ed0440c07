// Tests for tuple storage, indexes, and the active-domain database.
#include "eval/relation.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "eval/database.h"

namespace lps {
namespace {

// The probe's hits, for compact assertions.
std::vector<RowId> Hits(const Relation& rel, uint32_t mask,
                        const Tuple& key) {
  std::vector<RowId> out;
  rel.Lookup(mask, key, &out);
  return out;
}

TEST(RelationTest, InsertDedupsAndKeepsOrder) {
  Relation rel(2);
  EXPECT_TRUE(rel.Insert({1, 2}));
  EXPECT_TRUE(rel.Insert({3, 4}));
  EXPECT_FALSE(rel.Insert({1, 2}));
  EXPECT_EQ(rel.size(), 2u);
  EXPECT_EQ(rel.MaterializeRow(0), (Tuple{1, 2}));
  EXPECT_EQ(rel.MaterializeRow(1), (Tuple{3, 4}));
  EXPECT_TRUE(rel.Contains({3, 4}));
  EXPECT_FALSE(rel.Contains({4, 3}));
}

TEST(RelationTest, TombstoneChurnKeepsDedupAndLiveViewsCoherent) {
  // Retraction is tombstoning (eval/incremental.h drives it): erase
  // hides the row from Contains/FindRow/live_size but never compacts
  // the arena; Revive undoes an over-delete in place; and a fresh
  // insert of an erased tuple revives its original row rather than
  // appending a duplicate, so toggle churn runs at steady arena size.
  Relation rel(2);
  rel.Insert({1, 10});
  rel.Insert({2, 20});
  rel.Insert({3, 30});
  const Tuple probe{2, 20};
  ASSERT_EQ(rel.Find(probe), 1u);

  EXPECT_TRUE(rel.EraseRow(1));
  EXPECT_FALSE(rel.EraseRow(1));  // already dead
  EXPECT_FALSE(rel.IsLive(1));
  EXPECT_FALSE(rel.Contains({2, 20}));
  EXPECT_EQ(rel.Find(probe), Relation::kNoRow);
  EXPECT_EQ(rel.size(), 3u);       // arena never compacts
  EXPECT_EQ(rel.live_size(), 2u);  // tombstone counted out

  // Live-row enumeration skips the corpse, and so does an indexed
  // probe although the posting list still holds it.
  EXPECT_EQ(Hits(rel, 0, {0, 0}), (std::vector<RowId>{0, 2}));
  rel.EnsureIndex(0b01);
  EXPECT_TRUE(Hits(rel, 0b01, {2, 0}).empty());

  // Erase + Revive round-trip.
  EXPECT_TRUE(rel.Revive(1));
  EXPECT_FALSE(rel.Revive(1));  // already live
  EXPECT_TRUE(rel.Contains({2, 20}));
  EXPECT_EQ(rel.live_size(), 3u);

  // Dedup stays exact through churn: re-inserting a live tuple is
  // still a no-op, and after a second erase a fresh insert of the
  // same tuple revives row 1 in place - the arena does not grow.
  EXPECT_FALSE(rel.Insert({2, 20}));
  EXPECT_TRUE(rel.EraseRow(1));
  Relation::InsertOutcome out = rel.InsertRow(probe);
  EXPECT_TRUE(out.added);
  EXPECT_TRUE(out.revived);
  EXPECT_EQ(out.row, 1u);
  EXPECT_EQ(rel.size(), 3u);
  EXPECT_EQ(rel.live_size(), 3u);
  EXPECT_EQ(rel.Find(probe), 1u);
  EXPECT_FALSE(rel.Revive(1));  // already live again
  // And a reviving insert ticks the content version like any other
  // successful mutation.
  const uint64_t tick = rel.content_tick();
  EXPECT_TRUE(rel.EraseRow(1));
  EXPECT_GT(rel.content_tick(), tick);
  out = rel.InsertRow(probe);
  EXPECT_TRUE(out.revived);
  EXPECT_GT(rel.content_tick(), tick);
}

TEST(RelationTest, ContentTickAdvancesOnMutationOnly) {
  // The copy-on-write sharing witness (Database::CloneInto with a
  // `prev`): ticks
  // are process-globally unique, advance on every successful content
  // mutation, stand still on no-ops and reads, and copies carry their
  // source's tick - so tick equality across a clone lineage certifies
  // identical content.
  Relation rel(2);
  const uint64_t born = rel.content_tick();
  EXPECT_GT(born, 0u);

  EXPECT_TRUE(rel.Insert({1, 2}));
  const uint64_t after_insert = rel.content_tick();
  EXPECT_GT(after_insert, born);
  EXPECT_FALSE(rel.Insert({1, 2}));  // dedup no-op: tick stands still
  EXPECT_EQ(rel.content_tick(), after_insert);
  EXPECT_TRUE(rel.Contains({1, 2}));  // reads never tick
  EXPECT_EQ(rel.content_tick(), after_insert);

  EXPECT_TRUE(rel.EraseRow(0));
  const uint64_t after_erase = rel.content_tick();
  EXPECT_GT(after_erase, after_insert);
  EXPECT_FALSE(rel.EraseRow(0));  // already dead: no-op
  EXPECT_EQ(rel.content_tick(), after_erase);

  EXPECT_TRUE(rel.Revive(0));
  EXPECT_GT(rel.content_tick(), after_erase);

  // A copy inherits the tick (identical content), and a fresh relation
  // never collides with it even when its row/tombstone counts match.
  Relation copy(rel);
  EXPECT_EQ(copy.content_tick(), rel.content_tick());
  Relation twin(2);
  twin.Insert({1, 2});
  twin.EraseRow(0);
  twin.Revive(0);
  EXPECT_NE(twin.content_tick(), rel.content_tick());
  // Diverging the copy re-stamps it.
  EXPECT_TRUE(copy.Insert({3, 4}));
  EXPECT_NE(copy.content_tick(), rel.content_tick());
}

TEST(RelationTest, IndexLookupByMask) {
  Relation rel(2);
  rel.Insert({1, 10});
  rel.Insert({1, 20});
  rel.Insert({2, 10});
  for (uint32_t mask : {0b01u, 0b10u, 0b11u}) rel.EnsureIndex(mask);
  std::vector<RowId> out;
  // Mask 0b01: first column bound.
  EXPECT_TRUE(rel.Lookup(0b01, {1, 0}, &out));
  EXPECT_EQ(out, (std::vector<RowId>{0, 1}));
  // Mask 0b10: second column bound.
  EXPECT_TRUE(rel.Lookup(0b10, {0, 10}, &out));
  EXPECT_EQ(out, (std::vector<RowId>{0, 2}));
  // Full mask.
  EXPECT_EQ(Hits(rel, 0b11, {2, 10}).size(), 1u);
  EXPECT_TRUE(Hits(rel, 0b11, {2, 20}).empty());
}

TEST(RelationTest, IndexCatchesUpAfterInserts) {
  Relation rel(1);
  rel.Insert({7});
  rel.EnsureIndex(0b1);
  EXPECT_EQ(Hits(rel, 0b1, {7}).size(), 1u);
  rel.Insert({7});  // duplicate: no change
  EXPECT_TRUE(rel.HasIndexBuilt(0b1));
  rel.Insert({8});
  EXPECT_FALSE(rel.HasIndexBuilt(0b1));
  rel.EnsureIndex(0b1);
  EXPECT_TRUE(rel.HasIndexBuilt(0b1));
  EXPECT_EQ(Hits(rel, 0b1, {8}).size(), 1u);
  EXPECT_EQ(Hits(rel, 0b1, {7}).size(), 1u);
}

TEST(RelationTest, EmptyMaskScansEverythingWithoutAnIndex) {
  Relation rel(2);
  rel.Insert({1, 2});
  rel.Insert({3, 4});
  std::vector<RowId> out;
  EXPECT_TRUE(rel.Lookup(0, {0, 0}, &out));
  EXPECT_EQ(out.size(), 2u);
  EXPECT_FALSE(rel.HasIndexBuilt(0));
}

TEST(RelationTest, ZeroArityRelation) {
  Relation rel(0);
  EXPECT_TRUE(rel.Insert({}));
  EXPECT_FALSE(rel.Insert({}));
  EXPECT_EQ(Hits(rel, 0, {}).size(), 1u);
}

// ---- Index maintenance: builds are explicit, probes are const --------

TEST(RelationTest, EnsureIndexCatchesUpInInsertionOrder) {
  Relation rel(2);
  rel.Insert({1, 10});
  rel.EnsureIndex(0b01);
  EXPECT_EQ(Hits(rel, 0b01, {1, 0}).size(), 1u);
  rel.Insert({1, 20});
  rel.Insert({2, 30});
  rel.Insert({1, 40});
  // The index catches up incrementally and in insertion order.
  rel.EnsureIndex(0b01);
  std::vector<RowId> hits;
  EXPECT_TRUE(rel.Lookup(0b01, {1, 0}, &hits));
  EXPECT_EQ(hits, (std::vector<RowId>{0, 1, 3}));
  // A second mask built late still sees everything.
  rel.EnsureIndex(0b10);
  rel.EnsureIndex(0b11);
  EXPECT_EQ(Hits(rel, 0b10, {0, 20}).size(), 1u);
  EXPECT_EQ(Hits(rel, 0b11, {1, 40}).size(), 1u);
}

TEST(RelationTest, EnsureIndexCoversProbes) {
  Relation rel(2);
  rel.Insert({1, 10});
  rel.Insert({2, 20});
  rel.EnsureIndex(0b01);
  std::vector<RowId> out;
  // Fully built index: the probe reports an index hit.
  EXPECT_TRUE(rel.Lookup(0b01, {1, 0}, &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 0u);
}

TEST(RelationTest, StaleIndexScansUntilCaughtUp) {
  Relation rel(2);
  rel.Insert({1, 10});
  rel.Insert({1, 20});
  rel.EnsureIndex(0b01);
  // The relation grows without the index catching up - the state
  // between two semi-naive rounds.
  rel.Insert({1, 30});
  rel.Insert({1, 40});
  std::vector<RowId> out;
  // The stale index covers only a prefix, so the probe scans (and
  // builds nothing) but remains correct.
  EXPECT_FALSE(rel.Lookup(0b01, {1, 0}, &out));
  EXPECT_EQ(out, (std::vector<RowId>{0, 1, 2, 3}));
  EXPECT_FALSE(rel.HasIndexBuilt(0b01));
  // After EnsureIndex catches up, the same probe is indexed again.
  rel.EnsureIndex(0b01);
  EXPECT_TRUE(rel.Lookup(0b01, {1, 0}, &out));
  EXPECT_EQ(out, (std::vector<RowId>{0, 1, 2, 3}));
}

TEST(RelationTest, LookupWithoutIndexScans) {
  Relation rel(2);
  rel.Insert({1, 10});
  rel.Insert({2, 20});
  rel.Insert({1, 30});
  std::vector<RowId> out;
  EXPECT_FALSE(rel.Lookup(0b01, {1, 0}, &out));
  EXPECT_EQ(out, (std::vector<RowId>{0, 2}));
  EXPECT_FALSE(rel.HasIndexBuilt(0b01));
}

// ---- Storage parity: randomized differential vs a linear-scan oracle -

// What the storage engine must implement, spelled out the slow way.
std::vector<RowId> OracleLookup(const std::vector<Tuple>& rows,
                                uint32_t mask, const Tuple& key) {
  std::vector<RowId> out;
  for (size_t i = 0; i < rows.size(); ++i) {
    bool match = true;
    for (size_t c = 0; c < rows[i].size() && match; ++c) {
      if (MaskHasColumn(mask, c) && rows[i][c] != key[c]) match = false;
    }
    if (match) out.push_back(static_cast<RowId>(i));
  }
  return out;
}

uint64_t XorShift(uint64_t* s) {
  *s ^= *s << 13;
  *s ^= *s >> 7;
  *s ^= *s << 17;
  return *s;
}

TEST(RelationTest, RandomizedLookupMatchesLinearScanOracle) {
  constexpr size_t kArity = 3;
  constexpr TermId kUniverse = 6;  // small: plenty of dups + collisions
  uint64_t seed = 0xC0FFEE;
  Relation rel(kArity);
  std::vector<Tuple> rows;  // insertion-order oracle copy (dedup'd)

  auto random_tuple = [&] {
    Tuple t(kArity);
    for (size_t c = 0; c < kArity; ++c) {
      t[c] = static_cast<TermId>(XorShift(&seed) % kUniverse);
    }
    return t;
  };

  for (int op = 0; op < 4000; ++op) {
    uint64_t dice = XorShift(&seed) % 10;
    if (dice < 5) {
      Tuple t = random_tuple();
      bool oracle_new =
          std::find(rows.begin(), rows.end(), t) == rows.end();
      ASSERT_EQ(rel.Insert(t), oracle_new) << "op " << op;
      if (oracle_new) rows.push_back(std::move(t));
      ASSERT_EQ(rel.size(), rows.size());
    } else if (dice < 6) {
      // Build / catch up an index mid-stream at a random mask.
      rel.EnsureIndex(static_cast<uint32_t>(XorShift(&seed) % 8));
    } else {
      uint32_t mask = static_cast<uint32_t>(XorShift(&seed) % 8);
      Tuple key = random_tuple();
      std::vector<RowId> out;
      // Indexed or scan fallback, the result must match the oracle,
      // and the probe is indexed exactly when a full index exists.
      bool hit = rel.Lookup(mask, key, &out);
      ASSERT_EQ(out, OracleLookup(rows, mask, key))
          << "op " << op << " mask " << mask;
      ASSERT_EQ(hit, mask == 0 || rel.HasIndexBuilt(mask))
          << "op " << op << " mask " << mask;
    }
  }
  // Contains parity over everything stored plus fresh randoms.
  for (const Tuple& t : rows) ASSERT_TRUE(rel.Contains(t));
  for (int i = 0; i < 200; ++i) {
    Tuple t = random_tuple();
    ASSERT_EQ(rel.Contains(t),
              std::find(rows.begin(), rows.end(), t) != rows.end());
  }
}

// ---- Mask-width (arity) limit guard ----------------------------------

TEST(RelationTest, ColumnsPastMaskWidthAreNeverMaskBound) {
  static_assert(Relation::kMaxIndexedColumns == 32);
  EXPECT_EQ(ColumnBit(0), 1u);
  EXPECT_EQ(ColumnBit(31), 1u << 31);
  EXPECT_EQ(ColumnBit(32), 0u);   // would be UB as 1u << 32
  EXPECT_EQ(ColumnBit(40), 0u);
  EXPECT_TRUE(MaskHasColumn(0xffffffffu, 31));
  EXPECT_FALSE(MaskHasColumn(0xffffffffu, 32));
}

TEST(RelationTest, WideRelationStoresAndScansPastColumn32) {
  constexpr size_t kWide = 40;
  Relation rel(kWide);
  Tuple a(kWide), b(kWide);
  for (size_t i = 0; i < kWide; ++i) a[i] = b[i] = static_cast<TermId>(i);
  b[35] = 999;  // differs only past the mask width
  EXPECT_TRUE(rel.Insert(a));
  EXPECT_TRUE(rel.Insert(b));   // dedup compares the full row
  EXPECT_FALSE(rel.Insert(a));
  EXPECT_TRUE(rel.Contains(b));
  // An all-ones mask binds only the first 32 columns, so both rows
  // match a key equal to `a` (they agree there); column 35 must be
  // re-checked by the caller's scan-side equality, not the index.
  rel.EnsureIndex(0xffffffffu);
  std::vector<RowId> out;
  EXPECT_TRUE(rel.Lookup(0xffffffffu, a, &out));
  EXPECT_EQ(out, (std::vector<RowId>{0, 1}));
  // The scan fallback applies the same masking rule.
  Relation fresh(kWide);
  fresh.Insert(a);
  fresh.Insert(b);
  EXPECT_FALSE(fresh.Lookup(0xffffffffu, a, &out));
  EXPECT_EQ(out, (std::vector<RowId>{0, 1}));
}

// ---- Storage accounting ----------------------------------------------

TEST(RelationTest, StorageAccountingTracksArenaAndIndexes) {
  Relation rel(2);
  EXPECT_EQ(rel.ArenaBytes(), 0u);
  EXPECT_EQ(rel.dedup_probes(), 0u);
  for (TermId i = 0; i < 100; ++i) rel.Insert({i, i + 1});
  EXPECT_GE(rel.ArenaBytes(), 100 * 2 * sizeof(TermId));
  EXPECT_GE(rel.dedup_probes(), 100u);
  size_t before_index = rel.IndexBytes();  // dedup table only
  rel.EnsureIndex(0b01);
  EXPECT_GT(rel.IndexBytes(), before_index);
}

// ---- Bulk insert with presized dedup (Reserve) -----------------------

// Differential: a relation presized up front via Reserve() and driven
// through insert / erase / revive churn must be operation-for-operation
// identical to an unreserved twin that grows one doubling at a time -
// same InsertRow outcomes (added / revived / row), same live views,
// same arena layout - with the presized table paying zero growth
// rehashes during the run. Interleaves tombstone revivals throughout
// because the bulk-load merge stage presizes tables that may already
// hold dead rows.
TEST(RelationTest, BulkInsertWithPresizeMatchesOneAtATimeOracle) {
  Relation presized(2);
  Relation oracle(2);
  constexpr size_t kOps = 4000;
  EXPECT_GT(presized.Reserve(kOps), 0u);   // skipped >= 1 doubling
  EXPECT_EQ(presized.Reserve(0), 0u);      // already big enough: no-op
  EXPECT_EQ(presized.Reserve(kOps), 0u);   // idempotent

  uint64_t rng = 0x9e3779b97f4a7c15ULL;    // deterministic LCG
  auto next = [&rng]() {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return rng >> 33;
  };
  for (size_t i = 0; i < kOps; ++i) {
    const TermId a = static_cast<TermId>(next() % 61);
    const TermId b = static_cast<TermId>(next() % 53);
    const Tuple t{a, b};
    switch (next() % 4) {
      case 0:
      case 1: {  // insert: fresh append, revival, or live dup
        const Relation::InsertOutcome po = presized.InsertRow(t);
        const Relation::InsertOutcome oo = oracle.InsertRow(t);
        ASSERT_EQ(po.added, oo.added);
        ASSERT_EQ(po.revived, oo.revived);
        ASSERT_EQ(po.row, oo.row);
        break;
      }
      case 2: {  // erase whatever Find sees (live rows only)
        const RowId pr = presized.Find(t);
        ASSERT_EQ(pr, oracle.Find(t));
        if (pr != Relation::kNoRow) {
          EXPECT_TRUE(presized.EraseRow(pr));
          EXPECT_TRUE(oracle.EraseRow(pr));
        }
        break;
      }
      default: {  // revive an arbitrary row by id
        if (presized.size() > 0) {
          const RowId r = static_cast<RowId>(next() % presized.size());
          ASSERT_EQ(presized.Revive(r), oracle.Revive(r));
        }
        break;
      }
    }
    ASSERT_EQ(presized.size(), oracle.size());
    ASSERT_EQ(presized.live_size(), oracle.live_size());
  }

  // One arena row per distinct tuple value, ever: 4000 churn ops never
  // grow the arena past the 61*53 value space.
  EXPECT_LE(presized.size(), 61u * 53u);
  EXPECT_GT(presized.size(), 0u);
  for (RowId r = 0; r < presized.size(); ++r) {
    ASSERT_EQ(presized.MaterializeRow(r), oracle.MaterializeRow(r));
    ASSERT_EQ(presized.IsLive(r), oracle.IsLive(r));
  }
  // Mask lookups agree row for row after the churn.
  presized.EnsureIndex(0b01);
  oracle.EnsureIndex(0b01);
  for (TermId a = 0; a < 61; ++a) {
    std::vector<RowId> pv = Hits(presized, 0b01, {a, 0});
    std::vector<RowId> ov = Hits(oracle, 0b01, {a, 0});
    ASSERT_EQ(pv, ov) << "postings diverge for key " << a;
  }
}

// Differential: a staged parallel load (Relation::BulkLoad) must leave
// what inserting the same facts in order with InsertRow and raising
// each one's base count leaves - rows, order, base counts and liveness,
// revived rows included - at every part count, over a relation that already holds
// rows, some tombstoned. Facts repeat a lot and the tables are small,
// so probes cross part boundaries and go to End.
TEST(RelationTest, BulkLoadMatchesInsertInOrder) {
  uint64_t rng = 0x243f6a8885a308d3ULL;
  auto next = [&rng]() {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return rng >> 33;
  };
  for (size_t arity : {0u, 1u, 2u, 3u}) {
    for (size_t parts : {1u, 2u, 3u, 7u}) {
      for (size_t stored : {0u, 5u, 40u}) {
        Relation bulk(arity);
        Relation oracle(arity);
        auto random_tuple = [&] {
          Tuple t(arity);
          for (TermId& x : t) x = static_cast<TermId>(next() % 9);
          return t;
        };
        for (size_t k = 0; k < stored; ++k) {
          const Tuple t = random_tuple();
          for (Relation* rel : {&bulk, &oracle}) {
            const RowId r = rel->InsertRow(t).row;
            rel->SetBaseCount(r, rel->base_count(r) + (k % 3 == 0 ? 0 : 1));
          }
        }
        for (RowId r = 0; r < bulk.size(); r += 3) {
          bulk.EraseRow(r);
          oracle.EraseRow(r);
        }
        const size_t n = 30 + next() % 60;
        std::vector<Tuple> facts;
        for (size_t i = 0; i < n; ++i) facts.push_back(random_tuple());

        Relation::BulkLoad load(&bulk, n, parts);
        for (size_t i = 0; i < n; ++i) {
          std::copy(facts[i].begin(), facts[i].end(), load.Row(i));
          const size_t part = load.Staged(i);
          ASSERT_EQ(part, load.part(i));
          ASSERT_LT(part, parts);
        }
        // Parts one after another; each part's facts in input order.
        for (size_t part = 0; part < parts; ++part) {
          for (size_t i = 0; i < n; ++i) {
            if (load.part(i) == part) load.Probe(part, i);
          }
        }
        const Relation::BulkLoad::Outcome out = load.End();

        size_t added = 0;
        for (const Tuple& t : facts) {
          const Relation::InsertOutcome o = oracle.InsertRow(t);
          oracle.SetBaseCount(o.row, oracle.base_count(o.row) + 1);
          added += o.added;
        }
        SCOPED_TRACE(testing::Message() << "arity " << arity << " parts "
                                        << parts << " stored " << stored);
        EXPECT_EQ(out.added, added);
        ASSERT_EQ(bulk.size(), oracle.size());
        EXPECT_EQ(bulk.live_size(), oracle.live_size());
        EXPECT_EQ(bulk.base_rows(), oracle.base_rows());
        for (RowId r = 0; r < oracle.size(); ++r) {
          ASSERT_EQ(bulk.MaterializeRow(r), oracle.MaterializeRow(r));
          EXPECT_EQ(bulk.IsLive(r), oracle.IsLive(r));
          EXPECT_EQ(bulk.base_count(r), oracle.base_count(r));
          // The dedup table finds every row at its final RowId.
          EXPECT_EQ(bulk.Find(bulk.row(r)),
                    oracle.IsLive(r) ? r : Relation::kNoRow);
        }
        // And keeps deduplicating afterwards.
        for (const Tuple& t : facts) {
          ASSERT_FALSE(bulk.Insert(t));
        }
        EXPECT_EQ(bulk.size(), oracle.size());
      }
    }
  }
}

class DatabaseTest : public ::testing::Test {
 protected:
  DatabaseTest() : sig_(&store_.symbols()), db_(&store_, &sig_) {}
  TermStore store_;
  Signature sig_;
  Database db_;
};

TEST_F(DatabaseTest, EmptySetAlwaysActive) {
  ASSERT_EQ(db_.set_domain().size(), 1u);
  EXPECT_EQ(db_.set_domain()[0], store_.EmptySet());
}

TEST_F(DatabaseTest, AddTupleRegistersTermsRecursively) {
  PredicateId p = *sig_.Declare("p", {Sort::kSet});
  TermId a = store_.MakeConstant("a");
  TermId b = store_.MakeConstant("b");
  TermId inner = store_.MakeSet({a});
  TermId outer = store_.MakeSet({inner, b});
  EXPECT_TRUE(db_.AddTuple(p, {outer}));
  // outer and inner are sets; a and b are atoms.
  EXPECT_EQ(db_.set_domain().size(), 3u);  // {}, inner, outer
  EXPECT_EQ(db_.atom_domain().size(), 2u);
  EXPECT_FALSE(db_.AddTuple(p, {outer}));  // duplicate
  EXPECT_EQ(db_.TupleCount(), 1u);
}

TEST_F(DatabaseTest, VersionBumpsOnNovelty) {
  PredicateId p = *sig_.Declare("p", {Sort::kAtom});
  uint64_t v0 = db_.version();
  db_.AddTuple(p, {store_.MakeConstant("a")});
  uint64_t v1 = db_.version();
  EXPECT_GT(v1, v0);
  db_.AddTuple(p, {store_.MakeConstant("a")});
  EXPECT_EQ(db_.version(), v1);  // duplicate: no bump
}

TEST_F(DatabaseTest, RegisterTermSkipsNonGround) {
  size_t atoms = db_.atom_domain().size();
  db_.RegisterTerm(store_.MakeVariable("X", Sort::kAtom));
  EXPECT_EQ(db_.atom_domain().size(), atoms);
}

TEST_F(DatabaseTest, ToStringDeterministic) {
  PredicateId p = *sig_.Declare("p", {Sort::kAtom});
  PredicateId q = *sig_.Declare("q", {Sort::kAtom});
  db_.AddTuple(q, {store_.MakeConstant("b")});
  db_.AddTuple(p, {store_.MakeConstant("a")});
  EXPECT_EQ(db_.ToString(sig_), "p(a).\nq(b).\n");
}

TEST_F(DatabaseTest, ToStringOrdersByPredicateIdNotInsertion) {
  // Many predicates inserted in reverse and interleaved: the dump must
  // come out in PredicateId order with per-relation insertion order
  // preserved, independent of relations_'s unordered-map iteration.
  std::vector<PredicateId> preds;
  for (char c = 'a'; c <= 'h'; ++c) {
    preds.push_back(*sig_.Declare(std::string(1, c), {Sort::kAtom}));
  }
  TermId x = store_.MakeConstant("x");
  TermId y = store_.MakeConstant("y");
  for (auto it = preds.rbegin(); it != preds.rend(); ++it) {
    db_.AddTuple(*it, {y});
    db_.AddTuple(*it, {x});
  }
  std::string expected;
  for (char c = 'a'; c <= 'h'; ++c) {
    expected += std::string(1, c) + "(y).\n";
    expected += std::string(1, c) + "(x).\n";
  }
  std::string dump = db_.ToString(sig_);
  EXPECT_EQ(dump, expected);
  // And it is stable across repeated calls.
  EXPECT_EQ(db_.ToString(sig_), dump);
}

TEST_F(DatabaseTest, EnsureIndexBuildsOnlyWhatAProbeNeeds) {
  PredicateId p = *sig_.Declare("p", {Sort::kAtom, Sort::kAtom});
  PredicateId q = *sig_.Declare("q", {Sort::kAtom});
  db_.AddTuple(p, {store_.MakeConstant("a"), store_.MakeConstant("b")});
  // An absent relation stays absent.
  EXPECT_EQ(db_.EnsureIndex(q, 0b1), nullptr);
  EXPECT_EQ(db_.FindRelation(q), nullptr);
  // Mask 0 builds nothing: Lookup lists rows without an index.
  const Relation* rel = db_.EnsureIndex(p, 0);
  ASSERT_EQ(rel, db_.FindRelation(p));
  EXPECT_TRUE(rel->Stats().masks.empty());

  // A relation shared with another database is copied only to build.
  Database reader(&store_, &sig_);
  reader.AliasRelation(p, db_);
  EXPECT_EQ(reader.EnsureIndex(p, 0), rel);
  const Relation* own = reader.EnsureIndex(p, 0b01);
  EXPECT_NE(own, rel);
  EXPECT_TRUE(own->HasIndexBuilt(0b01));
  EXPECT_FALSE(rel->HasIndexBuilt(0b01));  // the source never sees it
  // Once the source carries the index, an alias of it stays shared.
  EXPECT_EQ(db_.EnsureIndex(p, 0b01), rel);
  reader.AliasRelation(p, db_);
  EXPECT_EQ(reader.EnsureIndex(p, 0b01), rel);
}

TEST_F(DatabaseTest, StorageStatsAggregateAcrossRelations) {
  PredicateId p = *sig_.Declare("p", {Sort::kAtom, Sort::kAtom});
  PredicateId q = *sig_.Declare("q", {Sort::kAtom});
  EXPECT_EQ(db_.storage_stats().arena_bytes, 0u);
  TermId a = store_.MakeConstant("a");
  TermId b = store_.MakeConstant("b");
  db_.AddTuple(p, {a, b});
  db_.AddTuple(p, {b, a});
  db_.AddTuple(q, {a});
  Database::StorageStats s = db_.storage_stats();
  EXPECT_GE(s.arena_bytes, 5 * sizeof(TermId));
  EXPECT_GT(s.index_bytes, 0u);  // dedup tables count
  EXPECT_GE(s.dedup_probes, 3u);
}

}  // namespace
}  // namespace lps
