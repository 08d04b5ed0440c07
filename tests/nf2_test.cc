// Tests for the non-1NF relation substrate [JS82] and its bridge to
// LPS programs (Example 4).
#include "nf2/nested_relation.h"

#include <gtest/gtest.h>

#include "api/session.h"
#include "serve/snapshot.h"

namespace lps {
namespace {

#define ASSERT_OK(expr)                        \
  do {                                         \
    ::lps::Status _st = (expr);                \
    ASSERT_TRUE(_st.ok()) << _st.ToString();   \
  } while (0)

class Nf2Test : public ::testing::Test {
 protected:
  TermId C(const std::string& n) { return store_.MakeConstant(n); }
  TermId S(std::vector<TermId> e) { return store_.MakeSet(std::move(e)); }
  TermStore store_;
};

TEST_F(Nf2Test, SchemaEnforced) {
  NestedRelation rel({"obj", "parts"}, {Sort::kAtom, Sort::kSet});
  EXPECT_TRUE(rel.AddRow(store_, {C("p1"), S({C("a")})}).ok());
  EXPECT_FALSE(rel.AddRow(store_, {C("p1")}).ok());          // arity
  EXPECT_FALSE(rel.AddRow(store_, {C("p1"), C("a")}).ok());  // sort
  EXPECT_FALSE(
      rel.AddRow(store_, {store_.MakeVariable("X", Sort::kAtom),
                          S({})})
          .ok());  // ground
  EXPECT_EQ(rel.size(), 1u);
}

TEST_F(Nf2Test, DuplicateRowsCollapse) {
  NestedRelation rel({"obj", "parts"}, {Sort::kAtom, Sort::kSet});
  ASSERT_OK(rel.AddRow(store_, {C("p1"), S({C("a"), C("b")})}));
  ASSERT_OK(rel.AddRow(store_, {C("p1"), S({C("b"), C("a")})}));
  EXPECT_EQ(rel.size(), 1u);  // canonical sets make these identical
}

TEST_F(Nf2Test, UnnestExample4) {
  NestedRelation rel({"obj", "parts"}, {Sort::kAtom, Sort::kSet});
  ASSERT_OK(rel.AddRow(store_, {C("p1"), S({C("a"), C("b")})}));
  ASSERT_OK(rel.AddRow(store_, {C("p2"), S({C("c")})}));
  ASSERT_OK(rel.AddRow(store_, {C("p3"), S({})}));  // vanishes
  auto flat = rel.Unnest(store_, 1);
  ASSERT_TRUE(flat.ok()) << flat.status().ToString();
  EXPECT_EQ(flat->size(), 3u);  // (p1,a) (p1,b) (p2,c)
}

TEST_F(Nf2Test, NestInvertsUnnestOnPartitionedData) {
  NestedRelation rel({"obj", "parts"}, {Sort::kAtom, Sort::kSet});
  ASSERT_OK(rel.AddRow(store_, {C("p1"), S({C("a"), C("b")})}));
  ASSERT_OK(rel.AddRow(store_, {C("p2"), S({C("c")})}));
  auto flat = rel.Unnest(store_, 1);
  ASSERT_TRUE(flat.ok());
  auto back = flat->Nest(&store_, 1);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->SameRows(rel));
}

TEST_F(Nf2Test, UnnestThenNestLosesEmptySets) {
  // Classic [JS82] caveat: rows with empty sets do not survive the
  // round trip (nest only sees witnesses).
  NestedRelation rel({"obj", "parts"}, {Sort::kAtom, Sort::kSet});
  ASSERT_OK(rel.AddRow(store_, {C("p1"), S({C("a")})}));
  ASSERT_OK(rel.AddRow(store_, {C("p3"), S({})}));
  auto flat = rel.Unnest(store_, 1);
  ASSERT_TRUE(flat.ok());
  auto back = flat->Nest(&store_, 1);
  ASSERT_TRUE(back.ok());
  EXPECT_FALSE(back->SameRows(rel));
  EXPECT_EQ(back->size(), 1u);
}

TEST_F(Nf2Test, NestGroupsByRemainingColumns) {
  NestedRelation flat({"dept", "emp"}, {Sort::kAtom, Sort::kAtom});
  ASSERT_OK(flat.AddRow(store_, {C("sales"), C("ann")}));
  ASSERT_OK(flat.AddRow(store_, {C("sales"), C("bob")}));
  ASSERT_OK(flat.AddRow(store_, {C("dev"), C("carol")}));
  auto nested = flat.Nest(&store_, 1);
  ASSERT_TRUE(nested.ok());
  EXPECT_EQ(nested->size(), 2u);
  bool found = false;
  for (const Tuple& row : nested->rows()) {
    if (row[0] == C("sales")) {
      EXPECT_EQ(row[1], S({C("ann"), C("bob")}));
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Nf2ExportTest, ExportFactsIntoSession) {
  Session session(LanguageMode::kLPS);
  TermStore* store = session.store();
  NestedRelation rel({"obj", "parts"}, {Sort::kAtom, Sort::kSet});
  ASSERT_OK(rel.AddRow(*store, {store->MakeConstant("p1"),
                                store->MakeSet({store->MakeConstant("a"),
                                                store->MakeConstant("b")})}));

  MutationBatch batch = session.Mutate();
  ASSERT_OK(rel.ExportFacts(&batch, "parts"));
  ASSERT_OK(batch.Commit());
  EXPECT_EQ(session.database()->fact_count(), 1u);
  PredicateId parts = session.signature()->Lookup("parts", 2);
  ASSERT_NE(parts, kInvalidPredicate);
  EXPECT_EQ(session.signature()->info(parts).arg_sorts[1], Sort::kSet);
}

TEST(Nf2ExportTest, ExportedFactsCommitThroughTheSession) {
  // Exported rows go through a mutation batch, so a converged
  // incremental session maintains their consequences, publishes them,
  // and can retract them again.
  Options options;
  options.incremental = true;
  Session session(LanguageMode::kLPS, options);
  ASSERT_OK(session.Load(R"(
    edge(a, b).
    path(X, Y) :- edge(X, Y).
    path(X, Z) :- path(X, Y), edge(Y, Z).
  )"));
  ASSERT_OK(session.Evaluate());
  {
    MutationBatch batch = session.Mutate();
    ASSERT_OK(batch.AddText("edge(b, c)"));
    ASSERT_OK(batch.Commit());
  }
  TermStore* store = session.store();
  NestedRelation edges({"from", "to"}, {Sort::kAtom, Sort::kAtom});
  ASSERT_OK(edges.AddRow(*store, {store->MakeConstant("c"),
                                  store->MakeConstant("d")}));
  {
    MutationBatch batch = session.Mutate();
    ASSERT_OK(edges.ExportFacts(&batch, "edge"));
    ASSERT_OK(batch.Commit());
  }
  EXPECT_TRUE(session.converged());
  auto snap = session.Freeze();
  ASSERT_OK(snap.status());
  const PredicateId edge = session.signature()->Lookup("edge", 2);
  const PredicateId path = session.signature()->Lookup("path", 2);
  const TermId a = store->MakeConstant("a");
  const TermId c = store->MakeConstant("c");
  const TermId d = store->MakeConstant("d");
  EXPECT_TRUE((*snap)->database().Contains(edge, {c, d}));
  EXPECT_TRUE((*snap)->database().Contains(path, {a, d}));

  {
    MutationBatch batch = session.Mutate();
    ASSERT_OK(batch.RetractText("edge(c, d)"));
    ASSERT_OK(batch.Commit());
  }
  ASSERT_OK(session.Evaluate());
  EXPECT_FALSE(*session.Holds("edge(c, d)"));
  EXPECT_FALSE(*session.Holds("path(a, d)"));
  EXPECT_TRUE(*session.Holds("path(a, c)"));
}

TEST_F(Nf2Test, RoundTripThroughEngine) {
  // Full bridge: nested relation -> LPS unnest rule -> relation again.
  Session session(LanguageMode::kLPS);
  NestedRelation rel({"obj", "parts"}, {Sort::kAtom, Sort::kSet});
  TermStore* store = session.store();
  ASSERT_OK(rel.AddRow(*store,
                       {store->MakeConstant("p1"),
                        store->MakeSet({store->MakeConstant("a"),
                                        store->MakeConstant("b")})}));
  MutationBatch batch = session.Mutate();
  ASSERT_OK(rel.ExportFacts(&batch, "parts"));
  ASSERT_OK(batch.Commit());
  ASSERT_OK(session.Load(
      "flat(X, E) :- parts(X, Y), E in Y."));
  ASSERT_OK(session.Compile());
  ASSERT_OK(session.Evaluate());
  PredicateId flat_pred = session.signature()->Lookup("flat", 2);
  const Relation* r = session.database()->FindRelation(flat_pred);
  ASSERT_NE(r, nullptr);
  auto imported = NestedRelation::FromRelation(
      *store, *r, {"obj", "part"}, {Sort::kAtom, Sort::kAtom});
  ASSERT_TRUE(imported.ok());
  EXPECT_EQ(imported->size(), 2u);
  // And the LPS-level unnest agrees with the algebraic one.
  auto algebraic = rel.Unnest(*store, 1);
  ASSERT_TRUE(algebraic.ok());
  EXPECT_TRUE(imported->SameRows(*algebraic));
}

TEST_F(Nf2Test, ElpsNestedColumns) {
  // Sets of sets as column values (Section 5).
  NestedRelation rel({"owner", "bundles"}, {Sort::kAtom, Sort::kSet});
  TermId bundle = S({S({C("pen"), C("ink")}), S({C("book")})});
  ASSERT_OK(rel.AddRow(store_, {C("ann"), bundle}));
  auto flat = rel.Unnest(store_, 1);
  ASSERT_TRUE(flat.ok());
  EXPECT_EQ(flat->size(), 2u);
  // Elements are sets; the unnested column is now set-valued.
  for (const Tuple& row : flat->rows()) {
    EXPECT_EQ(store_.sort(row[1]), Sort::kSet);
  }
}

TEST_F(Nf2Test, ToStringRendersTable) {
  NestedRelation rel({"obj", "parts"}, {Sort::kAtom, Sort::kSet});
  ASSERT_OK(rel.AddRow(store_, {C("p1"), S({C("a")})}));
  std::string s = rel.ToString(store_);
  EXPECT_NE(s.find("obj | parts"), std::string::npos);
  EXPECT_NE(s.find("p1 | {a}"), std::string::npos);
}

}  // namespace
}  // namespace lps
