// Theorems 11 and 12: LDL grouping clauses vs ELPS with stratified
// negation - the translations of Section 6 run in both directions.
#include "transform/ldl.h"

#include <gtest/gtest.h>

#include "api/session.h"
#include "eval/bottomup.h"
#include "lang/validate.h"
#include "term/set_algebra.h"
#include "transform/stratify.h"

namespace lps {
namespace {

#define ASSERT_OK(expr)                        \
  do {                                         \
    ::lps::Status _st = (expr);                \
    ASSERT_TRUE(_st.ok()) << _st.ToString();   \
  } while (0)

// Evaluates `program` over the facts of `session` in a fresh database.
std::unique_ptr<Database> Eval(Session& session, const Program& program,
                               EvalOptions options = {}) {
  std::unique_ptr<Database> db = session.database()->FactsFor(program);
  auto stats = EvaluateProgram(program, db.get(), options);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  return db;
}

TEST(GroupingElimTest, TranslationMatchesNativeGrouping) {
  // The witness sets (each group and its rivals) must be active for the
  // negation-based translation to quantify over them; subsets facts
  // seed the domain (active-domain semantics, see DESIGN.md).
  Session session(LanguageMode::kLDL);
  ASSERT_OK(session.Load(R"(
    emp(sales, ann). emp(sales, bob). emp(dev, carol).
    dom({ann}). dom({bob}). dom({carol}). dom({ann, bob}).
    dom({ann, carol}). dom({bob, carol}). dom({ann, bob, carol}).
    team(D, <E>) :- emp(D, E).
  )"));
  ASSERT_OK(session.Compile());
  Program original = *session.program();
  auto native_db = Eval(session, original);

  auto translated = EliminateGrouping(original);
  ASSERT_TRUE(translated.ok()) << translated.status().ToString();
  EXPECT_FALSE(ProgramUsesGrouping(*translated));
  EXPECT_TRUE(ProgramUsesNegation(*translated));
  // The translation is stratified (Theorem 12).
  EXPECT_TRUE(Stratify(*translated).ok());

  auto translated_db = Eval(session, *translated);
  PredicateId team = session.signature()->Lookup("team", 2);
  ASSERT_NE(team, kInvalidPredicate);

  // Native groups must appear identically in the translation.
  const Relation* rn = native_db->FindRelation(team);
  ASSERT_NE(rn, nullptr);
  ASSERT_EQ(rn->size(), 2u);
  for (TupleRef t : rn->rows()) {
    EXPECT_TRUE(translated_db->Contains(team, t))
        << "missing group in translation";
  }
  // And the translation must not invent wrong groups for those keys.
  const Relation* rt = translated_db->FindRelation(team);
  ASSERT_NE(rt, nullptr);
  for (TupleRef t : rt->rows()) {
    if (SetCardinality(*session.store(), t[1]) > 0) {
      EXPECT_TRUE(rn->Contains(t))
          << "translation derived a spurious non-empty group";
    }
  }
}

TEST(GroupingElimTest, RejectsEmptyBodyGrouping) {
  TermStore store;
  Program program(&store);
  PredicateId g =
      *program.signature().Declare("g", {Sort::kAtom, Sort::kSet});
  TermId x = store.MakeVariable("X", Sort::kAtom);
  TermId y = store.MakeVariable("Y", Sort::kAtom);
  Clause c;
  c.head = Literal{g, {x, y}, true};
  c.grouping = GroupSpec{1, y};
  program.AddClause(c);
  EXPECT_FALSE(EliminateGrouping(program).ok());
}

TEST(UnionToGroupingTest, GroupedUnionMatchesBuiltin) {
  Session session(LanguageMode::kLDL);
  ASSERT_OK(session.Load(R"(
    a({1, 2}). b({2, 3}).
    u(Z) :- a(X), b(Y), union(X, Y, Z).
  )"));
  ASSERT_OK(session.Compile());
  Program original = *session.program();
  auto original_db = Eval(session, original);

  auto translated = UnionToGrouping(original);
  ASSERT_TRUE(translated.ok()) << translated.status().ToString();
  for (const Clause& c : translated->clauses()) {
    for (const Literal& l : c.body) {
      EXPECT_NE(l.pred, kPredUnion);
    }
  }
  EXPECT_TRUE(ProgramUsesGrouping(*translated));
  auto translated_db = Eval(session, *translated);

  PredicateId u = session.signature()->Lookup("u", 1);
  const Relation* r1 = original_db->FindRelation(u);
  const Relation* r2 = translated_db->FindRelation(u);
  ASSERT_NE(r1, nullptr);
  ASSERT_NE(r2, nullptr);
  EXPECT_EQ(r1->size(), r2->size());
  for (TupleRef t : r1->rows()) {
    EXPECT_TRUE(r2->Contains(t));
  }
  EXPECT_TRUE(original_db->Contains(
      u, {session.ParseTerm("{1,2,3}").value()}));
}

TEST(UnionToGroupingTest, StratificationPreserved) {
  // Theorem 12: the maps carry stratified programs to stratified ones.
  Session session(LanguageMode::kLDL);
  ASSERT_OK(session.Load(R"(
    a({1}). b({2}). bad({9}).
    u(Z) :- a(X), b(Y), union(X, Y, Z).
    ok(Z) :- u(Z), not bad(Z).
  )"));
  ASSERT_OK(session.Compile());
  auto translated = UnionToGrouping(*session.program());
  ASSERT_TRUE(translated.ok());
  EXPECT_TRUE(Stratify(*translated).ok());
  auto db = Eval(session, *translated);
  PredicateId ok = session.signature()->Lookup("ok", 1);
  EXPECT_TRUE(db->Contains(ok, {session.ParseTerm("{1,2}").value()}));
}

TEST(SetConstructionTest, Section42StratifiedDefinition) {
  // Section 4.2: B(X) = {x | A(x)} via stratified negation. Subset
  // facts seed the candidate space.
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(R"(
    a(1). a(2).
    dom({}). dom({1}). dom({2}). dom({3}). dom({1, 2}).
    dom({1, 3}). dom({2, 3}). dom({1, 2, 3}).
    c(X) :- dom(X), dom(Y), (forall E in Y : a(E)),
            (forall E in X : E in Y), (exists W in Y : W notin X).
    b(X) :- dom(X), (forall E in X : a(E)), not c(X).
  )"));
  ASSERT_OK(session.Compile());
  ASSERT_OK(session.Evaluate());
  // Exactly the full set {1, 2} satisfies b.
  EXPECT_TRUE(*session.Holds("b({1,2})"));
  EXPECT_FALSE(*session.Holds("b({1})"));
  EXPECT_FALSE(*session.Holds("b({2})"));
  EXPECT_FALSE(*session.Holds("b({})"));
  EXPECT_FALSE(*session.Holds("b({1,2,3})"));
  auto rows = session.Query("b(X)");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
}

TEST(LdlModeTest, GroupingValidatesOnlyInLdl) {
  Session lps(LanguageMode::kLPS);
  Status st = lps.Load("g(X, <Y>) :- q(X, Y). q(a, b).");
  if (st.ok()) st = lps.Compile();
  EXPECT_FALSE(st.ok());
  Session ldl(LanguageMode::kLDL);
  ASSERT_OK(ldl.Load("g(X, <Y>) :- q(X, Y). q(a, b)."));
  ASSERT_OK(ldl.Compile());
}

TEST(LdlModeTest, GroupingOfSetsInElps) {
  // Grouping can collect sets into a set of sets (ELPS nesting).
  Session session(LanguageMode::kLDL);
  ASSERT_OK(session.Load(R"(
    pred owns(atom, set).
    owns(ann, {book}). owns(ann, {pen, ink}). owns(bob, {car}).
    estates(P, <S>) :- owns(P, S).
  )"));
  ASSERT_OK(session.Compile());
  ASSERT_OK(session.Evaluate());
  EXPECT_TRUE(*session.Holds("estates(ann, {{book}, {pen, ink}})"));
  EXPECT_TRUE(*session.Holds("estates(bob, {{car}})"));
}

}  // namespace
}  // namespace lps
