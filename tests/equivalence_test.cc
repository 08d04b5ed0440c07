// Theorem 10: ELPS programs over L, Horn programs over L+union, and
// Horn programs over L+scons are equivalent. The tests run the paper's
// translations in both directions and check that the models agree on
// the common vocabulary.
#include <gtest/gtest.h>

#include "api/session.h"
#include "eval/bottomup.h"
#include "transform/builtin_elim.h"
#include "transform/quantifier_elim.h"

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

// Compares two databases on one predicate.
void ExpectSameRelation(const Database& a, const Database& b,
                        PredicateId pred, const std::string& label) {
  const Relation* ra = a.FindRelation(pred);
  const Relation* rb = b.FindRelation(pred);
  size_t na = ra ? ra->size() : 0;
  size_t nb = rb ? rb->size() : 0;
  EXPECT_EQ(na, nb) << label;
  if (ra && rb) {
    for (TupleRef t : ra->rows()) {
      EXPECT_TRUE(rb->Contains(t)) << label;
    }
  }
}

// --- Theorem 10.3/10.4: quantifier elimination ------------------------

class QuantElimTest : public ::testing::TestWithParam<SetPrimitive> {};

TEST_P(QuantElimTest, SubsetProgramSurvivesRewrite) {
  // subset via quantifier vs via structural recursion on scons/union.
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(R"(
    s({1, 2}). s({1, 2, 3}). s({4}). s({}).
    q(1). q(2).
    allq(X) :- s(X), forall E in X : q(E).
  )"));
  ASSERT_OK(session.Compile());
  Program original = *session.program();
  auto original_db = Eval(session, original);

  auto rewritten = EliminateQuantifiers(original, GetParam());
  ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();
  // The rewritten program is quantifier-free.
  for (const Clause& c : rewritten->clauses()) {
    EXPECT_TRUE(c.quantifiers.empty());
  }
  EvalOptions opts;
  opts.max_tuples = 200000;
  auto rewritten_db = Eval(session, *rewritten, opts);

  PredicateId allq = session.signature()->Lookup("allq", 1);
  ASSERT_NE(allq, kInvalidPredicate);
  ExpectSameRelation(*original_db, *rewritten_db, allq, "allq");
}

TEST_P(QuantElimTest, NestedQuantifiersPeelRecursively) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(R"(
    s({1, 2}). s({3}). s({}).
    lessall(X, Y) :- s(X), s(Y), forall A in X, forall B in Y : A < B.
  )"));
  ASSERT_OK(session.Compile());
  Program original = *session.program();
  auto original_db = Eval(session, original);

  auto rewritten = EliminateQuantifiers(original, GetParam());
  ASSERT_TRUE(rewritten.ok());
  EvalOptions opts;
  opts.max_tuples = 500000;
  auto rewritten_db = Eval(session, *rewritten, opts);

  PredicateId lessall = session.signature()->Lookup("lessall", 2);
  ExpectSameRelation(*original_db, *rewritten_db, lessall, "lessall");
}

INSTANTIATE_TEST_SUITE_P(Primitives, QuantElimTest,
                         ::testing::Values(SetPrimitive::kScons,
                                           SetPrimitive::kUnion));

// --- Theorem 10.1/10.2: builtin elimination ---------------------------

TEST(BuiltinElimTest, UnionLiteralReplacedByDefinedPredicate) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(R"(
    a({1, 2}). b({2, 3}). c({1, 2, 3}). c({9}).
    u(Z) :- a(X), b(Y), c(Z), union(X, Y, Z).
  )"));
  ASSERT_OK(session.Compile());
  Program original = *session.program();
  auto original_db = Eval(session, original);

  auto rewritten = EliminateUnionBuiltin(original);
  ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();
  // No union literal remains.
  for (const Clause& c : rewritten->clauses()) {
    for (const Literal& l : c.body) {
      EXPECT_NE(l.pred, kPredUnion);
    }
  }
  auto rewritten_db = Eval(session, *rewritten);
  PredicateId u = session.signature()->Lookup("u", 1);
  ExpectSameRelation(*original_db, *rewritten_db, u, "u");
  EXPECT_TRUE(rewritten_db->Contains(
      u, {session.ParseTerm("{1,2,3}").value()}));
}

TEST(BuiltinElimTest, SconsLiteralReplacedByDefinedPredicate) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(R"(
    a({2}). c({1, 2}). c({2, 9}).
    u(Z) :- a(Y), c(Z), scons(1, Y, Z).
  )"));
  ASSERT_OK(session.Compile());
  Program original = *session.program();
  auto original_db = Eval(session, original);

  auto rewritten = EliminateSconsBuiltin(original);
  ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();
  for (const Clause& c : rewritten->clauses()) {
    for (const Literal& l : c.body) {
      EXPECT_NE(l.pred, kPredScons);
    }
  }
  auto rewritten_db = Eval(session, *rewritten);
  PredicateId u = session.signature()->Lookup("u", 1);
  ExpectSameRelation(*original_db, *rewritten_db, u, "u");
  EXPECT_TRUE(rewritten_db->Contains(
      u, {session.ParseTerm("{1,2}").value()}));
}

TEST(BuiltinElimTest, NoOpWhenBuiltinUnused) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load("p(a). q(X) :- p(X)."));
  ASSERT_OK(session.Compile());
  Program original = *session.program();
  auto rewritten = EliminateUnionBuiltin(original);
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(rewritten->clauses().size(), original.clauses().size());
}

// Round trip: quantifier elimination produces union/scons literals;
// builtin elimination brings the program back into pure ELPS. The model
// on the original vocabulary survives both hops.
TEST(RoundTripTest, ElpsToHornAndBack) {
  // The defined scons (unlike the builtin) cannot *create* sets, so the
  // structural-recursion ladder needs its intermediate subsets in the
  // active domain - the dom facts seed them (see DESIGN.md on
  // active-domain semantics; the paper's full Herbrand universe contains
  // every finite set).
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(R"(
    s({1, 2}). s({}).
    dom({1}). dom({2}).
    q(1). q(2).
    allq(X) :- s(X), forall E in X : q(E).
  )"));
  ASSERT_OK(session.Compile());
  Program original = *session.program();
  auto original_db = Eval(session, original);

  auto horn = EliminateQuantifiers(original, SetPrimitive::kScons);
  ASSERT_TRUE(horn.ok());
  auto back = EliminateSconsBuiltin(*horn);
  ASSERT_TRUE(back.ok());
  // Pure ELPS again: no scons, no union.
  for (const Clause& c : back->clauses()) {
    for (const Literal& l : c.body) {
      EXPECT_NE(l.pred, kPredScons);
      EXPECT_NE(l.pred, kPredUnion);
    }
  }
  EvalOptions opts;
  opts.max_tuples = 500000;
  auto back_db = Eval(session, *back, opts);
  PredicateId allq = session.signature()->Lookup("allq", 1);
  ExpectSameRelation(*original_db, *back_db, allq, "allq roundtrip");
}

}  // namespace
}  // namespace lps
