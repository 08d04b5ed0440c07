// Executable content of Lemma 4 and Theorem 5:
//  * grounding an LPS clause yields an equivalent Horn clause;
//  * evaluating the LPS program and evaluating its grounded Horn
//    version over the same domain produce the same least model;
//  * naive and semi-naive iteration reach the same fixpoint.
#include "ground/grounder.h"

#include <gtest/gtest.h>

#include "api/session.h"

namespace lps {
namespace {

class GrounderTest : public ::testing::Test {
 protected:
  GrounderTest() : program_(&store_) {}
  TermStore store_;
  Program program_;
};

TEST_F(GrounderTest, QuantifierExpandsToConjunction) {
  // covers(X) :- (forall e in X) q(e), with X := {a, b}:
  // ground body must be q(a) & q(b).
  Signature& sig = program_.signature();
  PredicateId covers = *sig.Declare("covers", {Sort::kSet});
  PredicateId q = *sig.Declare("q", {Sort::kAtom});
  TermId xs = store_.MakeVariable("Xs", Sort::kSet);
  TermId e = store_.MakeVariable("E", Sort::kAtom);
  Clause c;
  c.head = Literal{covers, {xs}, true};
  c.quantifiers.push_back(Quantifier{e, xs});
  c.body.push_back(Literal{q, {e}, true});

  TermId a = store_.MakeConstant("a");
  TermId b = store_.MakeConstant("b");
  Substitution theta;
  theta.Bind(xs, store_.MakeSet({a, b}));
  auto g = GroundClause(&store_, c, theta);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->quantifiers.size(), 0u);
  ASSERT_EQ(g->body.size(), 2u);
  EXPECT_EQ(g->body[0], (Literal{q, {a}, true}));
  EXPECT_EQ(g->body[1], (Literal{q, {b}, true}));
}

TEST_F(GrounderTest, EmptyRangeDropsBody) {
  // Definition 4: (forall e in {}) ... is true, so the ground clause is
  // the bare head.
  Signature& sig = program_.signature();
  PredicateId p = *sig.Declare("p", {Sort::kSet});
  PredicateId q = *sig.Declare("q", {Sort::kAtom});
  TermId xs = store_.MakeVariable("Xs", Sort::kSet);
  TermId e = store_.MakeVariable("E", Sort::kAtom);
  Clause c;
  c.head = Literal{p, {xs}, true};
  c.quantifiers.push_back(Quantifier{e, xs});
  c.body.push_back(Literal{q, {e}, true});
  Substitution theta;
  theta.Bind(xs, store_.EmptySet());
  auto g = GroundClause(&store_, c, theta);
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g->body.empty());
  EXPECT_TRUE(g->quantifiers.empty());
}

TEST_F(GrounderTest, MultipleQuantifiersCrossProduct) {
  Signature& sig = program_.signature();
  PredicateId p = *sig.Declare("p", {Sort::kSet, Sort::kSet});
  PredicateId q = *sig.Declare("q", {Sort::kAtom, Sort::kAtom});
  TermId xs = store_.MakeVariable("Xs", Sort::kSet);
  TermId ys = store_.MakeVariable("Ys", Sort::kSet);
  TermId e1 = store_.MakeVariable("E1", Sort::kAtom);
  TermId e2 = store_.MakeVariable("E2", Sort::kAtom);
  Clause c;
  c.head = Literal{p, {xs, ys}, true};
  c.quantifiers.push_back(Quantifier{e1, xs});
  c.quantifiers.push_back(Quantifier{e2, ys});
  c.body.push_back(Literal{q, {e1, e2}, true});

  TermId a = store_.MakeConstant("a");
  TermId b = store_.MakeConstant("b");
  TermId d = store_.MakeConstant("d");
  Substitution theta;
  theta.Bind(xs, store_.MakeSet({a, b}));
  theta.Bind(ys, store_.MakeSet({b, d}));
  auto g = GroundClause(&store_, c, theta);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->body.size(), 4u);  // |Xs| * |Ys| body atoms
  auto size = GroundBodySize(&store_, c, theta);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 4u);
}

TEST_F(GrounderTest, UngroundSubstitutionRejected) {
  Signature& sig = program_.signature();
  PredicateId p = *sig.Declare("p", {Sort::kSet});
  TermId xs = store_.MakeVariable("Xs", Sort::kSet);
  Clause c;
  c.head = Literal{p, {xs}, true};
  Substitution empty;
  EXPECT_FALSE(GroundClause(&store_, c, empty).ok());
}

TEST_F(GrounderTest, DomainGroundingEnumeratesAllInstances) {
  Signature& sig = program_.signature();
  PredicateId p = *sig.Declare("p", {Sort::kSet});
  PredicateId q = *sig.Declare("q", {Sort::kAtom});
  TermId xs = store_.MakeVariable("Xs", Sort::kSet);
  TermId e = store_.MakeVariable("E", Sort::kAtom);
  Clause c;
  c.head = Literal{p, {xs}, true};
  c.quantifiers.push_back(Quantifier{e, xs});
  c.body.push_back(Literal{q, {e}, true});

  TermId a = store_.MakeConstant("a");
  std::vector<TermId> sets = {store_.EmptySet(), store_.MakeSet({a})};
  std::vector<Clause> out;
  ASSERT_TRUE(
      GroundClauseOverDomain(&store_, c, {a}, sets, {}, &out).ok());
  EXPECT_EQ(out.size(), 2u);  // one instance per set in the domain
}

// Theorem 5 / Lemma 4 end-to-end: the LPS program and its grounded Horn
// version have the same least model over the shared domain.
TEST(FixpointTest, LpsModelEqualsGroundedHornModel) {
  const char* kSource = R"(
    s({a, b}). s({b}). s({}).
    q(a). q(b).
    allq(X) :- s(X), forall E in X : q(E).
    sub(X, Y) :- s(X), s(Y), forall E in X : E in Y.
  )";
  Session lps_session(LanguageMode::kLPS);
  ASSERT_TRUE(lps_session.Load(kSource).ok());
  ASSERT_TRUE(lps_session.Compile().ok());
  ASSERT_TRUE(lps_session.Evaluate().ok());

  // Build the grounded program over the evaluated active domain (the
  // program creates no new sets, so the domain is the EDB's).
  // Loading stores the facts, which seeds the domains.
  Session ground_session(LanguageMode::kLPS);
  ASSERT_TRUE(ground_session.Load(kSource).ok());
  ASSERT_TRUE(ground_session.Compile().ok());
  auto grounded = GroundProgramOverDomain(
      *ground_session.program(), ground_session.database()->atom_domain(),
      ground_session.database()->set_domain());
  ASSERT_TRUE(grounded.ok()) << grounded.status().ToString();
  // Every grounded clause is Horn (no quantifiers).
  for (const Clause& c : grounded->clauses()) {
    EXPECT_TRUE(c.quantifiers.empty());
  }
  std::unique_ptr<Database> ground_db =
      ground_session.database()->FactsFor(*grounded);
  ASSERT_TRUE(EvaluateProgram(*grounded, ground_db.get()).ok());

  // Compare the two models on the user predicates.
  for (const char* pred : {"allq", "sub"}) {
    PredicateId p1 = lps_session.signature()->Lookup(
        pred, pred == std::string("sub") ? 2 : 1);
    ASSERT_NE(p1, kInvalidPredicate);
    const Relation* r1 = lps_session.database()->FindRelation(p1);
    const Relation* r2 = ground_db->FindRelation(p1);
    ASSERT_NE(r1, nullptr);
    ASSERT_NE(r2, nullptr);
    EXPECT_EQ(r1->size(), r2->size()) << pred;
    for (TupleRef t : r1->rows()) {
      EXPECT_TRUE(r2->Contains(t)) << pred;
    }
  }
}

// T_P is monotone on the derived database: adding EDB facts never
// removes derived atoms (minimal-model semantics, Section 3).
TEST(FixpointTest, MonotoneUnderEdbGrowth) {
  const char* kBase = R"(
    s({a, b}).
    q(a). q(b).
    allq(X) :- s(X), forall E in X : q(E).
  )";
  Session small(LanguageMode::kLPS);
  ASSERT_TRUE(small.Load(kBase).ok());
  ASSERT_TRUE(small.Compile().ok());
  ASSERT_TRUE(small.Evaluate().ok());

  Session big(LanguageMode::kLPS);
  ASSERT_TRUE(big.Load(kBase).ok());
  ASSERT_TRUE(big.Compile().ok());
  ASSERT_TRUE(big.Load("s({b}). q(c).").ok());
  ASSERT_TRUE(big.Compile().ok());
  ASSERT_TRUE(big.Evaluate().ok());

  PredicateId allq = small.signature()->Lookup("allq", 1);
  const Relation* rs = small.database()->FindRelation(allq);
  ASSERT_NE(rs, nullptr);
  PredicateId allq_big = big.signature()->Lookup("allq", 1);
  for (TupleRef t : rs->rows()) {
    EXPECT_TRUE(big.database()->Contains(allq_big, t));
  }
}

// Iteration counts: T_P ^ omega converges in finitely many rounds and
// the engine reports them.
TEST(FixpointTest, ConvergesInLinearRoundsOnChains) {
  std::string src;
  for (int i = 0; i < 20; ++i) {
    src += "edge(n" + std::to_string(i) + ", n" + std::to_string(i + 1) +
           ").\n";
  }
  src += "path(X, Y) :- edge(X, Y).\n";
  src += "path(X, Z) :- path(X, Y), edge(Y, Z).\n";
  Session session(LanguageMode::kLPS);
  ASSERT_TRUE(session.Load(src).ok());
  ASSERT_TRUE(session.Compile().ok());
  // Legacy source-order plans lead with the recursive literal, so each
  // round extends paths by exactly one hop.
  Options legacy;
  legacy.reorder = false;
  ASSERT_TRUE(session.Evaluate(legacy).ok());
  EXPECT_TRUE(*session.Holds("path(n0, n20)"));
  // 20 hops need about 20 rounds, plus the fixpoint-detection round.
  EXPECT_LE(session.eval_stats().iterations, 25u);
  EXPECT_GE(session.eval_stats().iterations, 19u);
  // Cost-based ordering (the default) scans edge and probes the
  // growing path relation, so derivations cascade within a round: the
  // same model in far fewer rounds.
  Session fast(LanguageMode::kLPS);
  ASSERT_TRUE(fast.Load(src).ok());
  ASSERT_TRUE(fast.Compile().ok());
  ASSERT_TRUE(fast.Evaluate().ok());
  EXPECT_TRUE(*fast.Holds("path(n0, n20)"));
  EXPECT_LT(fast.eval_stats().iterations,
            session.eval_stats().iterations);
}

}  // namespace
}  // namespace lps
