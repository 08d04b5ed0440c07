// Tests for signatures, clause IR, formulas, and validation
// (Definitions 1, 5, 12, 14; Example 8's restriction).
#include <gtest/gtest.h>

#include "lang/formula.h"
#include "lang/program.h"
#include "lang/validate.h"

namespace lps {
namespace {

class LangTest : public ::testing::Test {
 protected:
  LangTest() : program_(&store_) {}

  TermStore store_;
  Program program_;
};

TEST_F(LangTest, BuiltinPredicatesPreRegistered) {
  const Signature& sig = program_.signature();
  EXPECT_EQ(sig.Lookup("=", 2), kPredEq);
  EXPECT_EQ(sig.Lookup("in", 2), kPredIn);
  EXPECT_EQ(sig.Lookup("union", 3), kPredUnion);
  EXPECT_EQ(sig.Lookup("scons", 3), kPredScons);
  EXPECT_EQ(sig.Lookup("add", 3), kPredAdd);
  EXPECT_TRUE(sig.IsSpecial(kPredEq));
  EXPECT_TRUE(sig.IsSpecial(kPredUnion));
}

TEST_F(LangTest, DeclareAndLookup) {
  Signature& sig = program_.signature();
  auto p = sig.Declare("p", {Sort::kAtom, Sort::kSet});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(sig.Lookup("p", 2), *p);
  EXPECT_EQ(sig.Lookup("p", 3), kInvalidPredicate);
  EXPECT_FALSE(sig.IsSpecial(*p));
  // Identical redeclaration is fine; conflicting one errors.
  EXPECT_TRUE(sig.Declare("p", {Sort::kAtom, Sort::kSet}).ok());
  auto bad = sig.Declare("p", {Sort::kSet, Sort::kSet});
  EXPECT_EQ(bad.status().code(), StatusCode::kSortError);
}

TEST_F(LangTest, CannotRedeclareBuiltin) {
  auto bad = program_.signature().Declare("union",
                                          {Sort::kSet, Sort::kSet,
                                           Sort::kSet});
  EXPECT_FALSE(bad.ok());
}

TEST_F(LangTest, NameArityDistinguishesPredicates) {
  Signature& sig = program_.signature();
  auto p2 = sig.Declare("q", {Sort::kAtom, Sort::kAtom});
  auto p1 = sig.Declare("q", {Sort::kAtom});
  ASSERT_TRUE(p2.ok());
  ASSERT_TRUE(p1.ok());
  EXPECT_NE(*p2, *p1);
}

TEST_F(LangTest, FactsMustBeGroundAndNonSpecial) {
  Signature& sig = program_.signature();
  PredicateId p = *sig.Declare("p", {Sort::kAtom});
  const TermId a = store_.MakeConstant("a");
  using Args = std::vector<TermId>;
  EXPECT_TRUE(CheckFact(store_, sig, p, Args{a}).ok());
  EXPECT_FALSE(
      CheckFact(store_, sig, p, Args{store_.MakeVariable("X", Sort::kAtom)})
          .ok());
  EXPECT_FALSE(CheckFact(store_, sig, kPredEq, Args{a, a}).ok());
  EXPECT_FALSE(CheckFact(store_, sig, p, Args{a, a}).ok());  // arity
}

TEST_F(LangTest, HeadMustBeNonSpecial) {
  // Definition 5: heads may not redefine equality or membership.
  Clause c;
  c.head = Literal{kPredEq,
                   {store_.MakeConstant("a"), store_.MakeConstant("a")},
                   true};
  Status st = ValidateClause(store_, program_.signature(), c,
                             LanguageMode::kLPS);
  EXPECT_FALSE(st.ok());
}

TEST_F(LangTest, LpsRejectsDepthTwoTerms) {
  Signature& sig = program_.signature();
  PredicateId p = *sig.Declare("p", {Sort::kSet});
  TermId nested = store_.MakeSet({store_.MakeSet({})});
  Clause c;
  c.head = Literal{p, {nested}, true};
  EXPECT_EQ(ValidateClause(store_, sig, c, LanguageMode::kLPS).code(),
            StatusCode::kSortError);
  EXPECT_TRUE(
      ValidateClause(store_, sig, c, LanguageMode::kELPS).ok());
}

TEST_F(LangTest, Example8FunctionArgumentsMustBeAtoms) {
  // In LPS, f may not take a set argument; ELPS (Definition 13) allows
  // it but the *range* of f is still an atom.
  Signature& sig = program_.signature();
  PredicateId p = *sig.Declare("p", {Sort::kAtom});
  TermId set_arg = store_.MakeSet({store_.MakeConstant("a")});
  TermId f = store_.MakeFunction("f", {set_arg});
  EXPECT_EQ(store_.sort(f), Sort::kAtom);  // range is atomic, always
  Clause c;
  c.head = Literal{p, {f}, true};
  EXPECT_EQ(ValidateClause(store_, sig, c, LanguageMode::kLPS).code(),
            StatusCode::kSortError);
  EXPECT_TRUE(ValidateClause(store_, sig, c, LanguageMode::kELPS).ok());
}

TEST_F(LangTest, QuantifierShapeChecks) {
  Signature& sig = program_.signature();
  PredicateId p = *sig.Declare("p", {Sort::kSet});
  TermId xs = store_.MakeVariable("Xs", Sort::kSet);
  TermId x = store_.MakeVariable("X", Sort::kAtom);

  Clause ok;
  ok.head = Literal{p, {xs}, true};
  ok.quantifiers.push_back(Quantifier{x, xs});
  ok.body.push_back(Literal{kPredIn, {x, xs}, true});
  EXPECT_TRUE(ValidateClause(store_, sig, ok, LanguageMode::kLPS).ok());

  Clause bad_var = ok;
  bad_var.quantifiers[0].var = store_.MakeConstant("a");
  EXPECT_FALSE(
      ValidateClause(store_, sig, bad_var, LanguageMode::kLPS).ok());

  Clause bad_range = ok;
  bad_range.quantifiers[0].range = store_.MakeConstant("a");
  EXPECT_EQ(
      ValidateClause(store_, sig, bad_range, LanguageMode::kLPS).code(),
      StatusCode::kSortError);

  Clause bad_sort = ok;
  bad_sort.quantifiers[0].var = xs;  // set-sorted quantified var in LPS
  bad_sort.quantifiers[0].range = store_.MakeVariable("Ys", Sort::kSet);
  EXPECT_EQ(
      ValidateClause(store_, sig, bad_sort, LanguageMode::kLPS).code(),
      StatusCode::kSortError);
}

TEST_F(LangTest, GroupingRequiresLdlMode) {
  Signature& sig = program_.signature();
  PredicateId p = *sig.Declare("g", {Sort::kAtom, Sort::kSet});
  PredicateId q = *sig.Declare("q", {Sort::kAtom, Sort::kAtom});
  TermId x = store_.MakeVariable("X", Sort::kAtom);
  TermId y = store_.MakeVariable("Y", Sort::kAtom);
  Clause c;
  c.head = Literal{p, {x, y}, true};
  c.grouping = GroupSpec{1, y};
  c.body.push_back(Literal{q, {x, y}, true});
  EXPECT_FALSE(ValidateClause(store_, sig, c, LanguageMode::kLPS).ok());
  EXPECT_FALSE(ValidateClause(store_, sig, c, LanguageMode::kELPS).ok());
  EXPECT_TRUE(ValidateClause(store_, sig, c, LanguageMode::kLDL).ok());
}

TEST_F(LangTest, ArityMismatchCaught) {
  Signature& sig = program_.signature();
  PredicateId p = *sig.Declare("p", {Sort::kAtom, Sort::kAtom});
  Clause c;
  c.head = Literal{p, {store_.MakeConstant("a")}, true};
  EXPECT_FALSE(ValidateClause(store_, sig, c, LanguageMode::kLPS).ok());
}

TEST_F(LangTest, ClauseVariablesAndFreeVariables) {
  Signature& sig = program_.signature();
  PredicateId p = *sig.Declare("p", {Sort::kSet});
  PredicateId q = *sig.Declare("q", {Sort::kAtom, Sort::kAtom});
  TermId xs = store_.MakeVariable("Xs", Sort::kSet);
  TermId x = store_.MakeVariable("X", Sort::kAtom);
  TermId y = store_.MakeVariable("Y", Sort::kAtom);
  Clause c;
  c.head = Literal{p, {xs}, true};
  c.quantifiers.push_back(Quantifier{x, xs});
  c.body.push_back(Literal{q, {x, y}, true});
  EXPECT_EQ(ClauseVariables(store_, c).size(), 3u);
  auto free = ClauseFreeVariables(store_, c);
  EXPECT_EQ(free.size(), 2u);  // Xs and Y; x is quantified
  EXPECT_TRUE(std::find(free.begin(), free.end(), x) == free.end());
}

TEST_F(LangTest, FormulaFreeVariables) {
  TermId xs = store_.MakeVariable("Xs", Sort::kSet);
  TermId x = store_.MakeVariable("X", Sort::kAtom);
  TermId y = store_.MakeVariable("Y", Sort::kAtom);
  // (forall x in Xs)(q(x, y)): free vars are Xs, y.
  auto f = Formula::Forall(
      x, xs, Formula::Atomic(Literal{kPredEq, {x, y}, true}));
  auto free = f->FreeVariables(store_);
  EXPECT_EQ(free.size(), 2u);
  EXPECT_TRUE(std::find(free.begin(), free.end(), x) == free.end());
}

TEST_F(LangTest, FormulaIsClauseBody) {
  TermId xs = store_.MakeVariable("Xs", Sort::kSet);
  TermId x = store_.MakeVariable("X", Sort::kAtom);
  Literal atom{kPredIn, {x, xs}, true};
  EXPECT_TRUE(Formula::Atomic(atom)->IsClauseBody());
  EXPECT_TRUE(
      Formula::Forall(x, xs, Formula::Atomic(atom))->IsClauseBody());
  std::vector<FormulaPtr> alts;
  alts.push_back(Formula::Atomic(atom));
  alts.push_back(Formula::Atomic(atom));
  EXPECT_FALSE(Formula::Or(std::move(alts))->IsClauseBody());
  // A forall under an And: still clause-shaped only when the forall is
  // the prefix.
  std::vector<FormulaPtr> conj;
  conj.push_back(Formula::Atomic(atom));
  conj.push_back(Formula::Forall(x, xs, Formula::Atomic(atom)));
  EXPECT_FALSE(Formula::And(std::move(conj))->IsClauseBody());
}

TEST_F(LangTest, ClausePrinting) {
  Signature& sig = program_.signature();
  PredicateId disj = *sig.Declare("disj", {Sort::kSet, Sort::kSet});
  TermId xs = store_.MakeVariable("Xs", Sort::kSet);
  TermId ys = store_.MakeVariable("Ys", Sort::kSet);
  TermId a = store_.MakeVariable("A", Sort::kAtom);
  TermId b = store_.MakeVariable("B", Sort::kAtom);
  Clause c;
  c.head = Literal{disj, {xs, ys}, true};
  c.quantifiers.push_back(Quantifier{a, xs});
  c.quantifiers.push_back(Quantifier{b, ys});
  c.body.push_back(Literal{kPredNeq, {a, b}, true});
  EXPECT_EQ(ClauseToString(store_, sig, c),
            "disj(Xs, Ys) :- forall A in Xs, forall B in Ys : A != B.");
}

TEST_F(LangTest, ProgramUsageFlags) {
  Signature& sig = program_.signature();
  PredicateId p = *sig.Declare("p", {Sort::kAtom});
  PredicateId q = *sig.Declare("q", {Sort::kAtom});
  TermId x = store_.MakeVariable("X", Sort::kAtom);
  Clause c;
  c.head = Literal{p, {x}, true};
  c.body.push_back(Literal{q, {x}, false});
  program_.AddClause(c);
  EXPECT_TRUE(ProgramUsesNegation(program_));
  EXPECT_FALSE(ProgramUsesGrouping(program_));
}

}  // namespace
}  // namespace lps
