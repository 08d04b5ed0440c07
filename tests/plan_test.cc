// Tests for join planning: literal ordering, builtin-mode awareness,
// enumeration fallbacks, the quantifier-specific plan parts, and the
// cost-based ordering mode (PlannerStats).
#include "eval/plan.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "eval/database.h"

namespace lps {
namespace {

class PlanTest : public ::testing::Test {
 protected:
  PlanTest() : program_(&store_) {
    Signature& sig = program_.signature();
    p1_ = *sig.Declare("p1", {Sort::kAtom});
    p2_ = *sig.Declare("p2", {Sort::kAtom, Sort::kAtom});
    ps_ = *sig.Declare("ps", {Sort::kSet});
    x_ = store_.MakeVariable("X", Sort::kAtom);
    y_ = store_.MakeVariable("Y", Sort::kAtom);
    z_ = store_.MakeVariable("Z", Sort::kAtom);
    xs_ = store_.MakeVariable("Xs", Sort::kSet);
  }

  TermStore store_;
  Program program_;
  PredicateId p1_, p2_, ps_;
  TermId x_, y_, z_, xs_;
};

TEST_F(PlanTest, BuiltinsWaitForTheirModes) {
  // h(K) :- p2(X, Y), add(X, Y, K): the scan must precede the builtin.
  Clause c;
  c.head = Literal{p1_, {z_}, true};
  c.body.push_back(Literal{kPredAdd, {x_, y_, z_}, true});
  c.body.push_back(Literal{p2_, {x_, y_}, true});
  auto plan = BuildRulePlan(store_, program_.signature(), c);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const auto& steps = plan->free_plan.steps;
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_EQ(steps[0].kind, StepKind::kScan);
  EXPECT_EQ(steps[0].literal_index, 1u);
  EXPECT_EQ(steps[1].kind, StepKind::kBuiltin);
}

TEST_F(PlanTest, NegationLast) {
  Clause c;
  c.head = Literal{p1_, {x_}, true};
  c.body.push_back(Literal{p1_, {x_}, false});  // not p1(X)
  c.body.push_back(Literal{p2_, {x_, y_}, true});
  auto plan = BuildRulePlan(store_, program_.signature(), c);
  ASSERT_TRUE(plan.ok());
  const auto& steps = plan->free_plan.steps;
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_EQ(steps[0].kind, StepKind::kScan);
  EXPECT_EQ(steps[1].kind, StepKind::kNegated);
}

TEST_F(PlanTest, UnboundHeadVarGetsEnumerationStep) {
  // p1(X) :- p1(a): X never bound by the body.
  Clause c;
  c.head = Literal{p1_, {x_}, true};
  c.body.push_back(Literal{p1_, {store_.MakeConstant("a")}, true});
  auto plan = BuildRulePlan(store_, program_.signature(), c);
  ASSERT_TRUE(plan.ok());
  bool has_enum = false;
  for (const PlanStep& s : plan->free_plan.steps) {
    if (s.kind == StepKind::kEnumAtom && s.var == x_) has_enum = true;
  }
  EXPECT_TRUE(has_enum);
}

TEST_F(PlanTest, QuantifiedLiteralsClassified) {
  // ps(Xs) :- (forall x in Xs) p2(x, Y) & p1(Y):
  // p2 is quantified (contains x), p1 is free.
  Clause c;
  c.head = Literal{ps_, {xs_}, true};
  c.quantifiers.push_back(Quantifier{x_, xs_});
  c.body.push_back(Literal{p2_, {x_, y_}, true});
  c.body.push_back(Literal{p1_, {y_}, true});
  auto plan = BuildRulePlan(store_, program_.signature(), c);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->quantified_literals, (std::vector<size_t>{0}));
  EXPECT_EQ(plan->free_literals, (std::vector<size_t>{1}));
  EXPECT_TRUE(plan->has_quantifiers);
  EXPECT_EQ(plan->range_vars_needed, (std::vector<TermId>{xs_}));
  // Y is bound by the free literal, so no seeding needed.
  EXPECT_TRUE(plan->seed_vars.empty());
}

TEST_F(PlanTest, SeedVarsForDivision) {
  // ps(Xs) :- (forall x in Xs) p2(x, Y): Y occurs only under the
  // quantifier -> division seeding.
  Clause c;
  c.head = Literal{ps_, {xs_}, true};
  c.quantifiers.push_back(Quantifier{x_, xs_});
  c.body.push_back(Literal{p2_, {x_, y_}, true});
  auto plan = BuildRulePlan(store_, program_.signature(), c);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->seed_vars, (std::vector<TermId>{y_}));
  ASSERT_FALSE(plan->seed_plan.steps.empty());
  EXPECT_EQ(plan->seed_plan.steps[0].kind, StepKind::kScan);
}

TEST_F(PlanTest, EmptyBranchBindsRangeAndHeadVars) {
  Clause c;
  c.head = Literal{ps_, {xs_}, true};
  c.quantifiers.push_back(Quantifier{x_, xs_});
  c.body.push_back(Literal{p1_, {x_}, true});
  auto plan = BuildRulePlan(store_, program_.signature(), c);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->empty_branch_plan.steps.size(), 1u);
  EXPECT_EQ(plan->empty_branch_plan.steps[0].kind, StepKind::kEnumSet);
  EXPECT_EQ(plan->empty_branch_plan.steps[0].var, xs_);
}

TEST_F(PlanTest, QuantifiedVarInHeadRejected) {
  // Definition 5 scopes quantified variables to the body.
  Clause c;
  c.head = Literal{p1_, {x_}, true};
  c.quantifiers.push_back(Quantifier{x_, xs_});
  c.body.push_back(Literal{p1_, {x_}, true});
  auto plan = BuildRulePlan(store_, program_.signature(), c);
  EXPECT_EQ(plan.status().code(), StatusCode::kSafetyError);
}

TEST_F(PlanTest, QuantifierRangeUsingQuantifiedVarRejected) {
  TermId ys = store_.MakeVariable("Ys", Sort::kSet);
  TermId e = store_.MakeVariable("E", Sort::kAny);
  Clause c;
  c.head = Literal{ps_, {xs_}, true};
  c.quantifiers.push_back(Quantifier{e, xs_});
  c.quantifiers.push_back(Quantifier{y_, e});  // range = quantified var
  c.body.push_back(Literal{p1_, {y_}, true});
  (void)ys;
  auto plan = BuildRulePlan(store_, program_.signature(), c);
  EXPECT_EQ(plan.status().code(), StatusCode::kSafetyError);
}

TEST_F(PlanTest, MostBoundLiteralScansFirst) {
  // p1(X) :- p2(X, Y), p2(a, X): the literal with the constant should
  // be scanned first (more bound positions).
  Clause c;
  c.head = Literal{p1_, {x_}, true};
  c.body.push_back(Literal{p2_, {x_, y_}, true});
  c.body.push_back(Literal{p2_, {store_.MakeConstant("a"), x_}, true});
  auto plan = BuildRulePlan(store_, program_.signature(), c);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->free_plan.steps[0].literal_index, 1u);
}

TEST_F(PlanTest, GoalPlanFlagsDemandCandidates) {
  // p1 gains a rule; p2 stays extensional.
  Clause c;
  c.head = Literal{p1_, {x_}, true};
  c.body.push_back(Literal{p2_, {x_, y_}, true});
  program_.AddClause(c);

  GoalPlan derived = BuildGoalPlan(store_, program_.signature(), program_,
                                   Literal{p1_, {x_}, true});
  EXPECT_TRUE(derived.demand_candidate);
  ASSERT_EQ(derived.body.steps.size(), 1u);
  EXPECT_EQ(derived.body.steps[0].kind, StepKind::kScan);

  GoalPlan edb = BuildGoalPlan(store_, program_.signature(), program_,
                               Literal{p2_, {x_, y_}, true});
  EXPECT_FALSE(edb.demand_candidate);
  EXPECT_NE(edb.demand_ineligible_reason.find("no rules"),
            std::string::npos);

  GoalPlan builtin = BuildGoalPlan(store_, program_.signature(), program_,
                                   Literal{kPredLt, {x_, y_}, true});
  EXPECT_FALSE(builtin.demand_candidate);
  EXPECT_NE(builtin.demand_ineligible_reason.find("builtin"),
            std::string::npos);
}

TEST_F(PlanTest, PlannerStatsEstimatesFromRelation) {
  Database db(&store_, &program_.signature());
  // 40 rows: 40 distinct first-column keys, 4 distinct second-column.
  for (int i = 0; i < 40; ++i) {
    db.AddTuple(p2_, {store_.MakeConstant("a" + std::to_string(i)),
                      store_.MakeConstant("b" + std::to_string(i % 4))});
  }
  db.relation(p2_).EnsureIndex(ColumnBit(0));
  db.relation(p2_).EnsureIndex(ColumnBit(1));

  RelationStats rs = db.relation(p2_).Stats();
  EXPECT_EQ(rs.live_rows, 40u);
  ASSERT_EQ(rs.masks.size(), 2u);

  PlannerStats stats = PlannerStats::FromDatabase(db);
  EXPECT_DOUBLE_EQ(stats.EstimateScan(p2_, 0), 40.0);
  // Exact-mask indexes: average bucket size = rows / distinct keys.
  EXPECT_DOUBLE_EQ(stats.EstimateScan(p2_, ColumnBit(0)), 1.0);
  EXPECT_DOUBLE_EQ(stats.EstimateScan(p2_, ColumnBit(1)), 10.0);
  // No exact index for the combined mask: per-column selectivities
  // multiply, clamped below at one matching row.
  EXPECT_DOUBLE_EQ(stats.EstimateScan(p2_, ColumnBit(0) | ColumnBit(1)),
                   1.0);
  // An absent relation scans empty unless marked rule-defined.
  EXPECT_DOUBLE_EQ(stats.EstimateScan(p1_, 0), 0.0);
  stats.MarkDerived(p1_);
  EXPECT_DOUBLE_EQ(stats.EstimateScan(p1_, 0), PlannerStats::kUnknownRows);
}

TEST_F(PlanTest, CostOrderPicksSelectiveLiteralFirst) {
  // p1(X) :- hay(X, Y), pin(Y, Z): source order ties on the boundness
  // ladder, so the heuristic scans hay first. With statistics, pin's
  // two rows against hay's fifty flip the order.
  Signature& sig = program_.signature();
  PredicateId hay = *sig.Declare("hay", {Sort::kAtom, Sort::kAtom});
  PredicateId pin = *sig.Declare("pin", {Sort::kAtom, Sort::kAtom});
  Database db(&store_, &sig);
  for (int i = 0; i < 50; ++i) {
    db.AddTuple(hay, {store_.MakeConstant("h" + std::to_string(i)),
                      store_.MakeConstant("k" + std::to_string(i))});
  }
  db.AddTuple(pin, {store_.MakeConstant("k1"), store_.MakeConstant("v")});
  db.AddTuple(pin, {store_.MakeConstant("k2"), store_.MakeConstant("w")});

  Clause c;
  c.head = Literal{p1_, {x_}, true};
  c.body.push_back(Literal{hay, {x_, y_}, true});
  c.body.push_back(Literal{pin, {y_, z_}, true});

  auto legacy = BuildRulePlan(store_, sig, c);
  ASSERT_TRUE(legacy.ok());
  EXPECT_EQ(legacy->free_plan.steps[0].literal_index, 0u);
  EXPECT_FALSE(legacy->free_plan.reordered);
  EXPECT_EQ(legacy->free_plan.est_out, -1.0);
  EXPECT_EQ(legacy->free_plan.steps[0].est_rows, -1.0);

  PlannerStats stats = PlannerStats::FromDatabase(db);
  auto cost = BuildRulePlan(store_, sig, c, &stats);
  ASSERT_TRUE(cost.ok());
  ASSERT_EQ(cost->free_plan.steps.size(), 2u);
  EXPECT_EQ(cost->free_plan.steps[0].literal_index, 1u);  // pin first
  EXPECT_TRUE(cost->free_plan.reordered);
  EXPECT_DOUBLE_EQ(cost->free_plan.steps[0].est_rows, 2.0);
  EXPECT_GE(cost->free_plan.est_out, 0.0);
}

TEST_F(PlanTest, CostOrderIsDeterministic) {
  // The cost order is a pure function of (clause, statistics): no
  // iteration-order or address-dependent tie-breaks. Rebuilding the
  // plan must reproduce the identical step sequence and estimates.
  Signature& sig = program_.signature();
  PredicateId r1 = *sig.Declare("r1", {Sort::kAtom, Sort::kAtom});
  PredicateId r2 = *sig.Declare("r2", {Sort::kAtom, Sort::kAtom});
  PredicateId r3 = *sig.Declare("r3", {Sort::kAtom, Sort::kAtom});
  Database db(&store_, &sig);
  for (int i = 0; i < 7; ++i) {
    TermId a = store_.MakeConstant("c" + std::to_string(i));
    db.AddTuple(r1, {a, a});
    if (i < 3) db.AddTuple(r2, {a, a});
    db.AddTuple(r3, {a, a});
  }
  Clause c;
  c.head = Literal{p1_, {x_}, true};
  c.body.push_back(Literal{r1, {x_, y_}, true});
  c.body.push_back(Literal{r2, {y_, z_}, true});
  c.body.push_back(Literal{r3, {z_, x_}, true});

  PlannerStats stats = PlannerStats::FromDatabase(db);
  auto first = BuildRulePlan(store_, sig, c, &stats);
  ASSERT_TRUE(first.ok());
  for (int trial = 0; trial < 20; ++trial) {
    PlannerStats again = PlannerStats::FromDatabase(db);
    auto plan = BuildRulePlan(store_, sig, c, &again);
    ASSERT_TRUE(plan.ok());
    ASSERT_EQ(plan->free_plan.steps.size(),
              first->free_plan.steps.size());
    for (size_t i = 0; i < plan->free_plan.steps.size(); ++i) {
      EXPECT_EQ(plan->free_plan.steps[i].literal_index,
                first->free_plan.steps[i].literal_index);
      EXPECT_EQ(plan->free_plan.steps[i].est_rows,
                first->free_plan.steps[i].est_rows);
    }
    EXPECT_EQ(plan->free_plan.est_out, first->free_plan.est_out);
  }
}

TEST_F(PlanTest, StatsReadsAreRaceFreeAgainstSnapshotReaders) {
  // Relation::Stats() documents that it is safe concurrent with
  // Lookup while no insert runs - the coordinator snapshots
  // statistics while serve-side readers scan. Run both under TSan.
  Database db(&store_, &program_.signature());
  TermId key = kInvalidTerm;
  for (int i = 0; i < 64; ++i) {
    TermId a = store_.MakeConstant("s" + std::to_string(i));
    if (i == 0) key = a;
    db.AddTuple(p2_, {a, a});
  }
  Relation& rel = db.relation(p2_);
  rel.EnsureIndex(ColumnBit(0));
  std::atomic<bool> go{false};
  std::atomic<size_t> rows_seen{0};
  std::thread reader([&] {
    while (!go.load()) {
    }
    std::vector<RowId> hits;
    Tuple k{key, kInvalidTerm};
    for (int i = 0; i < 1000; ++i) {
      rel.Lookup(ColumnBit(0), k, &hits);
      rows_seen += hits.size();
    }
  });
  std::thread counter([&] {
    while (!go.load()) {
    }
    for (int i = 0; i < 1000; ++i) {
      RelationStats s = rel.Stats();
      rows_seen += s.live_rows;
    }
  });
  go = true;
  reader.join();
  counter.join();
  EXPECT_GT(rows_seen.load(), 0u);
}

TEST_F(PlanTest, BlockedBuiltinsForceEnumeration) {
  // p1(X) :- lt(X, Y): neither bound; the plan must enumerate.
  Clause c;
  c.head = Literal{p1_, {x_}, true};
  c.body.push_back(Literal{kPredLt, {x_, y_}, true});
  auto plan = BuildRulePlan(store_, program_.signature(), c);
  ASSERT_TRUE(plan.ok());
  size_t enums = 0;
  for (const PlanStep& s : plan->free_plan.steps) {
    if (s.kind == StepKind::kEnumAtom) ++enums;
  }
  EXPECT_EQ(enums, 2u);  // both X and Y
}

}  // namespace
}  // namespace lps
