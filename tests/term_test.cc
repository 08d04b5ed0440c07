// Tests for the hash-consed two-sorted term store (Definitions 1-3).
#include "term/term.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "term/printer.h"

namespace lps {
namespace {

class TermTest : public ::testing::Test {
 protected:
  TermStore store_;
};

TEST_F(TermTest, ConstantsAreInterned) {
  TermId a1 = store_.MakeConstant("a");
  TermId a2 = store_.MakeConstant("a");
  TermId b = store_.MakeConstant("b");
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_EQ(store_.kind(a1), TermKind::kConstant);
  EXPECT_EQ(store_.sort(a1), Sort::kAtom);
  EXPECT_TRUE(store_.is_ground(a1));
  EXPECT_EQ(store_.depth(a1), 0);
}

TEST_F(TermTest, IntegersAreInterned) {
  TermId i1 = store_.MakeInt(42);
  TermId i2 = store_.MakeInt(42);
  TermId i3 = store_.MakeInt(-7);
  EXPECT_EQ(i1, i2);
  EXPECT_NE(i1, i3);
  EXPECT_EQ(store_.int_value(i3), -7);
  EXPECT_EQ(store_.sort(i1), Sort::kAtom);
}

TEST_F(TermTest, VariablesDistinguishedBySort) {
  TermId xa = store_.MakeVariable("X", Sort::kAtom);
  TermId xs = store_.MakeVariable("X", Sort::kSet);
  TermId xa2 = store_.MakeVariable("X", Sort::kAtom);
  EXPECT_EQ(xa, xa2);
  EXPECT_NE(xa, xs);
  EXPECT_FALSE(store_.is_ground(xa));
  EXPECT_EQ(store_.sort(xs), Sort::kSet);
}

TEST_F(TermTest, FreshVariablesAreDistinct) {
  TermId v1 = store_.MakeFreshVariable("V", Sort::kAtom);
  TermId v2 = store_.MakeFreshVariable("V", Sort::kAtom);
  EXPECT_NE(v1, v2);
}

TEST_F(TermTest, FunctionTermsHashCons) {
  TermId a = store_.MakeConstant("a");
  TermId b = store_.MakeConstant("b");
  TermId f1 = store_.MakeFunction("f", {a, b});
  TermId f2 = store_.MakeFunction("f", {a, b});
  TermId f3 = store_.MakeFunction("f", {b, a});
  EXPECT_EQ(f1, f2);
  EXPECT_NE(f1, f3);  // argument order matters for functions
  EXPECT_EQ(store_.sort(f1), Sort::kAtom);  // ranges are atoms (Def 1.2)
  EXPECT_EQ(store_.args(f1).size(), 2u);
}

TEST_F(TermTest, GroundSetsAreCanonical) {
  TermId a = store_.MakeConstant("a");
  TermId b = store_.MakeConstant("b");
  // {a, b} == {b, a} == {a, b, a}: order and multiplicity collapse.
  TermId s1 = store_.MakeSet({a, b});
  TermId s2 = store_.MakeSet({b, a});
  TermId s3 = store_.MakeSet({a, b, a});
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1, s3);
  EXPECT_EQ(store_.args(s1).size(), 2u);
  EXPECT_EQ(store_.sort(s1), Sort::kSet);
  EXPECT_EQ(store_.depth(s1), 1);
}

TEST_F(TermTest, EmptySetSingleton) {
  EXPECT_EQ(store_.EmptySet(), store_.MakeSet({}));
  EXPECT_EQ(store_.depth(store_.EmptySet()), 1);
  EXPECT_TRUE(store_.is_ground(store_.EmptySet()));
}

TEST_F(TermTest, NestedSetsTrackDepth) {
  TermId a = store_.MakeConstant("a");
  TermId s = store_.MakeSet({a});
  TermId ss = store_.MakeSet({s});
  TermId mixed = store_.MakeSet({a, ss});
  EXPECT_EQ(store_.depth(s), 1);
  EXPECT_EQ(store_.depth(ss), 2);
  EXPECT_EQ(store_.depth(mixed), 3);
}

TEST_F(TermTest, SetCollapsesVariableDuplicates) {
  TermId x = store_.MakeVariable("X", Sort::kAtom);
  // {x, x} = {x} holds in every LPS model, so the store collapses it.
  TermId s1 = store_.MakeSet({x, x});
  TermId s2 = store_.MakeSet({x});
  EXPECT_EQ(s1, s2);
  EXPECT_FALSE(store_.is_ground(s1));
}

TEST_F(TermTest, GroundnessPropagates) {
  TermId x = store_.MakeVariable("X", Sort::kAtom);
  TermId a = store_.MakeConstant("a");
  TermId f = store_.MakeFunction("f", {x});
  TermId g = store_.MakeFunction("g", {a});
  EXPECT_FALSE(store_.is_ground(f));
  EXPECT_TRUE(store_.is_ground(g));
  EXPECT_FALSE(store_.is_ground(store_.MakeSet({a, x})));
}

TEST_F(TermTest, CollectVariables) {
  TermId x = store_.MakeVariable("X", Sort::kAtom);
  TermId y = store_.MakeVariable("Y", Sort::kAtom);
  TermId a = store_.MakeConstant("a");
  TermId t = store_.MakeSet({store_.MakeFunction("f", {x, y}), a, x});
  std::vector<TermId> vars;
  store_.CollectVariables(t, &vars);
  EXPECT_EQ(vars.size(), 2u);
  EXPECT_TRUE(store_.ContainsVariable(t, x));
  EXPECT_TRUE(store_.ContainsVariable(t, y));
  EXPECT_FALSE(store_.ContainsVariable(a, x));
}

TEST_F(TermTest, PrinterRendersPaperSyntax) {
  TermId a = store_.MakeConstant("a");
  TermId b = store_.MakeConstant("b");
  TermId x = store_.MakeVariable("X", Sort::kAtom);
  EXPECT_EQ(TermToString(store_, a), "a");
  EXPECT_EQ(TermToString(store_, store_.MakeInt(3)), "3");
  EXPECT_EQ(TermToString(store_, store_.MakeFunction("f", {a, x})),
            "f(a, X)");
  EXPECT_EQ(TermToString(store_, store_.EmptySet()), "{}");
  // Canonical order is by term id: a was interned before b.
  EXPECT_EQ(TermToString(store_, store_.MakeSet({b, a})), "{a, b}");
}

// Property: interning the same structure twice never grows the store.
TEST_F(TermTest, InterningIsIdempotent) {
  TermId a = store_.MakeConstant("a");
  for (int round = 0; round < 3; ++round) {
    size_t before = store_.size();
    TermId s = store_.MakeSet({a, store_.MakeFunction("f", {a})});
    (void)s;
    if (round > 0) {
      EXPECT_EQ(store_.size(), before);
    }
  }
}

// Parameterized sweep: canonicalization invariants for arbitrary element
// multisets.
class SetCanonTest : public ::testing::TestWithParam<int> {};

TEST_P(SetCanonTest, SortedUniqueElements) {
  TermStore store;
  int n = GetParam();
  std::vector<TermId> elems;
  for (int i = 0; i < n; ++i) {
    elems.push_back(store.MakeConstant("c" + std::to_string(i % 3)));
  }
  TermId s = store.MakeSet(elems);
  auto args = store.args(s);
  EXPECT_LE(args.size(), 3u);
  for (size_t i = 1; i < args.size(); ++i) {
    EXPECT_LT(args[i - 1], args[i]);  // strictly sorted = no duplicates
  }
}

INSTANTIATE_TEST_SUITE_P(Cardinalities, SetCanonTest,
                         ::testing::Values(0, 1, 2, 3, 5, 9, 17));

// ---- Set-intern differential test ------------------------------------
// Randomized canonical-form lock-in (in the spirit of relation_test's
// RandomizedLookupMatchesLinearScanOracle): every construction path -
// MakeSet(vector), MakeSet(span), SetBuilder::Build, and
// InternCanonicalSet on the oracle-canonicalized sequence - must agree
// with a sort+unique oracle, on the same id whenever the canonical
// forms coincide, and on distinct ids otherwise. Drives the intern
// table through several growth cycles.
TEST_F(TermTest, RandomizedSetInternMatchesCanonicalizationOracle) {
  uint64_t state = 0x9E3779B97F4A7C15ull;
  auto rnd = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };

  // Element pool: constants, ints, and a few nested sets.
  std::vector<TermId> pool;
  for (int i = 0; i < 24; ++i) {
    pool.push_back(store_.MakeConstant("c" + std::to_string(i)));
    pool.push_back(store_.MakeInt(i * 7 - 3));
  }
  pool.push_back(store_.MakeSet({pool[0], pool[1]}));
  pool.push_back(store_.MakeSet({pool[2]}));
  pool.push_back(store_.EmptySet());

  std::map<std::vector<TermId>, TermId> by_canonical_form;
  SetBuilder builder;
  for (int round = 0; round < 4000; ++round) {
    // A random multiset, duplicates likely.
    std::vector<TermId> elems;
    size_t n = rnd() % 9;
    for (size_t i = 0; i < n; ++i) {
      elems.push_back(pool[rnd() % pool.size()]);
    }

    // Oracle canonical form: sorted unique ids.
    std::vector<TermId> canon = elems;
    std::sort(canon.begin(), canon.end());
    canon.erase(std::unique(canon.begin(), canon.end()), canon.end());

    TermId via_vector = store_.MakeSet(elems);
    TermId via_span =
        store_.MakeSet(std::span<const TermId>(elems.data(), elems.size()));
    builder.Clear();
    for (TermId e : elems) builder.Add(e);
    TermId via_builder = builder.Build(&store_);
    TermId via_canonical = store_.InternCanonicalSet(canon);

    ASSERT_EQ(via_vector, via_span);
    ASSERT_EQ(via_vector, via_builder);
    ASSERT_EQ(via_vector, via_canonical);

    // Stored element array is exactly the oracle's canonical form.
    auto args = store_.args(via_vector);
    ASSERT_TRUE(std::equal(args.begin(), args.end(), canon.begin(),
                           canon.end()))
        << "stored form diverges from the canonicalization oracle";

    // Same canonical form <=> same id, across the whole history.
    auto [it, inserted] = by_canonical_form.emplace(canon, via_vector);
    ASSERT_EQ(it->second, via_vector)
        << (inserted ? "" : "re-interning an old form changed its id");
  }
  // The differential sweep must have exercised both table hits and
  // growth well past the initial slot count.
  EXPECT_GT(store_.set_intern_hits(), 1000u);
  EXPECT_GT(by_canonical_form.size(), 200u);
}

// Ints, variables of both sorts under shared names, functions and
// nested sets intern interleaved through one table as it doubles many
// times. Each kind is checked against an oracle keyed by its own
// fields; the const lookups must find exactly what was interned, and a
// clone must resolve every id alike and keep interning past the clone
// point.
TEST_F(TermTest, MixedKindInternsMatchPerKindOracles) {
  uint64_t state = 0x2545F4914F6CDD1Dull;
  auto rnd = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::map<int64_t, TermId> ints;
  std::map<std::pair<std::string, Sort>, TermId> vars;
  std::map<std::pair<std::string, std::vector<TermId>>, TermId> funs;
  std::map<std::vector<TermId>, TermId> sets;  // canonical elements
  std::vector<TermId> pool = {store_.MakeConstant("c")};
  auto pick = [&](size_t max) {
    std::vector<TermId> picked(rnd() % (max + 1));
    for (TermId& t : picked) t = pool[rnd() % pool.size()];
    return picked;
  };
  for (int op = 0; op < 6000; ++op) {
    TermId id = kInvalidTerm;
    switch (rnd() % 4) {
      case 0: {
        const int64_t v = static_cast<int64_t>(rnd() % 400) - 200;
        id = store_.MakeInt(v);
        ASSERT_EQ(ints.emplace(v, id).first->second, id);
        break;
      }
      case 1: {
        const std::string name = "V" + std::to_string(rnd() % 60);
        const Sort sort = rnd() % 2 == 0 ? Sort::kAtom : Sort::kSet;
        id = store_.MakeVariable(name, sort);
        ASSERT_EQ(vars.emplace(std::make_pair(name, sort), id).first->second,
                  id);
        EXPECT_EQ(store_.sort(id), sort);
        break;
      }
      case 2: {
        const std::string name = rnd() % 2 == 0 ? "f" : "g";
        std::vector<TermId> args = pick(2);
        if (args.empty()) args.push_back(pool[0]);
        id = store_.MakeFunction(name, args);
        ASSERT_EQ(funs.emplace(std::make_pair(name, args), id).first->second,
                  id);
        break;
      }
      default: {
        std::vector<TermId> elems = pick(3);
        std::sort(elems.begin(), elems.end());
        elems.erase(std::unique(elems.begin(), elems.end()), elems.end());
        id = store_.MakeSet(elems);
        ASSERT_EQ(sets.emplace(elems, id).first->second, id);
        auto stored = store_.args(id);
        ASSERT_TRUE(std::equal(stored.begin(), stored.end(), elems.begin(),
                               elems.end()));
        uint16_t depth = 0;
        for (TermId e : elems) depth = std::max(depth, store_.depth(e));
        EXPECT_EQ(store_.depth(id), depth + 1);
        break;
      }
    }
    pool.push_back(id);
  }
  // Distinct keys of any kinds got distinct ids.
  std::set<TermId> ids;
  for (const auto& [v, id] : ints) ids.insert(id);
  for (const auto& [k, id] : vars) ids.insert(id);
  for (const auto& [k, id] : funs) ids.insert(id);
  for (const auto& [k, id] : sets) ids.insert(id);
  EXPECT_EQ(ids.size(),
            ints.size() + vars.size() + funs.size() + sets.size());
  EXPECT_GT(vars.size(), 100u);  // same names under both sorts
  EXPECT_GT(sets.size(), 500u);

  auto lookups_agree = [&](const TermStore& st) {
    for (const auto& [v, id] : ints) ASSERT_EQ(st.TryLookupInt(v), id);
    for (const auto& [k, id] : funs) {
      ASSERT_EQ(st.TryLookupFunction(st.symbols().Lookup(k.first), k.second),
                id);
    }
    for (const auto& [elems, id] : sets) {
      ASSERT_EQ(st.TryLookupCanonicalSet(elems), id);
    }
    EXPECT_EQ(st.TryLookupInt(1000), kInvalidTerm);
    const std::vector<TermId> none = {pool[0], pool[0]};
    EXPECT_EQ(st.TryLookupFunction(st.symbols().Lookup("f"), none),
              kInvalidTerm);
    EXPECT_EQ(st.TryLookupCanonicalSet(std::vector<TermId>{
                  static_cast<TermId>(st.size() - 1),
                  static_cast<TermId>(st.size())}),
              kInvalidTerm);
  };
  const size_t size = store_.size();
  lookups_agree(store_);
  EXPECT_EQ(store_.size(), size);  // the lookups interned nothing
  for (const auto& [k, id] : vars) {
    EXPECT_EQ(store_.MakeVariable(k.first, k.second), id);
  }
  EXPECT_EQ(store_.size(), size);

  std::unique_ptr<TermStore> clone = store_.Clone();
  lookups_agree(*clone);
  for (const auto& [k, id] : vars) {
    EXPECT_EQ(clone->MakeVariable(k.first, k.second), id);
  }
  for (const auto& [elems, id] : sets) EXPECT_EQ(clone->MakeSet(elems), id);
  EXPECT_EQ(clone->size(), size);
  // Past the clone point: new ids continue the arena and resolve in
  // the clone alone.
  const TermId big = clone->MakeInt(1000);
  const TermId fresh_set = clone->MakeSet({big, pool[0]});
  EXPECT_EQ(big, size);
  EXPECT_EQ(fresh_set, size + 1);
  EXPECT_EQ(clone->TryLookupInt(1000), big);
  EXPECT_EQ(clone->MakeSet({pool[0], big}), fresh_set);
  EXPECT_EQ(store_.TryLookupInt(1000), kInvalidTerm);
  EXPECT_EQ(store_.size(), size);
}

TEST_F(TermTest, InternCanonicalSetAcceptsArenaAliasingSpans) {
  // The documented contract: the input span may view the store's own
  // element arena. Re-interning an existing set's args() is a hit;
  // interning a subspan of them is a (copy-safe) miss.
  TermId a = store_.MakeConstant("a");
  TermId b = store_.MakeConstant("b");
  TermId c = store_.MakeConstant("c");
  TermId abc = store_.MakeSet({a, b, c});
  EXPECT_EQ(store_.InternCanonicalSet(store_.args(abc)), abc);
  TermId ab = store_.InternCanonicalSet(store_.args(abc).subspan(0, 2));
  EXPECT_EQ(ab, store_.MakeSet({a, b}));
  // Force arena growth while interning spans into it.
  for (int i = 0; i < 64; ++i) {
    TermId x = store_.MakeConstant("x" + std::to_string(i));
    TermId s = store_.MakeSet({a, x});
    EXPECT_EQ(store_.InternCanonicalSet(store_.args(s)), s);
  }
}

TEST_F(TermTest, SetInternCountersTrackHitsAndMisses) {
  size_t interns0 = store_.set_interns();   // constructor made {}
  size_t hits0 = store_.set_intern_hits();
  TermId a = store_.MakeConstant("a");
  TermId b = store_.MakeConstant("b");
  TermId s1 = store_.MakeSet({a, b});  // miss
  EXPECT_EQ(store_.set_interns(), interns0 + 1);
  EXPECT_EQ(store_.set_intern_hits(), hits0);
  TermId s2 = store_.MakeSet({b, a, b});  // same canonical form: hit
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(store_.set_interns(), interns0 + 2);
  EXPECT_EQ(store_.set_intern_hits(), hits0 + 1);
}

}  // namespace
}  // namespace lps
