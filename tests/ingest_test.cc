// Differential tests of the bulk loader's flat ground-atom path
// (Session::LoadFactsParallel, api/ingest.cc) against the clause
// pipeline it replaces for ground atoms: the same loader with every
// fact parsed into a clause (IngestOracle), and the sequential
// Session::Load. Both must leave the same store, signature, program
// and database, or reject with the same Status.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/session.h"
#include "term/printer.h"

namespace lps {

// Reaches the loader with the flat path off: ground atoms take the
// clause pipeline like every other fact.
class IngestOracle {
 public:
  static Status Load(Session* session, const std::string& text,
                     size_t lanes) {
    return session->LoadFacts(text, lanes, /*ground_atom_path=*/false);
  }
};

namespace {

constexpr size_t kLanes[] = {1, 2, 4, 8};

// Everything a load can change: every term, every predicate with its
// sorts, the rules, and the database in insertion order.
std::string Dump(Session& s) {
  std::string out = "terms:";
  const TermStore& store = *s.store();
  for (TermId t = 0; t < store.size(); ++t) {
    out += ' ';
    out += TermToString(store, t);
  }
  out += "\npreds:";
  const Signature& sig = *s.signature();
  for (PredicateId p = 0; p < sig.size(); ++p) {
    out += ' ' + sig.Name(p) + '(';
    for (Sort so : sig.info(p).arg_sorts) out += SortToString(so)[0];
    out += ')';
  }
  out += "\nclauses: " + std::to_string(s.program()->clauses().size());
  out += "\n" + s.database()->ToString(sig);
  return out;
}

std::string Outcome(const Status& st, Session& s) {
  if (!st.ok()) return "error " + st.ToString();
  return Dump(s);
}

// `text` bulk-loaded after `prelude` (loaded the ordinary way).
std::string BulkOutcome(const std::string& prelude, const std::string& text,
                        LanguageMode mode, size_t lanes, bool oracle,
                        size_t* general = nullptr) {
  Session s(mode);
  Status st = s.Load(prelude);
  if (st.ok()) st = s.Compile();
  if (!st.ok()) return "prelude error " + st.ToString();
  st = oracle ? IngestOracle::Load(&s, text, lanes)
              : s.LoadFactsParallel(text, lanes);
  if (general != nullptr) *general = s.eval_stats().ingest.general_path_facts;
  return Outcome(st, s);
}

std::string SequentialOutcome(const std::string& prelude,
                              const std::string& text, LanguageMode mode) {
  Session s(mode);
  Status st = s.Load(prelude);
  if (st.ok()) st = s.Compile();
  if (!st.ok()) return "prelude error " + st.ToString();
  st = s.Load(text);
  if (st.ok()) st = s.Compile();
  return Outcome(st, s);
}

bool IsError(const std::string& outcome) {
  return outcome.rfind("error ", 0) == 0;
}

// The flat path equals the oracle at every lane count, Status message
// and chunk-line tag included; when `sequential`, an accepted load also
// equals Session::Load of the same text and a rejected one is rejected
// there too.
void ExpectSameLoads(const std::string& prelude, const std::string& text,
                     LanguageMode mode, bool sequential = true) {
  const std::string seq = SequentialOutcome(prelude, text, mode);
  for (size_t lanes : kLanes) {
    const std::string flat = BulkOutcome(prelude, text, mode, lanes, false);
    const std::string oracle = BulkOutcome(prelude, text, mode, lanes, true);
    ASSERT_EQ(flat, oracle) << "lanes " << lanes << ", text:\n" << text;
    if (!sequential) continue;
    if (IsError(flat) || IsError(seq)) {
      EXPECT_EQ(IsError(flat), IsError(seq))
          << "lanes " << lanes << "\nbulk: " << flat.substr(0, 300)
          << "\nsequential: " << seq.substr(0, 300) << "\ntext:\n" << text;
    } else {
      EXPECT_EQ(flat, seq) << "lanes " << lanes << ", text:\n" << text;
    }
  }
}

// A facts-only corpus over several 1 KB chunks: fresh predicates
// declared by facts alone (kind/1 is an atom early and a set late, so
// its sorts join to any across chunks), integers (negative ones too),
// names that merely start like keywords, underscores and digits in
// names, sets and function terms (the clause pipeline) before and
// after flat facts that mint the same constants, comments of both
// kinds, CRLF line ends, facts spanning lines, arity > 32, and
// duplicates.
std::string Corpus(int n) {
  std::string out = "% generated corpus\n";
  auto c = [](int i) { return "n" + std::to_string(i % 53); };
  for (int i = 0; i < n; ++i) {
    out += "edge(" + c(i) + ", " + c(i * 7 + 3) + ").\n";
    if (i % 4 == 0) {
      out += "weight(" + c(i) + ", " + std::to_string(i % 19 - 9) + ").\r\n";
    }
    if (i % 9 == 0) out += "tags(" + c(i + 60) + ", {" + c(i + 2) + ", z" +
                           std::to_string(i) + "}).\n";
    if (i % 11 == 0) out += "at(f(" + c(i) + ", g" + std::to_string(i) +
                            "), -" + std::to_string(i) + ").\n";
    if (i % 13 == 0) out += "names(inx, sets, nothing, a_b, x_1, any0).\n";
    if (i % 17 == 0) out += "// a comment line\nsplit(" + c(i) + ",\n   " +
                            c(i + 1) + ").\n";
    if (i == 5) out += "kind(" + c(i) + ").\n";
    if (i == n - 3) out += "kind({" + c(i) + "}).\n";
    if (i % 29 == 0) {
      out += "wide(";
      for (int k = 0; k < 40; ++k) {
        out += (k ? ", " : "") + std::string("w") + std::to_string((i + k) % 45);
      }
      out += ").\n";
    }
    if (i % 31 == 0) out += "flag.\nedge(" + c(i) + ", " + c(i * 7 + 3) + ").\n";
  }
  out += "edge(n0, n1)."; // no final newline
  return out;
}

std::string Follows(int users) {
  std::string out;
  for (int i = 0; i < users; ++i) {
    for (int k : {1, 3, 7}) {
      out += "follows(u" + std::to_string(i) + ", u" +
             std::to_string((i / 64) * 64 + (i + k) % 64) + ").\n";
    }
  }
  return out;
}

TEST(IngestTest, CorpusMatchesOracleAndSequentialLoad) {
  const std::string corpus = Corpus(400);
  ASSERT_GT(corpus.size(), 8u * 1024u);
  for (LanguageMode mode : {LanguageMode::kLDL, LanguageMode::kELPS}) {
    ExpectSameLoads("", corpus, mode);
    // Against a store that already holds some of the constants and
    // declares some of the predicates.
    ExpectSameLoads("edge(n1, n2). weight(n3, 4). pred tags(atom, any).\n"
                    "reach(X, Y) :- edge(X, Y).\n",
                    corpus, mode);
  }
  // LPS allows one level of set nesting and atom-only function
  // arguments; the corpus stays inside that, so it loads there too.
  ExpectSameLoads("", corpus, LanguageMode::kLPS);
}

TEST(IngestTest, EdgeInputsMatchOracleAndSequentialLoad) {
  const std::vector<std::string> inputs = {
      "",
      "\n\n% only a comment",
      "p.",
      "p(a)",
      "p(a,).",
      "p().",
      "p(a)\nq(b).",
      "p(a). !",
      "p(a). q(b) ?",
      "p(in).",
      "p(set).",
      "p(not).",
      "in(a, b).",
      "union(a, b, c).",
      "add(1, 2, 3).",
      "lt(1, 2).",
      "lt(1, 2, 3).",
      "?- p(a).",
      "p(99999999999999999999).",
      "p(-9223372036854775808). p(9223372036854775807).",
      "p(a). p(a, b). p({a}). p(f(a)).",
      "q({b, a}). p(a). p(c). q({c, d}). p(d).",
      "s({{a}}). s(a).",
      "f(g({a})).",
      "p(a).\r\nq(b).\r\n",
      "p(a,\n  b).\nq(c\n).\n",
      "p(a) % trailing comment\n. q(b).",
      "p(a)//c\n.",
      "r(a, b).",
      "r(a, {b}).",
      "r(a, b, c).",
      "cost(x, 1).",
  };
  // Not facts: Session::Load takes them, the bulk loader rejects them
  // by design - with the same Status on both of its paths.
  const std::vector<std::string> not_facts = {
      "p(X).", "p(_).", "p(a, _b).", "p(a) :- q(a).", "pred p(atom).",
  };
  const std::string prelude = "pred r(atom, set).\ncost(a, 2).\n";
  for (LanguageMode mode :
       {LanguageMode::kLPS, LanguageMode::kELPS, LanguageMode::kLDL}) {
    for (const std::string& text : inputs) {
      ExpectSameLoads("", text, mode);
      ExpectSameLoads(prelude, text, mode);
    }
    for (const std::string& text : not_facts) {
      ExpectSameLoads(prelude, text, mode, /*sequential=*/false);
    }
  }
}

// Every program of examples/ and tests/examples_test.cc: whole (rules
// make the bulk load reject, which must read the same on both paths),
// and as a prelude to a bulk load of facts over its predicates.
TEST(IngestTest, ExampleProgramsMatchOracle) {
  const std::vector<std::string> programs = {
      // examples/bom_cost.cc
      R"(
    pred parts(atom, set).
    pred cost(atom, atom).
    parts(bike,   {wheel, wheel_front, frame, drivetrain}).
    parts(ebike,  {wheel, wheel_front, frame, drivetrain, motor}).
    parts(tandem, {wheel, wheel_front, frame, frame_rear, drivetrain}).
    cost(wheel, 80). cost(wheel_front, 75). cost(frame, 400).
    cost(frame_rear, 350). cost(drivetrain, 220). cost(motor, 900).
    sum_costs({}, 0).
    sum_costs(Z, K) :- schoose(Z, P, Rest), cost(P, M),
                       sum_costs(Rest, N), add(M, N, K).
    obj_cost(X, N) :- parts(X, Y), sum_costs(Y, N).
    affordable(X) :- obj_cost(X, N), N <= 1000.
  )",
      // examples/ldl_vs_lps.cc
      "emp(sales, ann). emp(sales, bob). emp(dev, carol).\n",
      R"(
      dom({ann}). dom({bob}). dom({carol}). dom({ann, bob}).
      dom({ann, carol}). dom({bob, carol}). dom({ann, bob, carol}).
      team(D, <E>) :- emp(D, E).
    )",
      R"(
      team_upto(D, {}) :- emp(D, E).
      team_upto(D, T2) :- team_upto(D, T), emp(D, E), scons(E, T, T2).
    )",
      // examples/nested_relations.cc
      R"(
    member_of(P, D) :- departments(D, Ms), P in Ms.
    moonlights(P) :- member_of(P, D1), member_of(P, D2), D1 != D2.
    depts_of(P, <D>) :- member_of(P, D).
  )",
      // examples/quickstart.cc
      R"(
    s({}). s({1}). s({2}). s({1, 2}). s({2, 3}). s({1, 2, 3}).
    disj(X, Y)  :- s(X), s(Y), forall A in X, forall B in Y : A != B.
    subset(X, Y) :- s(X), s(Y), forall A in X : A in Y.
    u(X, Y, Z)  :- subset(X, Z), subset(Y, Z),
                   forall C in Z : (C in X ; C in Y).
  )",
      // examples/set_construction.cc
      "dom({}). dom({c1}). dom({c2}). dom({c1, c2}).\n",
      "a(c1). a(c2).\nb(X) :- dom(X), forall E in X : a(E).\n",
      R"(
      a(c1). a(c2).
      c(X) :- dom(X), dom(Y), (forall E in Y : a(E)),
              (forall E in X : E in Y), (exists W in Y : W notin X).
      b(X) :- dom(X), (forall E in X : a(E)), not c(X).
    )",
      // examples/social_graph.cc
      R"(
    reach(X, Y) :- follows(X, Y).
    reach(X, Z) :- reach(X, Y), follows(Y, Z).
    fof(X, Z) :- follows(X, Y), follows(Y, Z).
  )",
      // tests/examples_test.cc
      R"(
    pred r(atom, set).
    r(row1, {a, b, c}).
    r(row2, {c, d}).
    s(X, Y) :- r(X, Ys), Y in Ys.
  )",
      R"(
    sum({}, 0).
    sum(X, N) :- X = {E}, N = E.
    sum(Z, K) :- schoose(Z, E, Rest), sum(Rest, M), add(E, M, K).
  )",
      R"(
    s({p, q}). s({r}). s({}).
    nonempty(X) :- s(X), exists E in X : E = E.
  )",
      "witness(X) :- X = {}, forall E in X : p(E).\n",
  };
  const std::string facts =
      "cost(bell, 9). cost(wheel, -1). parts(cart, {wheel, bell}).\n"
      "emp(ops, dan). emp(sales, ann). departments(ops, {dan, ann}).\n"
      "s({1, 4}). follows(ann, dan). follows(dan, bob). a(c3). dom({c3}).\n"
      "r(row3, {e}). p(c1). p(c2).\n";
  for (const std::string& program : programs) {
    for (LanguageMode mode : {LanguageMode::kLPS, LanguageMode::kLDL}) {
      ExpectSameLoads("", program, mode, /*sequential=*/false);
      ExpectSameLoads(program, facts, mode);
    }
  }
}

// Cut a small corpus at every byte offset: each cut loads or fails with
// a typed Status (never a crash), the flat path equals the oracle, and
// the bulk and sequential loads agree on accept or reject.
TEST(IngestTest, TruncationSweep) {
  const std::string corpus =
      "edge(a, b).\nweight(a, -12).\r\ntags(b, {c, d}).\n"
      "at(f(a, 2)). % note\nsplit(a,\n b).\nflag.\n// tail\nedge(c, a).";
  for (size_t cut = 0; cut <= corpus.size(); ++cut) {
    const std::string text = corpus.substr(0, cut);
    const std::string seq = SequentialOutcome("", text, LanguageMode::kLDL);
    for (size_t lanes : {size_t{1}, size_t{2}}) {
      const std::string flat =
          BulkOutcome("", text, LanguageMode::kLDL, lanes, false);
      ASSERT_EQ(flat, BulkOutcome("", text, LanguageMode::kLDL, lanes, true))
          << "cut at " << cut;
      ASSERT_EQ(IsError(flat), IsError(seq)) << "cut at " << cut << "\n"
                                             << flat << "\n" << seq;
    }
  }
}

TEST(IngestTest, GroundAtomsSkipTheClausePipeline) {
  // Follows-graph text as bulk_fixpoint and SocialFollows write it:
  // every fact takes the flat path.
  const std::string follows = Follows(3000);
  size_t general = 1;
  const std::string flat =
      BulkOutcome("", follows, LanguageMode::kLDL, 4, false, &general);
  EXPECT_EQ(general, 0u);
  EXPECT_EQ(flat, BulkOutcome("", follows, LanguageMode::kLDL, 4, true));
  EXPECT_EQ(flat, SequentialOutcome("", follows, LanguageMode::kLDL));
  // Loading on top of stored facts, some of them repeated in the load:
  // the staged loads count repeats of stored rows.
  ExpectSameLoads("follows(u1, u2). follows(x, y).\n", Follows(400),
                  LanguageMode::kLDL);
  // The same behind bulk_fixpoint's rules.
  const std::string rules =
      "reach(X, Y) :- follows(X, Y).\n"
      "reach(X, Z) :- reach(X, Y), follows(Y, Z).\n"
      "followers(U, <F>) :- follows(F, U).\n";
  BulkOutcome(rules, follows, LanguageMode::kLDL, 4, false, &general);
  EXPECT_EQ(general, 0u);

  // The counter counts facts with sets or function terms and every
  // fact after the first of them in its chunk.
  BulkOutcome("", "p(a). q({a}). r(f(a)). p(b).\n", LanguageMode::kLDL, 1,
              false, &general);
  EXPECT_EQ(general, 3u);
  BulkOutcome("", "p(a). q({a}). r(f(a)). p(b).\n", LanguageMode::kLDL, 1,
              true, &general);
  EXPECT_EQ(general, 4u);
}

}  // namespace
}  // namespace lps
