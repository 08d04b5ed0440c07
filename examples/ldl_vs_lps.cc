// Section 6: the same aggregation written three ways -
//   (1) native LDL grouping (Definition 14),
//   (2) ELPS + stratified negation (Theorem 11's translation),
//   (3) Horn + the scons builtin (Theorem 10's language),
// all computing "the set of employees per department".
//
//   build/examples/ldl_vs_lps
#include <cstdio>

#include "lps/lps.h"

namespace {

const char* kEdb = R"(
  emp(sales, ann). emp(sales, bob). emp(dev, carol).
)";

void Show(lps::Session* session, const char* pred, const char* label) {
  std::printf("%s\n", label);
  auto query = session->Prepare(std::string(pred) + "(D, T)");
  if (!query.ok()) {
    std::fprintf(stderr, "  prepare failed: %s\n",
                 query.status().ToString().c_str());
    return;
  }
  auto cursor = query->Execute();
  if (!cursor.ok()) {
    std::fprintf(stderr, "  query failed: %s\n",
                 cursor.status().ToString().c_str());
    return;
  }
  for (const lps::Tuple& t : *cursor) {
    std::printf("  %s -> %s\n",
                lps::TermToString(*session->store(), t[0]).c_str(),
                lps::TermToString(*session->store(), t[1]).c_str());
  }
}

}  // namespace

int main() {
  // (1) Native grouping.
  {
    lps::Session session(lps::LanguageMode::kLDL);
    if (!session.Load(kEdb).ok()) return 1;
    if (!session.Load("team(D, <E>) :- emp(D, E).").ok()) return 1;
    if (!session.Evaluate().ok()) return 1;
    Show(&session, "team", "(1) LDL grouping  team(D, <E>) :- emp(D, E):");
  }

  // (2) Theorem 11: the same program with grouping mechanically
  // eliminated in favour of stratified negation. The candidate sets
  // must be in the active domain (dom facts).
  {
    lps::Session session(lps::LanguageMode::kLDL);
    if (!session.Load(kEdb).ok()) return 1;
    if (!session
             .Load(R"(
      dom({ann}). dom({bob}). dom({carol}). dom({ann, bob}).
      dom({ann, carol}). dom({bob, carol}). dom({ann, bob, carol}).
      team(D, <E>) :- emp(D, E).
    )")
             .ok()) {
      return 1;
    }
    if (!session.Compile().ok()) return 1;
    auto translated = lps::EliminateGrouping(*session.program());
    if (!translated.ok()) {
      std::fprintf(stderr, "translation failed: %s\n",
                   translated.status().ToString().c_str());
      return 1;
    }
    std::unique_ptr<lps::Database> db =
        session.database()->FactsFor(*translated);
    auto stats = lps::EvaluateProgram(*translated, db.get());
    if (!stats.ok()) return 1;
    std::printf(
        "\n(2) Theorem 11 translation (grouping -> negation), "
        "non-empty groups:\n");
    lps::PredicateId team = translated->signature().Lookup("team", 2);
    const lps::Relation* rel = db->FindRelation(team);
    if (rel != nullptr) {
      for (lps::RowId r = 0; r < rel->size(); ++r) {
        if (!rel->IsLive(r)) continue;
        lps::TupleRef t = rel->row(r);
        if (lps::SetCardinality(*session.store(), t[1]) == 0) continue;
        std::printf("  %s -> %s\n",
                    lps::TermToString(*session.store(), t[0]).c_str(),
                    lps::TermToString(*session.store(), t[1]).c_str());
      }
    }
  }

  // (3) Horn + scons (the L+scons language of Definition 15): build the
  // group incrementally. Monotone, so it derives every partial team;
  // a maximality check would again need negation - the crux of
  // Theorems 8 and 11.
  {
    lps::Session session(lps::LanguageMode::kLPS);
    if (!session.Load(kEdb).ok()) return 1;
    if (!session
             .Load(R"(
      team_upto(D, {}) :- emp(D, E).
      team_upto(D, T2) :- team_upto(D, T), emp(D, E), scons(E, T, T2).
    )")
             .ok()) {
      return 1;
    }
    if (!session.Evaluate().ok()) return 1;
    Show(&session, "team_upto",
         "\n(3) Horn + scons: all partial teams (monotone closure):");
  }
  return 0;
}
