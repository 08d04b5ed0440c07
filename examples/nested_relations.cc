// Example 4 and the [JS82] nested-relational algebra: a non-1NF
// employee database manipulated both algebraically (nest/unnest) and
// through LPS rules, with results flowing between the two worlds.
//
//   build/examples/nested_relations
#include <cstdio>

#include "lps/lps.h"

using lps::NestedRelation;
using lps::Sort;
using lps::TermId;

int main() {
  lps::Session session(lps::LanguageMode::kLDL);
  lps::TermStore* store = session.store();

  auto c = [&](const char* name) { return store->MakeConstant(name); };

  // departments(dept, members) - a nested relation.
  NestedRelation departments({"dept", "members"},
                             {Sort::kAtom, Sort::kSet});
  auto add = [&](const char* dept, std::vector<TermId> members) {
    lps::Status st = departments.AddRow(
        *store, {c(dept), store->MakeSet(std::move(members))});
    if (!st.ok()) std::abort();
  };
  add("sales", {c("ann"), c("bob"), c("eve")});
  add("dev", {c("carol"), c("dan")});
  add("ops", {c("eve")});

  std::printf("departments (non-1NF):\n%s\n",
              departments.ToString(*store).c_str());

  // Algebraic unnest (Example 4).
  auto flat = departments.Unnest(*store, 1);
  if (!flat.ok()) std::abort();
  std::printf("unnest(departments):\n%s\n",
              flat->ToString(*store).c_str());

  // Bridge into LPS and compute with rules: people in more than one
  // department, via the same unnest expressed logically, then re-nest
  // with an LDL grouping head. The rows enter the session as facts
  // through a mutation batch.
  lps::MutationBatch batch = session.Mutate();
  if (!departments.ExportFacts(&batch, "departments").ok() ||
      !batch.Commit().ok()) {
    std::abort();
  }
  lps::Status st = session.Load(R"(
    member_of(P, D) :- departments(D, Ms), P in Ms.
    moonlights(P) :- member_of(P, D1), member_of(P, D2), D1 != D2.
    depts_of(P, <D>) :- member_of(P, D).
  )");
  if (!st.ok()) {
    std::fprintf(stderr, "load failed: %s\n", st.ToString().c_str());
    return 1;
  }
  st = session.Evaluate();
  if (!st.ok()) {
    std::fprintf(stderr, "eval failed: %s\n", st.ToString().c_str());
    return 1;
  }

  auto moonlights = session.Prepare("moonlights(P)");
  if (!moonlights.ok()) return 1;
  auto cursor = moonlights->Execute();
  if (!cursor.ok()) return 1;
  std::printf("people in more than one department:\n");
  for (const lps::Tuple& t : *cursor) {
    std::printf("  %s\n", lps::TermToString(*store, t[0]).c_str());
  }

  // Pull the grouped relation back out as a nested relation: the
  // logical nest of the unnested data.
  lps::PredicateId depts_of = session.signature()->Lookup("depts_of", 2);
  const lps::Relation* rel = session.database()->FindRelation(depts_of);
  if (rel == nullptr) return 1;
  auto nested = NestedRelation::FromRelation(
      *store, *rel, {"person", "depts"}, {Sort::kAtom, Sort::kSet});
  if (!nested.ok()) return 1;
  std::printf("\nnest(member_of) via LDL grouping:\n%s",
              nested->ToString(*store).c_str());
  return 0;
}
