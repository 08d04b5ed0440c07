#include "serve/resolve.h"

#include <algorithm>
#include <vector>

#include "parse/parser.h"

namespace lps::serve {

namespace {

// The first variable in `t`, or null.
const PTerm* FindVariable(const PTerm& t) {
  if (t.kind == PTerm::Kind::kVar) return &t;
  for (const PTerm& a : t.args) {
    if (const PTerm* v = FindVariable(a)) return v;
  }
  return nullptr;
}

// `text` as a term of the one grammar (parse/parser.h), which must be
// ground.
Result<PTerm> ParseGroundTerm(const std::string& text) {
  LPS_ASSIGN_OR_RETURN(PTerm t, ParseTermText(text));
  if (const PTerm* v = FindVariable(t)) {
    return Status::InvalidArgument(
        "query parameter must be ground, got variable '" + v->name + "'");
  }
  return t;
}

// A missing constant dominates: it proves the answer empty on every
// execution path, where kOther only proves it empty for pure scans.
MissKind Worse(MissKind a, MissKind b) {
  if (a == MissKind::kConstant || b == MissKind::kConstant) {
    return MissKind::kConstant;
  }
  if (a == MissKind::kOther || b == MissKind::kOther) {
    return MissKind::kOther;
  }
  return MissKind::kNone;
}

Resolution Lookup(const TermStore& store, const PTerm& t) {
  switch (t.kind) {
    case PTerm::Kind::kConst: {
      TermId id = store.TryLookupConstant(t.name);
      if (id == kInvalidTerm) return {kInvalidTerm, MissKind::kConstant};
      return {id, MissKind::kNone};
    }
    case PTerm::Kind::kInt: {
      TermId id = store.TryLookupInt(t.value);
      if (id == kInvalidTerm) return {kInvalidTerm, MissKind::kOther};
      return {id, MissKind::kNone};
    }
    case PTerm::Kind::kFunc:
    case PTerm::Kind::kSet: {
      MissKind miss = MissKind::kNone;
      std::vector<TermId> args;
      args.reserve(t.args.size());
      for (const PTerm& a : t.args) {
        Resolution r = Lookup(store, a);
        miss = Worse(miss, r.missing);
        args.push_back(r.id);
      }
      if (miss != MissKind::kNone) return {kInvalidTerm, miss};
      TermId id = kInvalidTerm;
      if (t.kind == PTerm::Kind::kSet) {
        std::sort(args.begin(), args.end());
        args.erase(std::unique(args.begin(), args.end()), args.end());
        id = store.TryLookupCanonicalSet(args);
      } else {
        Symbol sym = store.symbols().Lookup(t.name);
        if (sym != kInvalidSymbol) {
          id = store.TryLookupFunction(sym, args);
        }
      }
      if (id == kInvalidTerm) return {kInvalidTerm, MissKind::kOther};
      return {id, MissKind::kNone};
    }
    case PTerm::Kind::kVar:
      break;  // ParseGroundTerm rejected it
  }
  return {kInvalidTerm, MissKind::kOther};
}

TermId Intern(TermStore* store, const PTerm& t) {
  if (t.kind == PTerm::Kind::kConst) return store->MakeConstant(t.name);
  if (t.kind == PTerm::Kind::kInt) return store->MakeInt(t.value);
  std::vector<TermId> args;
  args.reserve(t.args.size());
  for (const PTerm& a : t.args) args.push_back(Intern(store, a));
  return t.kind == PTerm::Kind::kSet
             ? store->MakeSet(std::move(args))
             : store->MakeFunction(t.name, std::move(args));
}

}  // namespace

Result<Resolution> TryResolveGroundTerm(const TermStore& store,
                                        const std::string& text) {
  LPS_ASSIGN_OR_RETURN(PTerm t, ParseGroundTerm(text));
  return Lookup(store, t);
}

Result<TermId> InternGroundTerm(TermStore* store, const std::string& text) {
  LPS_ASSIGN_OR_RETURN(PTerm t, ParseGroundTerm(text));
  return Intern(store, t);
}

}  // namespace lps::serve
