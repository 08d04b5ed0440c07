#include "parse/sort_infer.h"

#include <algorithm>

namespace lps {

namespace {

// Working state: kUnknown until constrained.
enum class WSort : uint8_t { kUnknown, kAtom, kSet, kAny };

WSort FromSort(Sort s) {
  switch (s) {
    case Sort::kAtom:
      return WSort::kAtom;
    case Sort::kSet:
      return WSort::kSet;
    case Sort::kAny:
      return WSort::kAny;
  }
  return WSort::kUnknown;
}

struct InferState {
  LanguageMode mode;
  const Signature* sig;
  std::map<std::string, WSort> sorts;
  // Variable pairs connected by equality (sort propagation).
  std::vector<std::pair<std::string, std::string>> eq_pairs;
  Status status = Status::OK();

  void Assign(const std::string& var, WSort s) {
    if (!status.ok() || s == WSort::kUnknown) return;
    WSort& cur = sorts[var];
    if (cur == WSort::kUnknown || cur == s) {
      cur = s;
      return;
    }
    if (cur == WSort::kAny) return;
    if (s == WSort::kAny) return;
    // atom vs set conflict.
    if (mode == LanguageMode::kLPS) {
      status = Status::SortError("variable " + var +
                                 " is used both as an atom and as a set");
    } else {
      cur = WSort::kAny;
    }
  }

  void ConstrainTerm(const PTerm& t, WSort s) {
    if (t.kind == PTerm::Kind::kVar) {
      Assign(t.name, s);
      return;
    }
    if (t.kind == PTerm::Kind::kSet) {
      for (const PTerm& e : t.args) {
        ConstrainTerm(e, mode == LanguageMode::kLPS ? WSort::kAtom
                                                    : WSort::kUnknown);
      }
      return;
    }
    if (t.kind == PTerm::Kind::kFunc) {
      for (const PTerm& a : t.args) {
        ConstrainTerm(a, mode == LanguageMode::kLPS ? WSort::kAtom
                                                    : WSort::kUnknown);
      }
    }
  }

  void ConstrainLiteral(const PLiteral& lit) {
    if (!status.ok()) return;
    const std::string& p = lit.pred;
    auto var_at = [&](size_t i) -> const std::string* {
      if (i < lit.args.size() && lit.args[i].kind == PTerm::Kind::kVar) {
        return &lit.args[i].name;
      }
      return nullptr;
    };
    // Structural constraints inside argument terms.
    for (const PTerm& a : lit.args) ConstrainTerm(a, WSort::kUnknown);

    size_t n = lit.args.size();
    if ((p == "=" || p == "!=") && n == 2) {
      {
        // Non-variable side fixes the variable side's sort.
        auto term_sort = [&](const PTerm& t) -> WSort {
          switch (t.kind) {
            case PTerm::Kind::kSet:
              return WSort::kSet;
            case PTerm::Kind::kConst:
            case PTerm::Kind::kInt:
            case PTerm::Kind::kFunc:
              return WSort::kAtom;
            case PTerm::Kind::kVar:
              return WSort::kUnknown;
          }
          return WSort::kUnknown;
        };
        const std::string* v0 = var_at(0);
        const std::string* v1 = var_at(1);
        if (v0 != nullptr && v1 != nullptr) {
          eq_pairs.emplace_back(*v0, *v1);
        } else if (v0 != nullptr) {
          Assign(*v0, term_sort(lit.args[1]));
        } else if (v1 != nullptr) {
          Assign(*v1, term_sort(lit.args[0]));
        }
      }
      return;
    }
    auto lps_atom = [&]() {
      return mode == LanguageMode::kLPS ? WSort::kAtom : WSort::kUnknown;
    };
    if ((p == "in" || p == "notin") && n == 2) {
      if (const std::string* v = var_at(0)) Assign(*v, lps_atom());
      if (const std::string* v = var_at(1)) Assign(*v, WSort::kSet);
      return;
    }
    if (p == "union" && n == 3) {
      for (size_t i = 0; i < 3; ++i) {
        if (const std::string* v = var_at(i)) Assign(*v, WSort::kSet);
      }
      return;
    }
    if (p == "scons" && n == 3) {
      if (const std::string* v = var_at(0)) Assign(*v, lps_atom());
      if (const std::string* v = var_at(1)) Assign(*v, WSort::kSet);
      if (const std::string* v = var_at(2)) Assign(*v, WSort::kSet);
      return;
    }
    if (p == "schoose" && n == 3) {
      if (const std::string* v = var_at(0)) Assign(*v, WSort::kSet);
      if (const std::string* v = var_at(1)) Assign(*v, lps_atom());
      if (const std::string* v = var_at(2)) Assign(*v, WSort::kSet);
      return;
    }
    if ((p == "card" || p == "ssum" || p == "smin" || p == "smax") &&
        n == 2) {
      if (const std::string* v = var_at(0)) Assign(*v, WSort::kSet);
      if (const std::string* v = var_at(1)) Assign(*v, WSort::kAtom);
      return;
    }
    if (((p == "add" || p == "sub" || p == "mul" || p == "div") &&
         n == 3) ||
        ((p == "lt" || p == "le") && n == 2)) {
      for (size_t i = 0; i < lit.args.size(); ++i) {
        if (const std::string* v = var_at(i)) Assign(*v, WSort::kAtom);
      }
      return;
    }
    // User predicate: use its declaration if it exists.
    PredicateId id = sig->Lookup(p, lit.args.size());
    if (id == kInvalidPredicate) return;
    const PredicateInfo& info = sig->info(id);
    for (size_t i = 0; i < lit.args.size(); ++i) {
      if (const std::string* v = var_at(i)) {
        Assign(*v, FromSort(info.arg_sorts[i]));
      }
    }
  }

  void ConstrainFormula(const PFormula& f) {
    if (!status.ok()) return;
    switch (f.kind) {
      case FormulaKind::kAtomic:
        ConstrainLiteral(f.atom);
        return;
      case FormulaKind::kAnd:
      case FormulaKind::kOr:
        for (const PFormula& c : f.children) ConstrainFormula(c);
        return;
      case FormulaKind::kForall:
      case FormulaKind::kExists:
        if (mode == LanguageMode::kLPS) Assign(f.var, WSort::kAtom);
        if (f.range.kind == PTerm::Kind::kVar) {
          Assign(f.range.name, WSort::kSet);
        } else {
          ConstrainTerm(f.range, WSort::kSet);
        }
        ConstrainFormula(f.children[0]);
        return;
    }
  }

  void PropagateEqualities() {
    bool changed = true;
    while (changed && status.ok()) {
      changed = false;
      for (const auto& [a, b] : eq_pairs) {
        WSort sa = sorts.count(a) ? sorts[a] : WSort::kUnknown;
        WSort sb = sorts.count(b) ? sorts[b] : WSort::kUnknown;
        if (sa != WSort::kUnknown && sb == WSort::kUnknown) {
          Assign(b, sa);
          changed = true;
        } else if (sb != WSort::kUnknown && sa == WSort::kUnknown) {
          Assign(a, sb);
          changed = true;
        }
      }
    }
  }

  VarSorts Finalize() const {
    VarSorts out;
    for (const auto& [name, ws] : sorts) {
      switch (ws) {
        case WSort::kAtom:
          out[name] = Sort::kAtom;
          break;
        case WSort::kSet:
          out[name] = Sort::kSet;
          break;
        case WSort::kAny:
          out[name] = Sort::kAny;
          break;
        case WSort::kUnknown:
          // Left out: the lowering phase applies the mode default, and
          // declaration inference treats the variable as unconstrained.
          break;
      }
    }
    return out;
  }
};

// Registers every variable of a term so defaults apply.
void TouchVars(InferState* state, const PTerm& t) {
  if (t.kind == PTerm::Kind::kVar) {
    if (!state->sorts.count(t.name)) {
      state->sorts[t.name] = WSort::kUnknown;
    }
    return;
  }
  for (const PTerm& a : t.args) TouchVars(state, a);
}

void TouchFormulaVars(InferState* state, const PFormula& f) {
  if (f.kind == FormulaKind::kAtomic) {
    for (const PTerm& a : f.atom.args) TouchVars(state, a);
    return;
  }
  if (f.kind == FormulaKind::kForall || f.kind == FormulaKind::kExists) {
    if (!state->sorts.count(f.var)) {
      state->sorts[f.var] = WSort::kUnknown;
    }
    TouchVars(state, f.range);
  }
  for (const PFormula& c : f.children) TouchFormulaVars(state, c);
}

}  // namespace

Result<VarSorts> InferClauseSorts(const PClause& clause, LanguageMode mode,
                                  const Signature& sig) {
  InferState state{mode, &sig, {}, {}, Status::OK()};
  // Head: use declaration if present.
  PredicateId head = sig.Lookup(clause.pred, clause.args.size());
  for (size_t i = 0; i < clause.args.size(); ++i) {
    TouchVars(&state, clause.args[i].term);
    state.ConstrainTerm(clause.args[i].term, WSort::kUnknown);
    if (head != kInvalidPredicate && !clause.args[i].grouped &&
        clause.args[i].term.kind == PTerm::Kind::kVar) {
      state.Assign(clause.args[i].term.name,
                   FromSort(sig.info(head).arg_sorts[i]));
    }
  }
  if (clause.body.has_value()) {
    TouchFormulaVars(&state, *clause.body);
    state.ConstrainFormula(*clause.body);
  }
  state.PropagateEqualities();
  if (!state.status.ok()) return state.status;
  return state.Finalize();
}

Result<VarSorts> InferLiteralSorts(const PLiteral& lit, LanguageMode mode,
                                   const Signature& sig) {
  InferState state{mode, &sig, {}, {}, Status::OK()};
  for (const PTerm& a : lit.args) TouchVars(&state, a);
  state.ConstrainLiteral(lit);
  state.PropagateEqualities();
  if (!state.status.ok()) return state.status;
  return state.Finalize();
}

// ---------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------

namespace {

Result<TermId> LowerTerm(const PTerm& t, const VarSorts& sorts,
                         TermStore* store) {
  switch (t.kind) {
    case PTerm::Kind::kVar: {
      auto it = sorts.find(t.name);
      Sort s = (it == sorts.end()) ? Sort::kAny : it->second;
      return store->MakeVariable(t.name, s);
    }
    case PTerm::Kind::kConst:
      return store->MakeConstant(t.name);
    case PTerm::Kind::kInt:
      return store->MakeInt(t.value);
    case PTerm::Kind::kFunc: {
      std::vector<TermId> args;
      args.reserve(t.args.size());
      for (const PTerm& a : t.args) {
        LPS_ASSIGN_OR_RETURN(TermId id, LowerTerm(a, sorts, store));
        args.push_back(id);
      }
      return store->MakeFunction(t.name, std::move(args));
    }
    case PTerm::Kind::kSet: {
      std::vector<TermId> elems;
      elems.reserve(t.args.size());
      for (const PTerm& a : t.args) {
        LPS_ASSIGN_OR_RETURN(TermId id, LowerTerm(a, sorts, store));
        elems.push_back(id);
      }
      return store->MakeSet(std::move(elems));
    }
  }
  return Status::Internal("unknown term kind");
}

PredicateId LookupBuiltinName(const std::string& name, size_t arity,
                              const Signature& sig) {
  // Comparison operator names map to builtin predicates directly.
  return sig.Lookup(name, arity);
}

Result<Literal> LowerLiteral(const PLiteral& lit, const VarSorts& sorts,
                             TermStore* store, Signature* sig) {
  Literal out;
  out.positive = lit.positive;
  PredicateId id = LookupBuiltinName(lit.pred, lit.args.size(), *sig);
  if (id == kInvalidPredicate) {
    return Status::ParseError("unknown predicate " + lit.pred + "/" +
                              std::to_string(lit.args.size()) +
                              " near line " + std::to_string(lit.line));
  }
  out.pred = id;
  out.args.reserve(lit.args.size());
  for (const PTerm& a : lit.args) {
    LPS_ASSIGN_OR_RETURN(TermId t, LowerTerm(a, sorts, store));
    out.args.push_back(t);
  }
  return out;
}

Result<FormulaPtr> LowerFormula(const PFormula& f, const VarSorts& sorts,
                                TermStore* store, Signature* sig) {
  switch (f.kind) {
    case FormulaKind::kAtomic: {
      LPS_ASSIGN_OR_RETURN(Literal lit,
                           LowerLiteral(f.atom, sorts, store, sig));
      return Formula::Atomic(std::move(lit));
    }
    case FormulaKind::kAnd:
    case FormulaKind::kOr: {
      std::vector<FormulaPtr> children;
      children.reserve(f.children.size());
      for (const PFormula& c : f.children) {
        LPS_ASSIGN_OR_RETURN(FormulaPtr p,
                             LowerFormula(c, sorts, store, sig));
        children.push_back(std::move(p));
      }
      return f.kind == FormulaKind::kAnd ? Formula::And(std::move(children))
                                         : Formula::Or(std::move(children));
    }
    case FormulaKind::kForall:
    case FormulaKind::kExists: {
      auto it = sorts.find(f.var);
      Sort vs = (it == sorts.end()) ? Sort::kAny : it->second;
      TermId var = store->MakeVariable(f.var, vs);
      LPS_ASSIGN_OR_RETURN(TermId range, LowerTerm(f.range, sorts, store));
      LPS_ASSIGN_OR_RETURN(FormulaPtr child,
                           LowerFormula(f.children[0], sorts, store, sig));
      return f.kind == FormulaKind::kForall
                 ? Formula::Forall(var, range, std::move(child))
                 : Formula::Exists(var, range, std::move(child));
    }
  }
  return Status::Internal("unknown formula kind");
}

// The sort contributed by an argument term for predicate-declaration
// inference: -1 = no information (unconstrained variable), else a Sort.
int TermDeclSort(const PTerm& t, const VarSorts& sorts) {
  switch (t.kind) {
    case PTerm::Kind::kSet:
      return static_cast<int>(Sort::kSet);
    case PTerm::Kind::kConst:
    case PTerm::Kind::kInt:
    case PTerm::Kind::kFunc:
      return static_cast<int>(Sort::kAtom);
    case PTerm::Kind::kVar: {
      auto it = sorts.find(t.name);
      if (it != sorts.end()) return static_cast<int>(it->second);
      return -1;
    }
  }
  return static_cast<int>(Sort::kAny);
}

// Merges a usage into a tentative declaration. Unknown (-1) is the
// lattice bottom; a genuine atom-vs-set conflict widens to kAny.
void MergeDecl(std::vector<int>* decl, const std::vector<int>& use) {
  for (size_t i = 0; i < decl->size(); ++i) {
    if (use[i] == -1 || (*decl)[i] == use[i]) continue;
    if ((*decl)[i] == -1) {
      (*decl)[i] = use[i];
    } else {
      (*decl)[i] = static_cast<int>(Sort::kAny);
    }
  }
}

// Variable names occurring in a term / formula, for default filling.
void CollectTermVarNames(const PTerm& t, std::vector<std::string>* out) {
  if (t.kind == PTerm::Kind::kVar) {
    out->push_back(t.name);
    return;
  }
  for (const PTerm& a : t.args) CollectTermVarNames(a, out);
}

void CollectFormulaVarNames(const PFormula& f,
                            std::vector<std::string>* out) {
  if (f.kind == FormulaKind::kAtomic) {
    for (const PTerm& a : f.atom.args) CollectTermVarNames(a, out);
    return;
  }
  if (f.kind == FormulaKind::kForall || f.kind == FormulaKind::kExists) {
    out->push_back(f.var);
    CollectTermVarNames(f.range, out);
  }
  for (const PFormula& c : f.children) CollectFormulaVarNames(c, out);
}

// Fills mode defaults for variables inference left unconstrained.
void FillDefaults(const std::vector<std::string>& names, LanguageMode mode,
                  VarSorts* sorts) {
  Sort def = (mode == LanguageMode::kLPS) ? Sort::kAtom : Sort::kAny;
  for (const std::string& n : names) {
    sorts->try_emplace(n, def);
  }
}

}  // namespace

Result<LoweredUnit> LowerParsedUnit(const ParsedUnit& unit,
                                    LanguageMode mode, TermStore* store,
                                    Signature* sig,
                                    const GroundFacts* ground) {
  // Phase A: explicit declarations.
  for (const PDecl& d : unit.decls) {
    Result<PredicateId> r = sig->Declare(d.name, d.sorts);
    if (!r.ok()) return r.status();
  }

  // Phase B1: infer variable sorts per clause with current knowledge and
  // collect tentative declarations for unknown predicates.
  std::vector<VarSorts> clause_sorts(unit.clauses.size());
  std::map<std::pair<std::string, size_t>, std::vector<int>> tentative;
  auto note_use = [&](const std::string& pred, const std::vector<int>& use) {
    if (sig->Lookup(pred, use.size()) != kInvalidPredicate) return;
    auto key = std::make_pair(pred, use.size());
    auto it = tentative.find(key);
    if (it == tentative.end()) {
      tentative[key] = use;
    } else {
      MergeDecl(&it->second, use);
    }
  };
  if (ground != nullptr) {
    for (const GroundFacts::Pred& p : ground->preds()) {
      if (p.id != kInvalidPredicate || p.rows == 0) continue;
      note_use(ground->store()->symbols().Name(p.name),
               std::vector<int>(p.arity, static_cast<int>(Sort::kAtom)));
    }
  }
  for (size_t i = 0; i < unit.clauses.size(); ++i) {
    const PClause& c = unit.clauses[i];
    LPS_ASSIGN_OR_RETURN(clause_sorts[i], InferClauseSorts(c, mode, *sig));

    std::vector<int> head_use;
    for (const PHeadArg& a : c.args) {
      head_use.push_back(a.grouped
                             ? static_cast<int>(Sort::kSet)
                             : TermDeclSort(a.term, clause_sorts[i]));
    }
    note_use(c.pred, head_use);

    // Body literal uses.
    auto walk = [&](const PFormula& f, auto&& self) -> void {
      if (f.kind == FormulaKind::kAtomic) {
        std::vector<int> use;
        for (const PTerm& a : f.atom.args) {
          use.push_back(TermDeclSort(a, clause_sorts[i]));
        }
        note_use(f.atom.pred, use);
        return;
      }
      for (const PFormula& ch : f.children) self(ch, self);
    };
    if (c.body.has_value()) walk(*c.body, walk);
  }
  for (const auto& [key, codes] : tentative) {
    std::vector<Sort> sorts;
    sorts.reserve(codes.size());
    Sort def = (mode == LanguageMode::kLPS) ? Sort::kAtom : Sort::kAny;
    for (int code : codes) {
      sorts.push_back(code == -1 ? def : static_cast<Sort>(code));
    }
    Result<PredicateId> r = sig->Declare(key.first, sorts);
    if (!r.ok()) return r.status();
  }

  // Phase B2: re-infer with the completed signature.
  for (size_t i = 0; i < unit.clauses.size(); ++i) {
    LPS_ASSIGN_OR_RETURN(clause_sorts[i],
                         InferClauseSorts(unit.clauses[i], mode, *sig));
  }

  // Phase C: lower (unconstrained variables get the mode default).
  LoweredUnit out;
  for (size_t i = 0; i < unit.clauses.size(); ++i) {
    const PClause& c = unit.clauses[i];
    {
      std::vector<std::string> names;
      for (const PHeadArg& a : c.args) CollectTermVarNames(a.term, &names);
      if (c.body.has_value()) CollectFormulaVarNames(*c.body, &names);
      FillDefaults(names, mode, &clause_sorts[i]);
    }
    const VarSorts& sorts = clause_sorts[i];

    GeneralClause gc;
    gc.head.pred = sig->Lookup(c.pred, c.args.size());
    gc.head.positive = true;
    size_t grouped_count = 0;
    for (size_t j = 0; j < c.args.size(); ++j) {
      LPS_ASSIGN_OR_RETURN(TermId t,
                           LowerTerm(c.args[j].term, sorts, store));
      gc.head.args.push_back(t);
      if (c.args[j].grouped) {
        ++grouped_count;
        gc.grouping = GroupSpec{j, t};
      }
    }
    if (grouped_count > 1) {
      return Status::ParseError(
          "at most one grouped argument <X> is allowed (Definition 14), "
          "near line " +
          std::to_string(c.line));
    }
    if (c.body.has_value()) {
      LPS_ASSIGN_OR_RETURN(gc.body,
                           LowerFormula(*c.body, sorts, store, sig));
    }

    // Ground bodyless heads without grouping are facts.
    if (!c.body.has_value() && !gc.grouping.has_value()) {
      bool ground = std::all_of(
          gc.head.args.begin(), gc.head.args.end(),
          [&](TermId t) { return store->is_ground(t); });
      if (ground) {
        out.facts.push_back(std::move(gc.head));
        continue;
      }
    }
    out.clauses.push_back(std::move(gc));
  }

  for (const PLiteral& q : unit.queries) {
    LPS_ASSIGN_OR_RETURN(VarSorts sorts, InferLiteralSorts(q, mode, *sig));
    {
      std::vector<std::string> names;
      for (const PTerm& a : q.args) CollectTermVarNames(a, &names);
      FillDefaults(names, mode, &sorts);
    }
    LPS_ASSIGN_OR_RETURN(Literal lit, LowerLiteral(q, sorts, store, sig));
    out.queries.push_back(std::move(lit));
  }
  return out;
}

}  // namespace lps
