#include "parse/parser.h"

#include <algorithm>

#include "parse/sort_infer.h"

namespace lps {

// Recursive descent over a Lexer, one token of lookahead (two in
// ParseQuantifier). Tokens are lexed on demand, yet errors read as if
// the whole source had been tokenized first: a lexing error anywhere
// in the source outranks any parse error.
class Parser {
 public:
  Parser(std::string_view source, GroundFacts* ground)
      : lexer_(source), ground_(ground) {}

  Result<PTerm> ParseOneTerm() {
    Advance();
    LPS_ASSIGN_OR_RETURN(PTerm t, ParseTerm());
    if (!At(TokenKind::kEof)) return Error("trailing input after term");
    if (!lex_status_.ok()) return lex_status_;
    return t;
  }

  Result<ParsedUnit> Parse() {
    Advance();
    ParsedUnit unit;
    while (!At(TokenKind::kEof)) {
      if (At(TokenKind::kKwPred)) {
        LPS_ASSIGN_OR_RETURN(PDecl d, ParseDecl());
        unit.decls.push_back(std::move(d));
      } else if (At(TokenKind::kQuery)) {
        Advance();
        LPS_ASSIGN_OR_RETURN(PLiteral q, ParseAtomOrComparison());
        LPS_RETURN_IF_ERROR(Expect(TokenKind::kPeriod));
        unit.queries.push_back(std::move(q));
      } else if (ground_ == nullptr || !TakeGroundAtom()) {
        // The rest of the source takes the clause pipeline too, so the
        // flat rows stay a prefix (see GroundFacts).
        ground_ = nullptr;
        LPS_ASSIGN_OR_RETURN(PClause c, ParseClause());
        unit.clauses.push_back(std::move(c));
      }
    }
    if (!lex_status_.ok()) return lex_status_;
    return unit;
  }

 private:
  const Token& Cur() const { return cur_; }
  bool At(TokenKind k) const { return cur_.kind == k; }

  // A lexing error ends the token stream: it is kept in lex_status_
  // and the parser sees end of input, so every path out of Parse()
  // reports it.
  void Lex(Token* out) {
    Status st = lexer_.Next(out);
    if (!st.ok()) {
      lex_status_ = std::move(st);
      *out = Token{};
    }
  }
  void Advance() {
    if (has_peek_) {
      cur_ = peek_;
      has_peek_ = false;
    } else if (lex_status_.ok()) {
      Lex(&cur_);
    }
  }
  const Token& Peek() {
    if (!has_peek_) {
      if (lex_status_.ok()) {
        Lex(&peek_);
      } else {
        peek_ = Token{};
      }
      has_peek_ = true;
    }
    return peek_;
  }

  Status Error(const std::string& msg) {
    if (lex_status_.ok()) {
      // Lex the rest: a lexing error past this point still wins.
      Token t;
      do {
        Lex(&t);
      } while (lex_status_.ok() && t.kind != TokenKind::kEof);
    }
    if (!lex_status_.ok()) return lex_status_;
    return Status::ParseError(msg + " at line " +
                              std::to_string(Cur().line) + " (got " +
                              TokenKindToString(Cur().kind) + ")");
  }

  // The ground-atom branch: at a clause start, reads "p." or
  // "p(a1, ..., an)." with every ai a constant or an integer and hands
  // it to ground_. On any other shape it rewinds to the clause start
  // and returns false, so the clause - or its error - comes out of
  // ParseClause exactly as it would without the branch.
  bool TakeGroundAtom() {
    if (!At(TokenKind::kIdent)) return false;
    const Token head = cur_;
    const Lexer::Mark mark = lexer_.mark();
    args_.clear();
    Advance();
    bool ok = true;
    if (At(TokenKind::kLParen)) {
      Advance();
      for (;;) {
        if (!At(TokenKind::kIdent) && !At(TokenKind::kInteger)) {
          ok = false;
          break;
        }
        args_.push_back(cur_);
        Advance();
        if (At(TokenKind::kComma)) {
          Advance();
          continue;
        }
        ok = At(TokenKind::kRParen);
        if (ok) Advance();
        break;
      }
    }
    if (ok && At(TokenKind::kPeriod)) {
      ground_->Add(head.text, args_);
      Advance();
      return true;
    }
    cur_ = head;
    has_peek_ = false;
    lexer_.Reset(mark);
    lex_status_ = Status::OK();
    return false;
  }

  Status Expect(TokenKind k) {
    if (!At(k)) {
      return Error(std::string("expected ") + TokenKindToString(k));
    }
    Advance();
    return Status::OK();
  }

  Result<PDecl> ParseDecl() {
    PDecl d;
    d.line = Cur().line;
    LPS_RETURN_IF_ERROR(Expect(TokenKind::kKwPred));
    if (!At(TokenKind::kIdent)) return Error("expected predicate name");
    d.name = Cur().text;
    Advance();
    LPS_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    if (!At(TokenKind::kRParen)) {
      for (;;) {
        if (At(TokenKind::kKwAtom)) {
          d.sorts.push_back(Sort::kAtom);
        } else if (At(TokenKind::kKwSet)) {
          d.sorts.push_back(Sort::kSet);
        } else if (At(TokenKind::kKwAny)) {
          d.sorts.push_back(Sort::kAny);
        } else {
          return Error("expected sort (atom/set/any)");
        }
        Advance();
        if (!At(TokenKind::kComma)) break;
        Advance();
      }
    }
    LPS_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    LPS_RETURN_IF_ERROR(Expect(TokenKind::kPeriod));
    return d;
  }

  Result<PClause> ParseClause() {
    PClause c;
    c.line = Cur().line;
    if (!At(TokenKind::kIdent)) return Error("expected clause head");
    c.pred = Cur().text;
    Advance();
    if (At(TokenKind::kLParen)) {
      Advance();
      for (;;) {
        PHeadArg arg;
        if (At(TokenKind::kLAngle)) {
          Advance();
          if (!At(TokenKind::kVariable)) {
            return Error("expected variable in grouping head <Var>");
          }
          arg.grouped = true;
          arg.term = PTerm{PTerm::Kind::kVar, std::string(Cur().text), 0,
                           {}, Cur().line};
          Advance();
          LPS_RETURN_IF_ERROR(Expect(TokenKind::kRAngle));
        } else {
          LPS_ASSIGN_OR_RETURN(arg.term, ParseTerm());
        }
        c.args.push_back(std::move(arg));
        if (!At(TokenKind::kComma)) break;
        Advance();
      }
      LPS_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    }
    if (At(TokenKind::kImplies)) {
      Advance();
      LPS_ASSIGN_OR_RETURN(PFormula f, ParseFormula());
      c.body = std::move(f);
    }
    LPS_RETURN_IF_ERROR(Expect(TokenKind::kPeriod));
    return c;
  }

  Result<PFormula> ParseFormula() {
    LPS_ASSIGN_OR_RETURN(PFormula first, ParseConj());
    if (!At(TokenKind::kSemicolon)) return first;
    PFormula out;
    out.kind = FormulaKind::kOr;
    out.line = first.line;
    out.children.push_back(std::move(first));
    while (At(TokenKind::kSemicolon)) {
      Advance();
      LPS_ASSIGN_OR_RETURN(PFormula next, ParseConj());
      out.children.push_back(std::move(next));
    }
    return out;
  }

  Result<PFormula> ParseConj() {
    LPS_ASSIGN_OR_RETURN(PFormula first, ParseUnit());
    if (!At(TokenKind::kComma)) return first;
    PFormula out;
    out.kind = FormulaKind::kAnd;
    out.line = first.line;
    out.children.push_back(std::move(first));
    while (At(TokenKind::kComma)) {
      Advance();
      LPS_ASSIGN_OR_RETURN(PFormula next, ParseUnit());
      out.children.push_back(std::move(next));
    }
    return out;
  }

  Result<PFormula> ParseUnit() {
    if (At(TokenKind::kLParen)) {
      Advance();
      LPS_ASSIGN_OR_RETURN(PFormula f, ParseFormula());
      LPS_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      return f;
    }
    if (At(TokenKind::kKwForall) || At(TokenKind::kKwExists)) {
      return ParseQuantifier();
    }
    if (At(TokenKind::kKwNot)) {
      Advance();
      LPS_ASSIGN_OR_RETURN(PLiteral lit, ParseAtomOrComparison());
      lit.positive = false;
      PFormula f;
      f.kind = FormulaKind::kAtomic;
      f.line = lit.line;
      f.atom = std::move(lit);
      return f;
    }
    LPS_ASSIGN_OR_RETURN(PLiteral lit, ParseAtomOrComparison());
    PFormula f;
    f.kind = FormulaKind::kAtomic;
    f.line = lit.line;
    f.atom = std::move(lit);
    return f;
  }

  // "forall V in T [, forall V2 in T2]* : unit" (and "exists" likewise;
  // mixed chains are allowed).
  Result<PFormula> ParseQuantifier() {
    struct Q {
      FormulaKind kind;
      std::string var;
      PTerm range;
      int line;
    };
    std::vector<Q> prefix;
    for (;;) {
      FormulaKind kind = At(TokenKind::kKwForall) ? FormulaKind::kForall
                                                  : FormulaKind::kExists;
      int line = Cur().line;
      Advance();
      if (!At(TokenKind::kVariable)) {
        return Error("expected quantified variable");
      }
      std::string var(Cur().text);
      Advance();
      LPS_RETURN_IF_ERROR(Expect(TokenKind::kKwIn));
      LPS_ASSIGN_OR_RETURN(PTerm range, ParseTerm());
      prefix.push_back(Q{kind, std::move(var), std::move(range), line});
      if (At(TokenKind::kComma) &&
          (Peek().kind == TokenKind::kKwForall ||
           Peek().kind == TokenKind::kKwExists)) {
        Advance();  // comma
        continue;
      }
      break;
    }
    LPS_RETURN_IF_ERROR(Expect(TokenKind::kColon));
    LPS_ASSIGN_OR_RETURN(PFormula body, ParseUnit());
    for (size_t i = prefix.size(); i-- > 0;) {
      PFormula q;
      q.kind = prefix[i].kind;
      q.var = prefix[i].var;
      q.range = prefix[i].range;
      q.line = prefix[i].line;
      q.children.push_back(std::move(body));
      body = std::move(q);
    }
    return body;
  }

  Result<PLiteral> ParseAtomOrComparison() {
    int line = Cur().line;
    LPS_ASSIGN_OR_RETURN(PTerm left, ParseTerm());
    std::string op;
    if (At(TokenKind::kEq)) {
      op = "=";
    } else if (At(TokenKind::kNeq)) {
      op = "!=";
    } else if (At(TokenKind::kKwIn)) {
      op = "in";
    } else if (At(TokenKind::kKwNotIn)) {
      op = "notin";
    } else if (At(TokenKind::kLAngle)) {
      op = "lt";
    } else if (At(TokenKind::kLe)) {
      op = "le";
    }
    if (!op.empty()) {
      Advance();
      LPS_ASSIGN_OR_RETURN(PTerm right, ParseTerm());
      PLiteral lit;
      lit.pred = op;
      lit.line = line;
      lit.args.push_back(std::move(left));
      lit.args.push_back(std::move(right));
      return lit;
    }
    // Not a comparison: the term must be a predicate atom.
    if (left.kind != PTerm::Kind::kConst &&
        left.kind != PTerm::Kind::kFunc) {
      return Error("expected a predicate atom or comparison");
    }
    PLiteral lit;
    lit.pred = left.name;
    lit.line = line;
    lit.args = std::move(left.args);
    return lit;
  }

  Result<PTerm> ParseTerm() {
    PTerm t;
    t.line = Cur().line;
    if (At(TokenKind::kVariable)) {
      t.kind = PTerm::Kind::kVar;
      t.name = Cur().text;
      Advance();
      return t;
    }
    if (At(TokenKind::kInteger)) {
      t.kind = PTerm::Kind::kInt;
      t.value = Cur().int_value;
      Advance();
      return t;
    }
    if (At(TokenKind::kLBrace)) {
      Advance();
      t.kind = PTerm::Kind::kSet;
      if (!At(TokenKind::kRBrace)) {
        for (;;) {
          LPS_ASSIGN_OR_RETURN(PTerm e, ParseTerm());
          t.args.push_back(std::move(e));
          if (!At(TokenKind::kComma)) break;
          Advance();
        }
      }
      LPS_RETURN_IF_ERROR(Expect(TokenKind::kRBrace));
      return t;
    }
    if (At(TokenKind::kIdent)) {
      t.name = Cur().text;
      Advance();
      if (At(TokenKind::kLParen)) {
        Advance();
        t.kind = PTerm::Kind::kFunc;
        for (;;) {
          LPS_ASSIGN_OR_RETURN(PTerm a, ParseTerm());
          t.args.push_back(std::move(a));
          if (!At(TokenKind::kComma)) break;
          Advance();
        }
        LPS_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      } else {
        t.kind = PTerm::Kind::kConst;
      }
      return t;
    }
    return Error("expected a term");
  }

  Lexer lexer_;
  Status lex_status_ = Status::OK();
  Token cur_;
  Token peek_;
  bool has_peek_ = false;
  GroundFacts* ground_;
  std::vector<Token> args_;  // the ground-atom branch's arguments
};

uint32_t GroundFacts::Slot(std::string_view pred, uint32_t arity) {
  const SymbolTable& symbols = store_->symbols();
  if (last_slot_ < preds_.size() && preds_[last_slot_].arity == arity &&
      symbols.Name(preds_[last_slot_].name) == pred) {
    return last_slot_;
  }
  const Symbol name = store_->symbols().Intern(pred);
  for (uint32_t s = 0; s < preds_.size(); ++s) {
    if (preds_[s].name == name && preds_[s].arity == arity) {
      return last_slot_ = s;
    }
  }
  Pred p{name, arity, sig_->Lookup(name, arity), true, 0};
  if (p.id != kInvalidPredicate) {
    const PredicateInfo& info = sig_->info(p.id);
    p.checks_pass = !sig_->IsSpecial(p.id);
    for (Sort s : info.arg_sorts) p.checks_pass &= s != Sort::kSet;
  }
  preds_.push_back(p);
  return last_slot_ = static_cast<uint32_t>(preds_.size() - 1);
}

void GroundFacts::Add(std::string_view pred, std::span<const Token> args) {
  const uint32_t slot = Slot(pred, static_cast<uint32_t>(args.size()));
  cells_.push_back(slot);
  for (const Token& a : args) {
    cells_.push_back(a.kind == TokenKind::kInteger
                         ? store_->MakeInt(a.int_value)
                         : store_->MakeConstant(a.text));
  }
  ++preds_[slot].rows;
  ++rows_;
}

Result<ParsedUnit> ParseSource(std::string_view source,
                               GroundFacts* ground) {
  return Parser(source, ground).Parse();
}

Result<PTerm> ParseTermText(std::string_view text) {
  return Parser(text, nullptr).ParseOneTerm();
}

Result<Literal> ParseGoalText(const std::string& text, LanguageMode mode,
                              TermStore* store, Signature* sig) {
  std::string src = "?- " + text;
  if (src.back() != '.') src += '.';
  LPS_ASSIGN_OR_RETURN(ParsedUnit unit, ParseSource(src));
  if (unit.queries.size() != 1 || !unit.clauses.empty() ||
      !unit.decls.empty()) {
    return Status::ParseError("expected exactly one goal: " + text);
  }
  LPS_ASSIGN_OR_RETURN(LoweredUnit lowered,
                       LowerParsedUnit(unit, mode, store, sig));
  if (lowered.queries.size() != 1) {
    return Status::ParseError("expected exactly one goal: " + text);
  }
  return lowered.queries[0];
}

}  // namespace lps
