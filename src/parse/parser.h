// Recursive-descent parser for the LPS surface language.
//
//   program     := item*
//   item        := "pred" name "(" sort ("," sort)* ")" "."
//                | "?-" atom "."
//                | clause
//   clause      := head [":-" formula] "."
//   head        := name ["(" headarg ("," headarg)* ")"]
//   headarg     := "<" VAR ">"          (LDL grouping, Definition 14)
//                | term
//   formula     := conj (";" conj)*                  (disjunction)
//   conj        := unit ("," unit)*
//   unit        := "(" formula ")"
//                | "forall" VAR "in" term ["," "forall" ...] ":" unit
//                | "exists" VAR "in" term ":" unit
//                | "not" atom
//                | atom | comparison
//   comparison  := term ("=" | "!=" | "in" | "notin" | "<" | "<=") term
//   term        := VAR | INTEGER | name ["(" term ("," term)* ")"]
//                | "{" [term ("," term)*] "}"
//
// The parser produces a name-based AST; LowerParsedUnit (with sort
// inference from sort_infer.h) turns it into interned GeneralClauses.
// Ground atoms can skip the AST: see GroundFacts.
#ifndef LPS_PARSE_PARSER_H_
#define LPS_PARSE_PARSER_H_

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "lang/formula.h"
#include "lang/validate.h"
#include "parse/lexer.h"

namespace lps {

struct PTerm {
  enum class Kind : uint8_t { kVar, kConst, kInt, kFunc, kSet };
  Kind kind = Kind::kConst;
  std::string name;
  int64_t value = 0;
  std::vector<PTerm> args;
  int line = 0;
};

struct PLiteral {
  std::string pred;  // builtin comparisons use "=", "!=", "in", ...
  std::vector<PTerm> args;
  bool positive = true;
  int line = 0;
};

struct PFormula {
  FormulaKind kind = FormulaKind::kAtomic;
  PLiteral atom;
  std::vector<PFormula> children;
  std::string var;  // quantifiers
  PTerm range;
  int line = 0;
};

struct PHeadArg {
  bool grouped = false;
  PTerm term;
};

struct PClause {
  std::string pred;
  std::vector<PHeadArg> args;
  std::optional<PFormula> body;
  int line = 0;
};

struct PDecl {
  std::string name;
  std::vector<Sort> sorts;
  int line = 0;
};

struct ParsedUnit {
  std::vector<PDecl> decls;
  std::vector<PClause> clauses;
  std::vector<PLiteral> queries;
};

/// The flat form of ground facts, filled by the parser's ground-atom
/// branch. When ParseSource is handed a GroundFacts, a fact
/// "p(c1, ..., cn)." whose arguments are all constants or integers
/// builds no PClause: its arguments are interned into store() as they
/// are read and the fact becomes one row of cells(),
/// [predicate slot, c1, ..., cn], the slot indexing preds(). Anything
/// else - variables, sets, function terms, rules - becomes a PClause
/// as before, and so does every clause after it: the rows are a prefix
/// of the source's clauses, so their terms are interned before any
/// term a lowered clause mints, in source order.
class GroundFacts {
 public:
  /// Interns into `store` and resolves predicates against `sig`, which
  /// must be bound to store->symbols() and stay unchanged while the
  /// parser adds rows.
  GroundFacts(TermStore* store, const Signature* sig)
      : store_(store), sig_(sig) {}

  /// One predicate (name and arity) that heads a row.
  struct Pred {
    Symbol name;     // in store->symbols()
    uint32_t arity;
    PredicateId id;  // in sig, or kInvalidPredicate for a fresh one
    /// False when the facts of this predicate fail CheckFact or
    /// ValidateGoal against sig as declared: a special predicate, or
    /// an argument position declared set-sorted (constants and
    /// integers are atoms). Decided once per predicate and argument
    /// position, when the predicate is first seen; a fresh predicate
    /// is declared from its uses and always passes.
    bool checks_pass;
    size_t rows;
  };

  TermStore* store() const { return store_; }
  const std::vector<Pred>& preds() const { return preds_; }
  /// The rows back to back; a row's width is 1 + its slot's arity.
  std::vector<TermId>& cells() { return cells_; }
  const std::vector<TermId>& cells() const { return cells_; }
  size_t rows() const { return rows_; }

 private:
  friend class Parser;

  void Add(std::string_view pred, std::span<const Token> args);
  uint32_t Slot(std::string_view pred, uint32_t arity);

  TermStore* store_;
  const Signature* sig_;
  std::vector<Pred> preds_;
  std::vector<TermId> cells_;
  size_t rows_ = 0;
  uint32_t last_slot_ = 0;  // consecutive facts mostly share a predicate
};

/// Parses source text into the name-based AST. With `ground`, ground
/// atoms take the flat path into it instead (see GroundFacts); without,
/// every clause becomes a PClause.
Result<ParsedUnit> ParseSource(std::string_view source,
                               GroundFacts* ground = nullptr);

/// Parses `text` as one `term` of the grammar above, with nothing after
/// it. Malformed or trailing text is a ParseError.
Result<PTerm> ParseTermText(std::string_view text);

/// Lowered result: interned clauses ready for the Theorem 6 compiler.
struct LoweredUnit {
  std::vector<GeneralClause> clauses;  // non-ground or rule clauses
  std::vector<Literal> facts;          // ground bodyless heads
  std::vector<Literal> queries;
};

/// Lowers a parsed unit: declares predicates in `sig` (explicitly or by
/// inference), infers variable sorts per clause (see sort_infer.h), and
/// interns all terms in `store`. `ground`, when the unit was parsed
/// with one, holds the unit's flat facts: they are interned already,
/// and each fresh predicate among them counts as one all-atom use when
/// predicate declarations are inferred, as the same facts parsed into
/// clauses would.
Result<LoweredUnit> LowerParsedUnit(const ParsedUnit& unit,
                                    LanguageMode mode, TermStore* store,
                                    Signature* sig,
                                    const GroundFacts* ground = nullptr);

/// Parses and lowers a single goal - an atom or comparison such as
/// "path(a, X)" - against an existing store/signature; the "?-" prefix
/// and trailing "." are implied. This is the one entry point for ad-hoc
/// goal text: Session::Prepare calls it exactly once per goal, after
/// which execution never touches the parser again.
Result<Literal> ParseGoalText(const std::string& text, LanguageMode mode,
                              TermStore* store, Signature* sig);

}  // namespace lps

#endif  // LPS_PARSE_PARSER_H_
