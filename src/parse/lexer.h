// Lexer for the LPS surface syntax. Identifiers starting with a lower
// case letter are constants / predicate / function names; identifiers
// starting with an upper case letter or '_' are variables (Prolog
// convention; the paper's lower-case x vs upper-case X distinction is
// recovered by sort inference). '%' and '//' start line comments.
//
// Tokens are views into the source: the lexer copies no text, so the
// source must outlive every token it hands out.
#ifndef LPS_PARSE_LEXER_H_
#define LPS_PARSE_LEXER_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "base/status.h"

namespace lps {

enum class TokenKind : uint8_t {
  kIdent,     // lower-case identifier
  kVariable,  // upper-case / underscore identifier
  kInteger,
  kLParen,
  kRParen,
  kLBrace,
  kRBrace,
  kLAngle,   // <  (grouping heads; also the lt comparison)
  kRAngle,   // >
  kComma,
  kPeriod,
  kSemicolon,
  kColon,
  kImplies,   // :-
  kQuery,     // ?-
  kEq,        // =
  kNeq,       // !=
  kLe,        // <=
  kKwIn,
  kKwNotIn,
  kKwNot,
  kKwForall,
  kKwExists,
  kKwPred,
  kKwAtom,
  kKwSet,
  kKwAny,
  kEof,
};

struct Token {
  TokenKind kind = TokenKind::kEof;
  std::string_view text;  // into the source
  int64_t int_value = 0;
  int line = 0;
  int column = 0;
};

const char* TokenKindToString(TokenKind kind);

/// On-demand tokenizer over a source it does not own. Next() yields
/// one token per call and kEof, repeatedly, once the source is used
/// up. A lexing error (a stray character, an integer literal out of
/// range) is returned as a ParseError naming its line and column.
class Lexer {
 public:
  explicit Lexer(std::string_view source) : src_(source) {}

  Status Next(Token* out);

  /// The scan position, for a caller that reads ahead and backs off.
  struct Mark {
    size_t pos;
    int line;
    int column;
  };
  Mark mark() const { return Mark{pos_, line_, column_}; }
  void Reset(Mark m) {
    pos_ = m.pos;
    line_ = m.line;
    column_ = m.column;
  }

 private:
  Status Error(const std::string& msg) const;

  std::string_view src_;
  size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
};

/// Tokenizes all of `source`; the final token is kEof.
Result<std::vector<Token>> Tokenize(std::string_view source);

}  // namespace lps

#endif  // LPS_PARSE_LEXER_H_
