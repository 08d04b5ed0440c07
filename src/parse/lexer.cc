#include "parse/lexer.h"

#include <charconv>
#include <string>

namespace lps {

namespace {

// ASCII classes: the surface syntax is ASCII, and unlike <cctype> these
// do not depend on the process locale.
bool IsDigit(char c) { return c >= '0' && c <= '9'; }
bool IsUpper(char c) { return c >= 'A' && c <= 'Z'; }
bool IsAlpha(char c) { return IsUpper(c) || (c >= 'a' && c <= 'z'); }
bool IsIdentChar(char c) { return IsAlpha(c) || IsDigit(c) || c == '_'; }
bool IsBlank(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

TokenKind WordKind(std::string_view w) {
  switch (w.size()) {
    case 2:
      if (w == "in") return TokenKind::kKwIn;
      break;
    case 3:
      if (w == "not") return TokenKind::kKwNot;
      if (w == "set") return TokenKind::kKwSet;
      if (w == "any") return TokenKind::kKwAny;
      break;
    case 4:
      if (w == "pred") return TokenKind::kKwPred;
      if (w == "atom") return TokenKind::kKwAtom;
      break;
    case 5:
      if (w == "notin") return TokenKind::kKwNotIn;
      break;
    case 6:
      if (w == "forall") return TokenKind::kKwForall;
      if (w == "exists") return TokenKind::kKwExists;
      break;
    default:
      break;
  }
  return IsUpper(w[0]) || w[0] == '_' ? TokenKind::kVariable
                                      : TokenKind::kIdent;
}

}  // namespace

const char* TokenKindToString(TokenKind kind) {
  switch (kind) {
    case TokenKind::kIdent: return "identifier";
    case TokenKind::kVariable: return "variable";
    case TokenKind::kInteger: return "integer";
    case TokenKind::kLParen: return "'('";
    case TokenKind::kRParen: return "')'";
    case TokenKind::kLBrace: return "'{'";
    case TokenKind::kRBrace: return "'}'";
    case TokenKind::kLAngle: return "'<'";
    case TokenKind::kRAngle: return "'>'";
    case TokenKind::kComma: return "','";
    case TokenKind::kPeriod: return "'.'";
    case TokenKind::kSemicolon: return "';'";
    case TokenKind::kColon: return "':'";
    case TokenKind::kImplies: return "':-'";
    case TokenKind::kQuery: return "'?-'";
    case TokenKind::kEq: return "'='";
    case TokenKind::kNeq: return "'!='";
    case TokenKind::kLe: return "'<='";
    case TokenKind::kKwIn: return "'in'";
    case TokenKind::kKwNotIn: return "'notin'";
    case TokenKind::kKwNot: return "'not'";
    case TokenKind::kKwForall: return "'forall'";
    case TokenKind::kKwExists: return "'exists'";
    case TokenKind::kKwPred: return "'pred'";
    case TokenKind::kKwAtom: return "'atom'";
    case TokenKind::kKwSet: return "'set'";
    case TokenKind::kKwAny: return "'any'";
    case TokenKind::kEof: return "end of input";
  }
  return "?";
}

Status Lexer::Error(const std::string& msg) const {
  return Status::ParseError(msg + " at line " + std::to_string(line_) +
                            ", column " + std::to_string(column_));
}

Status Lexer::Next(Token* out) {
  const size_t n = src_.size();
  for (;;) {
    if (pos_ >= n) {
      *out = Token{TokenKind::kEof, {}, 0, line_, column_};
      return Status::OK();
    }
    const char c = src_[pos_];
    if (c == '\n') {
      ++line_;
      column_ = 1;
      ++pos_;
    } else if (IsBlank(c)) {
      ++column_;
      ++pos_;
    } else if (c == '%' || (c == '/' && pos_ + 1 < n && src_[pos_ + 1] == '/')) {
      while (pos_ < n && src_[pos_] != '\n') ++pos_;
    } else {
      break;
    }
  }

  const size_t start = pos_;
  const char c = src_[start];
  auto emit = [&](TokenKind kind, size_t len) {
    *out = Token{kind, src_.substr(start, len), 0, line_, column_};
    pos_ += len;
    column_ += static_cast<int>(len);
    return Status::OK();
  };

  if (IsDigit(c) || (c == '-' && start + 1 < n && IsDigit(src_[start + 1]))) {
    size_t end = start + 1;
    while (end < n && IsDigit(src_[end])) ++end;
    int64_t value = 0;
    const char* first = src_.data() + start;
    const char* last = src_.data() + end;
    if (std::from_chars(first, last, value).ec != std::errc()) {
      return Error("integer literal out of range");
    }
    emit(TokenKind::kInteger, end - start);
    out->int_value = value;
    return Status::OK();
  }
  if (IsAlpha(c) || c == '_') {
    size_t end = start + 1;
    while (end < n && IsIdentChar(src_[end])) ++end;
    return emit(WordKind(src_.substr(start, end - start)), end - start);
  }
  const char next = start + 1 < n ? src_[start + 1] : '\0';
  switch (c) {
    case '(': return emit(TokenKind::kLParen, 1);
    case ')': return emit(TokenKind::kRParen, 1);
    case '{': return emit(TokenKind::kLBrace, 1);
    case '}': return emit(TokenKind::kRBrace, 1);
    case ',': return emit(TokenKind::kComma, 1);
    case '.': return emit(TokenKind::kPeriod, 1);
    case ';': return emit(TokenKind::kSemicolon, 1);
    case '>': return emit(TokenKind::kRAngle, 1);
    case '=': return emit(TokenKind::kEq, 1);
    case '<':
      return next == '=' ? emit(TokenKind::kLe, 2)
                         : emit(TokenKind::kLAngle, 1);
    case ':':
      return next == '-' ? emit(TokenKind::kImplies, 2)
                         : emit(TokenKind::kColon, 1);
    case '!':
      if (next == '=') return emit(TokenKind::kNeq, 2);
      return Error("unexpected '!'");
    case '?':
      if (next == '-') return emit(TokenKind::kQuery, 2);
      return Error("unexpected '?'");
    default:
      return Error(std::string("unexpected character '") + c + "'");
  }
}

Result<std::vector<Token>> Tokenize(std::string_view source) {
  Lexer lexer(source);
  std::vector<Token> tokens;
  for (;;) {
    Token t;
    LPS_RETURN_IF_ERROR(lexer.Next(&t));
    tokens.push_back(t);
    if (t.kind == TokenKind::kEof) return tokens;
  }
}

}  // namespace lps
