#include "serve/resolve.h"

#include <algorithm>
#include <vector>

#include "parse/lexer.h"

namespace lps::serve {

namespace {

// Tiny ground-term AST shared by the lookup and intern walkers; the
// grammar is the ground-term subset of the surface syntax:
//   term := ident | ident '(' term {',' term} ')' | integer
//         | '{' '}' | '{' term {',' term} '}'
struct Node {
  enum class Kind : uint8_t { kConstant, kInt, kFunction, kSet };
  Kind kind;
  std::string name;       // constant / function name
  int64_t value = 0;      // integer
  std::vector<Node> children;
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Node> Parse() {
    LPS_ASSIGN_OR_RETURN(Node n, Term());
    if (Peek().kind != TokenKind::kEof) {
      return Status::ParseError("trailing input after term: '" +
                                std::string(Peek().text) + "'");
    }
    return n;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  Token Take() { return tokens_[pos_++]; }

  Result<Node> Term() {
    const Token& t = Peek();
    switch (t.kind) {
      case TokenKind::kInteger: {
        Node n;
        n.kind = Node::Kind::kInt;
        n.value = Take().int_value;
        return n;
      }
      case TokenKind::kIdent: {
        Node n;
        n.name = Take().text;
        if (Peek().kind != TokenKind::kLParen) {
          n.kind = Node::Kind::kConstant;
          return n;
        }
        Take();  // (
        n.kind = Node::Kind::kFunction;
        LPS_RETURN_IF_ERROR(List(&n.children, TokenKind::kRParen));
        if (n.children.empty()) {
          return Status::ParseError("function term " + n.name +
                                    "() needs at least one argument");
        }
        return n;
      }
      case TokenKind::kLBrace: {
        Take();  // {
        Node n;
        n.kind = Node::Kind::kSet;
        if (Peek().kind == TokenKind::kRBrace) {
          Take();
          return n;
        }
        LPS_RETURN_IF_ERROR(List(&n.children, TokenKind::kRBrace));
        return n;
      }
      case TokenKind::kVariable:
        return Status::InvalidArgument(
            "query parameter must be ground, got variable '" +
            std::string(t.text) + "'");
      default:
        return Status::ParseError("expected a ground term, got '" +
                                  std::string(t.text) + "'");
    }
  }

  Status List(std::vector<Node>* out, TokenKind closer) {
    for (;;) {
      LPS_ASSIGN_OR_RETURN(Node child, Term());
      out->push_back(std::move(child));
      if (Peek().kind == TokenKind::kComma) {
        Take();
        continue;
      }
      if (Peek().kind == closer) {
        Take();
        return Status::OK();
      }
      return Status::ParseError("expected ',' or closing bracket, got '" +
                                std::string(Peek().text) + "'");
    }
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

Result<Node> ParseGroundTerm(const std::string& text) {
  LPS_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  return Parser(std::move(tokens)).Parse();
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

Resolution Lookup(const TermStore& store, const Node& n) {
  switch (n.kind) {
    case Node::Kind::kConstant: {
      TermId id = store.TryLookupConstant(n.name);
      if (id == kInvalidTerm) return {kInvalidTerm, MissKind::kConstant};
      return {id, MissKind::kNone};
    }
    case Node::Kind::kInt: {
      TermId id = store.TryLookupInt(n.value);
      if (id == kInvalidTerm) return {kInvalidTerm, MissKind::kOther};
      return {id, MissKind::kNone};
    }
    case Node::Kind::kFunction: {
      MissKind miss = MissKind::kNone;
      std::vector<TermId> args;
      args.reserve(n.children.size());
      for (const Node& c : n.children) {
        Resolution r = Lookup(store, c);
        miss = Worse(miss, r.missing);
        args.push_back(r.id);
      }
      if (miss != MissKind::kNone) return {kInvalidTerm, miss};
      Symbol sym = store.symbols().Lookup(n.name);
      if (sym == kInvalidSymbol) return {kInvalidTerm, MissKind::kOther};
      TermId id = store.TryLookupFunction(sym, std::move(args));
      if (id == kInvalidTerm) return {kInvalidTerm, MissKind::kOther};
      return {id, MissKind::kNone};
    }
    case Node::Kind::kSet: {
      MissKind miss = MissKind::kNone;
      std::vector<TermId> elems;
      elems.reserve(n.children.size());
      for (const Node& c : n.children) {
        Resolution r = Lookup(store, c);
        miss = Worse(miss, r.missing);
        elems.push_back(r.id);
      }
      if (miss != MissKind::kNone) return {kInvalidTerm, miss};
      std::sort(elems.begin(), elems.end());
      elems.erase(std::unique(elems.begin(), elems.end()), elems.end());
      TermId id = store.TryLookupCanonicalSet(elems);
      if (id == kInvalidTerm) return {kInvalidTerm, MissKind::kOther};
      return {id, MissKind::kNone};
    }
  }
  return {kInvalidTerm, MissKind::kOther};  // unreachable
}

TermId Intern(TermStore* store, const Node& n) {
  switch (n.kind) {
    case Node::Kind::kConstant:
      return store->MakeConstant(n.name);
    case Node::Kind::kInt:
      return store->MakeInt(n.value);
    case Node::Kind::kFunction: {
      std::vector<TermId> args;
      args.reserve(n.children.size());
      for (const Node& c : n.children) args.push_back(Intern(store, c));
      return store->MakeFunction(n.name, std::move(args));
    }
    case Node::Kind::kSet: {
      std::vector<TermId> elems;
      elems.reserve(n.children.size());
      for (const Node& c : n.children) elems.push_back(Intern(store, c));
      return store->MakeSet(std::move(elems));
    }
  }
  return kInvalidTerm;  // unreachable
}

}  // namespace

Result<Resolution> TryResolveGroundTerm(const TermStore& store,
                                        const std::string& text) {
  LPS_ASSIGN_OR_RETURN(Node n, ParseGroundTerm(text));
  return Lookup(store, n);
}

Result<TermId> InternGroundTerm(TermStore* store, const std::string& text) {
  LPS_ASSIGN_OR_RETURN(Node n, ParseGroundTerm(text));
  return Intern(store, n);
}

}  // namespace lps::serve
