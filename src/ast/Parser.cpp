//===- ast/Parser.cpp - Datalog parser --------------------------------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//

#include "ast/Parser.h"

#include "ast/Lexer.h"

#include <optional>
#include <unordered_map>

using namespace stird;
using namespace stird::ast;

namespace {

/// Names that always denote intrinsic functors; they cannot be used as
/// relation names in atom positions.
const std::unordered_map<std::string, FunctorOp> NamedFunctors = {
    {"max", FunctorOp::Max},         {"min", FunctorOp::Min},
    {"cat", FunctorOp::Cat},         {"strlen", FunctorOp::Strlen},
    {"substr", FunctorOp::Substr},   {"ord", FunctorOp::Ord},
    {"to_number", FunctorOp::ToNumber},
    {"to_string", FunctorOp::ToString},
};

class Parser {
public:
  Parser(std::vector<Token> Tokens, std::vector<std::string> &Errors)
      : Tokens(std::move(Tokens)), Errors(Errors) {}

  std::unique_ptr<Program> run() {
    auto Prog = std::make_unique<Program>();
    while (!at(TokenKind::Eof)) {
      if (at(TokenKind::Directive)) {
        parseDirective(*Prog);
        continue;
      }
      if (auto C = parseClause())
        Prog->Clauses.push_back(std::move(C));
    }
    return Prog;
  }

private:
  //===--------------------------------------------------------------------===
  // Token stream helpers
  //===--------------------------------------------------------------------===

  const Token &peek(std::size_t Ahead = 0) const {
    std::size_t Index = Pos + Ahead;
    if (Index >= Tokens.size())
      Index = Tokens.size() - 1; // the Eof token
    return Tokens[Index];
  }
  bool at(TokenKind Kind) const { return peek().Kind == Kind; }
  const Token &advance() { return Tokens[Pos == Tokens.size() - 1 ? Pos : Pos++]; }

  bool accept(TokenKind Kind) {
    if (!at(Kind))
      return false;
    advance();
    return true;
  }

  /// Consumes a token of \p Kind or reports \p What as expected.
  bool expect(TokenKind Kind, const char *What) {
    if (accept(Kind))
      return true;
    error(std::string("expected ") + What);
    return false;
  }

  void error(const std::string &Message) { error(peek().Loc, Message); }

  void error(const SrcLoc &Loc, const std::string &Message) {
    Errors.push_back("line " + std::to_string(Loc.Line) + ":" +
                     std::to_string(Loc.Col) + ": " + Message);
  }

  /// Error recovery: skip to just past the next clause terminator.
  void synchronize() {
    while (!at(TokenKind::Eof) && !at(TokenKind::Dot) &&
           !at(TokenKind::Directive))
      advance();
    accept(TokenKind::Dot);
  }

  //===--------------------------------------------------------------------===
  // Directives
  //===--------------------------------------------------------------------===

  void parseDirective(Program &Prog) {
    const Token &Dir = advance();
    if (Dir.Text == "decl") {
      parseDecl(Prog);
      return;
    }
    if (Dir.Text == "input" || Dir.Text == "output" ||
        Dir.Text == "printsize") {
      if (!at(TokenKind::Ident)) {
        error("expected relation name after ." + Dir.Text);
        synchronize();
        return;
      }
      std::string Name = advance().Text;
      std::string Path;
      if (accept(TokenKind::LParen)) {
        if (at(TokenKind::String))
          Path = advance().Text;
        else
          error("expected string path in IO directive");
        expect(TokenKind::RParen, "')'");
      }
      RelationDecl *Rel = Prog.findRelation(Name);
      if (!Rel) {
        error("IO directive for undeclared relation '" + Name + "'");
        return;
      }
      if (Dir.Text == "input")
        Rel->markInput(std::move(Path));
      else if (Dir.Text == "output")
        Rel->markOutput(std::move(Path));
      else
        Rel->markPrintSize();
      return;
    }
    error("unknown directive '." + Dir.Text + "'");
    synchronize();
  }

  void parseDecl(Program &Prog) {
    SrcLoc Loc = peek().Loc;
    if (!at(TokenKind::Ident)) {
      error("expected relation name after .decl");
      synchronize();
      return;
    }
    std::string Name = advance().Text;
    std::vector<Attribute> Attributes;
    if (!expect(TokenKind::LParen, "'('")) {
      synchronize();
      return;
    }
    if (!at(TokenKind::RParen)) {
      do {
        if (!at(TokenKind::Ident)) {
          error("expected attribute name");
          break;
        }
        std::string AttrName = advance().Text;
        if (!expect(TokenKind::Colon, "':' after attribute name"))
          break;
        if (!at(TokenKind::Ident)) {
          error("expected attribute type");
          break;
        }
        std::string TypeText = advance().Text;
        std::optional<TypeKind> Type;
        if (TypeText == "number")
          Type = TypeKind::Number;
        else if (TypeText == "unsigned")
          Type = TypeKind::Unsigned;
        else if (TypeText == "float")
          Type = TypeKind::Float;
        else if (TypeText == "symbol")
          Type = TypeKind::Symbol;
        if (!Type) {
          error("unknown attribute type '" + TypeText + "'");
          Type = TypeKind::Number;
        }
        Attributes.push_back({std::move(AttrName), *Type});
      } while (accept(TokenKind::Comma));
    }
    expect(TokenKind::RParen, "')'");

    // Structure qualifiers: an identifier not followed by '(' is one; an
    // identifier that opens an atom already starts the next clause.
    StructureKind Structure = StructureKind::Btree;
    while (at(TokenKind::Ident) && peek(1).Kind != TokenKind::LParen) {
      const Token &Qual = advance();
      if (Qual.Text == "btree")
        Structure = StructureKind::Btree;
      else if (Qual.Text == "brie")
        Structure = StructureKind::Brie;
      else if (Qual.Text == "eqrel")
        Structure = StructureKind::Eqrel;
      else
        error(Qual.Loc, "unknown structure qualifier '" + Qual.Text + "'");
    }
    // The declaration's own errors name its location, not the next token.
    if (Structure == StructureKind::Eqrel && Attributes.size() != 2)
      error(Loc, "eqrel relation '" + Name + "' must be binary");
    if (Structure == StructureKind::Brie && Attributes.size() > MaxBrieArity)
      error(Loc, "brie relation '" + Name +
                     "' exceeds the maximum supported brie arity " +
                     std::to_string(MaxBrieArity));
    if (Attributes.empty())
      error(Loc, "relation '" + Name + "' must have at least one attribute");
    if (Attributes.size() > MaxArity)
      error(Loc, "relation '" + Name +
                     "' exceeds the maximum supported arity " +
                     std::to_string(MaxArity));
    if (Prog.findRelation(Name))
      error(Loc, "redefinition of relation '" + Name + "'");
    Prog.Relations.push_back(std::make_unique<RelationDecl>(
        std::move(Name), std::move(Attributes), Structure, Loc));
  }

  //===--------------------------------------------------------------------===
  // Clauses and literals
  //===--------------------------------------------------------------------===

  std::unique_ptr<Clause> parseClause() {
    SrcLoc Loc = peek().Loc;
    std::unique_ptr<Atom> Head = parseAtom();
    if (!Head) {
      synchronize();
      return nullptr;
    }
    std::vector<std::unique_ptr<Literal>> Body;
    if (accept(TokenKind::If)) {
      do {
        auto Lit = parseLiteral();
        if (!Lit) {
          synchronize();
          return nullptr;
        }
        Body.push_back(std::move(Lit));
      } while (accept(TokenKind::Comma));
    }
    expect(TokenKind::Dot, "'.' at end of clause");
    return std::make_unique<Clause>(std::move(Head), std::move(Body), Loc);
  }

  std::unique_ptr<Atom> parseAtom() {
    if (!at(TokenKind::Ident)) {
      error("expected relation atom");
      return nullptr;
    }
    SrcLoc Loc = peek().Loc;
    std::string Name = advance().Text;
    if (!expect(TokenKind::LParen, "'(' after relation name"))
      return nullptr;
    std::vector<std::unique_ptr<Argument>> Args;
    if (!at(TokenKind::RParen)) {
      do {
        auto Arg = parseExpr();
        if (!Arg)
          return nullptr;
        Args.push_back(std::move(Arg));
      } while (accept(TokenKind::Comma));
    }
    if (!expect(TokenKind::RParen, "')'"))
      return nullptr;
    return std::make_unique<Atom>(std::move(Name), std::move(Args), Loc);
  }

  /// An atom literal starts with `Ident (` where Ident is not a functor
  /// name; anything else is a constraint.
  std::unique_ptr<Literal> parseLiteral() {
    SrcLoc Loc = peek().Loc;
    if (accept(TokenKind::Bang)) {
      auto Inner = parseAtom();
      if (!Inner)
        return nullptr;
      return std::make_unique<Negation>(std::move(Inner), Loc);
    }
    if (at(TokenKind::Ident) && peek(1).Kind == TokenKind::LParen &&
        !NamedFunctors.count(peek().Text) && !isAggregateName(peek().Text)) {
      return parseAtom();
    }
    auto Lhs = parseExpr();
    if (!Lhs)
      return nullptr;
    ConstraintOp Op;
    switch (peek().Kind) {
    case TokenKind::Eq:
      Op = ConstraintOp::Eq;
      break;
    case TokenKind::Ne:
      Op = ConstraintOp::Ne;
      break;
    case TokenKind::Lt:
      Op = ConstraintOp::Lt;
      break;
    case TokenKind::Le:
      Op = ConstraintOp::Le;
      break;
    case TokenKind::Gt:
      Op = ConstraintOp::Gt;
      break;
    case TokenKind::Ge:
      Op = ConstraintOp::Ge;
      break;
    default:
      error("expected comparison operator in constraint");
      return nullptr;
    }
    advance();
    auto Rhs = parseExpr();
    if (!Rhs)
      return nullptr;
    return std::make_unique<Constraint>(Op, std::move(Lhs), std::move(Rhs),
                                        Loc);
  }

  static bool isAggregateName(const std::string &Name) {
    return Name == "count" || Name == "sum";
    // min/max double as functors; they are recognized as aggregates by the
    // grammar position (no '(' after the keyword) in parsePrimary.
  }

  //===--------------------------------------------------------------------===
  // Expression precedence ladder (lowest first):
  //   bor < bxor < band < bshl/bshr < +,- < *,/,% < ^ < unary < primary
  //===--------------------------------------------------------------------===

  std::unique_ptr<Argument> parseExpr() { return parseWordInfix(0); }

  /// Word-operator tiers (bor/bxor/band/bshl/bshr) handled uniformly.
  std::unique_ptr<Argument> parseWordInfix(int Tier) {
    static const std::vector<std::vector<std::pair<const char *, FunctorOp>>>
        Tiers = {
            {{"bor", FunctorOp::Bor}},
            {{"bxor", FunctorOp::Bxor}},
            {{"band", FunctorOp::Band}},
            {{"bshl", FunctorOp::Bshl}, {"bshr", FunctorOp::Bshr}},
        };
    if (Tier >= static_cast<int>(Tiers.size()))
      return parseAdditive();
    auto Lhs = parseWordInfix(Tier + 1);
    if (!Lhs)
      return nullptr;
    for (;;) {
      if (!at(TokenKind::Ident))
        return Lhs;
      FunctorOp Op;
      bool Matched = false;
      for (const auto &[Name, TierOp] : Tiers[Tier])
        if (peek().Text == Name) {
          Op = TierOp;
          Matched = true;
          break;
        }
      if (!Matched)
        return Lhs;
      SrcLoc Loc = peek().Loc;
      advance();
      auto Rhs = parseWordInfix(Tier + 1);
      if (!Rhs)
        return nullptr;
      Lhs = makeBinary(Op, std::move(Lhs), std::move(Rhs), Loc);
    }
  }

  std::unique_ptr<Argument> parseAdditive() {
    auto Lhs = parseMultiplicative();
    if (!Lhs)
      return nullptr;
    for (;;) {
      FunctorOp Op;
      if (at(TokenKind::Plus))
        Op = FunctorOp::Add;
      else if (at(TokenKind::Minus))
        Op = FunctorOp::Sub;
      else
        return Lhs;
      SrcLoc Loc = peek().Loc;
      advance();
      auto Rhs = parseMultiplicative();
      if (!Rhs)
        return nullptr;
      Lhs = makeBinary(Op, std::move(Lhs), std::move(Rhs), Loc);
    }
  }

  std::unique_ptr<Argument> parseMultiplicative() {
    auto Lhs = parsePower();
    if (!Lhs)
      return nullptr;
    for (;;) {
      FunctorOp Op;
      if (at(TokenKind::Star))
        Op = FunctorOp::Mul;
      else if (at(TokenKind::Slash))
        Op = FunctorOp::Div;
      else if (at(TokenKind::Percent))
        Op = FunctorOp::Mod;
      else
        return Lhs;
      SrcLoc Loc = peek().Loc;
      advance();
      auto Rhs = parsePower();
      if (!Rhs)
        return nullptr;
      Lhs = makeBinary(Op, std::move(Lhs), std::move(Rhs), Loc);
    }
  }

  std::unique_ptr<Argument> parsePower() {
    auto Lhs = parseUnary();
    if (!Lhs)
      return nullptr;
    if (!at(TokenKind::Caret))
      return Lhs;
    SrcLoc Loc = peek().Loc;
    advance();
    auto Rhs = parsePower(); // right-associative
    if (!Rhs)
      return nullptr;
    return makeBinary(FunctorOp::Exp, std::move(Lhs), std::move(Rhs), Loc);
  }

  std::unique_ptr<Argument> parseUnary() {
    SrcLoc Loc = peek().Loc;
    if (accept(TokenKind::Minus)) {
      // Fold a literal-negation into a constant.
      if (at(TokenKind::Number)) {
        const Token &Tok = advance();
        // Negated in two's complement: -2147483648 lexes as INT_MIN.
        return std::make_unique<NumberConstant>(
            ramBitCast<RamDomain>(0U - ramBitCast<RamUnsigned>(Tok.Number)),
            Loc);
      }
      if (at(TokenKind::Float)) {
        const Token &Tok = advance();
        return std::make_unique<FloatConstant>(-Tok.FloatValue, Loc);
      }
      auto Operand = parseUnary();
      if (!Operand)
        return nullptr;
      return makeUnary(FunctorOp::Neg, std::move(Operand), Loc);
    }
    if (at(TokenKind::Ident) &&
        (peek().Text == "bnot" || peek().Text == "lnot")) {
      FunctorOp Op = peek().Text == "bnot" ? FunctorOp::BNot : FunctorOp::LNot;
      advance();
      auto Operand = parseUnary();
      if (!Operand)
        return nullptr;
      return makeUnary(Op, std::move(Operand), Loc);
    }
    return parsePrimary();
  }

  std::unique_ptr<Argument> parsePrimary() {
    SrcLoc Loc = peek().Loc;
    switch (peek().Kind) {
    case TokenKind::Number: {
      const Token &Tok = advance();
      return std::make_unique<NumberConstant>(Tok.Number, Loc);
    }
    case TokenKind::Unsigned: {
      const Token &Tok = advance();
      return std::make_unique<UnsignedConstant>(Tok.UnsignedValue, Loc);
    }
    case TokenKind::Float: {
      const Token &Tok = advance();
      return std::make_unique<FloatConstant>(Tok.FloatValue, Loc);
    }
    case TokenKind::String: {
      const Token &Tok = advance();
      return std::make_unique<StringConstant>(Tok.Text, Loc);
    }
    case TokenKind::Underscore:
      advance();
      return std::make_unique<UnnamedVariable>(Loc);
    case TokenKind::Dollar:
      advance();
      return std::make_unique<Counter>(Loc);
    case TokenKind::LParen: {
      advance();
      auto Inner = parseExpr();
      if (!Inner)
        return nullptr;
      expect(TokenKind::RParen, "')'");
      return Inner;
    }
    case TokenKind::Ident:
      break;
    default:
      error("expected expression");
      return nullptr;
    }

    std::string Name = peek().Text;
    // Aggregates: `count : {...}`, `sum E : {...}`, `min E : {...}` (only
    // when not immediately applied like a functor call).
    if ((Name == "count" || Name == "sum" || Name == "min" || Name == "max") &&
        peek(1).Kind != TokenKind::LParen)
      return parseAggregate();

    advance();
    auto FunctorIt = NamedFunctors.find(Name);
    if (FunctorIt != NamedFunctors.end()) {
      if (!expect(TokenKind::LParen, "'(' after functor name"))
        return nullptr;
      std::vector<std::unique_ptr<Argument>> Args;
      if (!at(TokenKind::RParen)) {
        do {
          auto Arg = parseExpr();
          if (!Arg)
            return nullptr;
          Args.push_back(std::move(Arg));
        } while (accept(TokenKind::Comma));
      }
      if (!expect(TokenKind::RParen, "')'"))
        return nullptr;
      return std::make_unique<Functor>(FunctorIt->second, std::move(Args),
                                       Loc);
    }
    return std::make_unique<Variable>(std::move(Name), Loc);
  }

  std::unique_ptr<Argument> parseAggregate() {
    SrcLoc Loc = peek().Loc;
    std::string Name = advance().Text;
    AggregateOp Op;
    if (Name == "count")
      Op = AggregateOp::Count;
    else if (Name == "sum")
      Op = AggregateOp::Sum;
    else if (Name == "min")
      Op = AggregateOp::Min;
    else
      Op = AggregateOp::Max;

    std::unique_ptr<Argument> Target;
    if (Op != AggregateOp::Count) {
      Target = parseUnary();
      if (!Target)
        return nullptr;
    }
    if (!expect(TokenKind::Colon, "':' in aggregate"))
      return nullptr;
    if (!expect(TokenKind::LBrace, "'{' in aggregate"))
      return nullptr;
    std::vector<std::unique_ptr<Literal>> Body;
    do {
      auto Lit = parseLiteral();
      if (!Lit)
        return nullptr;
      Body.push_back(std::move(Lit));
    } while (accept(TokenKind::Comma));
    if (!expect(TokenKind::RBrace, "'}' in aggregate"))
      return nullptr;
    return std::make_unique<Aggregator>(Op, std::move(Target),
                                        std::move(Body), Loc);
  }

  static std::unique_ptr<Argument> makeBinary(FunctorOp Op,
                                              std::unique_ptr<Argument> Lhs,
                                              std::unique_ptr<Argument> Rhs,
                                              SrcLoc Loc) {
    std::vector<std::unique_ptr<Argument>> Args;
    Args.push_back(std::move(Lhs));
    Args.push_back(std::move(Rhs));
    return std::make_unique<Functor>(Op, std::move(Args), Loc);
  }

  static std::unique_ptr<Argument>
  makeUnary(FunctorOp Op, std::unique_ptr<Argument> Operand, SrcLoc Loc) {
    std::vector<std::unique_ptr<Argument>> Args;
    Args.push_back(std::move(Operand));
    return std::make_unique<Functor>(Op, std::move(Args), Loc);
  }

  std::vector<Token> Tokens;
  std::vector<std::string> &Errors;
  std::size_t Pos = 0;
};

} // namespace

ParseResult stird::ast::parseProgram(const std::string &Source) {
  ParseResult Result;
  std::vector<Token> Tokens = lex(Source, Result.Errors);
  Parser P(std::move(Tokens), Result.Errors);
  Result.Prog = P.run();
  return Result;
}
