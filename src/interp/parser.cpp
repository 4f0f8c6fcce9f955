#include "interp/parser.h"

#include <algorithm>

#include "interp/lexer.h"

namespace mrs {
namespace minipy {

namespace {

/// Binding powers for the Pratt parser (higher binds tighter).
int BindingPower(TokenType type) {
  switch (type) {
    case TokenType::kOr: return 10;
    case TokenType::kAnd: return 20;
    case TokenType::kLess:
    case TokenType::kLessEq:
    case TokenType::kGreater:
    case TokenType::kGreaterEq:
    case TokenType::kEqEq:
    case TokenType::kNotEq: return 30;
    case TokenType::kPlus:
    case TokenType::kMinus: return 40;
    case TokenType::kStar:
    case TokenType::kSlash:
    case TokenType::kSlashSlash:
    case TokenType::kPercent: return 50;
    case TokenType::kStarStar: return 60;
    default: return -1;
  }
}

BinOp ToBinOp(TokenType type) {
  switch (type) {
    case TokenType::kPlus: return BinOp::kAdd;
    case TokenType::kMinus: return BinOp::kSub;
    case TokenType::kStar: return BinOp::kMul;
    case TokenType::kSlash: return BinOp::kDiv;
    case TokenType::kSlashSlash: return BinOp::kFloorDiv;
    case TokenType::kPercent: return BinOp::kMod;
    case TokenType::kStarStar: return BinOp::kPow;
    case TokenType::kLess: return BinOp::kLt;
    case TokenType::kLessEq: return BinOp::kLe;
    case TokenType::kGreater: return BinOp::kGt;
    case TokenType::kGreaterEq: return BinOp::kGe;
    case TokenType::kEqEq: return BinOp::kEq;
    case TokenType::kNotEq: return BinOp::kNe;
    case TokenType::kAnd: return BinOp::kAnd;
    case TokenType::kOr: return BinOp::kOr;
    default: return BinOp::kAdd;
  }
}

/// Deepest expression nesting Parse accepts: parentheses, call and index
/// arguments, unary operators and `**` chains each recurse once per level,
/// and each operator a left-associative chain folds sinks the tree built so
/// far one level.  So the cap bounds both the parser's stack and the height
/// of the tree it returns, which later passes walk recursively.
constexpr int kMaxExpressionDepth = 256;

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<std::shared_ptr<Module>> Run() {
    auto module = std::make_shared<Module>();
    while (!Check(TokenType::kEof)) {
      MRS_ASSIGN_OR_RETURN(StmtPtr stmt, ParseStatement());
      module->body.push_back(std::move(stmt));
    }
    return module;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[pos_++]; }
  bool Check(TokenType type) const { return Peek().type == type; }
  bool Match(TokenType type) {
    if (!Check(type)) return false;
    ++pos_;
    return true;
  }

  Status Expect(TokenType type, std::string_view what) {
    if (!Check(type)) {
      return InvalidArgumentError(
          "line " + std::to_string(Peek().line) + ": expected " +
          std::string(TokenTypeName(type)) + " " + std::string(what) +
          ", got " + std::string(TokenTypeName(Peek().type)));
    }
    ++pos_;
    return Status::Ok();
  }

  Status ErrorHere(const std::string& message) {
    return InvalidArgumentError("line " + std::to_string(Peek().line) + ": " +
                                message);
  }

  /// One level of expression nesting, held for the guard's scope.
  struct Nesting {
    explicit Nesting(int* d) : depth(d) { ++*depth; }
    ~Nesting() { --*depth; }
    int* depth;
  };

  Status CheckDepth() {
    peak_ = std::max(peak_, depth_);
    if (peak_ <= kMaxExpressionDepth) return Status::Ok();
    return ErrorHere("expression nested deeper than " +
                     std::to_string(kMaxExpressionDepth) + " levels");
  }

  Result<std::vector<StmtPtr>> ParseBlock() {
    MRS_RETURN_IF_ERROR(Expect(TokenType::kColon, "before block"));
    MRS_RETURN_IF_ERROR(Expect(TokenType::kNewline, "after ':'"));
    MRS_RETURN_IF_ERROR(Expect(TokenType::kIndent, "to open block"));
    std::vector<StmtPtr> body;
    while (!Check(TokenType::kDedent) && !Check(TokenType::kEof)) {
      MRS_ASSIGN_OR_RETURN(StmtPtr stmt, ParseStatement());
      body.push_back(std::move(stmt));
    }
    MRS_RETURN_IF_ERROR(Expect(TokenType::kDedent, "to close block"));
    if (body.empty()) return ErrorHere("empty block");
    return body;
  }

  Result<StmtPtr> ParseStatement() {
    int line = Peek().line;
    auto stmt = std::make_unique<Stmt>();
    stmt->line = line;
    stmt->col = Peek().column;

    if (Match(TokenType::kDef)) {
      stmt->kind = Stmt::Kind::kDef;
      if (!Check(TokenType::kName)) return ErrorHere("expected function name");
      stmt->target = Advance().text;
      MRS_RETURN_IF_ERROR(Expect(TokenType::kLParen, "after function name"));
      if (!Check(TokenType::kRParen)) {
        while (true) {
          if (!Check(TokenType::kName)) return ErrorHere("expected parameter");
          stmt->params.push_back(Advance().text);
          if (!Match(TokenType::kComma)) break;
        }
      }
      MRS_RETURN_IF_ERROR(Expect(TokenType::kRParen, "after parameters"));
      MRS_ASSIGN_OR_RETURN(stmt->body, ParseBlock());
      return stmt;
    }

    if (Match(TokenType::kReturn)) {
      stmt->kind = Stmt::Kind::kReturn;
      if (!Check(TokenType::kNewline)) {
        MRS_ASSIGN_OR_RETURN(stmt->expr, ParseExpression(0));
      }
      MRS_RETURN_IF_ERROR(Expect(TokenType::kNewline, "after return"));
      return stmt;
    }

    if (Match(TokenType::kIf)) {
      stmt->kind = Stmt::Kind::kIf;
      MRS_ASSIGN_OR_RETURN(ExprPtr cond, ParseExpression(0));
      MRS_ASSIGN_OR_RETURN(std::vector<StmtPtr> body, ParseBlock());
      stmt->arm_conds.push_back(std::move(cond));
      stmt->arm_bodies.push_back(std::move(body));
      while (Match(TokenType::kElif)) {
        MRS_ASSIGN_OR_RETURN(ExprPtr elif_cond, ParseExpression(0));
        MRS_ASSIGN_OR_RETURN(std::vector<StmtPtr> elif_body, ParseBlock());
        stmt->arm_conds.push_back(std::move(elif_cond));
        stmt->arm_bodies.push_back(std::move(elif_body));
      }
      if (Match(TokenType::kElse)) {
        MRS_ASSIGN_OR_RETURN(stmt->else_body, ParseBlock());
      }
      return stmt;
    }

    if (Match(TokenType::kWhile)) {
      stmt->kind = Stmt::Kind::kWhile;
      MRS_ASSIGN_OR_RETURN(stmt->cond, ParseExpression(0));
      MRS_ASSIGN_OR_RETURN(stmt->body, ParseBlock());
      return stmt;
    }

    if (Match(TokenType::kFor)) {
      stmt->kind = Stmt::Kind::kFor;
      if (!Check(TokenType::kName)) return ErrorHere("expected loop variable");
      stmt->target = Advance().text;
      MRS_RETURN_IF_ERROR(Expect(TokenType::kIn, "in for statement"));
      MRS_ASSIGN_OR_RETURN(stmt->cond, ParseExpression(0));
      MRS_ASSIGN_OR_RETURN(stmt->body, ParseBlock());
      return stmt;
    }

    if (Match(TokenType::kBreak)) {
      stmt->kind = Stmt::Kind::kBreak;
      MRS_RETURN_IF_ERROR(Expect(TokenType::kNewline, "after break"));
      return stmt;
    }
    if (Match(TokenType::kContinue)) {
      stmt->kind = Stmt::Kind::kContinue;
      MRS_RETURN_IF_ERROR(Expect(TokenType::kNewline, "after continue"));
      return stmt;
    }
    if (Match(TokenType::kPass)) {
      stmt->kind = Stmt::Kind::kPass;
      MRS_RETURN_IF_ERROR(Expect(TokenType::kNewline, "after pass"));
      return stmt;
    }

    // Expression, assignment, or augmented assignment.
    MRS_ASSIGN_OR_RETURN(ExprPtr first, ParseExpression(0));
    if (Match(TokenType::kAssign)) {
      MRS_ASSIGN_OR_RETURN(ExprPtr value, ParseExpression(0));
      if (first->kind == Expr::Kind::kName) {
        stmt->kind = Stmt::Kind::kAssign;
        stmt->target = first->name;
        stmt->expr = std::move(value);
      } else if (first->kind == Expr::Kind::kIndex) {
        stmt->kind = Stmt::Kind::kAssign;
        stmt->index_base = std::move(first->lhs);
        stmt->index_expr = std::move(first->rhs);
        stmt->expr = std::move(value);
      } else {
        return ErrorHere("invalid assignment target");
      }
      MRS_RETURN_IF_ERROR(Expect(TokenType::kNewline, "after assignment"));
      return stmt;
    }
    TokenType aug = Peek().type;
    if (aug == TokenType::kPlusAssign || aug == TokenType::kMinusAssign ||
        aug == TokenType::kStarAssign || aug == TokenType::kSlashAssign) {
      Advance();
      if (first->kind != Expr::Kind::kName) {
        return ErrorHere("augmented assignment target must be a name");
      }
      stmt->kind = Stmt::Kind::kAugAssign;
      stmt->target = first->name;
      switch (aug) {
        case TokenType::kPlusAssign: stmt->aug_op = BinOp::kAdd; break;
        case TokenType::kMinusAssign: stmt->aug_op = BinOp::kSub; break;
        case TokenType::kStarAssign: stmt->aug_op = BinOp::kMul; break;
        default: stmt->aug_op = BinOp::kDiv; break;
      }
      MRS_ASSIGN_OR_RETURN(stmt->expr, ParseExpression(0));
      MRS_RETURN_IF_ERROR(Expect(TokenType::kNewline, "after assignment"));
      return stmt;
    }

    stmt->kind = Stmt::Kind::kExpr;
    stmt->expr = std::move(first);
    MRS_RETURN_IF_ERROR(Expect(TokenType::kNewline, "after expression"));
    return stmt;
  }

  Result<ExprPtr> ParseExpression(int min_bp) {
    Nesting level(&depth_);
    // The chain tracks the deepest level of its own tree, and hands it to
    // the enclosing chain on return: the loop below folds without
    // recursing, but each fold sinks everything built so far.
    const int outer_peak = peak_;
    peak_ = depth_;
    MRS_RETURN_IF_ERROR(CheckDepth());
    MRS_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    while (true) {
      TokenType op = Peek().type;
      int bp = BindingPower(op);
      if (bp < 0 || bp < min_bp) break;
      Advance();
      ++peak_;
      MRS_RETURN_IF_ERROR(CheckDepth());
      // Right associativity for **; left for everything else.
      int next_bp = (op == TokenType::kStarStar) ? bp : bp + 1;
      MRS_ASSIGN_OR_RETURN(ExprPtr rhs, ParseExpression(next_bp));
      auto node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kBinary;
      node->line = lhs->line;
      node->col = lhs->col;
      node->bin_op = ToBinOp(op);
      node->lhs = std::move(lhs);
      node->rhs = std::move(rhs);
      lhs = std::move(node);
    }
    peak_ = std::max(peak_, outer_peak);
    return lhs;
  }

  Result<ExprPtr> ParseUnary() {
    int line = Peek().line;
    int col = Peek().column;
    UnOp op;
    if (Match(TokenType::kMinus)) {
      op = UnOp::kNeg;
    } else if (Match(TokenType::kNot)) {
      op = UnOp::kNot;
    } else {
      return ParsePostfix();
    }
    Nesting level(&depth_);
    MRS_RETURN_IF_ERROR(CheckDepth());
    MRS_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
    auto node = std::make_unique<Expr>();
    node->kind = Expr::Kind::kUnary;
    node->line = line;
    node->col = col;
    node->un_op = op;
    node->lhs = std::move(operand);
    return node;
  }

  Result<ExprPtr> ParsePostfix() {
    MRS_ASSIGN_OR_RETURN(ExprPtr expr, ParseAtom());
    while (true) {
      if (Match(TokenType::kLParen)) {
        auto call = std::make_unique<Expr>();
        call->kind = Expr::Kind::kCall;
        call->line = expr->line;
        call->col = expr->col;
        if (expr->kind != Expr::Kind::kName) {
          return ErrorHere("only named functions can be called");
        }
        call->name = expr->name;
        if (!Check(TokenType::kRParen)) {
          while (true) {
            MRS_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpression(0));
            call->args.push_back(std::move(arg));
            if (!Match(TokenType::kComma)) break;
          }
        }
        MRS_RETURN_IF_ERROR(Expect(TokenType::kRParen, "after call arguments"));
        expr = std::move(call);
        continue;
      }
      if (Match(TokenType::kLBracket)) {
        auto index = std::make_unique<Expr>();
        index->kind = Expr::Kind::kIndex;
        index->line = expr->line;
        index->col = expr->col;
        index->lhs = std::move(expr);
        MRS_ASSIGN_OR_RETURN(index->rhs, ParseExpression(0));
        MRS_RETURN_IF_ERROR(Expect(TokenType::kRBracket, "after index"));
        expr = std::move(index);
        continue;
      }
      break;
    }
    return expr;
  }

  Result<ExprPtr> ParseAtom() {
    auto node = std::make_unique<Expr>();
    node->line = Peek().line;
    node->col = Peek().column;
    const Token& t = Peek();
    switch (t.type) {
      case TokenType::kInt:
        node->kind = Expr::Kind::kIntLit;
        node->int_value = t.int_value;
        Advance();
        return node;
      case TokenType::kFloat:
        node->kind = Expr::Kind::kFloatLit;
        node->float_value = t.float_value;
        Advance();
        return node;
      case TokenType::kString:
        node->kind = Expr::Kind::kStringLit;
        node->name = t.text;
        Advance();
        return node;
      case TokenType::kTrue:
      case TokenType::kFalse:
        node->kind = Expr::Kind::kBoolLit;
        node->bool_value = (t.type == TokenType::kTrue);
        Advance();
        return node;
      case TokenType::kNone:
        node->kind = Expr::Kind::kNoneLit;
        Advance();
        return node;
      case TokenType::kName:
        node->kind = Expr::Kind::kName;
        node->name = t.text;
        Advance();
        return node;
      case TokenType::kLParen: {
        Advance();
        MRS_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpression(0));
        MRS_RETURN_IF_ERROR(Expect(TokenType::kRParen, "to close '('"));
        return inner;
      }
      case TokenType::kLBracket: {
        Advance();
        node->kind = Expr::Kind::kListLit;
        if (!Check(TokenType::kRBracket)) {
          while (true) {
            MRS_ASSIGN_OR_RETURN(ExprPtr elem, ParseExpression(0));
            node->args.push_back(std::move(elem));
            if (!Match(TokenType::kComma)) break;
          }
        }
        MRS_RETURN_IF_ERROR(Expect(TokenType::kRBracket, "to close '['"));
        return node;
      }
      default:
        return ErrorHere("unexpected token " +
                         std::string(TokenTypeName(t.type)));
    }
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;  // expression levels open around pos_
  int peak_ = 0;   // deepest level of the current chain's tree so far
};

}  // namespace

Result<std::shared_ptr<Module>> Parse(std::string_view source) {
  MRS_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source));
  return Parser(std::move(tokens)).Run();
}

}  // namespace minipy
}  // namespace mrs
