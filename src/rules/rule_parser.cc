#include "rules/rule_parser.h"

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

#include "common/strings.h"

namespace olap {

namespace {

// Minimal token stream over the rule text.
struct Token {
  enum Kind { kIdent, kNumber, kSymbol, kEnd } kind = kEnd;
  std::string text;
  double number = 0.0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) { Advance(); }

  const Token& peek() const { return current_; }
  // Byte offset of the current token.
  size_t offset() const { return token_start_; }
  // The first lexical error (a bad numeric literal); lexing stops there and
  // the token stream reads as ended.
  const Status& status() const { return status_; }
  Token Take() {
    Token t = current_;
    Advance();
    return t;
  }
  bool TakeSymbol(char c) {
    if (current_.kind == Token::kSymbol && current_.text[0] == c) {
      Advance();
      return true;
    }
    return false;
  }
  bool TakeKeyword(std::string_view kw) {
    if (current_.kind == Token::kIdent && EqualsIgnoreCase(current_.text, kw)) {
      Advance();
      return true;
    }
    return false;
  }

 private:
  void Advance() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    token_start_ = pos_;
    if (pos_ >= text_.size()) {
      current_ = Token{Token::kEnd, "", 0.0};
      return;
    }
    char c = text_[pos_];
    if (c == '[') {  // Bracketed name: anything up to ']'.
      size_t close = text_.find(']', pos_);
      if (close == std::string_view::npos) close = text_.size();
      current_ = Token{Token::kIdent,
                       std::string(text_.substr(pos_ + 1, close - pos_ - 1)), 0.0};
      pos_ = close < text_.size() ? close + 1 : close;
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '.') {
      size_t end = pos_;
      while (end < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[end])) ||
              text_[end] == '.')) {
        ++end;
      }
      std::string num(text_.substr(pos_, end - pos_));
      Result<double> number = ParseNumberLiteral(num, pos_);
      if (!number.ok()) {
        status_ = number.status();
        current_ = Token{Token::kEnd, "", 0.0};
        pos_ = text_.size();
        return;
      }
      current_ = Token{Token::kNumber, num, *number};
      pos_ = end;
      return;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t end = pos_;
      while (end < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[end])) ||
              text_[end] == '_' || text_[end] == '%')) {
        ++end;
      }
      current_ = Token{Token::kIdent, std::string(text_.substr(pos_, end - pos_)), 0.0};
      pos_ = end;
      return;
    }
    current_ = Token{Token::kSymbol, std::string(1, c), 0.0};
    ++pos_;
  }

  std::string_view text_;
  size_t pos_ = 0;
  size_t token_start_ = 0;
  Token current_;
  Status status_;
};

class RuleParser {
 public:
  RuleParser(const Schema& schema, std::string_view text)
      : schema_(schema), lexer_(text), text_(text) {}

  // A lexical error outranks whatever the parser made of the truncated
  // token stream.
  Result<Rule> Parse() {
    Result<Rule> rule = ParseTokens();
    if (!lexer_.status().ok()) return lexer_.status();
    return rule;
  }

 private:
  Result<Rule> ParseTokens() {
    Rule rule;
    rule.source_text = std::string(StripWhitespace(text_));
    if (lexer_.TakeKeyword("FOR")) {
      OLAP_RETURN_IF_ERROR(ParseScope(&rule));
      if (!lexer_.TakeSymbol(',')) {
        return Status::InvalidArgument("expected ',' after rule scope");
      }
    }
    Result<MemberId> target = ParseMeasureName("rule target");
    if (!target.ok()) return target.status();
    rule.target = *target;
    if (!lexer_.TakeSymbol('=')) {
      return Status::InvalidArgument("expected '=' after rule target");
    }
    Result<std::unique_ptr<Expr>> expr = ParseExpr();
    if (!expr.ok()) return expr.status();
    rule.formula = std::move(*expr);
    if (lexer_.peek().kind != Token::kEnd) {
      return Status::InvalidArgument("trailing tokens after rule expression");
    }
    return rule;
  }

  Status ParseScope(Rule* rule) {
    while (true) {
      Token dim_tok = lexer_.Take();
      if (dim_tok.kind != Token::kIdent) {
        return Status::InvalidArgument("expected dimension name in rule scope");
      }
      Result<int> dim = schema_.FindDimension(dim_tok.text);
      if (!dim.ok()) return dim.status();
      if (!lexer_.TakeSymbol('=')) {
        return Status::InvalidArgument("expected '=' in rule scope");
      }
      Token mem_tok = lexer_.Take();
      if (mem_tok.kind != Token::kIdent) {
        return Status::InvalidArgument("expected member name in rule scope");
      }
      Result<MemberId> member = schema_.dimension(*dim).FindMember(mem_tok.text);
      if (!member.ok()) return member.status();
      rule->scope.push_back(ScopeRestriction{*dim, *member});
      if (!lexer_.TakeKeyword("AND")) return Status::Ok();
    }
  }

  Result<MemberId> ParseMeasureName(const char* what) {
    Token tok = lexer_.Take();
    if (tok.kind != Token::kIdent) {
      return Status::InvalidArgument(std::string("expected measure name for ") + what);
    }
    int measure_dim = schema_.MeasureDimension();
    if (measure_dim < 0) {
      return Status::FailedPrecondition("schema has no measure dimension");
    }
    return schema_.dimension(measure_dim).FindMember(tok.text);
  }

  // kInvalidArgument once `levels` passes kMaxRuleNesting.
  Status CheckNesting(int levels) const {
    if (levels <= kMaxRuleNesting) return Status::Ok();
    return Status::InvalidArgument(
        "rule expression nests deeper than " +
        std::to_string(kMaxRuleNesting) + " levels (at offset " +
        std::to_string(lexer_.offset()) + ")");
  }

  // expr := term (('+'|'-') term)*
  Result<std::unique_ptr<Expr>> ParseExpr() {
    Result<std::unique_ptr<Expr>> lhs = ParseTerm();
    if (!lhs.ok()) return lhs.status();
    std::unique_ptr<Expr> node = std::move(*lhs);
    int height = height_;
    while (true) {
      Expr::Op op = Expr::Op::kAdd;
      if (lexer_.TakeSymbol('+')) {
        op = Expr::Op::kAdd;
      } else if (lexer_.TakeSymbol('-')) {
        op = Expr::Op::kSub;
      } else {
        height_ = height;
        return node;
      }
      Result<std::unique_ptr<Expr>> rhs = ParseTerm();
      if (!rhs.ok()) return rhs.status();
      height = std::max(height, height_) + 1;
      OLAP_RETURN_IF_ERROR(CheckNesting(height));
      node = Expr::Binary(op, std::move(node), std::move(*rhs));
    }
  }

  // term := factor (('*'|'/') factor)*
  Result<std::unique_ptr<Expr>> ParseTerm() {
    Result<std::unique_ptr<Expr>> lhs = ParseFactor();
    if (!lhs.ok()) return lhs.status();
    std::unique_ptr<Expr> node = std::move(*lhs);
    int height = height_;
    while (true) {
      Expr::Op op = Expr::Op::kMul;
      if (lexer_.TakeSymbol('*')) {
        op = Expr::Op::kMul;
      } else if (lexer_.TakeSymbol('/')) {
        op = Expr::Op::kDiv;
      } else {
        height_ = height;
        return node;
      }
      Result<std::unique_ptr<Expr>> rhs = ParseFactor();
      if (!rhs.ok()) return rhs.status();
      height = std::max(height, height_) + 1;
      OLAP_RETURN_IF_ERROR(CheckNesting(height));
      node = Expr::Binary(op, std::move(node), std::move(*rhs));
    }
  }

  // factor := number | measure | '(' expr ')' | '-' factor
  Result<std::unique_ptr<Expr>> ParseFactor() {
    if (lexer_.TakeSymbol('(')) {
      OLAP_RETURN_IF_ERROR(CheckNesting(++depth_));
      Result<std::unique_ptr<Expr>> inner = ParseExpr();
      --depth_;
      if (!inner.ok()) return inner.status();
      if (!lexer_.TakeSymbol(')')) {
        return Status::InvalidArgument("expected ')' in rule expression");
      }
      return inner;
    }
    if (lexer_.TakeSymbol('-')) {
      OLAP_RETURN_IF_ERROR(CheckNesting(++depth_));
      Result<std::unique_ptr<Expr>> inner = ParseFactor();
      --depth_;
      if (!inner.ok()) return inner.status();
      OLAP_RETURN_IF_ERROR(CheckNesting(++height_));
      return std::unique_ptr<Expr>(
          Expr::Binary(Expr::Op::kSub, Expr::Constant(0.0), std::move(*inner)));
    }
    height_ = 1;
    Token tok = lexer_.Take();
    if (tok.kind == Token::kNumber) {
      return std::unique_ptr<Expr>(Expr::Constant(tok.number));
    }
    if (tok.kind == Token::kIdent) {
      int measure_dim = schema_.MeasureDimension();
      if (measure_dim < 0) {
        return Status::FailedPrecondition("schema has no measure dimension");
      }
      Result<MemberId> m = schema_.dimension(measure_dim).FindMember(tok.text);
      if (!m.ok()) return m.status();
      return std::unique_ptr<Expr>(Expr::MeasureRef(*m, tok.text));
    }
    return Status::InvalidArgument("unexpected token '" + tok.text +
                                   "' in rule expression");
  }

  const Schema& schema_;
  Lexer lexer_;
  std::string_view text_;
  int depth_ = 0;   // Parentheses and unary minuses open.
  int height_ = 0;  // Height of the tree the last parse function returned.
};

}  // namespace

Result<Rule> ParseRule(const Schema& schema, std::string_view text) {
  return RuleParser(schema, text).Parse();
}

}  // namespace olap
