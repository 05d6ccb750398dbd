#include "mdx/parser.h"

#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "common/strings.h"
#include "mdx/lexer.h"

namespace olap::mdx {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<ParsedQuery> Parse() {
    if (TakeKeyword("COMPARE")) {
      // COMPARE <query> VERSUS <query>: scenario-vs-scenario comparison.
      Result<ParsedQuery> a = ParseOne();
      if (!a.ok()) return a.status();
      if (!TakeKeyword("VERSUS")) {
        return Error("expected VERSUS between compared queries");
      }
      Result<ParsedQuery> b = ParseOne();
      if (!b.ok()) return b.status();
      if (peek().kind != Token::kEnd) {
        return Error("unexpected trailing input: '" + peek().text + "'");
      }
      a->compare_to = std::make_unique<ParsedQuery>(*std::move(b));
      return a;
    }
    Result<ParsedQuery> q = ParseOne();
    if (!q.ok()) return q.status();
    if (peek().kind != Token::kEnd) {
      return Error("unexpected trailing input: '" + peek().text + "'");
    }
    return q;
  }

 private:
  // One full query, stopping before any trailing token the caller owns
  // (the end of input, or VERSUS in a COMPARE).
  Result<ParsedQuery> ParseOne() {
    ParsedQuery q;
    if (TakeKeyword("WITH")) {
      OLAP_RETURN_IF_ERROR(ParseWithItems(&q));
    }
    if (!TakeKeyword("SELECT")) {
      return Error("expected SELECT");
    }
    while (true) {
      AxisSpec axis;
      if (TakeKeyword("NON")) {
        if (!TakeKeyword("EMPTY")) return Error("expected EMPTY after NON");
        axis.non_empty = true;
      }
      Result<std::unique_ptr<SetExpr>> set = ParseSetExpr();
      if (!set.ok()) return set.status();
      axis.set = std::move(*set);
      if (TakeKeyword("DIMENSION")) {
        if (!TakeKeyword("PROPERTIES")) return Error("expected PROPERTIES");
        while (true) {
          Result<std::string> name = TakeName("property name");
          if (!name.ok()) return name.status();
          axis.properties.push_back(*name);
          if (!TakeSymbol(',')) break;
          // A comma can also start the next axis spec: only continue when
          // the next token is a name followed by another name/ON; simplest
          // is to stop property lists at the first comma NOT followed by a
          // bracketed name. Properties in this dialect are bracketed.
          if (peek().kind != Token::kBracketName) {
            PushBackComma();
            break;
          }
        }
      }
      if (!TakeKeyword("ON")) return Error("expected ON after axis set");
      OLAP_RETURN_IF_ERROR(ParseAxisName(&axis));
      q.axes.push_back(std::move(axis));
      if (!TakeSymbol(',')) break;
    }
    if (!TakeKeyword("FROM")) return Error("expected FROM");
    Result<std::vector<std::string>> cube = ParsePathComponents();
    if (!cube.ok()) return cube.status();
    q.cube_name = std::move(*cube);
    if (TakeKeyword("WHERE")) {
      Result<std::unique_ptr<SetExpr>> tuple = ParseSetExpr();
      if (!tuple.ok()) return tuple.status();
      q.where_tuple = std::move(*tuple);
    }
    return q;
  }

  // --- token helpers -------------------------------------------------------

  const Token& peek(int ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  Token Take() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }
  bool TakeSymbol(char c) {
    if (peek().kind == Token::kSymbol && peek().text[0] == c) {
      Take();
      return true;
    }
    return false;
  }
  void PushBackComma() { --pos_; }  // Undo one TakeSymbol(',').
  bool PeekKeyword(std::string_view kw, int ahead = 0) const {
    return peek(ahead).kind == Token::kIdent &&
           EqualsIgnoreCase(peek(ahead).text, kw);
  }
  bool TakeKeyword(std::string_view kw) {
    if (PeekKeyword(kw)) {
      Take();
      return true;
    }
    return false;
  }
  Result<std::string> TakeName(const char* what) {
    if (peek().kind == Token::kIdent || peek().kind == Token::kBracketName) {
      return Take().text;
    }
    return Status::InvalidArgument(std::string("expected ") + what + " near '" +
                                   peek().text + "'");
  }
  Status Error(std::string msg) const {
    return Status::InvalidArgument(msg + " (at offset " +
                                   std::to_string(peek().offset) + ")");
  }
  // Takes the numeric token of an integer context (an axis ordinal, a
  // count, a depth or a level): `expected` names it when the token is not a
  // number, and a value outside [0, INT_MAX] is rejected before the cast.
  Result<int> TakeCount(const char* expected) {
    if (peek().kind != Token::kNumber) return Error(expected);
    const double value = peek().number;
    if (!(value >= 0.0 &&
          value <= static_cast<double>(std::numeric_limits<int>::max()))) {
      return Error("'" + peek().text + "' is outside [0, " +
                   std::to_string(std::numeric_limits<int>::max()) + "]");
    }
    Take();
    return static_cast<int>(value);
  }

  // --- WITH clause ---------------------------------------------------------

  Status ParseWithItems(ParsedQuery* q) {
    while (true) {
      if (TakeKeyword("PERSPECTIVE")) {
        PerspectiveClause clause;
        OLAP_RETURN_IF_ERROR(ParsePerspective(&clause));
        q->perspectives.push_back(std::move(clause));
      } else if (TakeKeyword("CHANGES")) {
        ChangesClause clause;
        OLAP_RETURN_IF_ERROR(ParseChanges(&clause));
        q->changes.push_back(std::move(clause));
      } else if (TakeKeyword("INTRODUCE")) {
        IntroduceClause clause;
        OLAP_RETURN_IF_ERROR(ParseIntroduce(&clause));
        q->introduces.push_back(std::move(clause));
      } else if (TakeKeyword("ALLOCATION")) {
        OLAP_RETURN_IF_ERROR(ParseAllocations(q));
      } else {
        return Status::Ok();
      }
    }
  }

  Status ParseAllocations(ParsedQuery* q) {
    if (!TakeSymbol('{')) return Error("expected '{' after ALLOCATION");
    while (true) {
      if (!TakeSymbol('(')) return Error("expected '(' starting allocation");
      AllocationClause clause;
      if (peek().kind != Token::kNumber) {
        return Error("expected allocation fraction");
      }
      clause.fraction = Take().number;
      if (!TakeSymbol(',')) return Error("expected ',' after fraction");
      Result<std::vector<std::string>> from = ParsePathComponents();
      if (!from.ok()) return from.status();
      clause.from_path = std::move(*from);
      if (!TakeSymbol(',')) return Error("expected ',' after allocation source");
      Result<std::vector<std::string>> to = ParsePathComponents();
      if (!to.ok()) return to.status();
      clause.to_path = std::move(*to);
      if (TakeSymbol(',')) {
        Result<std::unique_ptr<SetExpr>> region = ParseSetExpr();
        if (!region.ok()) return region.status();
        clause.region = std::move(*region);
      }
      if (!TakeSymbol(')')) return Error("expected ')' closing allocation");
      q->allocations.push_back(std::move(clause));
      if (!TakeSymbol(',')) break;
    }
    if (!TakeSymbol('}')) return Error("expected '}' after allocations");
    return Status::Ok();
  }

  Status ParsePerspective(PerspectiveClause* p) {
    if (!TakeSymbol('{')) return Error("expected '{' after PERSPECTIVE");
    while (true) {
      bool parenthesised = TakeSymbol('(');
      Result<std::string> name = TakeName("perspective member");
      if (!name.ok()) return name.status();
      p->moments.push_back(*name);
      if (parenthesised && !TakeSymbol(')')) {
        return Error("expected ')' after perspective member");
      }
      if (!TakeSymbol(',')) break;
    }
    if (!TakeSymbol('}')) return Error("expected '}' after perspective list");
    if (!TakeKeyword("FOR")) return Error("expected FOR <dimension>");
    Result<std::string> dim = TakeName("varying dimension name");
    if (!dim.ok()) return dim.status();
    p->varying_dim = *dim;
    OLAP_RETURN_IF_ERROR(ParseSemantics(&p->semantics));
    ParseMode(&p->mode);
    return Status::Ok();
  }

  Status ParseSemantics(std::string* out) {
    if (TakeKeyword("STATIC")) {
      *out = "STATIC";
      return Status::Ok();
    }
    bool extended = TakeKeyword("EXTENDED");
    bool dynamic = TakeKeyword("DYNAMIC");
    if (TakeKeyword("EXTENDED")) extended = true;  // DYNAMIC EXTENDED ...
    if (TakeKeyword("FORWARD")) {
      *out = extended ? "EXTENDED FORWARD" : "FORWARD";
      return Status::Ok();
    }
    if (TakeKeyword("BACKWARD")) {
      *out = extended ? "EXTENDED BACKWARD" : "BACKWARD";
      return Status::Ok();
    }
    if (extended || dynamic) {
      return Error("expected FORWARD or BACKWARD after DYNAMIC/EXTENDED");
    }
    out->clear();  // No semantics given: binder defaults to STATIC.
    return Status::Ok();
  }

  void ParseMode(std::string* out) {
    if (TakeKeyword("VISUAL")) {
      *out = "VISUAL";
      return;
    }
    if (TakeKeyword("NONVISUAL")) {
      *out = "NONVISUAL";
      return;
    }
    if (PeekKeyword("NON") && peek(1).kind == Token::kSymbol &&
        peek(1).text == "-" && PeekKeyword("VISUAL", 2)) {
      Take();
      Take();
      Take();
      *out = "NONVISUAL";
      return;
    }
    out->clear();  // Default: non-visual (Sec. 6.1).
  }

  // INTRODUCE {(<name>, <parent> [, <moment>] [, CLONE|TRANSFER <source>
  // <factor>])}, ... FOR <dim> [<mode>]. Without a moment the member is a
  // new *inner* member (a department); with one it is a new leaf whose
  // instance is valid from that moment on.
  Status ParseIntroduce(IntroduceClause* c) {
    if (!TakeSymbol('{')) return Error("expected '{' after INTRODUCE");
    while (true) {
      if (!TakeSymbol('(')) return Error("expected '(' starting introduction");
      IntroduceSpec spec;
      Result<std::string> name = TakeName("introduced member name");
      if (!name.ok()) return name.status();
      spec.name = *name;
      if (!TakeSymbol(',')) return Error("expected ',' after introduced member");
      Result<std::string> parent = TakeName("introduction parent");
      if (!parent.ok()) return parent.status();
      spec.parent = *parent;
      if (TakeSymbol(',') && !PeekKeyword("CLONE") && !PeekKeyword("TRANSFER")) {
        Result<std::string> moment = TakeName("introduction moment");
        if (!moment.ok()) return moment.status();
        spec.moment = *moment;
        if (TakeSymbol(',') && !PeekKeyword("CLONE") && !PeekKeyword("TRANSFER")) {
          return Error("expected CLONE or TRANSFER seeding rule");
        }
      }
      if (TakeKeyword("CLONE")) {
        spec.seed = "CLONE";
      } else if (TakeKeyword("TRANSFER")) {
        spec.seed = "TRANSFER";
      }
      if (!spec.seed.empty()) {
        Result<std::string> source = TakeName("seed source member");
        if (!source.ok()) return source.status();
        spec.source = *source;
        if (peek().kind != Token::kNumber) {
          return Error("expected seed factor");
        }
        spec.factor = Take().number;
      }
      if (!TakeSymbol(')')) return Error("expected ')' closing introduction");
      c->members.push_back(std::move(spec));
      if (!TakeSymbol(',')) break;
    }
    if (!TakeSymbol('}')) return Error("expected '}' after introductions");
    if (!TakeKeyword("FOR")) return Error("expected FOR <dimension> after INTRODUCE");
    Result<std::string> dim = TakeName("varying dimension name");
    if (!dim.ok()) return dim.status();
    c->varying_dim = *dim;
    ParseMode(&c->mode);
    return Status::Ok();
  }

  Status ParseChanges(ChangesClause* c) {
    if (!TakeSymbol('{')) return Error("expected '{' after CHANGES");
    while (true) {
      if (!TakeSymbol('(')) return Error("expected '(' starting change tuple");
      ChangeSpec change;
      Result<std::unique_ptr<SetExpr>> member = ParseSetExpr();
      if (!member.ok()) return member.status();
      change.member = std::move(*member);
      if (!TakeSymbol(',')) return Error("expected ',' in change tuple");
      Result<std::string> old_parent = TakeName("old parent");
      if (!old_parent.ok()) return old_parent.status();
      change.old_parent = *old_parent;
      if (!TakeSymbol(',')) return Error("expected ',' in change tuple");
      Result<std::string> new_parent = TakeName("new parent");
      if (!new_parent.ok()) return new_parent.status();
      change.new_parent = *new_parent;
      if (!TakeSymbol(',')) return Error("expected ',' in change tuple");
      Result<std::string> moment = TakeName("change moment");
      if (!moment.ok()) return moment.status();
      change.moment = *moment;
      if (!TakeSymbol(')')) return Error("expected ')' closing change tuple");
      c->changes.push_back(std::move(change));
      if (!TakeSymbol(',')) break;
    }
    if (!TakeSymbol('}')) return Error("expected '}' after change list");
    if (TakeKeyword("FOR")) {
      Result<std::string> dim = TakeName("varying dimension name");
      if (!dim.ok()) return dim.status();
      c->varying_dim = *dim;
    }
    ParseMode(&c->mode);
    return Status::Ok();
  }

  // --- axes ----------------------------------------------------------------

  Status ParseAxisName(AxisSpec* axis) {
    if (TakeKeyword("COLUMNS")) {
      axis->ordinal = 0;
      return Status::Ok();
    }
    if (TakeKeyword("ROWS")) {
      axis->ordinal = 1;
      return Status::Ok();
    }
    if (TakeKeyword("PAGES")) {
      axis->ordinal = 2;
      return Status::Ok();
    }
    if (TakeKeyword("AXIS")) {
      if (!TakeSymbol('(')) return Error("expected '(' after AXIS");
      Result<int> ordinal = TakeCount("expected axis number");
      if (!ordinal.ok()) return ordinal.status();
      axis->ordinal = *ordinal;
      if (!TakeSymbol(')')) return Error("expected ')' after axis number");
      return Status::Ok();
    }
    return Error("expected COLUMNS, ROWS, PAGES or AXIS(n)");
  }

  // --- set expressions ------------------------------------------------------

  // Every set-expression level enters here, which counts it against
  // kMaxSetNesting.
  Result<std::unique_ptr<SetExpr>> ParseSetExpr() {
    if (depth_ == kMaxSetNesting) {
      return Error("set expression nests deeper than " +
                   std::to_string(kMaxSetNesting) + " levels");
    }
    ++depth_;
    Result<std::unique_ptr<SetExpr>> set = ParseSetLevel();
    --depth_;
    return set;
  }

  Result<std::unique_ptr<SetExpr>> ParseSetLevel() {
    if (TakeSymbol('{')) {
      auto node = std::make_unique<SetExpr>();
      node->kind = SetExpr::Kind::kBraces;
      if (!TakeSymbol('}')) {
        while (true) {
          Result<std::unique_ptr<SetExpr>> arg = ParseSetExpr();
          if (!arg.ok()) return arg.status();
          node->args.push_back(std::move(*arg));
          if (!TakeSymbol(',')) break;
        }
        if (!TakeSymbol('}')) return Error("expected '}'");
      }
      return node;
    }
    if (TakeSymbol('(')) {
      auto node = std::make_unique<SetExpr>();
      node->kind = SetExpr::Kind::kTuple;
      while (true) {
        Result<std::unique_ptr<SetExpr>> arg = ParseSetExpr();
        if (!arg.ok()) return arg.status();
        node->args.push_back(std::move(*arg));
        if (!TakeSymbol(',')) break;
      }
      if (!TakeSymbol(')')) return Error("expected ')'");
      return node;
    }
    // Function call?
    if (peek().kind == Token::kIdent && peek(1).kind == Token::kSymbol &&
        peek(1).text == "(") {
      if (PeekKeyword("CrossJoin") || PeekKeyword("Union") ||
          PeekKeyword("Except") || PeekKeyword("Intersect")) {
        SetExpr::Kind kind = SetExpr::Kind::kCrossJoin;
        if (PeekKeyword("Union")) kind = SetExpr::Kind::kUnion;
        if (PeekKeyword("Except")) kind = SetExpr::Kind::kExcept;
        if (PeekKeyword("Intersect")) kind = SetExpr::Kind::kIntersect;
        Take();
        Take();  // name, '('
        auto node = std::make_unique<SetExpr>();
        node->kind = kind;
        Result<std::unique_ptr<SetExpr>> a = ParseSetExpr();
        if (!a.ok()) return a.status();
        if (!TakeSymbol(',')) return Error("expected ',' in set function");
        Result<std::unique_ptr<SetExpr>> b = ParseSetExpr();
        if (!b.ok()) return b.status();
        node->args.push_back(std::move(*a));
        node->args.push_back(std::move(*b));
        if (!TakeSymbol(')')) return Error("expected ')'");
        return node;
      }
      if (PeekKeyword("Head") || PeekKeyword("Tail")) {
        bool head = PeekKeyword("Head");
        Take();
        Take();
        auto node = std::make_unique<SetExpr>();
        node->kind = head ? SetExpr::Kind::kHead : SetExpr::Kind::kTail;
        Result<std::unique_ptr<SetExpr>> a = ParseSetExpr();
        if (!a.ok()) return a.status();
        node->args.push_back(std::move(*a));
        if (!TakeSymbol(',')) return Error("expected ',' in Head/Tail");
        Result<int> count = TakeCount("expected count in Head/Tail");
        if (!count.ok()) return count.status();
        node->number = *count;
        if (!TakeSymbol(')')) return Error("expected ')'");
        return node;
      }
      if (PeekKeyword("Order")) {
        Take();
        Take();
        auto node = std::make_unique<SetExpr>();
        node->kind = SetExpr::Kind::kOrder;
        Result<std::unique_ptr<SetExpr>> set = ParseSetExpr();
        if (!set.ok()) return set.status();
        node->args.push_back(std::move(*set));
        if (!TakeSymbol(',')) return Error("expected ',' in Order");
        Result<std::vector<std::string>> path = ParsePathComponents();
        if (!path.ok()) return path.status();
        node->path = std::move(*path);
        node->flag = "asc";
        if (TakeSymbol(',')) {
          if (TakeKeyword("DESC") || TakeKeyword("BDESC")) {
            node->flag = "desc";
          } else if (!TakeKeyword("ASC") && !TakeKeyword("BASC")) {
            return Error("expected ASC or DESC in Order");
          }
        }
        if (!TakeSymbol(')')) return Error("expected ')'");
        return node;
      }
      if (PeekKeyword("TopCount") || PeekKeyword("BottomCount")) {
        bool top = PeekKeyword("TopCount");
        Take();
        Take();
        auto node = std::make_unique<SetExpr>();
        node->kind =
            top ? SetExpr::Kind::kTopCount : SetExpr::Kind::kBottomCount;
        Result<std::unique_ptr<SetExpr>> set = ParseSetExpr();
        if (!set.ok()) return set.status();
        node->args.push_back(std::move(*set));
        if (!TakeSymbol(',')) return Error("expected ',' in TopCount");
        Result<int> count =
            TakeCount("expected count in TopCount/BottomCount");
        if (!count.ok()) return count.status();
        node->number = *count;
        if (!TakeSymbol(',')) return Error("expected ',' in TopCount");
        Result<std::vector<std::string>> path = ParsePathComponents();
        if (!path.ok()) return path.status();
        node->path = std::move(*path);
        if (!TakeSymbol(')')) return Error("expected ')'");
        return node;
      }
      if (PeekKeyword("Filter")) {
        Take();
        Take();
        auto node = std::make_unique<SetExpr>();
        node->kind = SetExpr::Kind::kFilter;
        Result<std::unique_ptr<SetExpr>> set = ParseSetExpr();
        if (!set.ok()) return set.status();
        node->args.push_back(std::move(*set));
        if (!TakeSymbol(',')) return Error("expected ',' in Filter");
        Result<std::vector<std::string>> path = ParsePathComponents();
        if (!path.ok()) return path.status();
        node->path = std::move(*path);
        // Relational operator: one of > < >= <= = <>.
        if (peek().kind != Token::kSymbol) {
          return Error("expected comparison operator in Filter");
        }
        node->relop = Take().text;
        if ((node->relop == ">" || node->relop == "<") &&
            peek().kind == Token::kSymbol &&
            (peek().text == "=" || (node->relop == "<" && peek().text == ">"))) {
          node->relop += Take().text;
        }
        if (node->relop != ">" && node->relop != "<" && node->relop != ">=" &&
            node->relop != "<=" && node->relop != "=" && node->relop != "<>") {
          return Error("unknown comparison operator '" + node->relop + "'");
        }
        bool negative = TakeSymbol('-');
        if (peek().kind != Token::kNumber) {
          return Error("expected numeric threshold in Filter");
        }
        node->threshold = Take().number * (negative ? -1.0 : 1.0);
        if (!TakeSymbol(')')) return Error("expected ')'");
        return node;
      }
      if (PeekKeyword("Descendants")) {
        Take();
        Take();
        auto node = std::make_unique<SetExpr>();
        node->kind = SetExpr::Kind::kDescendants;
        Result<std::vector<std::string>> path = ParsePathComponents();
        if (!path.ok()) return path.status();
        node->path = std::move(*path);
        if (TakeSymbol(',')) {
          Result<int> depth = TakeCount("expected depth in Descendants");
          if (!depth.ok()) return depth.status();
          node->number = *depth;
          if (TakeSymbol(',')) {
            Result<std::string> flag = TakeName("Descendants flag");
            if (!flag.ok()) return flag.status();
            node->flag = ToLower(*flag);
          }
        }
        if (!TakeSymbol(')')) return Error("expected ')'");
        return node;
      }
      return Error("unknown function '" + peek().text + "'");
    }
    // Member path, possibly with .Children/.Members/.Levels(n).Members.
    return ParsePathExpr();
  }

  Result<std::vector<std::string>> ParsePathComponents() {
    std::vector<std::string> path;
    while (true) {
      Result<std::string> comp = TakeName("name");
      if (!comp.ok()) return comp.status();
      path.push_back(*comp);
      if (!(peek().kind == Token::kSymbol && peek().text == ".")) break;
      // Stop before path suffixes handled by the caller.
      if (PeekKeyword("Children", 1) || PeekKeyword("Members", 1) ||
          PeekKeyword("Levels", 1)) {
        break;
      }
      Take();  // '.'
    }
    return path;
  }

  Result<std::unique_ptr<SetExpr>> ParsePathExpr() {
    auto node = std::make_unique<SetExpr>();
    Result<std::vector<std::string>> path = ParsePathComponents();
    if (!path.ok()) return path.status();
    node->path = std::move(*path);
    node->kind = SetExpr::Kind::kMemberPath;
    if (TakeSymbol('.')) {
      if (TakeKeyword("Children")) {
        node->kind = SetExpr::Kind::kChildren;
      } else if (TakeKeyword("Members")) {
        node->kind = SetExpr::Kind::kMembers;
      } else if (TakeKeyword("Levels")) {
        if (!TakeSymbol('(')) return Error("expected '(' after Levels");
        Result<int> level = TakeCount("expected level number");
        if (!level.ok()) return level.status();
        node->number = *level;
        if (!TakeSymbol(')')) return Error("expected ')' after level number");
        if (!TakeSymbol('.') || !TakeKeyword("Members")) {
          return Error("expected .Members after Levels(n)");
        }
        node->kind = SetExpr::Kind::kLevelsMembers;
      } else {
        return Error("expected Children, Members or Levels after '.'");
      }
    }
    return node;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;  // Set-expression levels open (ParseSetExpr).
};

}  // namespace

Result<ParsedQuery> Parse(std::string_view text) {
  Result<std::vector<Token>> tokens = Lex(text);
  if (!tokens.ok()) return tokens.status();
  return Parser(*std::move(tokens)).Parse();
}

}  // namespace olap::mdx
