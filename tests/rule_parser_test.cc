#include "rules/rule_parser.h"

#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/database.h"
#include "workload/paper_example.h"

namespace olap {
namespace {

// Market {East{NY,MA}, West{CA}}, Time {Jan,Feb}, Measures {Sales, COGS,
// Margin, Margin%}.
Schema SalesSchema() {
  Schema schema;
  Dimension market("Market");
  MemberId east = *market.AddChildOfRoot("East");
  MemberId west = *market.AddChildOfRoot("West");
  EXPECT_TRUE(market.AddMember("NY", east).ok());
  EXPECT_TRUE(market.AddMember("MA", east).ok());
  EXPECT_TRUE(market.AddMember("CA", west).ok());
  Dimension time("Time", DimensionKind::kParameter);
  EXPECT_TRUE(time.AddChildOfRoot("Jan").ok());
  EXPECT_TRUE(time.AddChildOfRoot("Feb").ok());
  Dimension measures("Measures", DimensionKind::kMeasure);
  EXPECT_TRUE(measures.AddChildOfRoot("Sales").ok());
  EXPECT_TRUE(measures.AddChildOfRoot("COGS").ok());
  EXPECT_TRUE(measures.AddChildOfRoot("Margin").ok());
  EXPECT_TRUE(measures.AddChildOfRoot("Margin%").ok());
  schema.AddDimension(std::move(market));
  schema.AddDimension(std::move(time));
  schema.AddDimension(std::move(measures));
  return schema;
}

TEST(RuleParserTest, SimpleFormula) {
  Schema schema = SalesSchema();
  Result<Rule> rule = ParseRule(schema, "Margin = Sales - COGS");
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  const Dimension& m = schema.dimension(2);
  EXPECT_EQ(rule->target, *m.FindMember("Margin"));
  EXPECT_TRUE(rule->scope.empty());
  EXPECT_EQ(rule->formula->ToString(), "(Sales - COGS)");
}

TEST(RuleParserTest, ScopedFormula) {
  // Paper rule (3): "For Market = East, Margin = 0.93 * Sales - COGS".
  Schema schema = SalesSchema();
  Result<Rule> rule =
      ParseRule(schema, "FOR Market = East, Margin = 0.93 * Sales - COGS");
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  ASSERT_EQ(rule->scope.size(), 1u);
  EXPECT_EQ(rule->scope[0].dim, 0);
  EXPECT_EQ(rule->scope[0].member, *schema.dimension(0).FindMember("East"));
  EXPECT_EQ(rule->formula->ToString(), "((0.930000 * Sales) - COGS)");
}

TEST(RuleParserTest, MultiRestrictionScope) {
  Schema schema = SalesSchema();
  Result<Rule> rule = ParseRule(
      schema, "FOR Market = East AND Time = Jan, Margin = Sales - COGS");
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  ASSERT_EQ(rule->scope.size(), 2u);
  EXPECT_EQ(rule->scope[1].dim, 1);
}

TEST(RuleParserTest, PercentRuleWithPrecedence) {
  // Paper rule (4): "Margin% = Margin / COGS * 100".
  Schema schema = SalesSchema();
  Result<Rule> rule = ParseRule(schema, "Margin% = Margin / COGS * 100");
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  EXPECT_EQ(rule->formula->ToString(), "((Margin / COGS) * 100)");
}

TEST(RuleParserTest, BracketsParenthesesAndUnaryMinus) {
  Schema schema = SalesSchema();
  Result<Rule> rule =
      ParseRule(schema, "[Margin] = ([Sales] + -[COGS]) * 1.0");
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  EXPECT_EQ(rule->formula->ToString(), "((Sales + (0 - COGS)) * 1)");
}

TEST(RuleParserTest, Errors) {
  Schema schema = SalesSchema();
  EXPECT_EQ(ParseRule(schema, "Bogus = Sales").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(ParseRule(schema, "Margin = Bogus").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(ParseRule(schema, "Margin Sales").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRule(schema, "Margin = Sales - ").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRule(schema, "Margin = (Sales").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRule(schema, "FOR Nowhere = East, Margin = Sales")
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(ParseRule(schema, "Margin = Sales extra").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RuleParserTest, SourceTextPreserved) {
  Schema schema = SalesSchema();
  Result<Rule> rule = ParseRule(schema, "  Margin = Sales - COGS  ");
  ASSERT_TRUE(rule.ok());
  EXPECT_EQ(rule->source_text, "Margin = Sales - COGS");
}

// A numeric literal that is malformed, not consumed whole or out of the
// range of a double is an INVALID_ARGUMENT naming its offset, wherever it
// sits in the rule.
TEST(RuleParserTest, BadNumericLiteralsReturnInvalidArgument) {
  Schema schema = SalesSchema();
  const std::string huge(400, '9');
  const std::string tiny = "0." + std::string(400, '0') + "1";
  for (const std::string& text :
       {std::string("Margin = ."), std::string("Margin = 1.2.3 * Sales"),
        std::string("Margin = Sales + .."), "Margin = " + huge,
        "Margin = Sales * " + huge, "Margin = " + tiny,
        "FOR Market = East, Margin = (" + huge + ")"}) {
    Result<Rule> rule = ParseRule(schema, text);
    ASSERT_FALSE(rule.ok()) << text;
    EXPECT_EQ(rule.status().code(), StatusCode::kInvalidArgument)
        << rule.status().ToString();
    EXPECT_NE(rule.status().message().find("at offset"), std::string::npos)
        << rule.status().ToString();
  }
  // Literals that do convert whole still parse.
  Result<Rule> rule = ParseRule(schema, "Margin = .5 * Sales + 2. - 007");
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
}

// A rule expression nests at most kMaxRuleNesting levels: parentheses,
// unary minuses and operator chains past the cap are an INVALID_ARGUMENT
// naming the offset, from the parser and from Database::AddRule, where they
// used to overflow the stack; input nested exactly at the cap still parses.
TEST(RuleParserTest, DeepNestingReturnsInvalidArgument) {
  auto parens = [](int n) {
    return "Salary = " + std::string(n, '(') + "1" + std::string(n, ')');
  };
  auto minuses = [](int n) { return "Salary = " + std::string(n, '-') + "1"; };
  auto chain = [](int ops, const char* step) {
    std::string text = "Salary = 1";
    for (int i = 0; i < ops; ++i) text += step;
    return text;
  };
  PaperExample ex = BuildPaperExample();
  const Schema schema = ex.cube.schema();
  Database db;
  ASSERT_TRUE(db.AddCube("Warehouse", std::move(ex.cube)).ok());
  // A unary minus adds a tree level over its operand's leaf, and a chain
  // of k operators is k + 1 levels tall.
  for (const std::string& text :
       {parens(20000), parens(kMaxRuleNesting + 1), minuses(200000),
        minuses(kMaxRuleNesting), chain(1000000, "+1"),
        chain(kMaxRuleNesting, "+1"), chain(kMaxRuleNesting, "*1")}) {
    Result<Rule> rule = ParseRule(schema, text);
    ASSERT_FALSE(rule.ok()) << text.size();
    EXPECT_EQ(rule.status().code(), StatusCode::kInvalidArgument)
        << rule.status().ToString();
    EXPECT_NE(rule.status().message().find("at offset"), std::string::npos)
        << rule.status().ToString();
    EXPECT_EQ(db.AddRule("Warehouse", text).code(),
              StatusCode::kInvalidArgument);
  }
  for (const std::string& text :
       {parens(kMaxRuleNesting), minuses(kMaxRuleNesting - 1),
        chain(kMaxRuleNesting - 1, "+1"), chain(kMaxRuleNesting - 1, "*1")}) {
    Result<Rule> rule = ParseRule(schema, text);
    EXPECT_TRUE(rule.ok()) << rule.status().ToString();
  }
}

// Robustness: rule text from any source must come back as a Status, never
// an exception or a crash — random bytes, token soups, and truncations and
// byte mutations of valid rules.
const char* const kValidRules[] = {
    "Margin = Sales - COGS",
    "FOR Market = East, Margin = 0.93 * Sales - COGS",
    "FOR Market = East AND Time = Jan, Margin = (Sales - COGS) / 2",
    "[Margin%] = Margin / COGS * 100",
    "Margin = -(Sales + -COGS) * .5",
};

Status ParseStatus(const Schema& schema, const std::string& text) {
  Result<Rule> rule = ParseRule(schema, text);
  if (rule.ok()) {
    EXPECT_NE(rule->formula, nullptr) << text;
    return Status::Ok();
  }
  EXPECT_NE(rule.status().code(), StatusCode::kOk) << text;
  return rule.status();
}

TEST(RuleParserFuzzTest, RandomBytesNeverCrash) {
  Schema schema = SalesSchema();
  Rng rng(401);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string text;
    const int len = static_cast<int>(rng.NextBelow(120));
    for (int i = 0; i < len; ++i) {
      // Mostly printable ASCII, with some raw bytes and digit/dot runs.
      const uint64_t pick = rng.NextBelow(10);
      if (pick < 6) {
        text.push_back(static_cast<char>(32 + rng.NextBelow(95)));
      } else if (pick < 9) {
        text.push_back("0123456789."[rng.NextBelow(11)]);
      } else {
        text.push_back(static_cast<char>(rng.NextBelow(256)));
      }
    }
    EXPECT_NO_THROW((void)ParseStatus(schema, text)) << text;
  }
}

TEST(RuleParserFuzzTest, RandomTokenSoupNeverCrashes) {
  static const char* kTokens[] = {
      "FOR",   "AND",    "Market", "East",   "Time", "Jan",    "=",
      ",",     "Margin", "Sales",  "COGS",   "+",    "-",      "*",
      "/",     "(",      ")",      "0.93",   "100",  ".",      "..",
      "1.2.3", ".5",     "2.",     "[Margin%]",    "[Sales", "Bogus",
  };
  const std::string huge(400, '9');
  Schema schema = SalesSchema();
  Rng rng(402);
  int parsed = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string text;
    const int len = static_cast<int>(rng.NextBelow(24));
    for (int i = 0; i < len; ++i) {
      text += rng.NextBool(0.02) ? huge : kTokens[rng.NextBelow(std::size(kTokens))];
      text += rng.NextBool(0.8) ? " " : "";
    }
    Status status = Status::Ok();
    EXPECT_NO_THROW(status = ParseStatus(schema, text)) << text;
    if (status.ok()) ++parsed;
  }
  RecordProperty("parsed", parsed);
}

TEST(RuleParserFuzzTest, TruncationsAndMutationsOfValidRulesNeverCrash) {
  Schema schema = SalesSchema();
  for (const char* valid : kValidRules) {
    const std::string rule = valid;
    ASSERT_TRUE(ParseStatus(schema, rule).ok()) << rule;
    for (size_t len = 0; len <= rule.size(); ++len) {
      EXPECT_NO_THROW((void)ParseStatus(schema, rule.substr(0, len)))
          << rule.substr(0, len);
    }
  }
  Rng rng(403);
  for (int trial = 0; trial < 3000; ++trial) {
    std::string mutated = kValidRules[rng.NextBelow(std::size(kValidRules))];
    const int edits = 1 + static_cast<int>(rng.NextBelow(4));
    for (int e = 0; e < edits && !mutated.empty(); ++e) {
      const size_t pos = rng.NextBelow(mutated.size());
      switch (rng.NextBelow(4)) {
        case 0:  // Replace a byte.
          mutated[pos] = static_cast<char>(32 + rng.NextBelow(95));
          break;
        case 1:  // Delete a byte.
          mutated.erase(pos, 1);
          break;
        case 2:  // Duplicate a byte.
          mutated.insert(pos, 1, mutated[pos]);
          break;
        default:  // Insert a digit or a dot.
          mutated.insert(pos, 1, "0123456789."[rng.NextBelow(11)]);
          break;
      }
    }
    EXPECT_NO_THROW((void)ParseStatus(schema, mutated)) << mutated;
  }
}

}  // namespace
}  // namespace olap
