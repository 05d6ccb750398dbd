// Robustness: the MDX front end must return INVALID_ARGUMENT-style errors,
// never crash, on arbitrary garbage — random byte strings, random token
// soups, truncations/mutations of valid queries, numeric literals that do
// not fit their context, and set expressions nested past the cap.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/executor.h"
#include "mdx/parser.h"
#include "workload/paper_example.h"

namespace olap {
namespace {

const char* kValidQuery =
    "WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD VISUAL "
    "SELECT {Time.[Qtr1], Time.[Qtr2]} ON COLUMNS, "
    "{[Organization].[Joe]} ON ROWS FROM Warehouse WHERE ([NY], [Salary])";

TEST(MdxFuzzTest, RandomBytesNeverCrash) {
  Rng rng(101);
  for (int trial = 0; trial < 500; ++trial) {
    std::string text;
    int len = static_cast<int>(rng.NextBelow(200));
    for (int i = 0; i < len; ++i) {
      text.push_back(static_cast<char>(32 + rng.NextBelow(95)));
    }
    Result<mdx::ParsedQuery> q = mdx::Parse(text);
    (void)q;  // Any Status is fine; not crashing is the test.
  }
}

TEST(MdxFuzzTest, RandomTokenSoupNeverCrashes) {
  static const char* kTokens[] = {
      "SELECT", "FROM",  "WHERE", "WITH",  "PERSPECTIVE", "CHANGES",
      "ON",     "ROWS",  "COLUMNS", "FOR", "STATIC",      "DYNAMIC",
      "FORWARD", "{",    "}",     "(",     ")",           ",",
      ".",      "[Joe]", "[FTE]", "Time",  "CrossJoin",   "Union",
      "Head",   "42",    "0.5",   "NON",   "EMPTY",       "Descendants",
  };
  Rng rng(202);
  for (int trial = 0; trial < 500; ++trial) {
    std::string text;
    int len = static_cast<int>(rng.NextBelow(40));
    for (int i = 0; i < len; ++i) {
      text += kTokens[rng.NextBelow(std::size(kTokens))];
      text += " ";
    }
    Result<mdx::ParsedQuery> q = mdx::Parse(text);
    (void)q;
  }
}

TEST(MdxFuzzTest, TruncationsOfValidQueryNeverCrash) {
  std::string query = kValidQuery;
  for (size_t len = 0; len <= query.size(); ++len) {
    Result<mdx::ParsedQuery> q = mdx::Parse(query.substr(0, len));
    (void)q;
  }
}

TEST(MdxFuzzTest, MutationsThroughFullEngineNeverCrash) {
  PaperExample ex = BuildPaperExample();
  Database db;
  ASSERT_TRUE(db.AddCube("Warehouse", std::move(ex.cube)).ok());
  Executor exec(&db);

  Rng rng(303);
  std::string base = kValidQuery;
  int executed_ok = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = base;
    int edits = 1 + static_cast<int>(rng.NextBelow(4));
    for (int e = 0; e < edits; ++e) {
      size_t pos = rng.NextBelow(mutated.size());
      switch (rng.NextBelow(3)) {
        case 0:  // Replace a byte.
          mutated[pos] = static_cast<char>(32 + rng.NextBelow(95));
          break;
        case 1:  // Delete a byte.
          mutated.erase(pos, 1);
          break;
        default:  // Duplicate a byte.
          mutated.insert(pos, 1, mutated[pos]);
          break;
      }
    }
    Result<QueryResult> r = exec.Execute(mutated);
    if (r.ok()) ++executed_ok;
  }
  // Some mutations stay valid; most must fail cleanly. Either way, no
  // crash, and the executor remains usable:
  Result<QueryResult> sane = exec.Execute(base);
  EXPECT_TRUE(sane.ok());
}

// A numeric literal that is malformed or out of range, or an integer
// context (axis ordinal, Head/Tail and TopCount/BottomCount counts,
// Descendants depth, Levels(n)) holding a value outside [0, INT_MAX], is an
// INVALID_ARGUMENT from the parser and from the executor, never a throw.
TEST(MdxFuzzTest, BadNumericLiteralsReturnInvalidArgument) {
  const std::string huge(400, '9');
  const std::vector<std::string> texts = {
      "SELECT {Head([Organization].Members, " + huge +
          ")} ON COLUMNS FROM Warehouse",
      "SELECT {Head([Organization].Members, 1.2.3)} ON COLUMNS "
      "FROM Warehouse",
      "SELECT {Time.[Jan]} ON COLUMNS, "
      "{Head([Organization].Members, 99999999999)} ON ROWS FROM Warehouse",
      "SELECT {Time.[Jan]} ON COLUMNS, "
      "{Tail([Organization].Members, 2147483648)} ON ROWS FROM Warehouse",
      "SELECT {Time.[Jan]} ON AXIS(99999999999) FROM Warehouse",
      "SELECT {TopCount([Organization].Members, 99999999999, [Salary])} "
      "ON COLUMNS FROM Warehouse",
      "SELECT {BottomCount([Organization].Members, 99999999999, [Salary])} "
      "ON COLUMNS FROM Warehouse",
      "SELECT {Descendants([Organization], 99999999999)} ON COLUMNS "
      "FROM Warehouse",
      "SELECT {[Organization].Levels(99999999999).Members} ON COLUMNS "
      "FROM Warehouse",
  };
  PaperExample ex = BuildPaperExample();
  Database db;
  ASSERT_TRUE(db.AddCube("Warehouse", std::move(ex.cube)).ok());
  Executor exec(&db);
  for (const std::string& text : texts) {
    Result<mdx::ParsedQuery> q = mdx::Parse(text);
    ASSERT_FALSE(q.ok()) << text;
    EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument)
        << q.status().ToString();
    Result<QueryResult> r = exec.Execute(text);
    ASSERT_FALSE(r.ok()) << text;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << r.status().ToString();
  }
  // The largest count an integer context takes still executes.
  Result<QueryResult> widest = exec.Execute(
      "SELECT {Time.[Jan]} ON COLUMNS, "
      "{Head([Organization].Members, 2147483647)} ON ROWS FROM Warehouse");
  EXPECT_TRUE(widest.ok()) << widest.status().ToString();
}

// Set expressions nest at most mdx::kMaxSetNesting levels: deeper input is
// an INVALID_ARGUMENT naming the offset, from the parser and from the
// executor, where it used to overflow the stack; input nested exactly at
// the cap still parses and executes.
TEST(MdxFuzzTest, DeepNestingReturnsInvalidArgument) {
  // The axis set and the member path are one level each, so `braces`
  // braces between them nest braces + 2 levels.
  auto nested = [](int braces, const std::string& member,
                   const std::string& cube) {
    return "SELECT {" + std::string(braces, '{') + member +
           std::string(braces, '}') + "} ON COLUMNS FROM " + cube;
  };
  PaperExample ex = BuildPaperExample();
  Database db;
  ASSERT_TRUE(db.AddCube("Warehouse", std::move(ex.cube)).ok());
  Executor exec(&db);
  for (const std::string& text :
       {nested(20000, "[a]", "c"), nested(20000, "Time.[Jan]", "Warehouse"),
        nested(mdx::kMaxSetNesting - 1, "Time.[Jan]", "Warehouse")}) {
    Result<mdx::ParsedQuery> q = mdx::Parse(text);
    ASSERT_FALSE(q.ok());
    EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument)
        << q.status().ToString();
    EXPECT_NE(q.status().message().find("at offset"), std::string::npos)
        << q.status().ToString();
    Result<QueryResult> r = exec.Execute(text);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << r.status().ToString();
  }
  const std::string at_cap =
      nested(mdx::kMaxSetNesting - 2, "Time.[Jan]", "Warehouse");
  EXPECT_TRUE(mdx::Parse(at_cap).ok());
  Result<QueryResult> r = exec.Execute(at_cap);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->grid.num_columns(), 1);
}

}  // namespace
}  // namespace olap
