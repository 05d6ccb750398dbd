#ifndef OLAP_RULES_RULE_PARSER_H_
#define OLAP_RULES_RULE_PARSER_H_

#include <string_view>

#include "common/status.h"
#include "dimension/schema.h"
#include "rules/rule.h"

namespace olap {

// Parses one rule in the paper's notation:
//
//   [FOR <Dim> = <Member> [AND <Dim> = <Member>]... ,] <Measure> = <expr>
//
// where <expr> is arithmetic (+ - * /, parentheses, numeric literals) over
// measure names. Member/measure names may be written bare (Sales) or
// bracketed ([Margin %]). Examples:
//
//   Margin = Sales - COGS
//   FOR Market = East, Margin = 0.93 * Sales - COGS
//   Margin% = Margin / COGS * 100
//
// Name resolution: the target and all measure references resolve in the
// schema's measure dimension; scope dimensions/members resolve by name.
//
// An expression nests at most kMaxRuleNesting levels deep: open
// parentheses and unary minuses count while parsing, and so do the levels
// of the expression tree (each binary operator sits one level above its
// operands). Deeper input is kInvalidArgument naming the offset. Parsing,
// evaluation and the tree's destructor recurse once per level, so the cap
// keeps them on the stack.
inline constexpr int kMaxRuleNesting = 256;

Result<Rule> ParseRule(const Schema& schema, std::string_view text);

}  // namespace olap

#endif  // OLAP_RULES_RULE_PARSER_H_
