#ifndef OLAP_MDX_PARSER_H_
#define OLAP_MDX_PARSER_H_

#include <string_view>

#include "common/status.h"
#include "mdx/ast.h"

namespace olap::mdx {

// Parses one extended-MDX query:
//
//   [WITH [PERSPECTIVE {(p1),...,(pk)} FOR <dim> [<semantics>] [<mode>]]
//         [CHANGES {(m,o,n,t),...} [FOR <dim>] [<mode>]]]
//   SELECT <set> [DIMENSION PROPERTIES <names>] ON <axis>
//        [, <set> [DIMENSION PROPERTIES <names>] ON <axis>]...
//   FROM <cube>
//   [WHERE (<member>,...)]
//
// <semantics> ::= STATIC | [DYNAMIC] FORWARD | [DYNAMIC] BACKWARD
//               | EXTENDED [DYNAMIC] FORWARD | EXTENDED [DYNAMIC] BACKWARD
// <mode>      ::= VISUAL | NONVISUAL | NON-VISUAL
// <axis>      ::= COLUMNS | ROWS | PAGES | AXIS(<n>)
//
// Keywords are case-insensitive. Names may be bare or [bracketed].
//
// Set expressions nest at most kMaxSetNesting levels deep (every brace,
// tuple, set function and member path is one level); deeper input is
// kInvalidArgument naming the offset. Parsing, binding and the AST's
// destructor recurse once per level, so the cap keeps them on the stack.
inline constexpr int kMaxSetNesting = 256;

Result<ParsedQuery> Parse(std::string_view text);

}  // namespace olap::mdx

#endif  // OLAP_MDX_PARSER_H_
