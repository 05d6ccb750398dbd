#ifndef OLAP_MDX_LEXER_H_
#define OLAP_MDX_LEXER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace olap::mdx {

// One lexical token of the extended-MDX dialect.
struct Token {
  enum Kind {
    kIdent,        // Bare word: select, CrossJoin, self_and_after, ...
    kBracketName,  // [Employee 42] — brackets stripped, spaces preserved.
    kNumber,
    kSymbol,  // One of { } ( ) , . = - and friends.
    kEnd,
  };
  Kind kind = kEnd;
  std::string text;
  double number = 0.0;
  size_t offset = 0;  // Byte offset in the query text, for error messages.
};

// Tokenises `text`. Keywords are not distinguished here — the parser matches
// identifiers case-insensitively. Returns INVALID_ARGUMENT on unterminated
// bracket names and on numeric literals that are malformed or out of range.
Result<std::vector<Token>> Lex(std::string_view text);

}  // namespace olap::mdx

#endif  // OLAP_MDX_LEXER_H_
