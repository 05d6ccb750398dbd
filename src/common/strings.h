#ifndef OLAP_COMMON_STRINGS_H_
#define OLAP_COMMON_STRINGS_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace olap {

// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

// ASCII lowercase copy.
std::string ToLower(std::string_view s);

// True if `a` equals `b` ignoring ASCII case.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

// Splits on a single character, keeping empty tokens.
std::vector<std::string> Split(std::string_view s, char sep);

// Strips leading/trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

// Converts the numeric literal `text` (as scanned by the MDX and rule
// lexers: digits and dots) to a double. kInvalidArgument, naming `offset`
// (the literal's byte offset in the source text), when the literal is
// malformed, is not consumed whole, or lies outside the range of a double.
Result<double> ParseNumberLiteral(std::string_view text, size_t offset);

}  // namespace olap

#endif  // OLAP_COMMON_STRINGS_H_
