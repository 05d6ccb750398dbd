#include "common/strings.h"

#include <cctype>
#include <charconv>
#include <system_error>

namespace olap {

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view StripWhitespace(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

Result<double> ParseNumberLiteral(std::string_view text, size_t offset) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const std::from_chars_result r = std::from_chars(text.data(), end, value);
  if (r.ec == std::errc() && r.ptr == end) return value;
  const std::string where = "numeric literal '" + std::string(text) +
                            "' at offset " + std::to_string(offset);
  if (r.ec == std::errc::result_out_of_range) {
    return Status::InvalidArgument(where + " is out of range");
  }
  return Status::InvalidArgument("malformed " + where);
}

}  // namespace olap
