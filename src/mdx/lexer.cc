#include "mdx/lexer.h"

#include <cctype>

#include "common/strings.h"

namespace olap::mdx {

Result<std::vector<Token>> Lex(std::string_view text) {
  std::vector<Token> out;
  size_t pos = 0;
  while (pos < text.size()) {
    char c = text[pos];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++pos;
      continue;
    }
    if (c == '-' && pos + 1 < text.size() && text[pos + 1] == '-') {
      // Line comment.
      while (pos < text.size() && text[pos] != '\n') ++pos;
      continue;
    }
    Token tok;
    tok.offset = pos;
    if (c == '[') {
      size_t close = text.find(']', pos);
      if (close == std::string_view::npos) {
        return Status::InvalidArgument("unterminated '[' at offset " +
                                       std::to_string(pos));
      }
      tok.kind = Token::kBracketName;
      tok.text = std::string(text.substr(pos + 1, close - pos - 1));
      pos = close + 1;
      out.push_back(std::move(tok));
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t end = pos;
      while (end < text.size() &&
             (std::isdigit(static_cast<unsigned char>(text[end])) ||
              text[end] == '.')) {
        ++end;
      }
      tok.kind = Token::kNumber;
      tok.text = std::string(text.substr(pos, end - pos));
      Result<double> number = ParseNumberLiteral(tok.text, pos);
      if (!number.ok()) return number.status();
      tok.number = *number;
      pos = end;
      out.push_back(std::move(tok));
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t end = pos;
      while (end < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[end])) ||
              text[end] == '_')) {
        ++end;
      }
      tok.kind = Token::kIdent;
      tok.text = std::string(text.substr(pos, end - pos));
      pos = end;
      out.push_back(std::move(tok));
      continue;
    }
    tok.kind = Token::kSymbol;
    tok.text = std::string(1, c);
    ++pos;
    out.push_back(std::move(tok));
  }
  out.push_back(Token{Token::kEnd, "", 0.0, text.size()});
  return out;
}

}  // namespace olap::mdx
