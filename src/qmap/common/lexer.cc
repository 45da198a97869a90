#include "qmap/common/lexer.h"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <system_error>

namespace qmap {
namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-';
}

bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

// The value strtod gives `text`, a number literal (-?[0-9.]+). from_chars
// rounds the same way; it only declines values beyond double's range, which
// strtod clamps (to infinity or zero).
double NumberValue(std::string_view text) {
  double value = 0;
  const std::from_chars_result r =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (r.ec == std::errc::result_out_of_range) {
    return std::strtod(std::string(text).c_str(), nullptr);
  }
  return value;
}

}  // namespace

Status TokenCursor::Reset(std::string_view input) {
  tokens_.clear();
  unescaped_.clear();
  pos_ = 0;
  size_t i = 0;
  while (i < input.size()) {
    char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Comments: '#' or '//' to end of line.
    if (c == '#' || (c == '/' && i + 1 < input.size() && input[i + 1] == '/')) {
      while (i < input.size() && input[i] != '\n') ++i;
      continue;
    }
    Token token;
    token.offset = i;
    if (IsIdentStart(c)) {
      size_t start = i;
      while (i < input.size() && IsIdentChar(input[i])) ++i;
      token.kind = TokenKind::kIdent;
      token.text = input.substr(start, i - start);
      tokens_.push_back(token);
      continue;
    }
    if (IsDigit(c) || (c == '-' && i + 1 < input.size() && IsDigit(input[i + 1]))) {
      size_t start = i;
      if (c == '-') ++i;
      bool fractional = false;
      while (i < input.size() && (IsDigit(input[i]) || input[i] == '.')) {
        if (input[i] == '.') {
          // ".." or ".x" where x isn't a digit terminates the number.
          if (i + 1 >= input.size() || !IsDigit(input[i + 1])) break;
          fractional = true;
        }
        ++i;
      }
      token.kind = TokenKind::kNumber;
      token.text = input.substr(start, i - start);
      token.number = NumberValue(token.text);
      token.is_integer = !fractional;
      tokens_.push_back(token);
      continue;
    }
    if (c == '"') {
      const size_t start = ++i;
      while (i < input.size() && input[i] != '"' && input[i] != '\\') ++i;
      if (i < input.size() && input[i] == '"') {
        token.text = input.substr(start, i - start);
      } else {
        // Escapes: unescape into the side buffer. All literals together
        // unescape to fewer bytes than the input holds, so with that much
        // reserved the buffer never moves under earlier tokens' views.
        if (unescaped_.capacity() < input.size()) unescaped_.reserve(input.size());
        const size_t from = unescaped_.size();
        unescaped_.append(input.substr(start, i - start));
        while (i < input.size() && input[i] != '"') {
          if (input[i] == '\\' && i + 1 < input.size()) ++i;
          unescaped_.push_back(input[i]);
          ++i;
        }
        token.text = std::string_view(unescaped_).substr(from);
      }
      if (i >= input.size()) {
        tokens_.clear();
        return Status::ParseError("unterminated string literal at offset " +
                                  std::to_string(token.offset));
      }
      ++i;  // closing quote
      token.kind = TokenKind::kString;
      tokens_.push_back(token);
      continue;
    }
    // Punctuation; check two-character puncts first.
    static constexpr std::string_view kTwoCharPuncts[] = {"<=", ">=", "=>",
                                                          "!=", "::"};
    std::string_view rest = input.substr(i);
    token.kind = TokenKind::kPunct;
    for (std::string_view p : kTwoCharPuncts) {
      if (rest.substr(0, p.size()) == p) {
        token.text = rest.substr(0, p.size());
        break;
      }
    }
    if (token.text.empty()) {
      static constexpr std::string_view kOneCharPuncts = "[](){}.,;:=<>|&@*";
      if (kOneCharPuncts.find(c) == std::string_view::npos) {
        tokens_.clear();
        return Status::ParseError(std::string("unexpected character '") + c +
                                  "' at offset " + std::to_string(i));
      }
      token.text = rest.substr(0, 1);
    }
    i += token.text.size();
    tokens_.push_back(token);
  }
  Token end;
  end.kind = TokenKind::kEnd;
  end.offset = input.size();
  tokens_.push_back(end);
  return Status::Ok();
}

void TokenCursor::Release(size_t keep_bytes) {
  tokens_.clear();
  unescaped_.clear();
  pos_ = 0;
  if (tokens_.capacity() * sizeof(Token) + unescaped_.capacity() > keep_bytes) {
    std::vector<Token>().swap(tokens_);
    std::string().swap(unescaped_);
  }
}

const Token& TokenCursor::Peek(int lookahead) const {
  size_t idx = pos_ + static_cast<size_t>(lookahead);
  if (idx >= tokens_.size()) return end_token_;
  return tokens_[idx];
}

const Token& TokenCursor::Next() {
  const Token& t = Peek();
  if (pos_ < tokens_.size()) ++pos_;
  return t;
}

bool TokenCursor::TryConsumePunct(std::string_view text) {
  if (Peek().kind == TokenKind::kPunct && Peek().text == text) {
    Next();
    return true;
  }
  return false;
}

bool TokenCursor::TryConsumeIdent(std::string_view name) {
  if (Peek().kind == TokenKind::kIdent && Peek().text == name) {
    Next();
    return true;
  }
  return false;
}

Status TokenCursor::ExpectPunct(std::string_view text) {
  if (!TryConsumePunct(text)) {
    std::string message = "expected '";
    message.append(text).append("' but found '").append(Peek().text);
    return Status::ParseError(message + "' at offset " +
                              std::to_string(Peek().offset));
  }
  return Status::Ok();
}

Result<std::string_view> TokenCursor::ExpectIdent() {
  if (Peek().kind != TokenKind::kIdent) {
    std::string message = "expected identifier but found '";
    message.append(Peek().text);
    return Status::ParseError(message + "' at offset " +
                              std::to_string(Peek().offset));
  }
  return Next().text;
}

}  // namespace qmap
