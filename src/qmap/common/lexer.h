#ifndef QMAP_COMMON_LEXER_H_
#define QMAP_COMMON_LEXER_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "qmap/common/status.h"

namespace qmap {

enum class TokenKind { kIdent, kNumber, kString, kPunct, kEnd };

/// A lexical token. `text` is a view: into the lexed input for identifiers,
/// puncts and numbers (the raw literal) and for string literals without
/// escapes, and into the cursor's own buffer for a string literal whose
/// escapes were resolved. For kNumber, `number` holds the parsed value and
/// `is_integer` tells whether the literal had no fractional part.
struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string_view text;  // identifier name, punct spelling, or literal
  double number = 0;
  bool is_integer = false;
  size_t offset = 0;  // byte offset in the input, for error messages
};

/// The one hand-written lexer of the query language and the rule DSL, and a
/// cursor over its tokens with the usual Peek/Consume helpers.
///
/// Identifiers are [A-Za-z_][A-Za-z0-9_-]* (hyphens allowed because the
/// paper's attribute names include `ti-word` and `id-no`). Strings are
/// double-quoted with backslash escapes. Multi-character puncts recognized:
/// `<=`, `>=`, `=>`, `!=`, `::`. `#` and `//` start comments.
///
/// Reset() lexes a whole input up front, so a lexical error is reported
/// before any parse error. The token array and the unescape buffer are kept
/// between inputs, so a cursor reused for many inputs stops allocating once
/// they have grown to fit. Tokens are views, never copies: the input must
/// outlive every use of the cursor's tokens, and a cursor must not outlive
/// its input while anything still reads its tokens.
class TokenCursor {
 public:
  /// Lexes `input`, replacing the previous tokens. Fails on unterminated
  /// strings or bytes that are not part of any token; the cursor is then
  /// empty (AtEnd()).
  Status Reset(std::string_view input);

  /// Drops the tokens, and frees the storage behind them if it has grown
  /// past `keep_bytes`, so a cursor kept per thread neither views a dead
  /// input nor pins the memory one huge input needed.
  void Release(size_t keep_bytes);

  /// The token `lookahead` places ahead; the end token past the last one.
  const Token& Peek(int lookahead = 0) const;
  /// Consumes and returns the next token.
  const Token& Next();
  bool AtEnd() const { return Peek().kind == TokenKind::kEnd; }

  /// Consumes the next token if it is the punct `text`.
  bool TryConsumePunct(std::string_view text);
  /// Consumes the next token if it is the identifier `name` (case-sensitive).
  bool TryConsumeIdent(std::string_view name);
  /// Fails unless the next token is the punct `text`.
  Status ExpectPunct(std::string_view text);
  /// Fails unless the next token is an identifier; returns a view of its
  /// name, valid as long as the input.
  Result<std::string_view> ExpectIdent();

 private:
  std::vector<Token> tokens_;  // ends with a kEnd token once Reset succeeds
  size_t pos_ = 0;
  // Unescaped string literals. Reset() reserves the input's size before the
  // first one is appended, so appending never moves the bytes that earlier
  // tokens view.
  std::string unescaped_;
  Token end_token_;
};

}  // namespace qmap

#endif  // QMAP_COMMON_LEXER_H_
