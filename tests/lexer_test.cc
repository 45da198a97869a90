#include "qmap/common/lexer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

namespace qmap {
namespace {

// Lexes `text` with `cursor` and lists its tokens, the end token included.
// String tokens may view the cursor's buffer, so keep the cursor alive.
std::vector<Token> Lex(TokenCursor& cursor, std::string_view text) {
  Status lexed = cursor.Reset(text);
  EXPECT_TRUE(lexed.ok()) << lexed.ToString();
  std::vector<Token> tokens;
  for (int i = 0; lexed.ok(); ++i) {
    tokens.push_back(cursor.Peek(i));
    if (tokens.back().kind == TokenKind::kEnd) break;
  }
  return tokens;
}

TEST(Lexer, Identifiers) {
  TokenCursor cursor;
  std::vector<Token> tokens = Lex(cursor, "ln ti-word id-no _x");
  ASSERT_EQ(tokens.size(), 5u);  // 4 idents + end
  EXPECT_EQ(tokens[0].kind, TokenKind::kIdent);
  EXPECT_EQ(tokens[1].text, "ti-word");
  EXPECT_EQ(tokens[2].text, "id-no");
  EXPECT_EQ(tokens[3].text, "_x");
}

TEST(Lexer, Numbers) {
  TokenCursor cursor;
  std::vector<Token> tokens = Lex(cursor, "1997 3.5 -12");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kNumber);
  EXPECT_TRUE(tokens[0].is_integer);
  EXPECT_EQ(tokens[0].number, 1997);
  EXPECT_FALSE(tokens[1].is_integer);
  EXPECT_DOUBLE_EQ(tokens[1].number, 3.5);
  EXPECT_EQ(tokens[2].number, -12);
}

TEST(Lexer, Strings) {
  TokenCursor cursor;
  std::vector<Token> tokens = Lex(cursor, "\"Clancy, Tom\" \"a\\\"b\"");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kString);
  EXPECT_EQ(tokens[0].text, "Clancy, Tom");
  EXPECT_EQ(tokens[1].text, "a\"b");
}

TEST(Lexer, UnterminatedStringFails) {
  TokenCursor cursor;
  Status tokens = cursor.Reset("\"oops");
  EXPECT_FALSE(tokens.ok());
  EXPECT_EQ(tokens.code(), StatusCode::kParseError);
}

TEST(Lexer, Puncts) {
  TokenCursor cursor;
  std::vector<Token> tokens = Lex(cursor, "[ ] ( ) <= >= => = < > . ; ,");
  EXPECT_EQ(tokens[4].text, "<=");
  EXPECT_EQ(tokens[5].text, ">=");
  EXPECT_EQ(tokens[6].text, "=>");
}

TEST(Lexer, Comments) {
  TokenCursor cursor;
  std::vector<Token> tokens = Lex(cursor, "a # comment\nb // another\nc");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].text, "a");
  EXPECT_EQ(tokens[1].text, "b");
  EXPECT_EQ(tokens[2].text, "c");
}

TEST(Lexer, CursorHelpers) {
  TokenCursor cursor;
  ASSERT_TRUE(cursor.Reset("rule R1 : [ x ]").ok());
  EXPECT_TRUE(cursor.TryConsumeIdent("rule"));
  Result<std::string_view> name = cursor.ExpectIdent();
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(*name, "R1");
  EXPECT_TRUE(cursor.ExpectPunct(":").ok());
  EXPECT_TRUE(cursor.TryConsumePunct("["));
  EXPECT_FALSE(cursor.TryConsumePunct("["));
  EXPECT_TRUE(cursor.TryConsumeIdent("x"));
  EXPECT_TRUE(cursor.ExpectPunct("]").ok());
  EXPECT_TRUE(cursor.AtEnd());
}

TEST(Lexer, ErrorOnWeirdByte) {
  TokenCursor cursor;
  Status tokens = cursor.Reset("a $ b");
  EXPECT_FALSE(tokens.ok());
}

// ---------------------------------------------------------------------------
// Tokens as views: what the cursor keeps, and for how long.

TEST(Lexer, EscapedLiteralsSurviveTheTokensLexedAfterThem) {
  // Forty escaped literals, each longer than a short-string buffer: their
  // unescaped texts share one buffer, and appending a later one must not
  // move the bytes an earlier token views.
  std::string input;
  std::vector<std::string> expected;
  for (int i = 0; i < 40; ++i) {
    const std::string body = "literal number " + std::to_string(i);
    input += "\"" + body + "\\\"q\\\\ \" x" + std::to_string(i) + " ";
    expected.push_back(body + "\"q\\ ");
  }
  TokenCursor cursor;
  std::vector<Token> tokens = Lex(cursor, input);
  ASSERT_EQ(tokens.size(), 81u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(tokens[2 * i].kind, TokenKind::kString);
    EXPECT_EQ(tokens[2 * i].text, expected[i]) << i;
    EXPECT_EQ(tokens[2 * i + 1].text, "x" + std::to_string(i));
  }
}

TEST(Lexer, UnescapedLiteralsViewTheInput) {
  const std::string input = "[ln = \"Clancy\"] \"a\\\\b\"";
  TokenCursor cursor;
  std::vector<Token> tokens = Lex(cursor, input);
  ASSERT_EQ(tokens.size(), 7u);
  EXPECT_EQ(tokens[3].text, "Clancy");
  EXPECT_EQ(tokens[3].text.data(), input.data() + 7);
  EXPECT_EQ(tokens[5].text, "a\\b");
}

TEST(Lexer, TokenOffsets) {
  TokenCursor cursor;
  std::vector<Token> tokens =
      Lex(cursor, "[fac.ln >= \"x\\\"y\"] # note\n  and -3.5");
  ASSERT_EQ(tokens.size(), 10u);
  const size_t offsets[] = {0, 1, 4, 5, 8, 11, 17, 28, 32, 36};
  for (size_t i = 0; i < tokens.size(); ++i) {
    EXPECT_EQ(tokens[i].offset, offsets[i]) << i;
  }
  EXPECT_EQ(tokens[5].text, "x\"y");
  EXPECT_EQ(tokens[9].kind, TokenKind::kEnd);
}

TEST(Lexer, SignedFractionalAndRangeNumbers) {
  TokenCursor cursor;
  std::vector<Token> tokens = Lex(cursor, "-12 3.5 1..2 x -1");
  ASSERT_EQ(tokens.size(), 9u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kNumber);
  EXPECT_EQ(tokens[0].text, "-12");
  EXPECT_TRUE(tokens[0].is_integer);
  EXPECT_EQ(tokens[0].number, -12);
  EXPECT_EQ(tokens[1].text, "3.5");
  EXPECT_FALSE(tokens[1].is_integer);
  EXPECT_EQ(tokens[1].number, 3.5);
  // `..` ends a number: 1, '.', '.', 2.
  EXPECT_EQ(tokens[2].text, "1");
  EXPECT_TRUE(tokens[2].is_integer);
  EXPECT_EQ(tokens[3].kind, TokenKind::kPunct);
  EXPECT_EQ(tokens[3].text, ".");
  EXPECT_EQ(tokens[4].text, ".");
  EXPECT_EQ(tokens[5].text, "2");
  EXPECT_EQ(tokens[5].number, 2);
  EXPECT_EQ(tokens[6].kind, TokenKind::kIdent);
  EXPECT_EQ(tokens[7].number, -1);
}

TEST(Lexer, NumbersReadAsStrtodReadsThem) {
  const std::string beyond_2_53 = "9007199254740993";  // 2^53 + 1
  const std::string huge = "1" + std::string(400, '0');
  const std::string tiny = "0." + std::string(400, '0') + "1";
  const std::string digits = "123456789012345678901234567890.0987654321";
  const std::string input =
      beyond_2_53 + " " + huge + " " + tiny + " " + digits;
  TokenCursor cursor;
  std::vector<Token> tokens = Lex(cursor, input);
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_TRUE(tokens[0].is_integer);
  EXPECT_EQ(tokens[0].number, std::strtod(beyond_2_53.c_str(), nullptr));
  EXPECT_EQ(tokens[0].number, 9007199254740992.0);
  EXPECT_TRUE(tokens[1].is_integer);
  EXPECT_EQ(tokens[1].number, std::strtod(huge.c_str(), nullptr));
  EXPECT_TRUE(std::isinf(tokens[1].number));
  EXPECT_FALSE(tokens[2].is_integer);
  EXPECT_EQ(tokens[2].number, std::strtod(tiny.c_str(), nullptr));
  EXPECT_EQ(tokens[3].number, std::strtod(digits.c_str(), nullptr));
}

TEST(Lexer, EmptyAndCommentOnlyInputs) {
  TokenCursor cursor;
  std::vector<Token> empty = Lex(cursor, "");
  ASSERT_EQ(empty.size(), 1u);
  EXPECT_EQ(empty[0].kind, TokenKind::kEnd);
  EXPECT_EQ(empty[0].offset, 0u);
  EXPECT_TRUE(cursor.AtEnd());

  const std::string comments = "# one\n  // two\n\t";
  std::vector<Token> only_comments = Lex(cursor, comments);
  ASSERT_EQ(only_comments.size(), 1u);
  EXPECT_EQ(only_comments[0].kind, TokenKind::kEnd);
  EXPECT_EQ(only_comments[0].offset, comments.size());
  EXPECT_TRUE(cursor.AtEnd());
}

TEST(Lexer, ResetReplacesTheTokensAndReleaseDropsThem) {
  TokenCursor cursor;
  ASSERT_TRUE(cursor.Reset("a b c \"d\\\"\"").ok());
  EXPECT_TRUE(cursor.TryConsumeIdent("a"));
  ASSERT_TRUE(cursor.Reset("x").ok());
  EXPECT_EQ(cursor.Peek().text, "x");
  EXPECT_EQ(cursor.Peek(1).kind, TokenKind::kEnd);
  EXPECT_EQ(cursor.Peek(1).offset, 1u);
  // A failed Reset leaves no tokens behind.
  EXPECT_FALSE(cursor.Reset("y \"open").ok());
  EXPECT_TRUE(cursor.AtEnd());
  ASSERT_TRUE(cursor.Reset("\"p\\\"q\" r").ok());
  cursor.Release(0);
  EXPECT_TRUE(cursor.AtEnd());
  ASSERT_TRUE(cursor.Reset("s \"t\\\"u\"").ok());
  EXPECT_EQ(cursor.Next().text, "s");
  EXPECT_EQ(cursor.Next().text, "t\"u");
  EXPECT_TRUE(cursor.AtEnd());
}

}  // namespace
}  // namespace qmap
