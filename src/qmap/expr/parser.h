#ifndef QMAP_EXPR_PARSER_H_
#define QMAP_EXPR_PARSER_H_

#include <cstddef>
#include <string_view>

#include "qmap/common/lexer.h"
#include "qmap/common/status.h"
#include "qmap/expr/query.h"

namespace qmap {

/// ParseQuery's per-thread memo (DESIGN.md §9): slots in its direct-mapped
/// table, a power of two so a text's slot is the top bits of a product of
/// its hash (parser.cc), and the longest text it admits. The e2e `remote`
/// front-end parses about 620 distinct texts per client thread and `hot`
/// 100, so the slots keep collisions rare; the cap (the longest text
/// measured there is about 1.5 KiB) bounds what one slot holds, so a
/// thread's table holds at most kParseMemoSlots texts of at most
/// kParseMemoMaxTextBytes each.
inline constexpr size_t kParseMemoSlots = size_t{1} << 12;
inline constexpr size_t kParseMemoMaxTextBytes = size_t{2} << 10;

/// Parses a constraint query from text.  Grammar (whitespace-insensitive):
///
///   query      := or
///   or         := and ( ("or" | "|") and )*
///   and        := primary ( ("and" | "&") primary )*
///   primary    := "(" query ")" | constraint | "true"
///   constraint := "[" attr op operand "]"
///   attr       := IDENT ("[" INT "]")? ("." IDENT)*
///   op         := "=" | "<" | "<=" | ">" | ">=" | "contains" | "starts"
///              |  "during"
///   operand    := STRING | NUMBER | attr
///              |  "date" "(" INT "," INT ["," INT] ")"     — Date literal
///              |  "range" "(" NUM "," NUM ")"              — Range literal
///              |  "point" "(" NUM "," NUM ")"              — Point literal
///
/// Examples:
///   ([ln = "Clancy"] or [ln = "Klancy"]) and [fn = "Tom"]
///   [fac.bib contains "data(near)mining"] and [fac.dept = "cs"]
///   [fac[1].ln = fac[2].ln]
///
/// Integer literals must fit the field they fill (int64 values, int view
/// indexes and date() arguments); one that does not fails to parse.
///
/// Each thread keeps a small memo from exact query text to the interned
/// Query it parsed to (DESIGN.md §9). A text the thread has parsed twice
/// before is answered from it with one hash, one compare and one handle
/// copy, and yields the node a fresh parse would. The memo admits a text
/// only on its second successful parse, never a text over 2 KiB, and is
/// bypassed while interning is off; InternStats counts its hits and misses.
///
/// A parse the memo does not answer allocates nothing for structure the
/// intern tables already hold: each thread reuses one token cursor, whose
/// tokens view `text`, and one operand stack, and the Query constructors
/// build a node only when their probe misses. Names and literals of up to
/// 15 bytes fit in the strings of the probe's stack-built Constraint.
Result<Query> ParseQuery(std::string_view text);

/// Parses a single bracketed constraint, e.g. `[pyear = 1997]`.
Result<Constraint> ParseConstraint(std::string_view text);

/// Internal: parses one constraint starting at the cursor's `[` token.
/// Shared with the rule-DSL parser.
Result<Constraint> ParseConstraintAt(TokenCursor& cursor);

/// Internal: the integer number token `t` as an int, or a ParseError naming
/// the literal when it lies outside int's range. Shared with the rule-DSL
/// parser's view indexes.
Result<int> IntLiteral(const Token& t);

/// Internal: parses an attribute reference starting at an IDENT token,
/// building the dotted name in place.
Result<Attr> ParseAttrAt(TokenCursor& cursor);

/// Internal: parses an operator token sequence (puncts or ident keywords).
Result<Op> ParseOpAt(TokenCursor& cursor);

/// Internal: true when the next tokens open a `date(`, `range(` or
/// `point(` literal.
bool NextIsLiteralCall(const TokenCursor& cursor);

/// Internal: parses a value literal (STRING/NUMBER/date/range/point).
/// Fails if the next token is not a value literal.
Result<Value> ParseValueAt(TokenCursor& cursor);

}  // namespace qmap

#endif  // QMAP_EXPR_PARSER_H_
