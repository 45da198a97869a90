#ifndef QMAP_EXPR_PARSER_H_
#define QMAP_EXPR_PARSER_H_

#include <string_view>

#include "qmap/common/lexer.h"
#include "qmap/common/status.h"
#include "qmap/expr/query.h"

namespace qmap {

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
/// Parsing allocates nothing for structure the intern tables already hold
/// (DESIGN.md §9): each thread reuses one token cursor, whose tokens view
/// `text`, and one operand stack, and the Query constructors build a node
/// only when their probe misses. Names and literals of up to 15 bytes fit
/// in the strings of the probe's stack-built Constraint.
Result<Query> ParseQuery(std::string_view text);

/// Parses a single bracketed constraint, e.g. `[pyear = 1997]`.
Result<Constraint> ParseConstraint(std::string_view text);

/// Internal: parses one constraint starting at the cursor's `[` token.
/// Shared with the rule-DSL parser.
Result<Constraint> ParseConstraintAt(TokenCursor& cursor);

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
