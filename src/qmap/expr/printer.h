#ifndef QMAP_EXPR_PRINTER_H_
#define QMAP_EXPR_PRINTER_H_

#include <string>

#include "qmap/expr/query.h"

namespace qmap {

/// Renders `query` in the concrete syntax accepted by ParseQuery — `and`/
/// `or` keywords and function-style value literals (`date(1997, 5)`,
/// `range(10, 30)`, `point(10, 20)`) instead of the pretty ∧/∨ and `May/97`
/// forms of Query::ToString().  Guaranteed round-trip:
/// ParseQuery(ToParseableText(q)) == q for every normalized query.
std::string ToParseableText(const Query& query);

/// Appends ToParseableText(query) to `*out`: the one renderer, building no
/// temporary strings, so a caller encoding a message renders in place.
void AppendParseableText(const Query& query, std::string* out);

/// Same for a single constraint.
std::string ToParseableText(const Constraint& constraint);

/// Parseable rendering of a value (`"s"`, `3`, `date(1997, 5)`, ...).
std::string ToParseableText(const Value& value);

}  // namespace qmap

#endif  // QMAP_EXPR_PRINTER_H_
