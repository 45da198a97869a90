#include "qmap/expr/printer.h"

#include <charconv>
#include <cmath>

namespace qmap {
namespace {

// Appends `v` in decimal, as printf's %lld would.
void AppendInt(int64_t v, std::string* out) {
  char buf[24];
  const char* end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  out->append(buf, static_cast<size_t>(end - buf));
}

// Integral values below 1e15 as integers, everything else as printf's %.17g
// would (std::to_chars' general format is specified to match it).
void AppendNumber(double v, std::string* out) {
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    AppendInt(static_cast<int64_t>(v), out);
    return;
  }
  char buf[32];
  const char* end =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 17)
          .ptr;
  out->append(buf, static_cast<size_t>(end - buf));
}

// `head` (a function name and its open paren), then `a, b)`: the text of a
// range or a point.
void AppendPair(const char* head, double a, double b, std::string* out) {
  out->append(head);
  AppendNumber(a, out);
  out->append(", ");
  AppendNumber(b, out);
  out->push_back(')');
}

void AppendEscaped(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->push_back('"');
}

void AppendValue(const Value& value, std::string* out) {
  switch (value.kind()) {
    case ValueKind::kNull:
      out->append("null");  // cannot appear in parseable constraints
      return;
    case ValueKind::kInt:
      AppendInt(value.AsInt(), out);
      return;
    case ValueKind::kDouble:
      AppendNumber(value.AsDouble(), out);
      return;
    case ValueKind::kString:
      AppendEscaped(value.AsString(), out);
      return;
    case ValueKind::kDate: {
      const Date& d = value.AsDate();
      out->append("date(");
      AppendInt(d.year, out);
      if (d.month.has_value()) {
        out->append(", ");
        AppendInt(*d.month, out);
      }
      if (d.day.has_value()) {
        out->append(", ");
        AppendInt(*d.day, out);
      }
      out->push_back(')');
      return;
    }
    case ValueKind::kRange:
      AppendPair("range(", value.AsRange().lo, value.AsRange().hi, out);
      return;
    case ValueKind::kPoint:
      AppendPair("point(", value.AsPoint().x, value.AsPoint().y, out);
      return;
  }
  out->append("null");
}

void AppendConstraint(const Constraint& constraint, std::string* out) {
  out->push_back('[');
  constraint.lhs.AppendTo(out);
  out->push_back(' ');
  out->append(OpName(constraint.op));
  out->push_back(' ');
  if (constraint.is_join()) {
    constraint.rhs_attr().AppendTo(out);
  } else {
    AppendValue(constraint.rhs_value(), out);
  }
  out->push_back(']');
}

}  // namespace

void AppendParseableText(const Query& query, std::string* out) {
  switch (query.kind()) {
    case NodeKind::kTrue:
      out->append("true");
      return;
    case NodeKind::kLeaf:
      AppendConstraint(query.constraint(), out);
      return;
    case NodeKind::kAnd:
    case NodeKind::kOr: {
      const char* sep = query.kind() == NodeKind::kAnd ? " and " : " or ";
      for (size_t i = 0; i < query.children().size(); ++i) {
        if (i > 0) out->append(sep);
        const Query& child = query.children()[i];
        bool parens =
            child.kind() == NodeKind::kAnd || child.kind() == NodeKind::kOr;
        if (parens) out->push_back('(');
        AppendParseableText(child, out);
        if (parens) out->push_back(')');
      }
      return;
    }
  }
  out->append("true");
}

std::string ToParseableText(const Query& query) {
  std::string out;
  AppendParseableText(query, &out);
  return out;
}

std::string ToParseableText(const Constraint& constraint) {
  std::string out;
  AppendConstraint(constraint, &out);
  return out;
}

std::string ToParseableText(const Value& value) {
  std::string out;
  AppendValue(value, &out);
  return out;
}

}  // namespace qmap
