#include "qmap/value/value.h"

#include <cmath>
#include <cstdio>

#include "qmap/common/fnv.h"

namespace qmap {
namespace {

constexpr const char* kMonthNames[] = {"Jan", "Feb", "Mar", "Apr", "May", "Jun",
                                       "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};

std::string FormatDouble(double v) {
  // Print integers without a trailing ".0" so 10.0 renders as "10".
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

}  // namespace

std::string DateToString(const Date& d) {
  // The paper prints two-digit years ("May/97"); keep 4-digit years readable.
  std::string year = d.year >= 1900 && d.year < 2000
                         ? std::to_string(d.year - 1900)
                         : std::to_string(d.year);
  if (!d.month.has_value()) return year;
  std::string month = (*d.month >= 1 && *d.month <= 12)
                          ? kMonthNames[*d.month - 1]
                          : std::to_string(*d.month);
  if (!d.day.has_value()) return month + "/" + year;
  return std::to_string(*d.day) + "/" + month + "/" + year;
}

ValueKind Value::kind() const {
  switch (rep_.index()) {
    case 0:
      return ValueKind::kNull;
    case 1:
      return ValueKind::kInt;
    case 2:
      return ValueKind::kDouble;
    case 3:
      return ValueKind::kString;
    case 4:
      return ValueKind::kDate;
    case 5:
      return ValueKind::kRange;
    default:
      return ValueKind::kPoint;
  }
}

double Value::AsDouble() const {
  if (kind() == ValueKind::kInt) return static_cast<double>(std::get<int64_t>(rep_));
  return std::get<double>(rep_);
}

bool Value::Equals(const Value& other) const {
  if (is_numeric() && other.is_numeric()) return AsDouble() == other.AsDouble();
  if (kind() != other.kind()) return false;
  return rep_ == other.rep_;
}

std::optional<int> Value::Compare(const Value& other) const {
  if (is_numeric() && other.is_numeric()) {
    double a = AsDouble();
    double b = other.AsDouble();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (kind() == ValueKind::kString && other.kind() == ValueKind::kString) {
    int c = AsString().compare(other.AsString());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  if (kind() == ValueKind::kDate && other.kind() == ValueKind::kDate) {
    // Total order only on fully specified dates.
    const Date& a = AsDate();
    const Date& b = other.AsDate();
    if (a.month.has_value() != b.month.has_value() ||
        a.day.has_value() != b.day.has_value()) {
      return std::nullopt;
    }
    auto key = [](const Date& d) {
      return d.year * 10000 + d.month.value_or(0) * 100 + d.day.value_or(0);
    };
    int ka = key(a);
    int kb = key(b);
    return ka < kb ? -1 : (ka > kb ? 1 : 0);
  }
  return std::nullopt;
}

uint64_t Value::CanonicalHash() const {
  // Must hash the exact bytes ToString() would produce — fingerprint equality
  // has to coincide with printed-form equality. Fast paths below reproduce the
  // ToString rendering for the hot kinds without allocating.
  Fnv64 h;
  switch (kind()) {
    case ValueKind::kNull:
      return h.Add("null").value();
    case ValueKind::kInt:
      return h.AddDecimal(AsInt()).value();
    case ValueKind::kDouble: {
      double v = AsDouble();
      if (v == std::floor(v) && std::abs(v) < 1e15) {
        return h.AddDecimal(static_cast<int64_t>(v)).value();
      }
      char buf[64];
      int n = std::snprintf(buf, sizeof(buf), "%g", v);
      return h.Add(std::string_view(buf, static_cast<size_t>(n))).value();
    }
    case ValueKind::kString:
      return h.AddByte('"').Add(AsString()).AddByte('"').value();
    default:
      // Dates, ranges and points are rare operands; the allocation is fine.
      return h.Add(ToString()).value();
  }
}

std::string Value::ToString() const {
  switch (kind()) {
    case ValueKind::kNull:
      return "null";
    case ValueKind::kInt:
      return std::to_string(AsInt());
    case ValueKind::kDouble:
      return FormatDouble(AsDouble());
    case ValueKind::kString:
      return "\"" + AsString() + "\"";
    case ValueKind::kDate:
      return DateToString(AsDate());
    case ValueKind::kRange: {
      const Range& r = AsRange();
      return "(" + FormatDouble(r.lo) + ":" + FormatDouble(r.hi) + ")";
    }
    case ValueKind::kPoint: {
      const Point& p = AsPoint();
      return "(" + FormatDouble(p.x) + "," + FormatDouble(p.y) + ")";
    }
  }
  return "?";
}

}  // namespace qmap
