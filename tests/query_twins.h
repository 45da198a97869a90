// The parser-oracle query corpus: a seeded generator that builds every
// random query twice, once as text and once directly through
// Query::Leaf/And/Or. Shared by the parser oracle harness
// (parser_oracle_test.cc) and the printer's byte-equality tests
// (printer_test.cc).

#ifndef QMAP_TESTS_QUERY_TWINS_H_
#define QMAP_TESTS_QUERY_TWINS_H_

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "qmap/expr/query.h"

namespace qmap {
namespace testing {

// One random query, as text and as the direct build of that text.
struct Twin {
  std::string text;
  Query query;
  // How the text binds in an enclosing chain: a primary (leaf, `true` or a
  // parenthesized group), or an unparenthesized `and`/`or` chain.
  std::optional<NodeKind> chain;
};

class TwinGenerator {
 public:
  explicit TwinGenerator(uint32_t seed) : rng_(seed) {}

  Twin Next() { return Tree(Uniform(0, 4)); }

 private:
  int Uniform(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }
  bool Chance(int percent) { return Uniform(0, 99) < percent; }
  template <typename T>
  const T& Pick(const std::vector<T>& options) {
    return options[static_cast<size_t>(
        Uniform(0, static_cast<int>(options.size()) - 1))];
  }

  // Whitespace between tokens, sometimes a comment.
  std::string Gap() {
    switch (Uniform(0, 9)) {
      case 0:
        return "\t";
      case 1:
        return "\n  ";
      case 2:
        return " # a comment [x = 1] and\n";
      case 3:
        return " // another ( comment\n ";
      default:
        return " ";
    }
  }
  // A gap that may also be nothing, where the neighbours are puncts.
  std::string OptionalGap() { return Chance(50) ? "" : Gap(); }

  std::string Name() {
    static const std::vector<std::string> kNames = {
        "a", "ln", "fn", "ti-word", "id_no", "x9", "pyear",
        // Longer than a short-string buffer.
        "publication-year-of-record", "a_very_long_attribute_name",
        // Keywords of the grammar are plain names inside brackets.
        "date", "true", "and", "or", "contains", "range"};
    return Pick(kNames);
  }

  std::pair<std::string, Attr> AttrTwin() {
    const std::string name = Name();
    switch (Uniform(0, 3)) {
      case 0:
        return {name, Attr::Simple(name)};
      case 1: {
        const std::string view = Name();
        return {view + OptionalGap() + "." + OptionalGap() + name,
                Attr::Of(view, name)};
      }
      case 2: {
        const std::string view = Name();
        const int instance = Uniform(0, 12);
        return {view + OptionalGap() + "[" + OptionalGap() +
                    std::to_string(instance) + OptionalGap() + "]" +
                    OptionalGap() + "." + name,
                Attr::OfInstance(view, instance, name)};
      }
      default: {
        const std::string view = Name();
        const std::string relation = Name();
        return {view + "." + relation + "." + name,
                Attr::Of(view, relation + "." + name)};
      }
    }
  }

  // A number literal and the double strtod reads from it.
  std::pair<std::string, double> NumberTwin(bool integral) {
    std::string text = Chance(40) ? "-" : "";
    const int digits = Uniform(1, 15);
    text += std::to_string(Uniform(1, 9));
    for (int i = 1; i < digits; ++i) text += std::to_string(Uniform(0, 9));
    if (!integral) {
      text += ".";
      const int fraction = Uniform(1, 4);
      for (int i = 0; i < fraction; ++i) text += std::to_string(Uniform(0, 9));
    }
    return {text, std::strtod(text.c_str(), nullptr)};
  }

  std::pair<std::string, Value> StringTwin() {
    static const std::string kAlphabet = "abZ 09\"\\#/.,()[]-_&|";
    std::string raw;
    std::string text = "\"";
    const int length = Chance(30) ? Uniform(16, 40) : Uniform(0, 12);
    for (int i = 0; i < length; ++i) {
      const char c = kAlphabet[static_cast<size_t>(
          Uniform(0, static_cast<int>(kAlphabet.size()) - 1))];
      raw.push_back(c);
      // Quotes and backslashes must be escaped; any other byte may be.
      if (c == '"' || c == '\\' || Chance(10)) text.push_back('\\');
      text.push_back(c);
    }
    return {text + "\"", Value::Str(raw)};
  }

  std::pair<std::string, Operand> OperandTwin() {
    switch (Uniform(0, 7)) {
      case 0:
      case 1:
        return StringTwin();
      case 2: {
        auto [text, value] = NumberTwin(/*integral=*/true);
        return {text, Value::Int(static_cast<int64_t>(value))};
      }
      case 3: {
        auto [text, value] = NumberTwin(/*integral=*/false);
        return {text, Value::Real(value)};
      }
      case 4: {
        Date d;
        d.year = Uniform(0, 2100);
        std::string text = "date(" + OptionalGap() + std::to_string(d.year);
        if (Chance(70)) {
          d.month = Uniform(1, 12);
          text += "," + OptionalGap() + std::to_string(*d.month);
          if (Chance(50)) {
            d.day = Uniform(1, 31);
            text += "," + OptionalGap() + std::to_string(*d.day);
          }
        }
        return {text + OptionalGap() + ")", Value::OfDate(d)};
      }
      case 5: {
        const bool range = Chance(50);
        auto [a_text, a] = NumberTwin(Chance(50));
        auto [b_text, b] = NumberTwin(Chance(50));
        const std::string text = std::string(range ? "range" : "point") + "(" +
                                 a_text + "," + OptionalGap() + b_text + ")";
        return {text, range ? Value::OfRange(Range{a, b})
                            : Value::OfPoint(Point{a, b})};
      }
      default: {
        auto [text, attr] = AttrTwin();
        return {text, attr};
      }
    }
  }

  Twin LeafTwin() {
    static const std::vector<std::pair<std::string, Op>> kOps = {
        {"=", Op::kEq},         {"<", Op::kLt},
        {"<=", Op::kLe},        {">", Op::kGt},
        {">=", Op::kGe},        {"contains", Op::kContains},
        {"starts", Op::kStartsWith}, {"starts-with", Op::kStartsWith},
        {"during", Op::kDuring}};
    auto [lhs_text, lhs] = AttrTwin();
    const auto& [op_text, op] = Pick(kOps);
    auto [rhs_text, rhs] = OperandTwin();
    Constraint c;
    c.lhs = lhs;
    c.op = op;
    c.rhs = rhs;
    return {"[" + OptionalGap() + lhs_text + Gap() + op_text + Gap() +
                rhs_text + OptionalGap() + "]",
            Query::Leaf(std::move(c)), std::nullopt};
  }

  Twin Tree(int depth) {
    if (depth == 0 || Chance(25)) {
      Twin primary = Chance(6) ? Twin{"true", Query::True(), std::nullopt}
                               : LeafTwin();
      if (Chance(15)) primary.text = "(" + OptionalGap() + primary.text + ")";
      if (Chance(5)) primary.text = "((" + primary.text + "))";
      return primary;
    }
    const NodeKind kind = Chance(50) ? NodeKind::kAnd : NodeKind::kOr;
    const int fanout = Uniform(2, 4);
    std::string text;
    std::vector<Query> children;
    for (int i = 0; i < fanout; ++i) {
      Twin child = Tree(depth - 1);
      // An `or` chain inside an `and` chain needs its parentheses; any
      // other chain may keep or drop them.
      const bool needs_parens =
          child.chain == NodeKind::kOr && kind == NodeKind::kAnd;
      if (child.chain.has_value() && (needs_parens || Chance(50))) {
        child.text = "(" + OptionalGap() + child.text + OptionalGap() + ")";
      }
      if (i > 0) {
        const char* connective =
            kind == NodeKind::kAnd ? (Chance(50) ? "and" : "&")
                                   : (Chance(50) ? "or" : "|");
        text += Gap() + connective + Gap();
      }
      text += child.text;
      children.push_back(child.query);
    }
    Query query = kind == NodeKind::kAnd ? Query::And(children)
                                         : Query::Or(children);
    return {text, query, kind};
  }

  std::mt19937 rng_;
};

}  // namespace testing
}  // namespace qmap

#endif  // QMAP_TESTS_QUERY_TWINS_H_
