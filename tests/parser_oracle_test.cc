// Parser oracle harness: a seeded generator builds every random query twice,
// once as text and once directly through Query::Leaf/And/Or, and the parse
// of the text must be the direct build:
//
//   interning on:  ParseQuery(text) is the directly built node (same
//                  identity, so StructurallyEquals), and prints as the
//                  un-interned build does;
//   interning off: same fingerprint, ToString and ToParseableText;
//   round trip:    ParseQuery(ToParseableText(q)) is q's node.
//
// The generator covers escaped string literals, negative and fractional
// numbers, date/range/point literals, view-qualified, instanced and
// expanded-path attributes, names and literals longer than 15 bytes,
// keywords used as names, `true`, redundant parentheses, `and`/`&`,
// `or`/`|`, and comments. Seeds default to {101, 202, 303};
// QMAP_SUBSUMPTION_SEED overrides them (the CI resilience job runs extra
// seeds), and the seed in force is echoed in the test log.
//
// A second part pins the exact error message of each of a table of
// malformed queries, constraints and rule specs.

#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "qmap/expr/intern.h"
#include "qmap/expr/parser.h"
#include "qmap/expr/printer.h"
#include "qmap/expr/query.h"
#include "qmap/rules/function_registry.h"
#include "qmap/rules/spec_parser.h"
#include "query_twins.h"
#include "test_util.h"

namespace qmap {
namespace {

using testing::InternToggle;
using testing::Twin;
using testing::TwinGenerator;

std::vector<uint32_t> HarnessSeeds() {
  if (const char* env = std::getenv("QMAP_SUBSUMPTION_SEED")) {
    return {static_cast<uint32_t>(std::strtoul(env, nullptr, 10))};
  }
  return {101, 202, 303};
}

constexpr int kQueriesPerSeed = 400;

std::string Rendering(const Query& q) {
  return q.ToString() + "\n" + ToParseableText(q);
}

// The renderings of every query a seed generates, built with interning off:
// what the interned builds must print. A table that shared one node between
// distinct structures would print differently.
std::vector<std::string> ReferenceRenderings(uint32_t seed) {
  InternToggle off(false);
  TwinGenerator generator(seed);
  std::vector<std::string> out;
  for (int i = 0; i < kQueriesPerSeed; ++i) {
    out.push_back(Rendering(generator.Next().query));
  }
  return out;
}

TEST(ParserOracle, ParseIsTheDirectBuildWithInterningOn) {
  InternToggle on(true);
  for (uint32_t seed : HarnessSeeds()) {
    std::cout << "[parser-oracle] interning=on seed=" << seed
              << " queries=" << kQueriesPerSeed << std::endl;
    const std::vector<std::string> reference = ReferenceRenderings(seed);
    TwinGenerator generator(seed);
    for (int i = 0; i < kQueriesPerSeed; ++i) {
      const Twin twin = generator.Next();
      Result<Query> parsed = ParseQuery(twin.text);
      ASSERT_TRUE(parsed.ok())
          << "seed " << seed << " #" << i << ": " << parsed.status().ToString()
          << "\n  text: " << twin.text;
      EXPECT_TRUE(parsed->StructurallyEquals(twin.query))
          << "seed " << seed << " #" << i << "\n  text: " << twin.text
          << "\n  parsed: " << parsed->ToString()
          << "\n  direct: " << twin.query.ToString();
      EXPECT_EQ(parsed->identity(), twin.query.identity());
      EXPECT_EQ(Rendering(*parsed), reference[static_cast<size_t>(i)])
          << "seed " << seed << " #" << i << "\n  text: " << twin.text;

      const std::string printed = ToParseableText(twin.query);
      Result<Query> reparsed = ParseQuery(printed);
      ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString()
                                 << "\n  printed: " << printed;
      EXPECT_EQ(reparsed->identity(), twin.query.identity())
          << "seed " << seed << " #" << i << "\n  printed: " << printed;
    }
  }
}

TEST(ParserOracle, ParseMatchesTheDirectBuildWithInterningOff) {
  InternToggle off(false);
  for (uint32_t seed : HarnessSeeds()) {
    std::cout << "[parser-oracle] interning=off seed=" << seed
              << " queries=" << kQueriesPerSeed << std::endl;
    TwinGenerator generator(seed);
    for (int i = 0; i < kQueriesPerSeed; ++i) {
      const Twin twin = generator.Next();
      Result<Query> parsed = ParseQuery(twin.text);
      ASSERT_TRUE(parsed.ok())
          << "seed " << seed << " #" << i << ": " << parsed.status().ToString()
          << "\n  text: " << twin.text;
      EXPECT_EQ(parsed->fingerprint(), twin.query.fingerprint())
          << "seed " << seed << " #" << i << "\n  text: " << twin.text;
      EXPECT_EQ(parsed->ToString(), twin.query.ToString());
      EXPECT_EQ(ToParseableText(*parsed), ToParseableText(twin.query));
      EXPECT_TRUE(parsed->StructurallyEquals(twin.query));
    }
  }
}

TEST(ParserOracle, MemoAnswersWithTheNodeOfTheFirstParse) {
  // Each text is parsed three times in a row: the first parse marks its memo
  // slot, the second admits it, and the memo answers the third without
  // constructing a node (unless the text is over the memo's size cap). The
  // answer is the first parse's node, and so is the parse of a whitespace
  // variant, which the memo cannot answer.
  InternToggle on(true);
  for (uint32_t seed : HarnessSeeds()) {
    std::cout << "[parser-oracle] memo seed=" << seed
              << " queries=" << kQueriesPerSeed << std::endl;
    TwinGenerator generator(seed);
    int answered_texts = 0;
    for (int i = 0; i < kQueriesPerSeed; ++i) {
      const Twin twin = generator.Next();
      const bool memoizable = twin.text.size() <= kParseMemoMaxTextBytes;
      answered_texts += memoizable ? 1 : 0;
      Result<Query> first = ParseQuery(twin.text);
      ASSERT_TRUE(first.ok()) << first.status().ToString()
                              << "\n  text: " << twin.text;
      Result<Query> second = ParseQuery(twin.text);
      const InternStats before = QueryInternStats();
      Result<Query> answered = ParseQuery(twin.text);
      const InternStats after = QueryInternStats();
      Result<Query> variant = ParseQuery("  " + twin.text + "\n");
      ASSERT_TRUE(second.ok() && answered.ok() && variant.ok()) << twin.text;
      EXPECT_EQ(after.parse_memo_hits - before.parse_memo_hits,
                memoizable ? 1u : 0u)
          << "seed " << seed << " #" << i << "\n  text: " << twin.text;
      if (memoizable) {
        EXPECT_EQ(after.query_hits, before.query_hits);
        EXPECT_EQ(after.query_misses, before.query_misses);
      }
      EXPECT_EQ(second->identity(), first->identity());
      EXPECT_EQ(answered->identity(), first->identity())
          << "seed " << seed << " #" << i << "\n  text: " << twin.text;
      EXPECT_EQ(variant->identity(), first->identity());
      EXPECT_EQ(answered->identity(), twin.query.identity());
    }
    EXPECT_GT(answered_texts, kQueriesPerSeed / 2);
  }
}

// ---------------------------------------------------------------------------
// Malformed inputs and their exact messages.

struct Malformed {
  const char* input;
  const char* message;
};

constexpr Malformed kMalformedQueries[] = {
    {"", "expected '(', '[' or 'true' but found '' at offset 0"},
    {"[a = ]", "expected value literal but found ']' at offset 5"},
    {"[a 1]", "expected operator but found '1' at offset 3"},
    {"([a = 1]", "expected ')' but found '' at offset 8"},
    {"[a = 1] [b = 2]", "trailing input after query: '['"},
    {"[a = 1] and", "expected '(', '[' or 'true' but found '' at offset 11"},
    {"[date(1997) = 1]", "expected operator but found '(' at offset 5"},
    {"\"oops", "unterminated string literal at offset 0"},
    {"[a = \"oops]", "unterminated string literal at offset 5"},
    {"[a $ 1]", "unexpected character '$' at offset 3"},
    {"[a[1] = 1]", "view index requires a qualified attribute"},
    {"[a[x].b = 1]", "expected integer view index at offset 3"},
    {"[a[1.5].b = 1]", "expected integer view index at offset 3"},
    {"[a. = 1]", "expected identifier but found '=' at offset 4"},
    {"[a = date(1997, \"x\")]", "expected number in date() literal"},
    {"[a = date()]", "expected number in date() literal"},
    {"[a = date(1, 2, 3, 4)]", "date() takes 1-3 integer arguments"},
    {"[a = range(1)]", "range() takes exactly 2 arguments"},
    {"[a = point(1, 2, 3)]", "point() takes exactly 2 arguments"},
    {"[a = range(1, 2]", "expected ')' but found ']' at offset 15"},
    {"[a ~ 1]", "unexpected character '~' at offset 3"},
    {"[a is 1]", "expected operator but found 'is' at offset 3"},
    {"[a = 1", "expected ']' but found '' at offset 6"},
    {"true and", "expected '(', '[' or 'true' but found '' at offset 8"},
    {"[a = 1] or or [b = 2]",
     "expected '(', '[' or 'true' but found 'or' at offset 11"},
    {"[a = 1])", "trailing input after query: ')'"},
    {"# only a comment",
     "expected '(', '[' or 'true' but found '' at offset 16"},
    {"[a = -]", "unexpected character '-' at offset 5"},
    {"[a = 1..2]", "expected ']' but found '.' at offset 6"},
    {"[a = \"x\\\"y\" ]]", "trailing input after query: ']'"},
    {"[a = 1] & | [b = 2]",
     "expected '(', '[' or 'true' but found '|' at offset 10"},
    {"()", "expected '(', '[' or 'true' but found ')' at offset 1"},
    {"[a = b.]", "expected identifier but found ']' at offset 7"},
    {"[a = \"unterminated\\\"]", "unterminated string literal at offset 5"},
    {"[fac[1].ln = fac[].ln]", "expected integer view index at offset 17"},
    {"[a = 1] # trailing\n [b", "trailing input after query: '['"},
};

constexpr Malformed kMalformedConstraints[] = {
    {"[a = 1] x", "trailing input after constraint"},
    {"[a = 1] [b = 2]", "trailing input after constraint"},
    {"a = 1", "expected '[' but found 'a' at offset 0"},
    {"[a = 1", "expected ']' but found '' at offset 6"},
};

constexpr Malformed kMalformedSpecs[] = {
    {"rule R1: [a = X] => emit [b = X]",
     "expected ';' but found '' at offset 32"},
    {"rul R1: [a = X] => emit [b = X];",
     "expected 'rule' but found 'rul' at offset 0"},
    {"rule R1: [a = X] => [b = X];", "rule R1: expected 'emit' but found '['"},
    {"rule R1: [v.X.y = 1] => emit true;",
     "variable 'X' not allowed as an interior attribute component"},
    {"rule R1: [v.a.X = 1] => emit true;",
     "variable 'X' not allowed after a multi-part path"},
    {"rule R1: [v[1] = 1] => emit true;",
     "view index requires a qualified attribute ('v[..]' lacks an attribute "
     "name)"},
    {"rule R1: [v[\"s\"].a = 1] => emit true;",
     "expected view index at offset 12"},
    {"rule R1 [a = 1] => emit true;", "expected ':' but found '[' at offset 8"},
    {"rule R1: [a = 1] => let X = ; emit true;",
     "expected identifier but found ';' at offset 28"},
    {"rule R1: [a = 1] where => emit true;",
     "expected identifier but found '=>' at offset 23"},
    {"rule R1: [a = 1] => emit [b = 1] |;",
     "expected '[' but found ';' at offset 34"},
    {"rule R1: [a = 1] => emit ([b = 1];",
     "expected ')' but found ';' at offset 33"},
    {"rule R1: [a = \"x] => emit true;",
     "unterminated string literal at offset 14"},
    {"rule R1: [a = 1] => emit [b = 1]; rule",
     "expected identifier but found '' at offset 38"},
    {"rule: [a = 1] => emit true;",
     "expected identifier but found ':' at offset 4"},
    {"rule R1: [a @ 1] => emit true;",
     "expected operator but found '@' at offset 12"},
    {"rule R1: [a = 1] => let X = F(1, ; emit true;",
     "expected identifier but found ';' at offset 33"},
};

TEST(ParserErrors, MalformedQueriesReportExactMessages) {
  for (const Malformed& row : kMalformedQueries) {
    Result<Query> q = ParseQuery(row.input);
    ASSERT_FALSE(q.ok()) << row.input;
    EXPECT_EQ(q.status().code(), StatusCode::kParseError) << row.input;
    EXPECT_EQ(q.status().message(), row.message) << row.input;
  }
}

TEST(ParserErrors, MalformedConstraintsReportExactMessages) {
  for (const Malformed& row : kMalformedConstraints) {
    Result<Constraint> c = ParseConstraint(row.input);
    ASSERT_FALSE(c.ok()) << row.input;
    EXPECT_EQ(c.status().message(), row.message) << row.input;
  }
}

TEST(ParserErrors, MalformedSpecsReportExactMessages) {
  auto registry =
      std::make_shared<FunctionRegistry>(FunctionRegistry::WithBuiltins());
  for (const Malformed& row : kMalformedSpecs) {
    Result<MappingSpec> spec = ParseMappingSpec(row.input, "T", registry);
    ASSERT_FALSE(spec.ok()) << row.input;
    EXPECT_EQ(spec.status().message(), row.message) << row.input;
  }
}

TEST(ParserErrors, AFailedParseLeavesTheNextOneIntact) {
  // The per-thread scratch must not carry tokens or operands from a parse
  // that failed midway into the next parse.
  EXPECT_FALSE(ParseQuery("([a = 1] and ([b = \"x\\\"\"] or [c = 2]").ok());
  Result<Query> q = ParseQuery("[d = 4] and [e = \"y\\\"\"]");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(ToParseableText(*q), "[d = 4] and [e = \"y\\\"\"]");
}

}  // namespace
}  // namespace qmap
