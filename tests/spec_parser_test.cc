#include "qmap/rules/spec_parser.h"

#include <gtest/gtest.h>

#include "qmap/contexts/amazon.h"
#include "qmap/contexts/clbooks.h"
#include "qmap/contexts/faculty.h"
#include "qmap/contexts/geo.h"

namespace qmap {
namespace {

std::shared_ptr<const FunctionRegistry> Builtins() {
  return std::make_shared<FunctionRegistry>(FunctionRegistry::WithBuiltins());
}

TEST(SpecParser, MinimalRule) {
  Result<MappingSpec> spec = ParseMappingSpec(
      "rule R1: [ln = L] where Value(L) => emit [author = L];", "T", Builtins());
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ASSERT_EQ(spec->rules().size(), 1u);
  const Rule& rule = spec->rules()[0];
  EXPECT_EQ(rule.name, "R1");
  EXPECT_TRUE(rule.exact);
  ASSERT_EQ(rule.head.size(), 1u);
  EXPECT_EQ(rule.conditions.size(), 1u);
  EXPECT_EQ(rule.emission.kind, EmissionTemplate::Kind::kLeaf);
}

TEST(SpecParser, InexactKeyword) {
  Result<MappingSpec> spec = ParseMappingSpec(
      "rule R inexact: [ti contains P] => emit [ti-word contains P];", "T",
      Builtins());
  ASSERT_TRUE(spec.ok());
  EXPECT_FALSE(spec->rules()[0].exact);
}

TEST(SpecParser, MultiPatternWithLets) {
  Result<MappingSpec> spec = ParseMappingSpec(
      "rule R6: [pyear = Y]; [pmonth = M] where Value(Y), Value(M)"
      "  => let D = MakeDate(Y, M); emit [pdate during D];",
      "T", Builtins());
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const Rule& rule = spec->rules()[0];
  EXPECT_EQ(rule.head.size(), 2u);
  EXPECT_EQ(rule.lets.size(), 1u);
  EXPECT_EQ(rule.lets[0].var, "D");
  EXPECT_EQ(rule.lets[0].call.function, "MakeDate");
}

TEST(SpecParser, DisjunctiveEmission) {
  Result<MappingSpec> spec = ParseMappingSpec(
      "rule R8: [kwd contains P] => "
      "emit [ti-word contains P] | [subject-word contains P];",
      "T", Builtins());
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->rules()[0].emission.kind, EmissionTemplate::Kind::kOr);
  EXPECT_EQ(spec->rules()[0].emission.children.size(), 2u);
}

TEST(SpecParser, EmitTrue) {
  Result<MappingSpec> spec =
      ParseMappingSpec("rule R: [x = V] => emit true;", "T", Builtins());
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->rules()[0].emission.kind, EmissionTemplate::Kind::kTrue);
}

TEST(SpecParser, JoinPatternWithViewVars) {
  Result<MappingSpec> spec = ParseMappingSpec(
      "rule R5: [V1.ln = V2.ln]; [V1.fn = V2.fn] => emit true;", "T", Builtins());
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const ConstraintPattern& p = spec->rules()[0].head[0];
  EXPECT_EQ(p.lhs.view_var, "V1");
  EXPECT_EQ(p.lhs.name_literal, "ln");
  EXPECT_EQ(p.rhs.kind, OperandExpr::Kind::kAttr);
  EXPECT_EQ(p.rhs.attr.view_var, "V2");
}

TEST(SpecParser, IndexVariables) {
  Result<MappingSpec> spec = ParseMappingSpec(
      "rule R8: [fac[I].A = fac[J].A] => emit true;", "T", Builtins());
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const ConstraintPattern& p = spec->rules()[0].head[0];
  EXPECT_EQ(p.lhs.view_literal, "fac");
  EXPECT_EQ(p.lhs.index_var, "I");
  EXPECT_EQ(p.lhs.name_var, "A");
}

TEST(SpecParser, RejectsAViewIndexOutsideIntRange) {
  Result<MappingSpec> spec = ParseMappingSpec(
      "rule R1: [v[4294967297].a = X] where Value(X) => emit [b = X];", "T",
      Builtins());
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().message(),
            "number 4294967297 out of range at offset 12");
}

TEST(SpecParser, RejectsUnknownCondition) {
  Result<MappingSpec> spec = ParseMappingSpec(
      "rule R: [x = V] where NoSuch(V) => emit [y = V];", "T", Builtins());
  EXPECT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kNotFound);
}

TEST(SpecParser, RejectsUnknownTransform) {
  Result<MappingSpec> spec = ParseMappingSpec(
      "rule R: [x = V] => let W = NoSuch(V); emit [y = W];", "T", Builtins());
  EXPECT_FALSE(spec.ok());
}

TEST(SpecParser, RejectsUnboundEmissionVariable) {
  Result<MappingSpec> spec =
      ParseMappingSpec("rule R: [x = V] => emit [y = W];", "T", Builtins());
  EXPECT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
}

TEST(SpecParser, RejectsSyntaxErrors) {
  EXPECT_FALSE(ParseMappingSpec("rule R [x = V] => emit true;", "T", Builtins()).ok());
  EXPECT_FALSE(ParseMappingSpec("R: [x = V] => emit true;", "T", Builtins()).ok());
  EXPECT_FALSE(
      ParseMappingSpec("rule R: [x = V] => emit [y = V]", "T", Builtins()).ok());
}

TEST(SpecParser, ValueLiteralInPattern) {
  Result<MappingSpec> spec = ParseMappingSpec(
      "rule R: [dept = \"cs\"] => emit [code = 230];", "T", Builtins());
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->rules()[0].head[0].rhs.kind, OperandExpr::Kind::kValueLiteral);
}

// The shipped contexts must all parse (a parse failure is embedded in the
// target name by the context builders).
TEST(SpecParser, ShippedContextsParse) {
  EXPECT_EQ(AmazonSpec().target_name(), "Amazon");
  EXPECT_EQ(ClbooksSpec().target_name(), "Clbooks");
  EXPECT_EQ(FacultyK1().target_name(), "T1");
  EXPECT_EQ(FacultyK2().target_name(), "T2");
  EXPECT_EQ(GeoSpec().target_name(), "G");
  EXPECT_EQ(AmazonSpec().rules().size(), 9u);
  EXPECT_EQ(FacultyK1().rules().size(), 5u);
  EXPECT_EQ(FacultyK2().rules().size(), 3u);
  EXPECT_EQ(GeoSpec().rules().size(), 4u);
}

TEST(SpecParser, SpecToStringMentionsAllRules) {
  std::string text = AmazonSpec().ToString();
  for (const char* name : {"R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9"}) {
    EXPECT_NE(text.find(std::string("rule ") + name), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace qmap
