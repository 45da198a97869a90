#include "qmap/rules/spec_parser.h"

#include "qmap/common/lexer.h"
#include "qmap/expr/parser.h"

namespace qmap {
namespace {

// Parses an attribute expression: IDENT [ "[" (INT|IDENT) "]" ] ("." IDENT)*.
Result<AttrExpr> ParseAttrExpr(TokenCursor& cursor) {
  Result<std::string_view> head = cursor.ExpectIdent();
  if (!head.ok()) return head.status();

  AttrExpr expr;
  bool has_index = false;
  std::optional<int> index_literal;
  std::string index_var;
  if (cursor.Peek().kind == TokenKind::kPunct && cursor.Peek().text == "[") {
    cursor.Next();
    const Token& t = cursor.Peek();
    if (t.kind == TokenKind::kNumber && t.is_integer) {
      Result<int> index = IntLiteral(cursor.Next());
      if (!index.ok()) return index.status();
      index_literal = *index;
    } else if (t.kind == TokenKind::kIdent) {
      index_var = cursor.Next().text;
    } else {
      return Status::ParseError("expected view index at offset " +
                                std::to_string(t.offset));
    }
    Status s = cursor.ExpectPunct("]");
    if (!s.ok()) return s;
    has_index = true;
  }

  std::vector<std::string_view> rest;
  while (cursor.TryConsumePunct(".")) {
    Result<std::string_view> part = cursor.ExpectIdent();
    if (!part.ok()) return part.status();
    rest.push_back(*part);
  }

  if (rest.empty()) {
    if (has_index) {
      return Status::ParseError("view index requires a qualified attribute ('" +
                                std::string(*head) +
                                "[..]' lacks an attribute name)");
    }
    if (IsVariableName(*head)) {
      expr.whole_var = *head;
    } else {
      expr.name_literal = *head;
    }
    return expr;
  }

  if (IsVariableName(*head)) {
    expr.view_var = *head;
  } else {
    expr.view_literal = *head;
  }
  expr.index_literal = index_literal;
  expr.index_var = index_var;

  // The trailing component may be a variable; interior components must be
  // literals (expanded relation paths like `aubib.bib`).
  std::string_view trailing = rest.back();
  rest.pop_back();
  for (std::string_view part : rest) {
    if (IsVariableName(part)) {
      return Status::ParseError("variable '" + std::string(part) +
                                "' not allowed as an interior attribute component");
    }
  }
  if (IsVariableName(trailing) && rest.empty()) {
    expr.name_var = trailing;
  } else if (IsVariableName(trailing)) {
    return Status::ParseError("variable '" + std::string(trailing) +
                              "' not allowed after a multi-part path");
  } else {
    rest.push_back(trailing);
    std::string name(rest[0]);
    for (size_t i = 1; i < rest.size(); ++i) name.append(".").append(rest[i]);
    expr.name_literal = std::move(name);
  }
  return expr;
}

bool NextIsValueLiteral(const TokenCursor& cursor) {
  const Token& t = cursor.Peek();
  return t.kind == TokenKind::kString || t.kind == TokenKind::kNumber ||
         NextIsLiteralCall(cursor);
}

Result<OperandExpr> ParseOperandExpr(TokenCursor& cursor) {
  OperandExpr expr;
  if (NextIsValueLiteral(cursor)) {
    Result<Value> value = ParseValueAt(cursor);
    if (!value.ok()) return value.status();
    expr.kind = OperandExpr::Kind::kValueLiteral;
    expr.value_literal = *std::move(value);
    return expr;
  }
  Result<AttrExpr> attr = ParseAttrExpr(cursor);
  if (!attr.ok()) return attr.status();
  if (attr->is_whole_var()) {
    expr.kind = OperandExpr::Kind::kVar;
    expr.var = attr->whole_var;
  } else {
    expr.kind = OperandExpr::Kind::kAttr;
    expr.attr = *std::move(attr);
  }
  return expr;
}

Result<ConstraintPattern> ParseConstraintPattern(TokenCursor& cursor) {
  Status s = cursor.ExpectPunct("[");
  if (!s.ok()) return s;
  ConstraintPattern pattern;
  Result<AttrExpr> lhs = ParseAttrExpr(cursor);
  if (!lhs.ok()) return lhs.status();
  pattern.lhs = *std::move(lhs);
  Result<Op> op = ParseOpAt(cursor);
  if (!op.ok()) return op.status();
  pattern.op = *op;
  Result<OperandExpr> rhs = ParseOperandExpr(cursor);
  if (!rhs.ok()) return rhs.status();
  pattern.rhs = *std::move(rhs);
  s = cursor.ExpectPunct("]");
  if (!s.ok()) return s;
  return pattern;
}

Result<ArgExpr> ParseArgExpr(TokenCursor& cursor) {
  ArgExpr arg;
  if (NextIsValueLiteral(cursor)) {
    Result<Value> value = ParseValueAt(cursor);
    if (!value.ok()) return value.status();
    arg.kind = ArgExpr::Kind::kValueLiteral;
    arg.value_literal = *std::move(value);
    return arg;
  }
  Result<AttrExpr> attr = ParseAttrExpr(cursor);
  if (!attr.ok()) return attr.status();
  if (attr->is_whole_var()) {
    arg.kind = ArgExpr::Kind::kVar;
    arg.var = attr->whole_var;
  } else {
    arg.kind = ArgExpr::Kind::kAttr;
    arg.attr = *std::move(attr);
  }
  return arg;
}

Result<FunctionCall> ParseCall(TokenCursor& cursor) {
  Result<std::string_view> name = cursor.ExpectIdent();
  if (!name.ok()) return name.status();
  FunctionCall call;
  call.function = *name;
  Status s = cursor.ExpectPunct("(");
  if (!s.ok()) return s;
  if (!cursor.TryConsumePunct(")")) {
    while (true) {
      Result<ArgExpr> arg = ParseArgExpr(cursor);
      if (!arg.ok()) return arg.status();
      call.args.push_back(*std::move(arg));
      if (!cursor.TryConsumePunct(",")) break;
    }
    s = cursor.ExpectPunct(")");
    if (!s.ok()) return s;
  }
  return call;
}

Result<EmissionTemplate> ParseEmitOr(TokenCursor& cursor);

Result<EmissionTemplate> ParseEmitPrimary(TokenCursor& cursor) {
  if (cursor.TryConsumePunct("(")) {
    Result<EmissionTemplate> inner = ParseEmitOr(cursor);
    if (!inner.ok()) return inner;
    Status s = cursor.ExpectPunct(")");
    if (!s.ok()) return s;
    return inner;
  }
  Result<ConstraintPattern> leaf = ParseConstraintPattern(cursor);
  if (!leaf.ok()) return leaf.status();
  EmissionTemplate t;
  t.kind = EmissionTemplate::Kind::kLeaf;
  t.leaf = *std::move(leaf);
  return t;
}

Result<EmissionTemplate> ParseEmitAnd(TokenCursor& cursor) {
  Result<EmissionTemplate> first = ParseEmitPrimary(cursor);
  if (!first.ok()) return first;
  std::vector<EmissionTemplate> parts = {*std::move(first)};
  while (cursor.TryConsumePunct("&") || cursor.TryConsumeIdent("and")) {
    Result<EmissionTemplate> next = ParseEmitPrimary(cursor);
    if (!next.ok()) return next;
    parts.push_back(*std::move(next));
  }
  if (parts.size() == 1) return parts[0];
  EmissionTemplate t;
  t.kind = EmissionTemplate::Kind::kAnd;
  t.children = std::move(parts);
  return t;
}

Result<EmissionTemplate> ParseEmitOr(TokenCursor& cursor) {
  Result<EmissionTemplate> first = ParseEmitAnd(cursor);
  if (!first.ok()) return first;
  std::vector<EmissionTemplate> parts = {*std::move(first)};
  while (cursor.TryConsumePunct("|") || cursor.TryConsumeIdent("or")) {
    Result<EmissionTemplate> next = ParseEmitAnd(cursor);
    if (!next.ok()) return next;
    parts.push_back(*std::move(next));
  }
  if (parts.size() == 1) return parts[0];
  EmissionTemplate t;
  t.kind = EmissionTemplate::Kind::kOr;
  t.children = std::move(parts);
  return t;
}

Result<Rule> ParseRule(TokenCursor& cursor) {
  Status s = Status::Ok();
  Result<std::string_view> name = cursor.ExpectIdent();
  if (!name.ok()) return name.status();
  Rule rule;
  rule.name = *name;
  if (cursor.TryConsumeIdent("inexact")) rule.exact = false;
  s = cursor.ExpectPunct(":");
  if (!s.ok()) return s;

  while (true) {
    Result<ConstraintPattern> pattern = ParseConstraintPattern(cursor);
    if (!pattern.ok()) return pattern.status();
    rule.head.push_back(*std::move(pattern));
    if (!cursor.TryConsumePunct(";")) break;
  }

  if (cursor.TryConsumeIdent("where")) {
    while (true) {
      Result<FunctionCall> condition = ParseCall(cursor);
      if (!condition.ok()) return condition.status();
      rule.conditions.push_back(*std::move(condition));
      if (!cursor.TryConsumePunct(",")) break;
    }
  }

  s = cursor.ExpectPunct("=>");
  if (!s.ok()) return s;

  while (cursor.TryConsumeIdent("let")) {
    Assignment let;
    Result<std::string_view> var = cursor.ExpectIdent();
    if (!var.ok()) return var.status();
    let.var = *var;
    s = cursor.ExpectPunct("=");
    if (!s.ok()) return s;
    Result<FunctionCall> call = ParseCall(cursor);
    if (!call.ok()) return call.status();
    let.call = *std::move(call);
    rule.lets.push_back(std::move(let));
    s = cursor.ExpectPunct(";");
    if (!s.ok()) return s;
  }

  if (!cursor.TryConsumeIdent("emit")) {
    return Status::ParseError("rule " + rule.name + ": expected 'emit' but found '" +
                              std::string(cursor.Peek().text) + "'");
  }
  if (cursor.TryConsumeIdent("true")) {
    rule.emission.kind = EmissionTemplate::Kind::kTrue;
  } else {
    Result<EmissionTemplate> emission = ParseEmitOr(cursor);
    if (!emission.ok()) return emission.status();
    rule.emission = *std::move(emission);
  }
  s = cursor.ExpectPunct(";");
  if (!s.ok()) return s;
  return rule;
}

}  // namespace

Result<MappingSpec> ParseMappingSpec(
    std::string_view text, std::string target_name,
    std::shared_ptr<const FunctionRegistry> registry) {
  TokenCursor cursor;
  Status lexed = cursor.Reset(text);
  if (!lexed.ok()) return lexed;
  std::vector<Rule> rules;
  while (!cursor.AtEnd()) {
    if (!cursor.TryConsumeIdent("rule")) {
      return Status::ParseError("expected 'rule' but found '" +
                                std::string(cursor.Peek().text) + "' at offset " +
                                std::to_string(cursor.Peek().offset));
    }
    Result<Rule> rule = ParseRule(cursor);
    if (!rule.ok()) return rule.status();
    rules.push_back(*std::move(rule));
  }
  MappingSpec spec(std::move(target_name), std::move(registry),
                   std::move(rules));
  Status s = spec.Validate();
  if (!s.ok()) return s;
  return spec;
}

}  // namespace qmap
