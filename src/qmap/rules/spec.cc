#include "qmap/rules/spec.h"

#include <set>

#include "qmap/common/fnv.h"
#include "qmap/rules/rule_program.h"

namespace qmap {
namespace {

// Collects the variables a constraint pattern can bind.
void CollectPatternVars(const ConstraintPattern& pattern, std::set<std::string>* vars) {
  const AttrExpr& a = pattern.lhs;
  if (!a.whole_var.empty()) vars->insert(a.whole_var);
  if (!a.view_var.empty()) vars->insert(a.view_var);
  if (!a.index_var.empty()) vars->insert(a.index_var);
  if (!a.name_var.empty()) vars->insert(a.name_var);
  switch (pattern.rhs.kind) {
    case OperandExpr::Kind::kVar:
      vars->insert(pattern.rhs.var);
      break;
    case OperandExpr::Kind::kAttr: {
      const AttrExpr& r = pattern.rhs.attr;
      if (!r.whole_var.empty()) vars->insert(r.whole_var);
      if (!r.view_var.empty()) vars->insert(r.view_var);
      if (!r.index_var.empty()) vars->insert(r.index_var);
      if (!r.name_var.empty()) vars->insert(r.name_var);
      break;
    }
    case OperandExpr::Kind::kValueLiteral:
      break;
  }
}

Status CheckArgsBound(const std::string& rule_name, const FunctionCall& call,
                      const std::set<std::string>& bound) {
  for (const ArgExpr& arg : call.args) {
    std::set<std::string> referenced;
    if (arg.kind == ArgExpr::Kind::kVar) {
      referenced.insert(arg.var);
    } else if (arg.kind == ArgExpr::Kind::kAttr) {
      const AttrExpr& a = arg.attr;
      if (!a.whole_var.empty()) referenced.insert(a.whole_var);
      if (!a.view_var.empty()) referenced.insert(a.view_var);
      if (!a.index_var.empty()) referenced.insert(a.index_var);
      if (!a.name_var.empty()) referenced.insert(a.name_var);
    }
    for (const std::string& var : referenced) {
      if (bound.find(var) == bound.end()) {
        return Status::InvalidArgument("rule " + rule_name + ": variable " + var +
                                       " used in " + call.function +
                                       "() before being bound");
      }
    }
  }
  return Status::Ok();
}

Status CheckEmissionBound(const std::string& rule_name, const EmissionTemplate& t,
                          const std::set<std::string>& bound) {
  if (t.kind == EmissionTemplate::Kind::kLeaf) {
    std::set<std::string> vars;
    CollectPatternVars(t.leaf, &vars);
    for (const std::string& var : vars) {
      if (bound.find(var) == bound.end()) {
        return Status::InvalidArgument("rule " + rule_name + ": emission variable " +
                                       var + " is never bound");
      }
    }
    return Status::Ok();
  }
  for (const EmissionTemplate& child : t.children) {
    Status s = CheckEmissionBound(rule_name, child, bound);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

}  // namespace

MappingSpec::MappingSpec(const MappingSpec& other)
    : target_name_(other.target_name_),
      registry_(other.registry_),
      rules_(other.rules_) {
  compiled_plan_.Set(other.compiled_plan_.Peek());
  std::lock_guard<std::mutex> lock(other.fingerprint_mu_);
  fingerprint_ = other.fingerprint_;
  fingerprint_valid_ = other.fingerprint_valid_;
  fingerprint_seed_ = other.fingerprint_seed_;
}

MappingSpec& MappingSpec::operator=(const MappingSpec& other) {
  if (this == &other) return *this;
  target_name_ = other.target_name_;
  registry_ = other.registry_;
  rules_ = other.rules_;
  compiled_plan_.Set(other.compiled_plan_.Peek());
  uint64_t fingerprint = 0;
  bool fingerprint_valid = false;
  uint64_t fingerprint_seed = 0;
  {
    std::lock_guard<std::mutex> lock(other.fingerprint_mu_);
    fingerprint = other.fingerprint_;
    fingerprint_valid = other.fingerprint_valid_;
    fingerprint_seed = other.fingerprint_seed_;
  }
  std::lock_guard<std::mutex> lock(fingerprint_mu_);
  fingerprint_ = fingerprint;
  fingerprint_valid_ = fingerprint_valid;
  fingerprint_seed_ = fingerprint_seed;
  return *this;
}

MappingSpec::MappingSpec(MappingSpec&& other) noexcept
    : target_name_(std::move(other.target_name_)),
      registry_(std::move(other.registry_)),
      rules_(std::move(other.rules_)) {
  compiled_plan_.Set(other.compiled_plan_.Peek());
  std::lock_guard<std::mutex> lock(other.fingerprint_mu_);
  fingerprint_ = other.fingerprint_;
  fingerprint_valid_ = other.fingerprint_valid_;
  fingerprint_seed_ = other.fingerprint_seed_;
}

MappingSpec& MappingSpec::operator=(MappingSpec&& other) noexcept {
  if (this == &other) return *this;
  target_name_ = std::move(other.target_name_);
  registry_ = std::move(other.registry_);
  rules_ = std::move(other.rules_);
  compiled_plan_.Set(other.compiled_plan_.Peek());
  uint64_t fingerprint = 0;
  bool fingerprint_valid = false;
  uint64_t fingerprint_seed = 0;
  {
    std::lock_guard<std::mutex> lock(other.fingerprint_mu_);
    fingerprint = other.fingerprint_;
    fingerprint_valid = other.fingerprint_valid_;
    fingerprint_seed = other.fingerprint_seed_;
  }
  std::lock_guard<std::mutex> lock(fingerprint_mu_);
  fingerprint_ = fingerprint;
  fingerprint_valid_ = fingerprint_valid;
  fingerprint_seed_ = fingerprint_seed;
  return *this;
}

uint64_t MappingSpec::fingerprint() const {
  std::lock_guard<std::mutex> lock(fingerprint_mu_);
  if (!fingerprint_valid_) {
    // Field-separated so "ab" + "c" and "a" + "bc" cannot collide; rule
    // renderings are canonical (the same text the spec parser accepts).
    Fnv64 fp;
    if (fingerprint_seed_ != 0) fp.AddU64(fingerprint_seed_);
    fp.Add(target_name_).AddByte('\x1f');
    for (const Rule& rule : rules_) fp.Add(rule.ToString()).AddByte('\x1f');
    fingerprint_ = fp.value();
    fingerprint_valid_ = true;
  }
  return fingerprint_;
}

std::shared_ptr<const CompiledRulePlan> MappingSpec::compiled_plan() const {
  return compiled_plan_.GetOrBuild([this] { return CompileRulePlan(rules_); });
}

const Rule* MappingSpec::FindRule(const std::string& name) const {
  for (const Rule& rule : rules_) {
    if (rule.name == name) return &rule;
  }
  return nullptr;
}

Status MappingSpec::Validate() const {
  for (const Rule& rule : rules_) {
    if (rule.head.empty()) {
      return Status::InvalidArgument("rule " + rule.name + " has an empty head");
    }
    std::set<std::string> bound;
    for (const ConstraintPattern& pattern : rule.head) {
      CollectPatternVars(pattern, &bound);
    }
    for (const FunctionCall& condition : rule.conditions) {
      if (registry_->FindCondition(condition.function) == nullptr) {
        return Status::NotFound("rule " + rule.name + " references unknown condition " +
                                condition.function);
      }
      Status s = CheckArgsBound(rule.name, condition, bound);
      if (!s.ok()) return s;
    }
    for (const Assignment& let : rule.lets) {
      if (registry_->FindTransform(let.call.function) == nullptr) {
        return Status::NotFound("rule " + rule.name + " references unknown transform " +
                                let.call.function);
      }
      Status s = CheckArgsBound(rule.name, let.call, bound);
      if (!s.ok()) return s;
      bound.insert(let.var);
    }
    Status s = CheckEmissionBound(rule.name, rule.emission, bound);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

std::string MappingSpec::ToString() const {
  std::string out;
  for (const Rule& rule : rules_) {
    out += rule.ToString();
    out += "\n";
  }
  return out;
}

}  // namespace qmap
