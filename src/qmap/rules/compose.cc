#include "qmap/rules/compose.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <utility>

#include "qmap/common/fnv.h"

namespace qmap {
namespace {

// ---------------------------------------------------------------------------
// Variable renaming: each hop-1 rule *instance* participating in a cover is
// renamed apart with an "H<k>_" prefix (uppercase-preserving, so renamed
// names stay variables under the leading-uppercase convention); hop-2 let
// variables get a "T_" prefix. The two namespaces cannot collide with each
// other or with other instances.
// ---------------------------------------------------------------------------

using RenameMap = std::map<std::string, std::string>;

void CollectAttrVars(const AttrExpr& a, std::set<std::string>* vars) {
  if (!a.whole_var.empty()) vars->insert(a.whole_var);
  if (!a.view_var.empty()) vars->insert(a.view_var);
  if (!a.index_var.empty()) vars->insert(a.index_var);
  if (!a.name_var.empty()) vars->insert(a.name_var);
}

void CollectOperandVars(const OperandExpr& o, std::set<std::string>* vars) {
  switch (o.kind) {
    case OperandExpr::Kind::kVar:
      vars->insert(o.var);
      break;
    case OperandExpr::Kind::kAttr:
      CollectAttrVars(o.attr, vars);
      break;
    case OperandExpr::Kind::kValueLiteral:
      break;
  }
}

void CollectArgVars(const ArgExpr& a, std::set<std::string>* vars) {
  switch (a.kind) {
    case ArgExpr::Kind::kVar:
      vars->insert(a.var);
      break;
    case ArgExpr::Kind::kAttr:
      CollectAttrVars(a.attr, vars);
      break;
    case ArgExpr::Kind::kValueLiteral:
      break;
  }
}

void CollectEmissionVars(const EmissionTemplate& e, std::set<std::string>* vars) {
  if (e.kind == EmissionTemplate::Kind::kLeaf) {
    CollectAttrVars(e.leaf.lhs, vars);
    CollectOperandVars(e.leaf.rhs, vars);
    return;
  }
  for (const EmissionTemplate& child : e.children) CollectEmissionVars(child, vars);
}

std::set<std::string> CollectRuleVars(const Rule& rule) {
  std::set<std::string> vars;
  for (const ConstraintPattern& p : rule.head) {
    CollectAttrVars(p.lhs, &vars);
    CollectOperandVars(p.rhs, &vars);
  }
  for (const FunctionCall& c : rule.conditions) {
    for (const ArgExpr& a : c.args) CollectArgVars(a, &vars);
  }
  for (const Assignment& let : rule.lets) {
    vars.insert(let.var);
    for (const ArgExpr& a : let.call.args) CollectArgVars(a, &vars);
  }
  CollectEmissionVars(rule.emission, &vars);
  return vars;
}

std::string Renamed(const RenameMap& map, const std::string& var) {
  auto it = map.find(var);
  return it == map.end() ? var : it->second;
}

AttrExpr RenameAttr(const AttrExpr& a, const RenameMap& map) {
  AttrExpr out = a;
  if (!out.whole_var.empty()) out.whole_var = Renamed(map, out.whole_var);
  if (!out.view_var.empty()) out.view_var = Renamed(map, out.view_var);
  if (!out.index_var.empty()) out.index_var = Renamed(map, out.index_var);
  if (!out.name_var.empty()) out.name_var = Renamed(map, out.name_var);
  return out;
}

OperandExpr RenameOperand(const OperandExpr& o, const RenameMap& map) {
  OperandExpr out = o;
  if (out.kind == OperandExpr::Kind::kVar) {
    out.var = Renamed(map, out.var);
  } else if (out.kind == OperandExpr::Kind::kAttr) {
    out.attr = RenameAttr(out.attr, map);
  }
  return out;
}

ArgExpr RenameArg(const ArgExpr& a, const RenameMap& map) {
  ArgExpr out = a;
  if (out.kind == ArgExpr::Kind::kVar) {
    out.var = Renamed(map, out.var);
  } else if (out.kind == ArgExpr::Kind::kAttr) {
    out.attr = RenameAttr(out.attr, map);
  }
  return out;
}

FunctionCall RenameCall(const FunctionCall& c, const RenameMap& map) {
  FunctionCall out;
  out.function = c.function;
  out.args.reserve(c.args.size());
  for (const ArgExpr& a : c.args) out.args.push_back(RenameArg(a, map));
  return out;
}

EmissionTemplate RenameEmission(const EmissionTemplate& e, const RenameMap& map) {
  EmissionTemplate out;
  out.kind = e.kind;
  if (e.kind == EmissionTemplate::Kind::kLeaf) {
    out.leaf.lhs = RenameAttr(e.leaf.lhs, map);
    out.leaf.op = e.leaf.op;
    out.leaf.rhs = RenameOperand(e.leaf.rhs, map);
    return out;
  }
  out.children.reserve(e.children.size());
  for (const EmissionTemplate& child : e.children) {
    out.children.push_back(RenameEmission(child, map));
  }
  return out;
}

Rule RenameRule(const Rule& rule, const std::string& prefix) {
  RenameMap map;
  for (const std::string& var : CollectRuleVars(rule)) map[var] = prefix + var;
  Rule out;
  out.name = rule.name;
  out.exact = rule.exact;
  out.head.reserve(rule.head.size());
  for (const ConstraintPattern& p : rule.head) {
    ConstraintPattern q;
    q.lhs = RenameAttr(p.lhs, map);
    q.op = p.op;
    q.rhs = RenameOperand(p.rhs, map);
    out.head.push_back(std::move(q));
  }
  out.conditions.reserve(rule.conditions.size());
  for (const FunctionCall& c : rule.conditions) out.conditions.push_back(RenameCall(c, map));
  out.lets.reserve(rule.lets.size());
  for (const Assignment& let : rule.lets) {
    Assignment a;
    a.var = Renamed(map, let.var);
    a.call = RenameCall(let.call, map);
    out.lets.push_back(std::move(a));
  }
  out.emission = RenameEmission(rule.emission, map);
  return out;
}

// ---------------------------------------------------------------------------
// Hop-1 emission leaves. Composition works on the constraint templates a
// hop-1 rule emits: a kLeaf emission offers one slot, a flat kAnd of leaves
// offers one slot per child. Disjunctive or nested emissions are not
// composed (their leaves cannot co-occur unconditionally); such rules are
// reported as an approximation.
// ---------------------------------------------------------------------------

bool FlattenEmissionLeaves(const EmissionTemplate& e,
                           std::vector<ConstraintPattern>* out) {
  switch (e.kind) {
    case EmissionTemplate::Kind::kTrue:
      return true;  // offers no slots, composes trivially
    case EmissionTemplate::Kind::kLeaf:
      out->push_back(e.leaf);
      return true;
    case EmissionTemplate::Kind::kAnd:
      for (const EmissionTemplate& child : e.children) {
        if (child.kind != EmissionTemplate::Kind::kLeaf) return false;
        out->push_back(child.leaf);
      }
      return true;
    case EmissionTemplate::Kind::kOr:
      return false;
  }
  return false;
}

// An emission-side attribute template is compose-time concrete when it has
// no variables and no unindexed view literal (whose instance would come from
// the hop-1 head's implicit index binding at fire time).
bool AttrTemplateIsConcrete(const AttrExpr& a) {
  return !a.is_whole_var() && a.view_var.empty() && a.index_var.empty() &&
         a.name_var.empty() && !a.name_literal.empty() &&
         (a.view_literal.empty() || a.index_literal.has_value());
}

Attr ConcreteAttrOf(const AttrExpr& a) {
  if (!a.view_literal.empty()) {
    return Attr::OfInstance(a.view_literal, *a.index_literal, a.name_literal);
  }
  return Attr::Simple(a.name_literal);
}

// Renders a concrete Attr back as a literal template.
AttrExpr LiteralAttrTemplate(const Attr& a) {
  AttrExpr t;
  if (!a.view.empty()) {
    t.view_literal = a.view;
    t.index_literal = a.instance;
  }
  t.name_literal = a.name;
  return t;
}

// Mirrors the (file-local) view-ref encoding of pattern.cc: a view variable
// binds "fac" or "fac[2]".
void ParseViewRef(const std::string& ref, std::string* view, int* instance) {
  size_t bracket = ref.find('[');
  if (bracket == std::string::npos) {
    *view = ref;
    *instance = 0;
    return;
  }
  *view = ref.substr(0, bracket);
  *instance = std::atoi(ref.substr(bracket + 1).c_str());
}

bool TemplateReferencesAny(const AttrExpr& a, const std::set<std::string>& vars) {
  std::set<std::string> referenced;
  CollectAttrVars(a, &referenced);
  for (const std::string& v : referenced) {
    if (vars.count(v) != 0) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// The substitution σ: hop-2 variable → what it denotes in composed terms.
// Concrete denotations (values, attributes) live in a real Bindings (so
// AttrExpr::Match does the matching, including implicit index variables);
// symbolic denotations — a renamed hop-1 variable or attribute template —
// live here.
// ---------------------------------------------------------------------------

struct SymBinding {
  enum class Kind { kVar, kAttrTemplate };
  std::string hop2_var;
  Kind kind = Kind::kVar;
  std::string var;          // kVar: renamed hop-1 variable
  bool var_is_let = false;  // kVar: the hop-1 variable is `let`-derived
  AttrExpr attr_template;   // kAttrTemplate (renamed hop-1 template)
  bool template_has_let = false;
};

class SymMap {
 public:
  // Tri-state bind: 1 = ok, 0 = genuine mismatch, -1 = conservative
  // (equivalent runtime denotation cannot be proven or expressed).
  int BindVar(const std::string& hop2_var, const std::string& hop1_var,
              bool is_let, const Bindings& concrete) {
    if (concrete.Find(hop2_var) != nullptr) return -1;
    for (const SymBinding& b : entries_) {
      if (b.hop2_var != hop2_var) continue;
      if (b.kind == SymBinding::Kind::kVar && b.var == hop1_var) return 1;
      return -1;  // same hop-2 var, different denotation: needs a runtime check
    }
    SymBinding b;
    b.hop2_var = hop2_var;
    b.kind = SymBinding::Kind::kVar;
    b.var = hop1_var;
    b.var_is_let = is_let;
    entries_.push_back(std::move(b));
    return 1;
  }

  int BindTemplate(const std::string& hop2_var, const AttrExpr& tmpl,
                   bool has_let, const Bindings& concrete) {
    if (concrete.Find(hop2_var) != nullptr) return -1;
    for (const SymBinding& b : entries_) {
      if (b.hop2_var != hop2_var) continue;
      if (b.kind == SymBinding::Kind::kAttrTemplate &&
          b.attr_template.ToString() == tmpl.ToString()) {
        return 1;
      }
      return -1;
    }
    SymBinding b;
    b.hop2_var = hop2_var;
    b.kind = SymBinding::Kind::kAttrTemplate;
    b.attr_template = tmpl;
    b.template_has_let = has_let;
    entries_.push_back(std::move(b));
    return 1;
  }

  const SymBinding* Find(const std::string& hop2_var) const {
    for (const SymBinding& b : entries_) {
      if (b.hop2_var == hop2_var) return &b;
    }
    return nullptr;
  }

  // True when some symbolically bound variable also acquired a concrete
  // binding (via a later pattern) — expressing that equality needs a runtime
  // check the composed rule cannot make.
  bool ConflictsWith(const Bindings& concrete) const {
    for (const SymBinding& b : entries_) {
      if (concrete.Find(b.hop2_var) != nullptr) return true;
    }
    return false;
  }

  size_t Checkpoint() const { return entries_.size(); }
  void Rollback(size_t checkpoint) { entries_.resize(checkpoint); }

 private:
  std::vector<SymBinding> entries_;
};

// ---------------------------------------------------------------------------
// Pattern-vs-template unification. Tri-state like SymMap::BindVar.
// ---------------------------------------------------------------------------

int UnifyLhs(const AttrExpr& pattern, const AttrExpr& tmpl,
             const std::set<std::string>& let_vars, Bindings* concrete,
             SymMap* sym) {
  if (AttrTemplateIsConcrete(tmpl)) {
    return pattern.Match(ConcreteAttrOf(tmpl), concrete) ? 1 : 0;
  }
  if (tmpl.is_whole_var()) {
    if (pattern.is_whole_var()) {
      return sym->BindVar(pattern.whole_var, tmpl.whole_var,
                          let_vars.count(tmpl.whole_var) != 0, *concrete);
    }
    // The hop-1 variable could hold an attribute this structured pattern
    // matches; the composed rule cannot re-check that at fire time.
    return -1;
  }
  // Non-concrete structured template (variable components or an unindexed
  // view literal whose instance is bound at fire time).
  if (pattern.is_whole_var()) {
    return sym->BindTemplate(pattern.whole_var, tmpl,
                             TemplateReferencesAny(tmpl, let_vars), *concrete);
  }
  // Structured-vs-structured: rule out genuine mismatches cheaply, treat
  // the rest as conservative.
  if (!pattern.name_literal.empty() && !tmpl.name_literal.empty() &&
      pattern.name_literal != tmpl.name_literal) {
    return 0;
  }
  if (!pattern.view_literal.empty() && !tmpl.view_literal.empty() &&
      pattern.view_literal != tmpl.view_literal) {
    return 0;
  }
  return -1;
}

int UnifyRhs(const OperandExpr& pattern, const OperandExpr& tmpl,
             const std::set<std::string>& let_vars, Bindings* concrete,
             SymMap* sym) {
  switch (tmpl.kind) {
    case OperandExpr::Kind::kValueLiteral:
      return pattern.Match(Operand(tmpl.value_literal), concrete) ? 1 : 0;
    case OperandExpr::Kind::kAttr:
      if (AttrTemplateIsConcrete(tmpl.attr)) {
        return pattern.Match(Operand(ConcreteAttrOf(tmpl.attr)), concrete) ? 1 : 0;
      }
      if (pattern.kind == OperandExpr::Kind::kVar) {
        return sym->BindTemplate(pattern.var, tmpl.attr,
                                 TemplateReferencesAny(tmpl.attr, let_vars),
                                 *concrete);
      }
      if (pattern.kind == OperandExpr::Kind::kValueLiteral) return 0;
      return -1;  // attr-pattern vs symbolic attr template
    case OperandExpr::Kind::kVar: {
      bool is_let = let_vars.count(tmpl.var) != 0;
      if (pattern.kind == OperandExpr::Kind::kVar) {
        return sym->BindVar(pattern.var, tmpl.var, is_let, *concrete);
      }
      // A literal (or attr) pattern against a hop-1 variable: the runtime
      // value could coincide, but there is no Eq condition to residually
      // check it with — conservative.
      return -1;
    }
  }
  return 0;
}

int UnifyPattern(const ConstraintPattern& pattern, const ConstraintPattern& tmpl,
                 const std::set<std::string>& let_vars, Bindings* concrete,
                 SymMap* sym) {
  if (pattern.op != tmpl.op) return 0;
  int lhs = UnifyLhs(pattern.lhs, tmpl.lhs, let_vars, concrete, sym);
  if (lhs != 1) return lhs;
  return UnifyRhs(pattern.rhs, tmpl.rhs, let_vars, concrete, sym);
}

// ---------------------------------------------------------------------------
// Syntactic may-overlap tests (used for the divergence analyses, never for
// matching): conservative "could these two templates describe a common
// concrete constraint?".
// ---------------------------------------------------------------------------

bool AttrsMayOverlap(const AttrExpr& a, const AttrExpr& b) {
  if (a.is_whole_var() || b.is_whole_var()) return true;
  if (!a.name_literal.empty() && !b.name_literal.empty() &&
      a.name_literal != b.name_literal) {
    return false;
  }
  if (!a.view_literal.empty() && !b.view_literal.empty() &&
      a.view_literal != b.view_literal) {
    return false;
  }
  if (a.index_literal.has_value() && b.index_literal.has_value() &&
      *a.index_literal != *b.index_literal) {
    return false;
  }
  return true;
}

bool OperandsMayOverlap(const OperandExpr& a, const OperandExpr& b) {
  if (a.kind == OperandExpr::Kind::kVar || b.kind == OperandExpr::Kind::kVar) {
    return true;
  }
  if (a.kind != b.kind) return false;  // a value never equals an attr ref
  if (a.kind == OperandExpr::Kind::kValueLiteral) {
    return a.value_literal.Equals(b.value_literal);
  }
  return AttrsMayOverlap(a.attr, b.attr);
}

bool PatternsMayOverlap(const ConstraintPattern& a, const ConstraintPattern& b) {
  return a.op == b.op && AttrsMayOverlap(a.lhs, b.lhs) &&
         OperandsMayOverlap(a.rhs, b.rhs);
}

bool AnyPatternsMayOverlap(const std::vector<ConstraintPattern>& a,
                           const std::vector<ConstraintPattern>& b) {
  for (const ConstraintPattern& p : a) {
    for (const ConstraintPattern& q : b) {
      if (PatternsMayOverlap(p, q)) return true;
    }
  }
  return false;
}

// True when every pattern of `small` may-overlaps a *distinct* pattern of
// `big` (an injective embedding) — the conservative precondition for "a
// matching of `small` could be a sub-matching of one of `big`" and thus be
// suppressed by SCM's sub-matching suppression.
bool InjectivelyEmbeddable(const std::vector<ConstraintPattern>& small,
                           const std::vector<ConstraintPattern>& big,
                           size_t index, std::vector<bool>* used) {
  if (index == small.size()) return true;
  for (size_t i = 0; i < big.size(); ++i) {
    if ((*used)[i]) continue;
    if (!PatternsMayOverlap(small[index], big[i])) continue;
    (*used)[i] = true;
    if (InjectivelyEmbeddable(small, big, index + 1, used)) return true;
    (*used)[i] = false;
  }
  return false;
}

bool CouldBeSuppressedBy(const Rule& small, const Rule& big) {
  if (small.head.size() >= big.head.size()) return false;
  std::vector<bool> used(big.head.size(), false);
  return InjectivelyEmbeddable(small.head, big.head, 0, &used);
}

// ---------------------------------------------------------------------------
// The cover enumerator: one run per hop-2 rule.
// ---------------------------------------------------------------------------

// A hop-1 rule instance active in the cover under construction.
struct Instance {
  size_t rule_index;  // into the composable hop-1 rule list
  Rule renamed;
  std::vector<ConstraintPattern> leaves;  // renamed emission leaves
  std::vector<bool> used;
  std::set<std::string> let_vars;  // renamed let-variable names
};

struct RewrittenArg {
  int status = 1;  // 1 ok, -1 conservative (0 unused)
  ArgExpr arg;
  bool concrete = false;        // literal value or fully literal attr
  bool references_let = false;  // denotation depends on a hop-1 `let` result
};

struct RewrittenAttr {
  int status = 1;
  AttrExpr attr;
  bool concrete = false;
  bool references_let = false;
};

class Enumerator {
 public:
  Enumerator(const MappingSpec& hop1, const MappingSpec& hop2,
             const ComposeOptions& options, ComposeStats* stats)
      : hop1_(hop1), hop2_(hop2), options_(options), stats_(stats) {}

  // Splits hop-1 rules into composable ones (flattenable emissions) and
  // reports the rest as approximations.
  void Prepare() {
    const std::vector<Rule>& rules = hop1_.rules();
    for (size_t i = 0; i < rules.size(); ++i) {
      std::vector<ConstraintPattern> leaves;
      if (FlattenEmissionLeaves(rules[i].emission, &leaves)) {
        composable_.push_back(i);
        raw_leaves_.push_back(std::move(leaves));
      } else {
        MarkApproximate("hop-1 rule " + rules[i].name +
                        " has a disjunctive/nested emission; its outputs are "
                        "not composed");
      }
    }
  }

  // Enumerates covers for one hop-2 rule, appending composed rules to *out.
  Status Run(const Rule& hop2_rule, std::vector<Rule>* out) {
    h2_ = &hop2_rule;
    out_ = out;
    instances_.clear();
    concrete_ = Bindings();
    sym_ = SymMap();
    covers_for_rule_ = 0;
    cap_note_emitted_ = false;
    h2_let_vars_.clear();
    for (const Assignment& let : hop2_rule.lets) h2_let_vars_.insert(let.var);
    error_ = Status::Ok();
    Assign(0);
    return error_;
  }

  const std::vector<size_t>& composable() const { return composable_; }

  // Hop-1 rules (by index into hop1_.rules()) that fed at least one emitted
  // composed rule.
  const std::set<size_t>& covered_hop1_rules() const { return covered_; }

 private:
  void MarkApproximate(const std::string& note) {
    if (!notes_seen_.insert(note).second) return;
    ++stats_->approximate_marks;
    stats_->notes.push_back(note);
  }

  void Assign(size_t j) {
    if (!error_.ok()) return;
    if (covers_for_rule_ >= options_.max_covers_per_rule) {
      if (!cap_note_emitted_) {
        cap_note_emitted_ = true;
        MarkApproximate("rule " + h2_->name +
                        ": cover enumeration stopped at max_covers_per_rule");
      }
      return;
    }
    if (j == h2_->head.size()) {
      EmitCover();
      return;
    }
    const ConstraintPattern& pattern = h2_->head[j];
    // Reuse an existing instance's unused emission slot...
    for (size_t i = 0; i < instances_.size(); ++i) {
      for (size_t l = 0; l < instances_[i].leaves.size(); ++l) {
        if (instances_[i].used[l]) continue;
        TryChoice(i, l, pattern, j);
      }
    }
    // ...or open a fresh instance of any composable hop-1 rule.
    for (size_t r = 0; r < composable_.size(); ++r) {
      PushInstance(r);
      size_t i = instances_.size() - 1;
      for (size_t l = 0; l < instances_[i].leaves.size(); ++l) {
        TryChoice(i, l, pattern, j);
      }
      instances_.pop_back();
    }
  }

  void TryChoice(size_t instance, size_t leaf, const ConstraintPattern& pattern,
                 size_t j) {
    if (!error_.ok()) return;
    const Instance& inst = instances_[instance];
    size_t cmark = concrete_.Mark();
    size_t smark = sym_.Checkpoint();
    int r = UnifyPattern(pattern, inst.leaves[leaf], inst.let_vars, &concrete_,
                         &sym_);
    if (r == 1 && sym_.ConflictsWith(concrete_)) r = -1;
    if (r == 1) {
      // Index instances_ afresh around the recursion: Assign() pushes and
      // pops instances, which can reallocate the vector (the size — and so
      // the index — is restored on return, but references are not).
      instances_[instance].used[leaf] = true;
      Assign(j + 1);
      instances_[instance].used[leaf] = false;
    } else if (r == -1) {
      ++stats_->skipped_covers;
      MarkApproximate("rule " + h2_->name + ": pattern " + pattern.ToString() +
                      " unifies only conservatively with emission " +
                      inst.leaves[leaf].ToString() + " of hop-1 rule " +
                      inst.renamed.name);
    }
    concrete_.RollbackTo(cmark);
    sym_.Rollback(smark);
  }

  void PushInstance(size_t composable_index) {
    const Rule& rule = hop1_.rules()[composable_[composable_index]];
    std::string prefix = "H" + std::to_string(instances_.size()) + "_";
    Instance inst;
    inst.rule_index = composable_index;
    inst.renamed = RenameRule(rule, prefix);
    FlattenEmissionLeaves(inst.renamed.emission, &inst.leaves);
    inst.used.assign(inst.leaves.size(), false);
    for (const Assignment& let : inst.renamed.lets) inst.let_vars.insert(let.var);
    instances_.push_back(std::move(inst));
  }

  // ------------------------------------------------------------------
  // Rewriting the hop-2 tail through σ.
  // ------------------------------------------------------------------

  RewrittenAttr RewriteAttrTemplate(const AttrExpr& t) const {
    RewrittenAttr out;
    if (t.is_whole_var()) {
      const std::string& w = t.whole_var;
      if (h2_let_vars_.count(w) != 0) {
        out.attr.whole_var = "T_" + w;
        return out;
      }
      if (const Term* term = concrete_.Find(w)) {
        if (TermIsAttr(*term)) {
          out.attr = LiteralAttrTemplate(TermAttr(*term));
          out.concrete = true;
          return out;
        }
        if (TermIsValue(*term) && TermValue(*term).kind() == ValueKind::kString) {
          out.attr.name_literal = TermValue(*term).AsString();
          out.concrete = true;
          return out;
        }
        out.status = -1;
        return out;
      }
      if (const SymBinding* b = sym_.Find(w)) {
        if (b->kind == SymBinding::Kind::kVar) {
          out.attr.whole_var = b->var;
          out.references_let = b->var_is_let;
        } else {
          out.attr = b->attr_template;
          out.references_let = b->template_has_let;
        }
        return out;
      }
      out.status = -1;
      return out;
    }
    out.attr = t;
    auto substitute_component = [&](std::string* var,
                                    auto&& on_concrete) -> bool {
      if (var->empty()) return true;
      if (const Term* term = concrete_.Find(*var)) {
        if (!on_concrete(*term)) {
          out.status = -1;
          return false;
        }
        var->clear();
        return true;
      }
      if (const SymBinding* b = sym_.Find(*var)) {
        if (b->kind != SymBinding::Kind::kVar) {
          out.status = -1;
          return false;
        }
        *var = b->var;
        if (b->var_is_let) out.references_let = true;
        return true;
      }
      out.status = -1;  // unbound component variable
      return false;
    };
    if (!substitute_component(&out.attr.view_var, [&](const Term& term) {
          if (!TermIsValue(term) || TermValue(term).kind() != ValueKind::kString) {
            return false;
          }
          std::string view;
          int instance = 0;
          ParseViewRef(TermValue(term).AsString(), &view, &instance);
          out.attr.view_literal = view;
          if (instance != 0) {
            if (!out.attr.index_var.empty() || out.attr.index_literal.has_value()) {
              return false;
            }
            out.attr.index_literal = instance;
          }
          return true;
        })) {
      return out;
    }
    if (!substitute_component(&out.attr.index_var, [&](const Term& term) {
          if (!TermIsValue(term) || TermValue(term).kind() != ValueKind::kInt) {
            return false;
          }
          out.attr.index_literal = static_cast<int>(TermValue(term).AsInt());
          return true;
        })) {
      return out;
    }
    if (!substitute_component(&out.attr.name_var, [&](const Term& term) {
          if (!TermIsValue(term) || TermValue(term).kind() != ValueKind::kString) {
            return false;
          }
          out.attr.name_literal = TermValue(term).AsString();
          return true;
        })) {
      return out;
    }
    // An unindexed view literal whose instance the hop-2 head captured
    // implicitly: pin the matched instance (the composed head no longer
    // binds hop-2's implicit index variable).
    if (!out.attr.view_literal.empty() && !out.attr.index_literal.has_value() &&
        out.attr.index_var.empty()) {
      const Term* term = concrete_.Find(ImplicitIndexVarName(out.attr.view_literal));
      if (term != nullptr && TermIsValue(*term) &&
          TermValue(*term).kind() == ValueKind::kInt) {
        out.attr.index_literal = static_cast<int>(TermValue(*term).AsInt());
      }
    }
    out.concrete = AttrTemplateIsConcrete(out.attr);
    return out;
  }

  RewrittenArg RewriteArg(const ArgExpr& a) const {
    RewrittenArg out;
    switch (a.kind) {
      case ArgExpr::Kind::kValueLiteral:
        out.arg = a;
        out.concrete = true;
        return out;
      case ArgExpr::Kind::kVar: {
        const std::string& w = a.var;
        if (h2_let_vars_.count(w) != 0) {
          out.arg.kind = ArgExpr::Kind::kVar;
          out.arg.var = "T_" + w;
          return out;
        }
        if (const Term* term = concrete_.Find(w)) {
          if (TermIsValue(*term)) {
            out.arg.kind = ArgExpr::Kind::kValueLiteral;
            out.arg.value_literal = TermValue(*term);
          } else {
            out.arg.kind = ArgExpr::Kind::kAttr;
            out.arg.attr = LiteralAttrTemplate(TermAttr(*term));
          }
          out.concrete = true;
          return out;
        }
        if (const SymBinding* b = sym_.Find(w)) {
          if (b->kind == SymBinding::Kind::kVar) {
            out.arg.kind = ArgExpr::Kind::kVar;
            out.arg.var = b->var;
            out.references_let = b->var_is_let;
          } else {
            out.arg.kind = ArgExpr::Kind::kAttr;
            out.arg.attr = b->attr_template;
            out.references_let = b->template_has_let;
          }
          return out;
        }
        out.status = -1;
        return out;
      }
      case ArgExpr::Kind::kAttr: {
        RewrittenAttr attr = RewriteAttrTemplate(a.attr);
        out.status = attr.status;
        out.references_let = attr.references_let;
        out.concrete = attr.concrete;
        out.arg.kind = ArgExpr::Kind::kAttr;
        out.arg.attr = std::move(attr.attr);
        return out;
      }
    }
    out.status = -1;
    return out;
  }

  // Rewrites the hop-2 operand template through σ.
  int RewriteOperand(const OperandExpr& o, OperandExpr* out) const {
    switch (o.kind) {
      case OperandExpr::Kind::kValueLiteral:
        *out = o;
        return 1;
      case OperandExpr::Kind::kVar: {
        const std::string& w = o.var;
        if (h2_let_vars_.count(w) != 0) {
          out->kind = OperandExpr::Kind::kVar;
          out->var = "T_" + w;
          return 1;
        }
        if (const Term* term = concrete_.Find(w)) {
          if (TermIsValue(*term)) {
            out->kind = OperandExpr::Kind::kValueLiteral;
            out->value_literal = TermValue(*term);
          } else {
            out->kind = OperandExpr::Kind::kAttr;
            out->attr = LiteralAttrTemplate(TermAttr(*term));
          }
          return 1;
        }
        if (const SymBinding* b = sym_.Find(w)) {
          if (b->kind == SymBinding::Kind::kVar) {
            out->kind = OperandExpr::Kind::kVar;
            out->var = b->var;
          } else {
            out->kind = OperandExpr::Kind::kAttr;
            out->attr = b->attr_template;
          }
          return 1;
        }
        return -1;
      }
      case OperandExpr::Kind::kAttr: {
        RewrittenAttr attr = RewriteAttrTemplate(o.attr);
        if (attr.status != 1) return attr.status;
        out->kind = OperandExpr::Kind::kAttr;
        out->attr = std::move(attr.attr);
        return 1;
      }
    }
    return -1;
  }

  int RewriteEmission(const EmissionTemplate& e, EmissionTemplate* out) const {
    out->kind = e.kind;
    if (e.kind == EmissionTemplate::Kind::kTrue) return 1;
    if (e.kind == EmissionTemplate::Kind::kLeaf) {
      RewrittenAttr lhs = RewriteAttrTemplate(e.leaf.lhs);
      if (lhs.status != 1) return lhs.status;
      out->leaf.lhs = std::move(lhs.attr);
      out->leaf.op = e.leaf.op;
      return RewriteOperand(e.leaf.rhs, &out->leaf.rhs);
    }
    out->children.clear();
    out->children.reserve(e.children.size());
    for (const EmissionTemplate& child : e.children) {
      EmissionTemplate rewritten;
      int r = RewriteEmission(child, &rewritten);
      if (r != 1) return r;
      out->children.push_back(std::move(rewritten));
    }
    return 1;
  }

  // Attempts to resolve a rewritten, fully concrete argument to a Term.
  static Result<Term> ResolveConcreteArg(const ArgExpr& arg) {
    Bindings empty;
    return arg.Resolve(empty);
  }

  void EmitCover() {
    // 1. Rewrite + constant-fold the hop-2 conditions.
    std::vector<FunctionCall> conditions;
    for (const FunctionCall& cond : h2_->conditions) {
      FunctionCall rewritten;
      rewritten.function = cond.function;
      bool all_concrete = true;
      for (const ArgExpr& a : cond.args) {
        RewrittenArg r = RewriteArg(a);
        if (r.status != 1) {
          ++stats_->skipped_covers;
          MarkApproximate("rule " + h2_->name + ": condition " +
                          cond.ToString() + " is not rewritable through σ");
          return;
        }
        if (r.references_let) {
          // The condition would need a hop-1 `let` result, but conditions
          // evaluate before lets run — the cover cannot be expressed.
          ++stats_->skipped_covers;
          MarkApproximate("rule " + h2_->name + ": condition " +
                          cond.ToString() +
                          " depends on a hop-1 let-derived value");
          return;
        }
        if (!r.concrete) all_concrete = false;
        rewritten.args.push_back(std::move(r.arg));
      }
      if (all_concrete) {
        const FunctionRegistry::Condition* fn =
            hop2_.registry().FindCondition(cond.function);
        if (fn == nullptr) {
          ++stats_->skipped_covers;
          MarkApproximate("rule " + h2_->name + ": unknown condition " +
                          cond.function);
          return;
        }
        std::vector<Term> args;
        bool resolved = true;
        for (const ArgExpr& a : rewritten.args) {
          Result<Term> term = ResolveConcreteArg(a);
          if (!term.ok()) {
            resolved = false;
            break;
          }
          args.push_back(*std::move(term));
        }
        if (resolved) {
          if (!(*fn)(args)) {
            // Provably false for every query this cover could serve: the
            // hop-2 rule would never fire sequentially either. Exact skip.
            ++stats_->skipped_covers;
            return;
          }
          ++stats_->folded_conditions;
          continue;  // provably true — drop it
        }
        // Fall through: keep the condition for fire-time evaluation.
      }
      conditions.push_back(std::move(rewritten));
    }

    // 2. Rewrite the hop-2 lets (hop-1 lets have already run by then, so
    // let-derived references are fine here — this is where conversion
    // chains fuse).
    std::vector<Assignment> lets;
    for (const Assignment& let : h2_->lets) {
      Assignment rewritten;
      rewritten.var = "T_" + let.var;
      rewritten.call.function = let.call.function;
      for (const ArgExpr& a : let.call.args) {
        RewrittenArg r = RewriteArg(a);
        if (r.status != 1) {
          ++stats_->skipped_covers;
          MarkApproximate("rule " + h2_->name + ": let " + let.var +
                          " is not rewritable through σ");
          return;
        }
        rewritten.call.args.push_back(std::move(r.arg));
      }
      lets.push_back(std::move(rewritten));
    }

    // 3. Rewrite the emission.
    EmissionTemplate emission;
    if (RewriteEmission(h2_->emission, &emission) != 1) {
      ++stats_->skipped_covers;
      MarkApproximate("rule " + h2_->name +
                      ": emission is not rewritable through σ");
      return;
    }

    // 4. Divergence analyses for this cover.
    for (size_t i = 0; i < instances_.size(); ++i) {
      for (size_t k = i + 1; k < instances_.size(); ++k) {
        if (AnyPatternsMayOverlap(instances_[i].renamed.head,
                                  instances_[k].renamed.head)) {
          // Two instances could match a common constraint; the composed
          // head requires distinct constraints while sequential matching
          // does not.
          MarkApproximate("rules " + instances_[i].renamed.name + " and " +
                          instances_[k].renamed.name +
                          " may overlap on a shared constraint when composed "
                          "through " + h2_->name);
        }
      }
    }
    std::vector<ConstraintPattern> used_leaves;
    for (const Instance& inst : instances_) {
      for (size_t l = 0; l < inst.leaves.size(); ++l) {
        if (inst.used[l]) used_leaves.push_back(inst.leaves[l]);
      }
    }
    for (size_t i = 0; i < used_leaves.size(); ++i) {
      for (size_t k = i + 1; k < used_leaves.size(); ++k) {
        if (PatternsMayOverlap(used_leaves[i], used_leaves[k])) {
          // Two emitted constraints could collapse to one by ∧-idempotence
          // in the intermediate query, letting one constraint satisfy two
          // hop-2 head patterns sequentially.
          MarkApproximate(
              "two hop-1 emissions may collapse to one constraint under " +
              h2_->name);
        }
      }
    }

    // 5. Assemble the composed rule.
    Rule composed;
    composed.name = h2_->name;
    composed.exact = h2_->exact;
    for (const Instance& inst : instances_) {
      composed.name += "*" + inst.renamed.name;
      composed.exact = composed.exact && inst.renamed.exact;
      for (const ConstraintPattern& p : inst.renamed.head) {
        composed.head.push_back(p);
      }
      for (const FunctionCall& c : inst.renamed.conditions) {
        composed.conditions.push_back(c);
      }
      for (const Assignment& let : inst.renamed.lets) {
        composed.lets.push_back(let);
      }
    }
    for (FunctionCall& c : conditions) composed.conditions.push_back(std::move(c));
    for (Assignment& let : lets) composed.lets.push_back(std::move(let));
    composed.emission = std::move(emission);

    ++stats_->covers_found;
    ++covers_for_rule_;
    for (const Instance& inst : instances_) covered_.insert(composable_[inst.rule_index]);
    out_->push_back(std::move(composed));
    if (static_cast<int>(out_->size()) > options_.max_composed_rules) {
      error_ = Status::Unsupported(
          "composition of " + hop1_.target_name() + " and " +
          hop2_.target_name() + " exceeds max_composed_rules");
    }
  }

  const MappingSpec& hop1_;
  const MappingSpec& hop2_;
  const ComposeOptions& options_;
  ComposeStats* stats_;

  std::vector<size_t> composable_;  // indices into hop1_.rules()
  std::vector<std::vector<ConstraintPattern>> raw_leaves_;
  std::set<size_t> covered_;
  std::set<std::string> notes_seen_;

  const Rule* h2_ = nullptr;
  std::vector<Rule>* out_ = nullptr;
  std::vector<Instance> instances_;
  Bindings concrete_;
  SymMap sym_;
  std::set<std::string> h2_let_vars_;
  int covers_for_rule_ = 0;
  bool cap_note_emitted_ = false;
  Status error_;
};

std::string RuleBodyKey(const Rule& rule) {
  Rule copy = rule;
  copy.name.clear();
  return copy.ToString();
}

void CollectRequiredCaps(const EmissionTemplate& e, SourceCapabilities* caps) {
  if (e.kind == EmissionTemplate::Kind::kLeaf) {
    const AttrExpr& lhs = e.leaf.lhs;
    if (!lhs.is_whole_var() && !lhs.name_literal.empty()) {
      caps->Allow(lhs.name_literal, e.leaf.op);
    }
    return;
  }
  for (const EmissionTemplate& child : e.children) {
    CollectRequiredCaps(child, caps);
  }
}

}  // namespace

Result<ComposedSpec> ComposeSpecs(const MappingSpec& hop1,
                                  const MappingSpec& hop2,
                                  const ComposeOptions& options, Trace* trace,
                                  uint64_t parent_span) {
  Span span(trace, "compose.hop", parent_span);
  span.AddAttr("hop1", hop1.target_name());
  span.AddAttr("hop2", hop2.target_name());

  Status valid = hop1.Validate();
  if (!valid.ok()) {
    return Status::InvalidArgument("hop-1 spec invalid: " + valid.message());
  }
  valid = hop2.Validate();
  if (!valid.ok()) {
    return Status::InvalidArgument("hop-2 spec invalid: " + valid.message());
  }

  ComposeStats stats;
  stats.hop1_rules = static_cast<int>(hop1.rules().size());
  stats.hop2_rules = static_cast<int>(hop2.rules().size());

  Enumerator enumerator(hop1, hop2, options, &stats);
  enumerator.Prepare();

  std::vector<Rule> composed_rules;
  for (const Rule& hop2_rule : hop2.rules()) {
    Status s = enumerator.Run(hop2_rule, &composed_rules);
    if (!s.ok()) return s;
  }

  // Lost-suppression analysis: hop-1 rule R whose matchings could be
  // sub-matchings of a wider rule R' (and thus suppressed by SCM inside
  // hop 1) resurrects in the composed spec if R is composed but R' is not —
  // the suppressing wider matching no longer exists at the composed level.
  const std::set<size_t>& covered = enumerator.covered_hop1_rules();
  for (size_t i : enumerator.composable()) {
    if (covered.count(i) == 0) continue;
    for (size_t k : enumerator.composable()) {
      if (k == i || covered.count(k) != 0) continue;
      if (CouldBeSuppressedBy(hop1.rules()[i], hop1.rules()[k])) {
        ++stats.approximate_marks;
        stats.notes.push_back(
            "composed rule from " + hop1.rules()[i].name +
            " may resurrect emissions that " + hop1.rules()[k].name +
            " suppresses in sequential translation");
      }
    }
  }

  // Deduplicate by rule body (symmetric covers produce identical bodies up
  // to the generated name; the runtime matcher re-derives every binding
  // order from one rule).
  std::vector<Rule> unique_rules;
  std::set<std::string> bodies;
  std::set<std::string> names;
  for (Rule& rule : composed_rules) {
    if (!bodies.insert(RuleBodyKey(rule)).second) continue;
    std::string base = rule.name;
    int suffix = 2;
    while (!names.insert(rule.name).second) {
      rule.name = base + "#" + std::to_string(suffix++);
    }
    unique_rules.push_back(std::move(rule));
  }
  stats.composed_rules = static_cast<int>(unique_rules.size());

  auto merged = std::make_shared<FunctionRegistry>(hop1.registry());
  merged->MergeFrom(hop2.registry());
  // Seed the composed fingerprint from both parents: re-registering either
  // parent rotates the composed spec's rule_set cache key even when the
  // composed rule text is unchanged.
  Fnv64 seed;
  seed.AddU64(hop1.fingerprint()).AddU64(hop2.fingerprint());
  MappingSpec spec(hop2.target_name(), std::move(merged),
                   std::move(unique_rules), seed.value());

  Status composed_valid = spec.Validate();
  if (!composed_valid.ok()) {
    return Status::Internal("composed spec failed validation (composer bug): " +
                            composed_valid.message());
  }

  span.AddAttr("composed_rules", std::to_string(stats.composed_rules));
  span.AddAttr("skipped_covers", std::to_string(stats.skipped_covers));
  span.AddAttr("approximate_marks", std::to_string(stats.approximate_marks));

  ComposedSpec result;
  result.spec = std::move(spec);
  result.stats = std::move(stats);
  result.exact = result.stats.approximate_marks == 0;
  return result;
}

SourceCapabilities RequiredCapabilities(const MappingSpec& spec) {
  SourceCapabilities caps;
  for (const Rule& rule : spec.rules()) {
    CollectRequiredCaps(rule.emission, &caps);
  }
  return caps;
}

}  // namespace qmap
