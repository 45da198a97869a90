#ifndef QMAP_RULES_SPEC_H_
#define QMAP_RULES_SPEC_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "qmap/rules/rule.h"

namespace qmap {

class CompiledRulePlan;

/// A mapping specification K: the set of mapping rules for one target
/// context, together with the function registry its rules refer to
/// (Section 4.1, Figures 3 and 5).
///
/// Soundness and completeness (Definitions 3-4) are properties of the
/// *domain knowledge* the rules encode and cannot be checked syntactically;
/// Validate() checks the mechanical well-formedness instead (all referenced
/// functions exist, emission variables are bound by the head or by lets).
///
/// A spec is frozen at construction: its rule list never changes, so every
/// const member may be called from any number of threads at once (the
/// TranslationService fans per-source translations out across a thread
/// pool). Copies are independent values that share one compiled plan.
class MappingSpec {
 public:
  /// The empty spec: no target name, an empty registry, no rules.
  MappingSpec();
  /// The spec with exactly `rules`, in order. `fingerprint_seed`, when
  /// nonzero, is mixed into fingerprint() first: the offline composer
  /// (qmap/rules/compose.h) seeds a composed spec from both parent
  /// fingerprints, so the composed rule_set half of the 192-bit
  /// translation-cache key rotates whenever *either* parent's rule set
  /// changes — even if the composed rule text comes out identical.
  MappingSpec(std::string target_name,
              std::shared_ptr<const FunctionRegistry> registry,
              std::vector<Rule> rules = {}, uint64_t fingerprint_seed = 0);

  const std::string& target_name() const { return target_name_; }
  const FunctionRegistry& registry() const { return *registry_; }
  const std::vector<Rule>& rules() const { return rules_; }

  /// The rule-set fingerprint, computed at construction: FNV-1a over the
  /// seed (when nonzero), the target name and every rule's canonical
  /// rendering, in rule order. Two specs differing in any rule — added,
  /// removed, reordered, or edited — fingerprint differently. This is the
  /// version half of the translation-cache key (TranslationCacheKey::
  /// rule_set): cached translations, RAM and persistent alike, are only
  /// reachable under the exact rule set that produced them (DESIGN.md §10).
  uint64_t fingerprint() const { return fingerprint_; }
  uint64_t fingerprint_seed() const { return fingerprint_seed_; }

  /// The spec's compiled matching automaton (see qmap/rules/rule_program.h),
  /// built on the first call — by exactly one caller when several race it —
  /// and returned by every later call on this spec or any copy of it.
  std::shared_ptr<const CompiledRulePlan> compiled_plan() const;

  /// Finds a rule by name; nullptr when absent.
  const Rule* FindRule(const std::string& name) const;

  /// Mechanical well-formedness checks (see class comment).
  Status Validate() const;

  /// Multi-line rendering of all rules.
  std::string ToString() const;

 private:
  /// The plan built from rules_, shared by every copy of the spec.
  struct PlanCell {
    std::once_flag built;
    std::shared_ptr<const CompiledRulePlan> plan;
  };

  std::string target_name_;
  std::shared_ptr<const FunctionRegistry> registry_;
  std::vector<Rule> rules_;
  uint64_t fingerprint_seed_ = 0;
  uint64_t fingerprint_ = 0;
  std::shared_ptr<PlanCell> plan_cell_;
};

}  // namespace qmap

#endif  // QMAP_RULES_SPEC_H_
