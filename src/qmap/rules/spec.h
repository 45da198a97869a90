#ifndef QMAP_RULES_SPEC_H_
#define QMAP_RULES_SPEC_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "qmap/common/lazy_shared.h"
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
/// Thread safety: a MappingSpec is treated as immutable once translation
/// begins. Const access (rules(), registry(), FindRule()) from many threads
/// is safe — the TranslationService fans per-source translations out across
/// a thread pool under this contract — but AddRule() must not race with any
/// concurrent reader.
class MappingSpec {
 public:
  MappingSpec() : registry_(std::make_shared<FunctionRegistry>()) {}
  MappingSpec(std::string target_name, std::shared_ptr<const FunctionRegistry> registry)
      : target_name_(std::move(target_name)), registry_(std::move(registry)) {}

  // The cached derived artifacts (compiled plan, fingerprint) ride along on
  // copy/move — neither holds pointers into the rule list — but their
  // synchronization state cannot, so all four operations are spelled out in
  // spec.cc.
  MappingSpec(const MappingSpec& other);
  MappingSpec& operator=(const MappingSpec& other);
  MappingSpec(MappingSpec&& other) noexcept;
  MappingSpec& operator=(MappingSpec&& other) noexcept;

  const std::string& target_name() const { return target_name_; }
  const FunctionRegistry& registry() const { return *registry_; }
  const std::vector<Rule>& rules() const { return rules_; }

  void AddRule(Rule rule) {
    rules_.push_back(std::move(rule));
    compiled_plan_.Invalidate();
    std::lock_guard<std::mutex> lock(fingerprint_mu_);
    fingerprint_valid_ = false;
  }

  /// The rule-set fingerprint: FNV-1a over the target name and every rule's
  /// canonical rendering, in rule order. Computed once when the spec is
  /// complete (first call after the last AddRule) and cached; any AddRule
  /// invalidates it, so two specs differing in any rule — added, removed,
  /// reordered, or edited — fingerprint differently. This is the version
  /// half of the translation-cache key (TranslationCacheKey::rule_set):
  /// cached translations, RAM and persistent alike, are only reachable
  /// under the exact rule set that produced them (DESIGN.md §10). Safe to
  /// call from many threads under the immutable-once-translating contract.
  uint64_t fingerprint() const;

  /// The spec's compiled matching automaton (see qmap/rules/rule_program.h),
  /// built lazily on first use and cached until AddRule() invalidates it.
  /// Published via LazyShared (double-checked atomic shared_ptr): readers
  /// race-free from any thread at any time, and the build runs at most once
  /// per published value. Replacing the rule set swaps plans with one atomic
  /// pointer store — in-flight matches keep their plan alive through the
  /// shared_ptr.
  std::shared_ptr<const CompiledRulePlan> compiled_plan() const;

  /// Extra entropy mixed into fingerprint() when nonzero. The offline
  /// composer (qmap/rules/compose.h) stamps a composed spec with a seed
  /// derived from both parent fingerprints, so the composed rule_set half of
  /// the 192-bit translation-cache key rotates whenever *either* parent's
  /// rule set changes — even if the composed rule text happens to come out
  /// identical. Must be set before translation begins (same contract as
  /// AddRule).
  void set_fingerprint_seed(uint64_t seed) {
    std::lock_guard<std::mutex> lock(fingerprint_mu_);
    fingerprint_seed_ = seed;
    fingerprint_valid_ = false;
  }
  uint64_t fingerprint_seed() const {
    std::lock_guard<std::mutex> lock(fingerprint_mu_);
    return fingerprint_seed_;
  }

  /// Finds a rule by name; nullptr when absent.
  const Rule* FindRule(const std::string& name) const;

  /// Mechanical well-formedness checks (see class comment).
  Status Validate() const;

  /// Multi-line rendering of all rules.
  std::string ToString() const;

 private:
  std::string target_name_;
  std::shared_ptr<const FunctionRegistry> registry_;
  std::vector<Rule> rules_;
  mutable LazyShared<CompiledRulePlan> compiled_plan_;
  // Cached rule-set fingerprint (not a shared_ptr, so it keeps its own lock).
  mutable std::mutex fingerprint_mu_;
  mutable uint64_t fingerprint_ = 0;
  mutable bool fingerprint_valid_ = false;
  uint64_t fingerprint_seed_ = 0;  // guarded by fingerprint_mu_
};

}  // namespace qmap

#endif  // QMAP_RULES_SPEC_H_
