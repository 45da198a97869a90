#ifndef QMAP_RULES_RULE_PROGRAM_H_
#define QMAP_RULES_RULE_PROGRAM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "qmap/expr/constraint.h"
#include "qmap/rules/rule.h"

namespace qmap {

/// Offline-compiled form of a rule set: a discrimination DAG over interned
/// (attribute, op) ids, plus per-pattern micro-instruction programs.
///
/// Shape (see docs/ALGORITHMS.md "The compiled matching automaton"):
///
///   * Every structurally distinct head pattern in the rule set is compiled
///     once into a PlanPattern: the candidate-bucket slot its constraints
///     come from, and a short micro-op program (PatternInstr) that performs
///     only the checks the bucket does not already guarantee plus the
///     variable bindings.
///   * Rule heads become root-to-accept paths in a trie of PlanNodes whose
///     edges are pattern ids; rules sharing a head-pattern prefix share the
///     prefix nodes, so a shared (attr, op) test runs once per conjunction
///     no matter how many rules start with it.
///   * Nodes, children, instructions and accepts live in flat arenas with
///     index-based edges — one contiguous allocation each, no pointers, so
///     traversal is cache-friendly and the plan is trivially shareable
///     (and relocatable) across threads and MappingSpec copies.
///
/// A plan holds no pointers into the MappingSpec it was compiled from; it
/// refers to rules by index, so it stays valid across spec copies/moves as
/// long as the rule list itself is unchanged (MappingSpec invalidates its
/// cached plan on AddRule).
///
/// Immutable after construction — safe to share across threads.

/// One micro-instruction of a compiled constraint pattern. The candidate
/// bucket already guarantees the constraint's operator and (for literal
/// buckets) its attribute name, so programs carry only the residual checks
/// and the bindings. `on_rhs` retargets attribute micro-ops at the
/// constraint's right-hand-side attribute (join patterns), where nothing is
/// bucket-guaranteed.
struct PatternInstr {
  enum class Kind : uint8_t {
    kBindWholeAttr,  // bind vars[arg] to the whole target Attr
    kCheckView,      // target.view == strings[arg]
    kBindViewRef,    // bind vars[arg] to Str("view" or "view[i]") of target
    kCheckIndex,     // target.instance == arg
    kBindIndex,      // bind vars[arg] to Int(target.instance)
    kCheckName,      // target.name == strings[arg] (rhs only; lhs names are
                     //   guaranteed by the literal bucket)
    kBindName,       // bind vars[arg] to Str(target.name)
    kRhsIsAttr,      // constraint.rhs holds an Attr (join constraint)
    kCheckRhsValue,  // constraint.rhs holds a Value that Equals(values[arg])
    kBindRhsTerm,    // bind vars[arg] to the whole rhs operand (Value|Attr)
  };

  Kind kind;
  bool on_rhs = false;
  int32_t arg = -1;  // var id / string-pool id / value-pool id / literal int
};

/// One compiled head pattern: its candidate-bucket slot and its program.
struct PlanPattern {
  int32_t bucket = 0;       // slot in the per-conjunction bucket table
  int32_t first_instr = 0;  // instrs[first_instr .. +num_instrs)
  int32_t num_instrs = 0;
  bool literal_bucket = false;  // (op, attr-name) bucket vs per-op wildcard
};

/// One node of the discrimination trie. `pattern` is the edge test that
/// leads *into* this node (-1 for the root); children occupy a contiguous
/// block of the node arena, accepts a contiguous block of the accept arena.
struct PlanNode {
  int32_t pattern = -1;
  int32_t first_child = 0;
  int32_t num_children = 0;
  int32_t first_accept = 0;
  int32_t num_accepts = 0;
};

/// A rule whose whole head has been matched when traversal reaches the
/// owning node. Conditions (and the rule's tail) still live on the Rule
/// itself; the runtime resolves `rule` against the spec it matches for.
///
/// `dedup_free` records a compile-time proof that no duplicate matching can
/// reach this accept: when the path's candidate buckets are pairwise
/// disjoint (all literal with distinct ids — a constraint lands in exactly
/// one literal bucket — or a single-pattern head), a given constraint set
/// has exactly one assignment of constraints to head slots, so the DFS
/// enumerates it at most once and the runtime skips the dedup check.
struct PlanAccept {
  int32_t rule = 0;
  bool has_conditions = false;
  bool dedup_free = false;
};

/// Process-wide compile-cost telemetry, aggregated over every plan built
/// (all specs, all threads). Bridged into the service metrics registry as
/// qmap_match_compile_ns / qmap_match_plan_nodes (docs/OBSERVABILITY.md).
struct CompiledPlanBuildStats {
  uint64_t plans_built = 0;
  uint64_t compile_ns = 0;   // total wall time spent in CompileRulePlan
  uint64_t plan_nodes = 0;   // total DAG nodes across built plans
};
CompiledPlanBuildStats CompiledPlanGlobalStats();

class CompiledRulePlan {
 public:
  /// Candidate-bucket slot for a literal (op, attr-name) pair, or -1 when no
  /// pattern in the plan tests that pair. The lookup is plan-local and
  /// lock-free — one transparent string-hash probe, then a flat
  /// [name][op] row — so the per-constraint Prepare loop never takes a
  /// lock.
  int32_t LiteralSlot(Op op, std::string_view name) const {
    auto it = name_ids_.find(name);
    if (it == name_ids_.end()) return -1;
    return name_slots_[static_cast<size_t>(it->second) * kNumOps +
                       static_cast<size_t>(op)];
  }
  /// Slot of the all-constraints-with-this-op wildcard bucket.
  int32_t WildcardSlot(Op op) const {
    return num_literal_slots_ + static_cast<int32_t>(op);
  }
  int32_t num_slots() const { return num_literal_slots_ + kNumOps; }

  int32_t num_rules() const { return num_rules_; }
  size_t max_head_patterns() const { return max_head_; }
  size_t num_nodes() const { return nodes.size(); }

  // Flat arenas, read directly by the runtime's traversal loops
  // (qmap/rules/compiled_matcher.cc). nodes[0] is the root.
  // child_buckets[i] caches patterns[nodes[i].pattern].bucket (-1 for the
  // root) so the child scan can skip empty-bucket subtrees from one flat
  // int32 load instead of chasing node -> pattern -> bucket.
  std::vector<PlanNode> nodes;
  std::vector<int32_t> child_buckets;
  std::vector<PlanPattern> patterns;
  std::vector<PatternInstr> instrs;
  std::vector<PlanAccept> accepts;
  std::vector<std::string> vars;     // binding slot id -> variable name
  std::vector<std::string> strings;  // view/name literal pool
  std::vector<Value> values;         // constant operand pool (pre-resolved)

  // FNV-1a: attribute names are a few bytes, where this beats the library
  // hash's fixed setup cost — LiteralSlot probes run once per constraint
  // per match call.
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      uint64_t h = 14695981039346656037ull;
      for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
      }
      return static_cast<size_t>(h);
    }
  };

  // Populated by CompileRulePlan only; trailing underscores mark them as
  // internals readers should reach through the accessors above.
  // name_ids_ maps each attr name some literal pattern tests to a dense
  // local id; name_slots_[id * kNumOps + op] is that pair's bucket slot
  // (-1 when no pattern tests that exact pair).
  std::unordered_map<std::string, int32_t, StringHash, std::equal_to<>>
      name_ids_;
  std::vector<int32_t> name_slots_;
  int32_t num_literal_slots_ = 0;
  int32_t num_rules_ = 0;
  size_t max_head_ = 0;
};

/// Compiles `rules` into a plan. Deterministic: the same rule list always
/// produces the same arenas. Cost is recorded in CompiledPlanGlobalStats().
std::shared_ptr<const CompiledRulePlan> CompileRulePlan(
    const std::vector<Rule>& rules);

}  // namespace qmap

#endif  // QMAP_RULES_RULE_PROGRAM_H_
