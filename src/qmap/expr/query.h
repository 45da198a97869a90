#ifndef QMAP_EXPR_QUERY_H_
#define QMAP_EXPR_QUERY_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "qmap/expr/constraint.h"

namespace qmap {

enum class NodeKind { kTrue, kLeaf, kAnd, kOr };

/// An immutable constraint-query tree (Section 6): interior n-ary ∧/∨ nodes,
/// leaf constraints, and the trivial query True.
///
/// Query is a value type wrapping a shared immutable node, so subtree reuse
/// during rewriting (Disjunctivize, TDQM) is O(1) per reference — rewrites
/// create new interior nodes but never deep-copy untouched subtrees.
///
/// The normalizing constructors maintain the paper's canonical shape:
/// ∧ and ∨ strictly alternate along every path (same-operator children are
/// collapsed, e.g. ∧{a, ∧{b,c}} = ∧{a,b,c}), `True` conjuncts are dropped,
/// a `True` disjunct absorbs its disjunction, duplicate children are merged
/// (idempotency), and single-child nodes collapse to the child.
///
/// Nodes are hash-consed (see qmap/expr/intern.h): unless interning is
/// disabled, the constructors canonicalize against a process-wide table so
/// structurally equal subtrees share one node, and every node carries a
/// precomputed 64-bit fingerprint() of its structure. Identity-keyed layers
/// (the EDNF constraint table, residue-filter dedup, the translation cache)
/// key on fingerprints instead of printed strings.
///
/// The constructors probe the table before they build: they normalize over
/// borrowed child handles, fingerprint the result and look it up, so a
/// construction whose node already exists allocates nothing. Only a miss
/// builds the node (and its child list), outside the table's lock.
class Query {
 public:
  /// The trivial query (no constraint; selects everything).
  static Query True();
  /// A single-constraint query.
  static Query Leaf(Constraint constraint);
  /// Normalized conjunction of `children` (empty conjunction is True). A
  /// std::vector<Query> converts to the span.
  static Query And(std::span<const Query> children) {
    return Branch(NodeKind::kAnd, children);
  }
  static Query And(std::initializer_list<Query> children) {
    return Branch(NodeKind::kAnd, {children.begin(), children.size()});
  }
  /// Normalized disjunction of `children`; `children` must be non-empty
  /// (the library has no False — see DESIGN.md §7, negation is out of scope).
  static Query Or(std::span<const Query> children) {
    return Branch(NodeKind::kOr, children);
  }
  static Query Or(std::initializer_list<Query> children) {
    return Branch(NodeKind::kOr, {children.begin(), children.size()});
  }

  Query() : Query(True()) {}

  NodeKind kind() const { return node_->kind; }
  bool is_true() const { return kind() == NodeKind::kTrue; }
  bool is_leaf() const { return kind() == NodeKind::kLeaf; }

  /// Leaf accessor; requires is_leaf().
  const Constraint& constraint() const { return *node_->constraint; }
  /// Children of an ∧/∨ node (empty vector for leaves/True).
  const std::vector<Query>& children() const { return node_->children; }

  /// 64-bit structural fingerprint, precomputed at construction. Structurally
  /// equal queries always fingerprint equal; distinct structures collide with
  /// probability ~2^-64. Cache layers key on this directly.
  uint64_t fingerprint() const { return node_->fingerprint; }

  /// The address of the underlying shared node. When both queries were built
  /// with interning enabled, equal identity() ⇔ StructurallyEquals.
  /// Only meaningful between live handles: once a node's last handle drops,
  /// the intern table may free it and a later node may reuse its address, so
  /// never keep an identity() without also keeping its Query.
  const void* identity() const { return node_.get(); }

  /// True if the query is a *simple conjunction*: True, a leaf, or an ∧ node
  /// whose children are all leaves (the input shape of Algorithm SCM).
  bool IsSimpleConjunction() const;

  /// The constraints of a simple conjunction, in order. Requires
  /// IsSimpleConjunction(); True yields the empty vector.
  std::vector<Constraint> AsSimpleConjunction() const;

  /// All leaf constraints in the tree, left-to-right, duplicates removed —
  /// C(Q) in the paper's notation.
  std::vector<Constraint> AllConstraints() const;

  /// Number of nodes in the parse tree — the compactness measure of §8.
  int NodeCount() const;

  /// Maximum depth (True/leaf = 1).
  int Depth() const;

  /// Structural equality. Order-sensitive: ∧/∨ children are compared
  /// pairwise in position, so `a ∧ b` and `b ∧ a` are NOT structurally
  /// equal even though they are logically equivalent. With interning on
  /// this is a pointer comparison; otherwise fingerprints short-circuit
  /// inequality and a deep walk confirms equality.
  bool StructurallyEquals(const Query& other) const;

  /// Paper-style rendering, e.g. `([ln = "Clancy"] ∨ [ln = "Klancy"]) ∧
  /// [fn = "Tom"]`.
  std::string ToString() const;

  friend bool operator==(const Query& a, const Query& b) {
    return a.StructurallyEquals(b);
  }

  /// Implementation detail, public only so the intern table (query.cc) can
  /// build and store nodes; not part of the supported API surface.
  struct Node {
    NodeKind kind = NodeKind::kTrue;
    // Valid when kind == kLeaf; shared with the constraint intern table so
    // every leaf over the same printed constraint aliases one object.
    std::shared_ptr<const Constraint> constraint;
    std::vector<Query> children;  // valid when kind is kAnd/kOr
    uint64_t fingerprint = 0;
    // True when this node came out of the intern table — then it is THE
    // canonical node for its structure and pointer inequality between two
    // interned nodes implies structural inequality.
    bool interned = false;
  };

 private:
  explicit Query(std::shared_ptr<const Node> node) : node_(std::move(node)) {}

  /// The one ∧/∨ builder: flattens, drops or absorbs True and dedups
  /// `children` into a borrowed list, then hands it to MakeBranch.
  static Query Branch(NodeKind kind, std::span<const Query> children);

  /// The ∧/∨ node over `children`, a list already flattened and deduplicated
  /// with at least two entries: interned (canonicalizing any child built
  /// while interning was off) or, with interning off, built plain.
  static Query MakeBranch(NodeKind kind, std::span<const Query* const> children);

  /// Returns the canonical (interned) equivalent of `q`, re-interning
  /// subtrees built while interning was off; pointer-check fast path when
  /// `q` is already canonical.
  static Query Canonical(const Query& q);

  std::shared_ptr<const Node> node_;
};

/// Conjunction of two queries (convenience over Query::And).
Query operator&(const Query& a, const Query& b);
/// Disjunction of two queries (convenience over Query::Or).
Query operator|(const Query& a, const Query& b);

}  // namespace qmap

#endif  // QMAP_EXPR_QUERY_H_
