#include "qmap/expr/query.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "qmap/common/fnv.h"
#include "qmap/expr/intern.h"

namespace qmap {
namespace {

// Kind tags mixed into node fingerprints so a leaf, a conjunction and a
// disjunction over the same material never share a fingerprint.
constexpr unsigned char kTagTrue = 'T';
constexpr unsigned char kTagLeaf = 'L';
constexpr unsigned char kTagAnd = 'A';
constexpr unsigned char kTagOr = 'O';

uint64_t TrueFingerprint() {
  static const uint64_t fp = Fnv64().AddByte(kTagTrue).value();
  return fp;
}

uint64_t LeafFingerprint(uint64_t constraint_fp) {
  return Fnv64().AddByte(kTagLeaf).AddU64(constraint_fp).value();
}

uint64_t BranchFingerprint(NodeKind kind,
                           std::span<const Query* const> children) {
  Fnv64 h;
  h.AddByte(kind == NodeKind::kAnd ? kTagAnd : kTagOr);
  for (const Query* child : children) h.AddU64(child->fingerprint());
  return h.value();
}

// A new ∧/∨ node over copies of `children`.
std::shared_ptr<Query::Node> NewBranchNode(
    NodeKind kind, uint64_t fp, std::span<const Query* const> children) {
  auto node = std::make_shared<Query::Node>();
  node->kind = kind;
  node->fingerprint = fp;
  node->children.reserve(children.size());
  for (const Query* child : children) node->children.push_back(*child);
  return node;
}

bool& InternFlag() {
  static bool enabled = true;
  return enabled;
}

// One hash-cons table, split into 16 shards by the top 4 bits of the
// fingerprint (std::hash<uint64_t> is the identity, so the buckets inside a
// shard already use the low bits). Lookups take their shard's lock shared;
// an insert takes it exclusively and also sweeps the next kSweepBuckets
// buckets of that shard, erasing every entry only the table still owns.
//
// Why a use count of 1 under the exclusive lock means the entry is dead: a
// new reference can come only from a lookup in this shard, which needs the
// lock, or from copying a handle someone already holds, which would make the
// count at least 2. Dropping the table's reference is then the final
// release. Destroying an entry only releases its children and constraint,
// which the table still owns, so it never re-enters a table; a freed
// parent's children become collectable when the hand next reaches them.
template <typename T>
class InternTable {
 public:
  using Entry = std::shared_ptr<const T>;

  // The entry in `fp`'s bucket for which `same(entry)` holds, or null. Takes
  // the shard's lock shared, and the returned reference under it.
  template <typename Same>
  Entry Find(uint64_t fp, const Same& same) {
    Shard& shard = ShardOf(fp);
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    const Entry* found = FindIn(shard, fp, same);
    return found != nullptr ? *found : nullptr;
  }

  // Inserts `candidate`, built after a Find missed, unless an entry for which
  // `same` holds arrived meanwhile; returns whichever entry the table keeps
  // and reports in `*inserted` which happened.
  template <typename Same>
  Entry Insert(uint64_t fp, Entry candidate, const Same& same,
               bool* inserted) {
    Shard& shard = ShardOf(fp);
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    if (const Entry* found = FindIn(shard, fp, same)) {
      *inserted = false;
      return *found;
    }
    Sweep(shard);
    shard.entries[fp].push_back(candidate);
    live_.fetch_add(1, std::memory_order_relaxed);
    *inserted = true;
    return candidate;
  }

  // Entries currently resident, across all shards.
  uint64_t live() const { return live_.load(std::memory_order_relaxed); }

 private:
  static constexpr int kShardBits = 4;
  static constexpr size_t kSweepBuckets = 4;

  struct alignas(64) Shard {
    std::shared_mutex mu;
    std::unordered_map<uint64_t, std::vector<Entry>> entries;
    size_t hand = 0;  // next bucket to sweep
  };

  Shard& ShardOf(uint64_t fp) { return shards_[fp >> (64 - kShardBits)]; }

  template <typename Same>
  static const Entry* FindIn(const Shard& shard, uint64_t fp,
                             const Same& same) {
    auto it = shard.entries.find(fp);
    if (it == shard.entries.end()) return nullptr;
    for (const Entry& candidate : it->second) {
      if (same(*candidate)) return &candidate;
    }
    return nullptr;
  }

  // Requires the shard's exclusive lock.
  void Sweep(Shard& shard) {
    auto& map = shard.entries;
    size_t freed = 0;
    for (size_t i = 0; i < kSweepBuckets; ++i) {
      const size_t bucket = shard.hand % map.bucket_count();
      shard.hand = bucket + 1;
      for (auto it = map.begin(bucket); it != map.end(bucket);) {
        const auto cur = it++;  // erasing *cur leaves `it` valid
        freed += std::erase_if(
            cur->second, [](const Entry& e) { return e.use_count() == 1; });
        if (cur->second.empty()) map.erase(uint64_t{cur->first});
      }
    }
    if (freed > 0) live_.fetch_sub(freed, std::memory_order_relaxed);
  }

  std::array<Shard, size_t{1} << kShardBits> shards_;
  std::atomic<uint64_t> live_{0};
};

// The process-wide query-node and constraint tables (DESIGN.md §9). Both
// bucket by 64-bit fingerprint and verify bucket candidates exactly, so
// interning never conflates distinct structures even under a fingerprint
// collision. An entry stays while anything outside the table references
// it, so two live handles to equal structures always share one node; once
// its last handle drops, a later insert into its shard sweeps it away.
class InternTables {
 public:
  static InternTables& Global() {
    static InternTables* tables = new InternTables();
    return *tables;
  }

  // The leaf over `c`. A probe of the node table finds an existing leaf
  // whose constraint prints the same, and counts a constraint hit as well
  // as a node hit; only a miss interns the constraint and builds the node.
  std::shared_ptr<const Query::Node> InternLeaf(Constraint c,
                                                uint64_t constraint_fp,
                                                uint64_t fp) {
    auto found = nodes_.Find(fp, [&](const Query::Node& entry) {
      return entry.kind == NodeKind::kLeaf &&
             SamePrintedForm(*entry.constraint, c);
    });
    if (found != nullptr) {
      constraint_hits_.fetch_add(1, std::memory_order_relaxed);
      query_hits_.fetch_add(1, std::memory_order_relaxed);
      return found;
    }
    auto node = std::make_shared<Query::Node>();
    node->kind = NodeKind::kLeaf;
    node->fingerprint = fp;
    node->constraint = InternConstraint(std::move(c), constraint_fp);
    return InsertNode(std::move(node));
  }

  // The ∧/∨ node over `children`, which must be canonical (interned) handles
  // so the probe compares their addresses. Only a miss copies them into a
  // new node.
  std::shared_ptr<const Query::Node> InternBranch(
      NodeKind kind, uint64_t fp, std::span<const Query* const> children) {
    auto found = nodes_.Find(fp, [&](const Query::Node& entry) {
      if (entry.kind != kind || entry.children.size() != children.size()) {
        return false;
      }
      for (size_t i = 0; i < children.size(); ++i) {
        if (entry.children[i].identity() != children[i]->identity()) {
          return false;
        }
      }
      return true;
    });
    if (found != nullptr) {
      query_hits_.fetch_add(1, std::memory_order_relaxed);
      return found;
    }
    return InsertNode(NewBranchNode(kind, fp, children));
  }

  InternStats Stats() const {
    InternStats s;
    s.query_hits = query_hits_.load(std::memory_order_relaxed);
    s.query_misses = query_misses_.load(std::memory_order_relaxed);
    s.query_nodes = s.query_misses;
    s.query_live = nodes_.live();
    s.constraint_hits = constraint_hits_.load(std::memory_order_relaxed);
    s.constraint_misses = constraint_misses_.load(std::memory_order_relaxed);
    s.constraint_nodes = s.constraint_misses;
    s.constraint_live = constraints_.live();
    return s;
  }

 private:
  std::shared_ptr<const Constraint> InternConstraint(Constraint c,
                                                     uint64_t fp) {
    auto found = constraints_.Find(
        fp, [&](const Constraint& entry) { return SamePrintedForm(entry, c); });
    if (found != nullptr) {
      constraint_hits_.fetch_add(1, std::memory_order_relaxed);
      return found;
    }
    auto owned = std::make_shared<const Constraint>(std::move(c));
    bool inserted = false;
    auto interned = constraints_.Insert(
        fp, owned,
        [&](const Constraint& entry) { return SamePrintedForm(entry, *owned); },
        &inserted);
    if (inserted) {
      constraint_misses_.fetch_add(1, std::memory_order_relaxed);
    } else {
      constraint_hits_.fetch_add(1, std::memory_order_relaxed);
    }
    return interned;
  }

  // Inserts `node`, built after a probe missed, unless an equal node arrived
  // in the meantime. Its children (or constraint) are canonical, so the
  // re-probe compares addresses.
  std::shared_ptr<const Query::Node> InsertNode(
      std::shared_ptr<Query::Node> node) {
    node->interned = true;
    const Query::Node& built = *node;
    bool inserted = false;
    auto interned = nodes_.Insert(
        built.fingerprint, std::move(node),
        [&](const Query::Node& entry) { return SameNode(entry, built); },
        &inserted);
    if (inserted) {
      query_misses_.fetch_add(1, std::memory_order_relaxed);
    } else {
      query_hits_.fetch_add(1, std::memory_order_relaxed);
    }
    return interned;
  }

  // Both nodes' children (and leaf constraints) are live canonical handles,
  // so comparing their addresses is exact.
  static bool SameNode(const Query::Node& a, const Query::Node& b) {
    if (a.kind != b.kind) return false;
    if (a.kind == NodeKind::kLeaf) return a.constraint == b.constraint;
    if (a.children.size() != b.children.size()) return false;
    for (size_t i = 0; i < a.children.size(); ++i) {
      if (a.children[i].identity() != b.children[i].identity()) return false;
    }
    return true;
  }

  InternTable<Query::Node> nodes_;
  InternTable<Constraint> constraints_;

  std::atomic<uint64_t> query_hits_{0};
  std::atomic<uint64_t> query_misses_{0};
  std::atomic<uint64_t> constraint_hits_{0};
  std::atomic<uint64_t> constraint_misses_{0};
};

// ParseQuery's memo outcomes, each on its own cache line: every parsing
// thread adds to one of them, and InternFlag() is read on every parse.
struct alignas(64) MemoCounter {
  std::atomic<uint64_t> value{0};
};
MemoCounter parse_memo_hits;
MemoCounter parse_memo_misses;

// Borrowed child handles, inline up to kInline and on the heap beyond.
class ChildList {
 public:
  void push_back(const Query* child) {
    if (heap_.empty() && size_ < kInline) {
      inline_[size_++] = child;
      return;
    }
    if (heap_.empty()) heap_.assign(inline_.begin(), inline_.end());
    heap_.push_back(child);
    ++size_;
  }
  std::span<const Query* const> span() const {
    return {heap_.empty() ? inline_.data() : heap_.data(), size_};
  }
  size_t size() const { return size_; }

 private:
  static constexpr size_t kInline = 16;
  std::array<const Query*, kInline> inline_{};
  std::vector<const Query*> heap_;
  size_t size_ = 0;
};

// Appends `child` to `out`, flattening nested nodes of the same kind and
// skipping structural duplicates of children already listed (idempotency:
// x ∧ x = x, x ∨ x = x; first occurrences keep their place). Fingerprints
// prune; StructurallyEquals confirms.
void AppendFlat(NodeKind kind, const Query& child, ChildList* out) {
  if (child.kind() == kind) {
    for (const Query& grandchild : child.children()) {
      AppendFlat(kind, grandchild, out);
    }
    return;
  }
  for (const Query* kept : out->span()) {
    if (kept->fingerprint() == child.fingerprint() &&
        kept->StructurallyEquals(child)) {
      return;
    }
  }
  out->push_back(&child);
}

}  // namespace

InternStats QueryInternStats() {
  InternStats s = InternTables::Global().Stats();
  s.parse_memo_hits = parse_memo_hits.value.load(std::memory_order_relaxed);
  s.parse_memo_misses =
      parse_memo_misses.value.load(std::memory_order_relaxed);
  return s;
}

void CountParseMemo(bool hit) {
  (hit ? parse_memo_hits : parse_memo_misses)
      .value.fetch_add(1, std::memory_order_relaxed);
}

void SetQueryInternEnabled(bool enabled) { InternFlag() = enabled; }

bool QueryInternEnabled() { return InternFlag(); }

Query Query::True() {
  static const std::shared_ptr<const Node>& node =
      *new std::shared_ptr<const Node>([] {
        auto n = std::make_shared<Node>();
        n->fingerprint = TrueFingerprint();
        // The singleton IS the canonical True node, interned or not.
        n->interned = true;
        return n;
      }());
  return Query(node);
}

Query Query::Leaf(Constraint constraint) {
  const uint64_t constraint_fp = constraint.Fingerprint();
  const uint64_t fp = LeafFingerprint(constraint_fp);
  if (InternFlag()) {
    return Query(InternTables::Global().InternLeaf(std::move(constraint),
                                                   constraint_fp, fp));
  }
  auto node = std::make_shared<Node>();
  node->kind = NodeKind::kLeaf;
  node->fingerprint = fp;
  node->constraint = std::make_shared<const Constraint>(std::move(constraint));
  return Query(std::move(node));
}

Query Query::Branch(NodeKind kind, std::span<const Query> children) {
  ChildList flat;
  for (const Query& child : children) {
    if (child.is_true()) {
      if (kind == NodeKind::kOr) return True();  // True disjunct absorbs the ∨
      continue;  // True conjunct is the ∧ identity
    }
    AppendFlat(kind, child, &flat);
  }
  if (flat.size() == 0) return True();  // ∨ of nothing: see header contract
  if (flat.size() == 1) return *flat.span()[0];
  return MakeBranch(kind, flat.span());
}

Query Query::MakeBranch(NodeKind kind,
                        std::span<const Query* const> children) {
  const uint64_t fp = BranchFingerprint(kind, children);
  if (!InternFlag()) return Query(NewBranchNode(kind, fp, children));
  const bool all_canonical =
      std::all_of(children.begin(), children.end(),
                  [](const Query* child) { return child->node_->interned; });
  if (all_canonical) {
    return Query(InternTables::Global().InternBranch(kind, fp, children));
  }
  // Some child was built while interning was off: canonicalize every child
  // first, so the table only ever holds canonical children.
  std::vector<Query> canonical;
  canonical.reserve(children.size());
  for (const Query* child : children) canonical.push_back(Canonical(*child));
  std::vector<const Query*> borrowed;
  for (const Query& child : canonical) borrowed.push_back(&child);
  return Query(InternTables::Global().InternBranch(kind, fp, borrowed));
}

// Canonicalizes a query built while interning was off (or before a toggle
// flip) so branch nodes only ever hold canonical children. Already-interned
// subtrees are returned as-is — the common case is a pointer check.
Query Query::Canonical(const Query& q) {
  if (q.node_->interned) return q;
  if (q.is_leaf()) return Leaf(q.constraint());
  std::vector<const Query*> children;
  for (const Query& child : q.children()) children.push_back(&child);
  return MakeBranch(q.kind(), children);
}

bool Query::IsSimpleConjunction() const {
  switch (kind()) {
    case NodeKind::kTrue:
    case NodeKind::kLeaf:
      return true;
    case NodeKind::kAnd:
      return std::all_of(children().begin(), children().end(),
                         [](const Query& c) { return c.is_leaf(); });
    case NodeKind::kOr:
      return false;
  }
  return false;
}

std::vector<Constraint> Query::AsSimpleConjunction() const {
  std::vector<Constraint> out;
  if (is_leaf()) {
    out.push_back(constraint());
  } else if (kind() == NodeKind::kAnd) {
    for (const Query& child : children()) out.push_back(child.constraint());
  }
  return out;
}

std::vector<Constraint> Query::AllConstraints() const {
  std::vector<Constraint> out;
  std::vector<uint64_t> seen_fps;
  std::function<void(const Query&)> visit = [&](const Query& q) {
    if (q.is_leaf()) {
      const Constraint& c = q.constraint();
      uint64_t fp = c.Fingerprint();
      for (size_t i = 0; i < seen_fps.size(); ++i) {
        if (seen_fps[i] == fp && SamePrintedForm(out[i], c)) return;
      }
      seen_fps.push_back(fp);
      out.push_back(c);
      return;
    }
    for (const Query& child : q.children()) visit(child);
  };
  visit(*this);
  return out;
}

int Query::NodeCount() const {
  if (kind() == NodeKind::kTrue || kind() == NodeKind::kLeaf) return 1;
  int count = 1;
  for (const Query& child : children()) count += child.NodeCount();
  return count;
}

int Query::Depth() const {
  if (kind() == NodeKind::kTrue || kind() == NodeKind::kLeaf) return 1;
  int depth = 0;
  for (const Query& child : children()) depth = std::max(depth, child.Depth());
  return depth + 1;
}

bool Query::StructurallyEquals(const Query& other) const {
  if (node_ == other.node_) return true;
  if (node_->fingerprint != other.node_->fingerprint) return false;
  // Two distinct interned nodes are guaranteed structurally distinct — the
  // table holds exactly one node per structure.
  if (node_->interned && other.node_->interned) return false;
  if (kind() != other.kind()) return false;
  switch (kind()) {
    case NodeKind::kTrue:
      return true;
    case NodeKind::kLeaf:
      return SamePrintedForm(constraint(), other.constraint());
    case NodeKind::kAnd:
    case NodeKind::kOr: {
      if (children().size() != other.children().size()) return false;
      for (size_t i = 0; i < children().size(); ++i) {
        if (!children()[i].StructurallyEquals(other.children()[i])) return false;
      }
      return true;
    }
  }
  return false;
}

std::string Query::ToString() const {
  switch (kind()) {
    case NodeKind::kTrue:
      return "true";
    case NodeKind::kLeaf:
      return constraint().ToString();
    case NodeKind::kAnd:
    case NodeKind::kOr: {
      const char* sep = kind() == NodeKind::kAnd ? " ∧ " : " ∨ ";
      std::string out;
      for (size_t i = 0; i < children().size(); ++i) {
        if (i > 0) out += sep;
        const Query& child = children()[i];
        bool needs_parens = child.kind() == NodeKind::kAnd || child.kind() == NodeKind::kOr;
        if (needs_parens) out += "(";
        out += child.ToString();
        if (needs_parens) out += ")";
      }
      return out;
    }
  }
  return "?";
}

Query operator&(const Query& a, const Query& b) { return Query::And({a, b}); }

Query operator|(const Query& a, const Query& b) { return Query::Or({a, b}); }

}  // namespace qmap
