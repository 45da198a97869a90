#include "qmap/expr/query.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "qmap/common/fnv.h"
#include "qmap/expr/intern.h"
#include "qmap/obs/metrics.h"

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

uint64_t BranchFingerprint(NodeKind kind, const std::vector<Query>& children) {
  Fnv64 h;
  h.AddByte(kind == NodeKind::kAnd ? kTagAnd : kTagOr);
  for (const Query& child : children) h.AddU64(child.fingerprint());
  return h.value();
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

  // Returns the entry in `fp`'s bucket for which `same(entry)` holds, or
  // inserts `make()`. `*inserted` reports which happened.
  template <typename Same, typename Make>
  Entry Intern(uint64_t fp, const Same& same, const Make& make,
               bool* inserted) {
    Shard& shard = shards_[fp >> (64 - kShardBits)];
    *inserted = false;
    {
      std::shared_lock<std::shared_mutex> lock(shard.mu);
      if (const Entry* found = Find(shard, fp, same)) return *found;
    }
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    if (const Entry* found = Find(shard, fp, same)) return *found;
    Sweep(shard);
    Entry owned = make();
    shard.entries[fp].push_back(owned);
    live_.fetch_add(1, std::memory_order_relaxed);
    *inserted = true;
    return owned;
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

  template <typename Same>
  static const Entry* Find(const Shard& shard, uint64_t fp, const Same& same) {
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

  std::shared_ptr<const Constraint> InternConstraint(Constraint c,
                                                     uint64_t fp) {
    bool inserted = false;
    auto interned = constraints_.Intern(
        fp, [&](const Constraint& entry) { return SamePrintedForm(entry, c); },
        [&] { return std::make_shared<const Constraint>(std::move(c)); },
        &inserted);
    if (inserted) {
      Bump(constraint_misses_, constraint_nodes_counter_);
    } else {
      Bump(constraint_hits_, constraint_hits_counter_);
    }
    return interned;
  }

  // `candidate` must already have canonical (interned) children and, for
  // leaves, an interned constraint pointer, so verification is pure pointer
  // comparison.
  std::shared_ptr<const Query::Node> InternNode(
      std::shared_ptr<Query::Node> candidate) {
    bool inserted = false;
    auto interned = nodes_.Intern(
        candidate->fingerprint,
        [&](const Query::Node& entry) { return SameNode(entry, *candidate); },
        [&] {
          candidate->interned = true;
          return std::shared_ptr<const Query::Node>(std::move(candidate));
        },
        &inserted);
    if (inserted) {
      Bump(query_misses_, query_nodes_counter_);
    } else {
      Bump(query_hits_, query_hits_counter_);
    }
    return interned;
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

  void Attach(MetricsRegistry* registry) {
    std::lock_guard<std::mutex> lock(attach_mu_);
    if (registry == nullptr) {
      query_hits_counter_.store(nullptr, std::memory_order_release);
      query_nodes_counter_.store(nullptr, std::memory_order_release);
      constraint_hits_counter_.store(nullptr, std::memory_order_release);
      constraint_nodes_counter_.store(nullptr, std::memory_order_release);
      attached_registry_ = nullptr;
      return;
    }
    attached_registry_ = registry;
    // Backfill so lifetime totals survive attaching after warm-up; only the
    // shortfall is added in case the same registry is re-attached.
    auto bind = [](Counter& counter, uint64_t total,
                   std::atomic<Counter*>& slot) {
      uint64_t have = counter.value();
      if (total > have) counter.Inc(total - have);
      slot.store(&counter, std::memory_order_release);
    };
    InternStats s = Stats();
    bind(registry->counter("qmap_intern_query_hits_total"), s.query_hits,
         query_hits_counter_);
    bind(registry->counter("qmap_intern_query_nodes_total"), s.query_nodes,
         query_nodes_counter_);
    bind(registry->counter("qmap_intern_constraint_hits_total"),
         s.constraint_hits, constraint_hits_counter_);
    bind(registry->counter("qmap_intern_constraint_nodes_total"),
         s.constraint_nodes, constraint_nodes_counter_);
  }

  void DetachIf(MetricsRegistry* registry) {
    std::lock_guard<std::mutex> lock(attach_mu_);
    if (attached_registry_ != registry) return;
    query_hits_counter_.store(nullptr, std::memory_order_release);
    query_nodes_counter_.store(nullptr, std::memory_order_release);
    constraint_hits_counter_.store(nullptr, std::memory_order_release);
    constraint_nodes_counter_.store(nullptr, std::memory_order_release);
    attached_registry_ = nullptr;
  }

 private:
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

  // Counts one intern-table outcome and mirrors it into the attached
  // registry, if any.
  static void Bump(std::atomic<uint64_t>& total,
                   const std::atomic<Counter*>& counter_slot) {
    total.fetch_add(1, std::memory_order_relaxed);
    if (Counter* counter = counter_slot.load(std::memory_order_acquire)) {
      counter->Inc();
    }
  }

  InternTable<Query::Node> nodes_;
  InternTable<Constraint> constraints_;

  std::atomic<uint64_t> query_hits_{0};
  std::atomic<uint64_t> query_misses_{0};
  std::atomic<uint64_t> constraint_hits_{0};
  std::atomic<uint64_t> constraint_misses_{0};

  std::mutex attach_mu_;
  MetricsRegistry* attached_registry_ = nullptr;
  std::atomic<Counter*> query_hits_counter_{nullptr};
  std::atomic<Counter*> query_nodes_counter_{nullptr};
  std::atomic<Counter*> constraint_hits_counter_{nullptr};
  std::atomic<Counter*> constraint_nodes_counter_{nullptr};
};

// Appends `child` to `out`, flattening nested nodes of the same kind.
void Flatten(NodeKind kind, const Query& child, std::vector<Query>* out) {
  if (child.kind() == kind) {
    for (const Query& grandchild : child.children()) Flatten(kind, grandchild, out);
  } else {
    out->push_back(child);
  }
}

// Removes structural duplicates, preserving first occurrences (idempotency:
// x ∧ x = x, x ∨ x = x). Fingerprints prune; StructurallyEquals confirms.
void DedupChildren(std::vector<Query>* children) {
  std::vector<Query> unique;
  unique.reserve(children->size());
  for (const Query& child : *children) {
    bool seen = false;
    for (const Query& kept : unique) {
      if (kept.fingerprint() == child.fingerprint() &&
          kept.StructurallyEquals(child)) {
        seen = true;
        break;
      }
    }
    if (!seen) unique.push_back(child);
  }
  *children = std::move(unique);
}

}  // namespace

InternStats QueryInternStats() { return InternTables::Global().Stats(); }

void SetQueryInternEnabled(bool enabled) { InternFlag() = enabled; }

bool QueryInternEnabled() { return InternFlag(); }

void AttachInternMetrics(MetricsRegistry* registry) {
  InternTables::Global().Attach(registry);
}

void DetachInternMetricsIf(MetricsRegistry* registry) {
  InternTables::Global().DetachIf(registry);
}

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
  auto node = std::make_shared<Node>();
  node->kind = NodeKind::kLeaf;
  node->fingerprint = LeafFingerprint(constraint_fp);
  if (!InternFlag()) {
    node->constraint = std::make_shared<const Constraint>(std::move(constraint));
    return Query(std::move(node));
  }
  node->constraint = InternTables::Global().InternConstraint(
      std::move(constraint), constraint_fp);
  return Query(InternTables::Global().InternNode(std::move(node)));
}

Query Query::InternBranch(NodeKind kind, std::vector<Query> children) {
  for (Query& child : children) child = Canonical(child);
  auto node = std::make_shared<Node>();
  node->kind = kind;
  node->fingerprint = BranchFingerprint(kind, children);
  node->children = std::move(children);
  return Query(InternTables::Global().InternNode(std::move(node)));
}

// Canonicalizes a query built while interning was off (or before a toggle
// flip) so branch nodes only ever hold canonical children. Already-interned
// subtrees are returned as-is — the common case is a pointer check.
Query Query::Canonical(const Query& q) {
  if (q.node_->interned) return q;
  if (q.is_leaf()) return Leaf(q.constraint());
  return InternBranch(q.kind(), q.children());
}

Query Query::And(std::vector<Query> children) {
  std::vector<Query> flat;
  for (const Query& child : children) {
    if (child.is_true()) continue;  // True conjunct is the ∧ identity
    Flatten(NodeKind::kAnd, child, &flat);
  }
  DedupChildren(&flat);
  if (flat.empty()) return True();
  if (flat.size() == 1) return flat[0];
  if (InternFlag()) return InternBranch(NodeKind::kAnd, std::move(flat));
  auto node = std::make_shared<Node>();
  node->kind = NodeKind::kAnd;
  node->fingerprint = BranchFingerprint(NodeKind::kAnd, flat);
  node->children = std::move(flat);
  return Query(std::move(node));
}

Query Query::Or(std::vector<Query> children) {
  std::vector<Query> flat;
  for (const Query& child : children) {
    if (child.is_true()) return True();  // True disjunct absorbs the ∨
    Flatten(NodeKind::kOr, child, &flat);
  }
  DedupChildren(&flat);
  if (flat.empty()) return True();  // disallowed input; see header contract
  if (flat.size() == 1) return flat[0];
  if (InternFlag()) return InternBranch(NodeKind::kOr, std::move(flat));
  auto node = std::make_shared<Node>();
  node->kind = NodeKind::kOr;
  node->fingerprint = BranchFingerprint(NodeKind::kOr, flat);
  node->children = std::move(flat);
  return Query(std::move(node));
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
