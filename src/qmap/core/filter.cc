#include "qmap/core/filter.h"

#include <algorithm>
#include <functional>

namespace qmap {
namespace {

bool AllLeavesExact(const Query& q, const ExactCoverage& coverage) {
  switch (q.kind()) {
    case NodeKind::kTrue:
      return true;
    case NodeKind::kLeaf:
      return coverage.IsExact(q.constraint());
    case NodeKind::kAnd:
    case NodeKind::kOr: {
      for (const Query& child : q.children()) {
        if (!AllLeavesExact(child, coverage)) return false;
      }
      return true;
    }
  }
  return false;
}

using Entry = std::pair<uint64_t, bool>;

// Folds `exact` into `fingerprint`'s entry of the sorted `entries` with
// `combine`, or inserts the entry in order when it is new. {fp, false} sorts
// first among fp's possible entries, so lower_bound lands on fp's entry when
// there is one.
template <typename Combine>
void MergeEntry(std::vector<Entry>& entries, uint64_t fingerprint, bool exact,
                Combine combine) {
  auto it = std::lower_bound(entries.begin(), entries.end(),
                             Entry{fingerprint, false});
  if (it != entries.end() && it->first == fingerprint) {
    it->second = combine(it->second, exact);
  } else {
    entries.insert(it, Entry{fingerprint, exact});
  }
}

}  // namespace

void ExactCoverage::Record(const Constraint& c, bool exact) {
  RestoreEntry(c.Fingerprint(), exact);
}

bool ExactCoverage::IsExact(const Constraint& c) const {
  const uint64_t fingerprint = c.Fingerprint();
  auto it = std::lower_bound(by_constraint_.begin(), by_constraint_.end(),
                             Entry{fingerprint, false});
  return it != by_constraint_.end() && it->first == fingerprint && it->second;
}

void ExactCoverage::RestoreEntry(uint64_t constraint_fingerprint, bool exact) {
  MergeEntry(by_constraint_, constraint_fingerprint, exact,
             std::logical_and<>());
}

void ExactCoverage::MergeAnySource(const ExactCoverage& other) {
  for (const auto& [fingerprint, exact] : other.by_constraint_) {
    MergeEntry(by_constraint_, fingerprint, exact, std::logical_or<>());
  }
}

Query ResidueFilter(const Query& original, const ExactCoverage& coverage) {
  switch (original.kind()) {
    case NodeKind::kTrue:
      return Query::True();
    case NodeKind::kLeaf:
      return coverage.IsExact(original.constraint()) ? Query::True() : original;
    case NodeKind::kAnd: {
      std::vector<Query> parts;
      parts.reserve(original.children().size());
      for (const Query& child : original.children()) {
        parts.push_back(ResidueFilter(child, coverage));
      }
      return Query::And(std::move(parts));
    }
    case NodeKind::kOr:
      return AllLeavesExact(original, coverage) ? Query::True() : original;
  }
  return original;
}

Query MergedResidueFilter(const Query& original,
                          const std::vector<const ExactCoverage*>& coverages) {
  switch (original.kind()) {
    case NodeKind::kTrue:
      return Query::True();
    case NodeKind::kLeaf: {
      for (const ExactCoverage* coverage : coverages) {
        if (coverage->IsExact(original.constraint())) return Query::True();
      }
      return original;
    }
    case NodeKind::kAnd: {
      std::vector<Query> parts;
      parts.reserve(original.children().size());
      for (const Query& child : original.children()) {
        parts.push_back(MergedResidueFilter(child, coverages));
      }
      return Query::And(std::move(parts));
    }
    case NodeKind::kOr: {
      // A single source must witness the whole disjunction: mixing leaves
      // covered by different sources is unsound (see filter.h).
      for (const ExactCoverage* coverage : coverages) {
        if (AllLeavesExact(original, *coverage)) return Query::True();
      }
      return original;
    }
  }
  return original;
}

}  // namespace qmap
