#include "qmap/core/ednf.h"

#include <algorithm>
#include <set>

#include "qmap/obs/trace.h"

namespace qmap {

bool SetContains(const ConstraintSet& super, const ConstraintSet& sub) {
  return std::includes(super.begin(), super.end(), sub.begin(), sub.end());
}

bool SetsIntersect(const ConstraintSet& a, const ConstraintSet& b) {
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      return true;
    }
  }
  return false;
}

ConstraintSet SetUnion(const ConstraintSet& a, const ConstraintSet& b) {
  ConstraintSet out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

std::vector<ConstraintSet> CrossEdnfDisjuncts(
    const std::vector<std::vector<ConstraintSet>>& parts) {
  for (const std::vector<ConstraintSet>& part : parts) {
    if (part.empty()) return {};  // unsatisfiable child: empty product
  }
  std::vector<ConstraintSet> d;
  std::vector<size_t> idx(parts.size(), 0);
  while (true) {
    ConstraintSet combined;
    for (size_t i = 0; i < parts.size(); ++i) {
      combined = SetUnion(combined, parts[i][idx[i]]);
    }
    d.push_back(std::move(combined));
    size_t i = 0;
    while (i < idx.size()) {
      if (++idx[i] < parts[i].size()) break;
      idx[i] = 0;
      ++i;
    }
    if (i == idx.size()) break;
  }
  return d;
}

ConstraintTable::ConstraintTable(const Query& root) {
  // AllConstraints already deduplicates, so each constraint gets a fresh id;
  // the fingerprint index only needs appending.
  for (const Constraint& c : root.AllConstraints()) {
    index_[c.Fingerprint()].push_back(static_cast<int>(constraints_.size()));
    constraints_.push_back(c);
  }
}

int ConstraintTable::IdOf(const Constraint& c) const {
  auto it = index_.find(c.Fingerprint());
  if (it == index_.end()) return -1;
  for (int id : it->second) {
    if (SamePrintedForm(constraints_[static_cast<size_t>(id)], c)) return id;
  }
  return -1;
}

std::vector<Constraint> ConstraintTable::Materialize(const ConstraintSet& set) const {
  std::vector<Constraint> out;
  out.reserve(set.size());
  for (int id : set) out.push_back(constraints_[static_cast<size_t>(id)]);
  return out;
}

EdnfComputer::EdnfComputer(const MappingSpec& spec, const Query& root,
                           TranslationStats* stats, Trace* trace,
                           uint64_t parent_span)
    : table_(root), stats_(stats) {
  Span span(trace, "ednf.match", parent_span);
  all_matchings_ = MatchSpec(spec, table_.constraints(),
                             stats != nullptr ? &stats->match : nullptr);
  std::set<ConstraintSet> unique;
  for (const Matching& m : all_matchings_) unique.insert(m.constraint_indices);
  potential_matchings_.assign(unique.begin(), unique.end());
}

std::optional<std::vector<Matching>> EdnfComputer::MatchingsFor(
    const std::vector<Constraint>& conjunction) const {
  std::map<int, int> table_id_to_position;
  for (size_t i = 0; i < conjunction.size(); ++i) {
    int id = table_.IdOf(conjunction[i]);
    if (id < 0) return std::nullopt;
    table_id_to_position[id] = static_cast<int>(i);
  }
  std::vector<Matching> out;
  for (const Matching& m : all_matchings_) {
    std::vector<int> rebased;
    rebased.reserve(m.constraint_indices.size());
    bool applicable = true;
    for (int id : m.constraint_indices) {
      auto it = table_id_to_position.find(id);
      if (it == table_id_to_position.end()) {
        applicable = false;
        break;
      }
      rebased.push_back(it->second);
    }
    if (!applicable) continue;
    std::sort(rebased.begin(), rebased.end());
    Matching local = m;
    local.constraint_indices = std::move(rebased);
    out.push_back(std::move(local));
  }
  return out;
}

std::vector<ConstraintSet> EdnfComputer::MatchingsWithin(
    const ConstraintSet& constraints) const {
  std::vector<ConstraintSet> out;
  for (const ConstraintSet& m : potential_matchings_) {
    if (SetContains(constraints, m)) out.push_back(m);
  }
  return out;
}

std::vector<ConstraintSet> EdnfComputer::Simplify(
    std::vector<ConstraintSet> disjuncts) const {
  // Nullifying rules (Figure 10, lines 17-22), run to a fixpoint: a disjunct
  // D̂ becomes ε when every relevant potential matching m (m ∩ C(D̂) ≠ ∅) is
  // (a) wholly contained in D̂ and (b) either a single constraint or
  // "escapable" — some other disjunct D̂' has m ∩ C(D̂') = ∅, so the
  // cross-matching would be surfaced through D̂' anyway.
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t j = 0; j < disjuncts.size(); ++j) {
      if (disjuncts[j].empty()) continue;  // already ε
      if (stats_ != nullptr) ++stats_->ednf_disjuncts_checked;
      bool nullable = true;
      for (const ConstraintSet& m : potential_matchings_) {
        if (!SetsIntersect(m, disjuncts[j])) continue;  // irrelevant
        if (!SetContains(disjuncts[j], m)) {
          nullable = false;  // m could cross into another conjunct
          break;
        }
        if (m.size() == 1) continue;
        bool escapable = false;
        for (size_t k = 0; k < disjuncts.size(); ++k) {
          if (k == j) continue;
          if (!SetsIntersect(m, disjuncts[k])) {
            escapable = true;
            break;
          }
        }
        if (!escapable) {
          nullable = false;
          break;
        }
      }
      if (nullable) {
        disjuncts[j].clear();
        changed = true;
      }
    }
  }
  // Simplifying rules (x ∨ x = x; merge ε's). First occurrences win.
  std::vector<ConstraintSet> unique;
  for (ConstraintSet& d : disjuncts) {
    if (std::find(unique.begin(), unique.end(), d) == unique.end()) {
      unique.push_back(std::move(d));
    }
  }
  return unique;
}

std::vector<ConstraintSet> EdnfComputer::Ednf(const Query& q) const {
  switch (q.kind()) {
    case NodeKind::kTrue:
      return {{}};
    case NodeKind::kLeaf: {
      int id = table_.IdOf(q.constraint());
      std::vector<ConstraintSet> d = {{id}};
      return Simplify(std::move(d));
    }
    case NodeKind::kOr: {
      std::vector<ConstraintSet> d;
      for (const Query& child : q.children()) {
        std::vector<ConstraintSet> sub = Ednf(child);
        d.insert(d.end(), std::make_move_iterator(sub.begin()),
                 std::make_move_iterator(sub.end()));
      }
      return Simplify(std::move(d));
    }
    case NodeKind::kAnd: {
      std::vector<std::vector<ConstraintSet>> parts;
      parts.reserve(q.children().size());
      for (const Query& child : q.children()) parts.push_back(Ednf(child));
      // Disjunctivize over the children's EDNF (Figure 10, line 12). The
      // guarded cross product returns the empty list when any child's EDNF
      // is empty (an ∨ node with no satisfiable disjuncts) instead of
      // indexing out of bounds into it.
      return Simplify(CrossEdnfDisjuncts(parts));
    }
  }
  return {{}};
}

}  // namespace qmap
