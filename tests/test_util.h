#ifndef QMAP_TESTS_TEST_UTIL_H_
#define QMAP_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "qmap/expr/intern.h"
#include "qmap/expr/parser.h"
#include "qmap/expr/query.h"

namespace qmap {
namespace testing {

/// Parses a query, failing the test on parse errors.
inline Query Q(const std::string& text) {
  Result<Query> q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << "parse failed for '" << text << "': "
                      << q.status().ToString();
  return q.ok() ? *q : Query::True();
}

/// Parses a single bracketed constraint.
inline Constraint C(const std::string& text) {
  Result<Constraint> c = ParseConstraint(text);
  EXPECT_TRUE(c.ok()) << "parse failed for '" << text << "': "
                      << c.status().ToString();
  return c.ok() ? *c : Constraint{};
}

/// RAII override of the interning toggle; restores the prior setting so test
/// order never leaks a disabled interner into unrelated tests.
class InternToggle {
 public:
  explicit InternToggle(bool enabled) : prior_(QueryInternEnabled()) {
    SetQueryInternEnabled(enabled);
  }
  ~InternToggle() { SetQueryInternEnabled(prior_); }
  InternToggle(const InternToggle&) = delete;
  InternToggle& operator=(const InternToggle&) = delete;

 private:
  bool prior_;
};

/// Rebuilds `q` bottom-up through the public constructors, from copies of
/// its constraints, so the result shares nothing with `q` but what
/// interning finds in the tables.
inline Query Rebuild(const Query& q) {
  if (q.is_true()) return Query::True();
  if (q.is_leaf()) return Query::Leaf(Constraint(q.constraint()));
  std::vector<Query> children;
  for (const Query& child : q.children()) children.push_back(Rebuild(child));
  return q.kind() == NodeKind::kAnd ? Query::And(std::move(children))
                                    : Query::Or(std::move(children));
}

/// Structural equality by a full walk, without the pointer shortcut that
/// StructurallyEquals takes for two interned nodes.
inline bool DeepEquals(const Query& a, const Query& b) {
  if (a.kind() != b.kind()) return false;
  if (a.is_leaf()) return SamePrintedForm(a.constraint(), b.constraint());
  if (a.children().size() != b.children().size()) return false;
  for (size_t i = 0; i < a.children().size(); ++i) {
    if (!DeepEquals(a.children()[i], b.children()[i])) return false;
  }
  return true;
}

}  // namespace testing
}  // namespace qmap

#endif  // QMAP_TESTS_TEST_UTIL_H_
