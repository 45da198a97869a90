#include "qmap/core/filter.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "test_util.h"

namespace qmap {
namespace {

using testing::C;
using testing::Q;

TEST(ExactCoverage, AndAccumulatesWithinTranslation) {
  ExactCoverage coverage;
  Constraint c = C("[a = 1]");
  EXPECT_FALSE(coverage.IsExact(c));  // never recorded
  coverage.Record(c, true);
  EXPECT_TRUE(coverage.IsExact(c));
  coverage.Record(c, false);  // inexact in another context -> sticky false
  EXPECT_FALSE(coverage.IsExact(c));
  coverage.Record(c, true);
  EXPECT_FALSE(coverage.IsExact(c));
}

TEST(ExactCoverage, MergeAnySourceIsOr) {
  ExactCoverage t1;
  ExactCoverage t2;
  Constraint c = C("[dept = \"cs\"]");
  t1.Record(c, false);  // T1 cannot handle dept
  t2.Record(c, true);   // T2 handles it exactly
  t1.MergeAnySource(t2);
  EXPECT_TRUE(t1.IsExact(c));
}

TEST(ExactCoverage, MatchesAMapModelUnderRandomOperations) {
  // 96 distinct constraints: their fingerprints scatter over the key space,
  // so inserts land at the front, middle and back of the sorted entries.
  std::vector<Constraint> pool;
  for (int i = 0; i < 96; ++i) {
    pool.push_back(
        C("[a" + std::to_string(i % 7) + " = " + std::to_string(i) + "]"));
  }
  using Model = std::map<uint64_t, bool>;
  const auto check = [&pool](const ExactCoverage& coverage, const Model& model,
                             uint32_t seed) {
    for (const Constraint& c : pool) {
      auto it = model.find(c.Fingerprint());
      EXPECT_EQ(coverage.IsExact(c), it != model.end() && it->second)
          << "seed " << seed << ", " << c.ToString();
    }
    const std::vector<std::pair<uint64_t, bool>>& entries = coverage.Entries();
    const std::vector<std::pair<uint64_t, bool>> want(model.begin(),
                                                      model.end());
    EXPECT_EQ(entries, want) << "seed " << seed;
    for (size_t i = 1; i < entries.size(); ++i) {
      EXPECT_LT(entries[i - 1].first, entries[i].first) << "seed " << seed;
    }
  };
  // Fingerprints at both ends of the key space, reachable only through
  // RestoreEntry.
  const uint64_t edges[] = {0, 1, UINT64_MAX - 1, UINT64_MAX};
  // One random Record/RestoreEntry sequence over a random subset of `pool`
  // and `edges`, mirrored into the model with Record's AND-accumulation.
  const auto fill = [&pool, &edges](std::mt19937& rng, ExactCoverage* coverage,
                                    Model* model) {
    const int ops = static_cast<int>(rng() % 160);
    for (int op = 0; op < ops; ++op) {
      const bool exact = rng() % 3 != 0;
      uint64_t fingerprint = 0;
      switch (rng() % 5) {
        case 0:
          fingerprint = edges[rng() % 4];
          coverage->RestoreEntry(fingerprint, exact);
          break;
        case 1:
        case 2: {
          const Constraint& c = pool[rng() % pool.size()];
          fingerprint = c.Fingerprint();
          coverage->RestoreEntry(fingerprint, exact);
          break;
        }
        default: {
          const Constraint& c = pool[rng() % pool.size()];
          fingerprint = c.Fingerprint();
          coverage->Record(c, exact);
          break;
        }
      }
      auto [it, inserted] = model->emplace(fingerprint, exact);
      if (!inserted) it->second = it->second && exact;
    }
  };
  for (uint32_t seed = 1; seed <= 200; ++seed) {
    std::mt19937 rng(seed);
    ExactCoverage a;
    ExactCoverage b;
    Model model_a;
    Model model_b;
    fill(rng, &a, &model_a);
    fill(rng, &b, &model_b);
    check(a, model_a, seed);
    check(b, model_b, seed);
    a.MergeAnySource(b);
    for (const auto& [fingerprint, exact] : model_b) {
      auto [it, inserted] = model_a.emplace(fingerprint, exact);
      if (!inserted) it->second = it->second || exact;
    }
    check(a, model_a, seed);
    // Copies carry the same entries (the cached-Translation path).
    ExactCoverage copy = a;
    check(copy, model_a, seed);
  }
}

TEST(ResidueFilter, DropsExactLeaves) {
  ExactCoverage coverage;
  coverage.Record(C("[a = 1]"), true);
  coverage.Record(C("[b = 2]"), false);
  Query f = ResidueFilter(Q("[a = 1] and [b = 2]"), coverage);
  EXPECT_EQ(f.ToString(), "[b = 2]");
}

TEST(ResidueFilter, AllExactMeansNoFilter) {
  ExactCoverage coverage;
  coverage.Record(C("[a = 1]"), true);
  coverage.Record(C("[b = 2]"), true);
  Query f = ResidueFilter(Q("[a = 1] and [b = 2]"), coverage);
  EXPECT_TRUE(f.is_true());
}

TEST(ResidueFilter, DisjunctionKeptWholeUnlessAllExact) {
  ExactCoverage coverage;
  coverage.Record(C("[a = 1]"), true);
  coverage.Record(C("[b = 2]"), false);
  // a exact but the ∨ node cannot be filtered piecemeal.
  Query q = Q("[a = 1] or [b = 2]");
  EXPECT_EQ(ResidueFilter(q, coverage).ToString(), "[a = 1] ∨ [b = 2]");
  coverage.Record(C("[b = 2]"), true);  // still false (AND-accumulated)
  EXPECT_EQ(ResidueFilter(q, coverage).ToString(), "[a = 1] ∨ [b = 2]");

  ExactCoverage all_exact;
  all_exact.Record(C("[a = 1]"), true);
  all_exact.Record(C("[b = 2]"), true);
  EXPECT_TRUE(ResidueFilter(q, all_exact).is_true());
}

TEST(ResidueFilter, MixedTree) {
  ExactCoverage coverage;
  coverage.Record(C("[a = 1]"), true);
  coverage.Record(C("[b = 2]"), true);
  coverage.Record(C("[c = 3]"), false);
  Query q = Q("([a = 1] or [b = 2]) and [c = 3] and [a = 1]");
  EXPECT_EQ(ResidueFilter(q, coverage).ToString(), "[c = 3]");
}

TEST(ResidueFilter, UnrecordedLeavesStay) {
  ExactCoverage coverage;
  Query q = Q("[never_seen = 9]");
  EXPECT_EQ(ResidueFilter(q, coverage).ToString(), "[never_seen = 9]");
}

TEST(ResidueFilter, TrueStaysTrue) {
  ExactCoverage coverage;
  EXPECT_TRUE(ResidueFilter(Query::True(), coverage).is_true());
}

TEST(MergedResidueFilter, LeafDroppedWhenAnySourceCoversIt) {
  ExactCoverage s1;
  ExactCoverage s2;
  s1.Record(C("[a = 1]"), true);
  s2.Record(C("[b = 2]"), true);
  Query f = MergedResidueFilter(Q("[a = 1] and [b = 2]"), {&s1, &s2});
  EXPECT_TRUE(f.is_true());
}

// The soundness pin for the cross-source ∨ rule: with [a = 1] exact only at
// S1 and [b = 2] exact only at S2, each source widened a *different*
// disjunct, so neither pushed query enforces the disjunction — F must keep
// it. OR-merging coverage per constraint and filtering the blob would
// wrongly return True here (the bug the subsumption harness found).
TEST(MergedResidueFilter, DisjunctionNeedsASingleWitnessSource) {
  ExactCoverage s1;
  ExactCoverage s2;
  s1.Record(C("[a = 1]"), true);
  s1.Record(C("[b = 2]"), false);
  s2.Record(C("[a = 1]"), false);
  s2.Record(C("[b = 2]"), true);
  Query q = Q("[a = 1] or [b = 2]");
  EXPECT_EQ(MergedResidueFilter(q, {&s1, &s2}).ToString(),
            "[a = 1] ∨ [b = 2]");

  // The per-constraint OR-merge followed by the single-coverage filter is
  // exactly the unsound shape.
  ExactCoverage blob = s1;
  blob.MergeAnySource(s2);
  EXPECT_TRUE(ResidueFilter(q, blob).is_true());

  // One source covering the whole disjunction is a valid witness.
  ExactCoverage whole;
  whole.Record(C("[a = 1]"), true);
  whole.Record(C("[b = 2]"), true);
  EXPECT_TRUE(MergedResidueFilter(q, {&s1, &whole}).is_true());
}

TEST(MergedResidueFilter, NoSourcesKeepsEverything) {
  Query q = Q("[a = 1] and ([b = 2] or [c = 3])");
  EXPECT_EQ(MergedResidueFilter(q, {}).ToString(), q.ToString());
}

}  // namespace
}  // namespace qmap
