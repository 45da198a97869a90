// Equivalence suite for the accelerated matcher: MatchSpecCompiled (the
// default engine) must emit byte-identical matchings — same rules, same
// constraint sets, same bindings, same ORDER — as the MatchSpecNaive oracle,
// for every shipped context spec and for randomized synthetic specs and
// queries. The whole acceleration layer (candidate buckets, compiled
// discrimination DAG, bindings undo log, hashed dedup) rests on this
// invariant.

#include "qmap/rules/matcher.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "qmap/contexts/amazon.h"
#include "qmap/contexts/clbooks.h"
#include "qmap/contexts/diglib.h"
#include "qmap/contexts/faculty.h"
#include "qmap/contexts/geo.h"
#include "qmap/contexts/shop.h"
#include "qmap/contexts/synthetic.h"
#include "qmap/core/translator.h"
#include "qmap/expr/dnf.h"
#include "qmap/rules/compiled_matcher.h"
#include "test_util.h"

namespace qmap {
namespace {

using testing::C;
using testing::Q;

std::string Render(const std::vector<Matching>& matchings) {
  std::string out;
  for (const Matching& m : matchings) {
    out += m.ToString();
    out += '\n';
  }
  return out;
}

// Asserts naive == compiled byte-for-byte, and that the compiled engine
// never does more pattern trials than the naive matcher.
void ExpectEquivalent(const MappingSpec& spec,
                      const std::vector<Constraint>& conjunction) {
  MatchCounters naive_counters;
  std::vector<Matching> naive = MatchSpecNaive(spec, conjunction, &naive_counters);
  MatchCounters compiled_counters;
  std::vector<Matching> compiled =
      MatchSpecCompiled(spec, conjunction, &compiled_counters);
  EXPECT_EQ(Render(compiled), Render(naive));
  EXPECT_EQ(compiled_counters.matchings_found, naive_counters.matchings_found);
  // Candidate buckets and shared prefixes can only remove trials.
  EXPECT_LE(compiled_counters.pattern_attempts,
            naive_counters.pattern_attempts);
  // `saved` counts skipped trials conservatively (a wholly skipped subtree
  // is credited one sweep, a lower bound on its naive recursion).
  EXPECT_LE(compiled_counters.pattern_attempts +
                compiled_counters.pattern_attempts_saved,
            naive_counters.pattern_attempts);
}

// The whole pool as one conjunction, every singleton, every adjacent pair,
// and the empty conjunction.
void ExpectEquivalentOverPool(const MappingSpec& spec,
                              const std::vector<Constraint>& pool) {
  ExpectEquivalent(spec, pool);
  ExpectEquivalent(spec, {});
  for (size_t i = 0; i < pool.size(); ++i) {
    ExpectEquivalent(spec, {pool[i]});
    ExpectEquivalent(spec, {pool[i], pool[(i + 1) % pool.size()]});
  }
}

TEST(MatcherEquivalence, Amazon) {
  // Q̂1 ∪ Q̂2 of Figure 2 plus the wildcard-matched simple attributes:
  // exercises literal buckets, the R1 wildcard rule, and the R6/R7
  // sub-matching pattern.
  ExpectEquivalentOverPool(
      AmazonSpec(),
      {C("[ln = \"Smith\"]"), C("[fn = \"Tom\"]"),
       C("[ti contains \"java(near)jdk\"]"), C("[ti = \"jdkforjava\"]"),
       C("[pyear = 1997]"), C("[pmonth = 5]"), C("[kwd contains \"www\"]"),
       C("[category = \"D.3\"]"), C("[id-no = \"081815181Y\"]"),
       C("[publisher = \"oreilly\"]")});
}

TEST(MatcherEquivalence, Clbooks) {
  ExpectEquivalentOverPool(
      ClbooksSpec(),
      {C("[ln = \"Smith\"]"), C("[fn = \"Tom\"]"), C("[ti contains \"java\"]"),
       C("[id-no = \"0818\"]"), C("[pyear = 1997]")});  // pyear: no rule
}

TEST(MatcherEquivalence, FacultyBothContexts) {
  // View-qualified and view-variable patterns: R5/R8 bind view and index
  // variables, R3/R4 are wildcard-bucket patterns.
  std::vector<Constraint> pool = {
      C("[fac.ln = \"Smith\"]"),  C("[fac.fn = \"Tom\"]"),
      C("[pub.ti = \"Java\"]"),   C("[fac.bib contains \"java\"]"),
      C("[fac.dept = \"CS\"]"),   C("[ln = \"Jones\"]"),
      C("[fn = \"Amy\"]"),        C("[fac.ln = pub.ln]"),
      C("[fac.fn = pub.fn]")};
  ExpectEquivalentOverPool(FacultyK1(), pool);
  ExpectEquivalentOverPool(FacultyK2(), pool);
}

TEST(MatcherEquivalence, Geo) {
  ExpectEquivalentOverPool(GeoSpec(), {C("[x_min = 10]"), C("[x_max = 20]"),
                                       C("[y_min = 5]"), C("[y_max = 15]")});
}

TEST(MatcherEquivalence, Shop) {
  // One rule per comparison operator: the per-op bucket split is load-bearing.
  ExpectEquivalentOverPool(
      ShopSpec(),
      {C("[price = 10]"), C("[price < 20]"), C("[price <= 30]"),
       C("[price > 5]"), C("[price >= 1]"), C("[length = 2]"),
       C("[length < 3]"), C("[name contains \"chair\"]"),
       C("[name = \"desk\"]")});
}

TEST(MatcherEquivalence, DiglibTargets) {
  std::vector<Constraint> pool = {C("[ti = \"databases\"]"),
                                  C("[au contains \"smith\"]"),
                                  C("[abstract contains \"query mapping\"]")};
  ExpectEquivalentOverPool(Prox10Spec(), pool);
  ExpectEquivalentOverPool(BooleanSpec(), pool);
  ExpectEquivalentOverPool(AnywordSpec(), pool);
}

TEST(MatcherEquivalence, RandomizedSyntheticQueries) {
  SyntheticOptions options;
  options.num_attrs = 8;
  options.dependent_pairs = {{0, 1}, {2, 3}};
  Result<MappingSpec> spec = MakeSyntheticSpec(options);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  RandomQueryOptions query_options;
  query_options.num_attrs = 8;
  std::mt19937 rng(20260806);
  for (int trial = 0; trial < 60; ++trial) {
    Query query = RandomQuery(rng, query_options);
    for (const std::vector<Constraint>& disjunct : DnfDisjuncts(query)) {
      ExpectEquivalent(*spec, disjunct);
    }
  }
}

TEST(MatcherEquivalence, RandomizedDuplicateHeavyConjunctions) {
  // Conjunctions with repeated attributes and repeated constraints stress
  // the dedup and the used-constraint bookkeeping.
  SyntheticOptions options;
  options.num_attrs = 4;
  options.dependent_pairs = {{0, 1}};
  Result<MappingSpec> spec = MakeSyntheticSpec(options);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> attr(0, 3);
  std::uniform_int_distribution<int> value(0, 1);
  std::uniform_int_distribution<int> length(0, 8);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<Constraint> conjunction;
    const int n = length(rng);
    for (int i = 0; i < n; ++i) {
      conjunction.push_back(C("[a" + std::to_string(attr(rng)) + " = " +
                              std::to_string(value(rng)) + "]"));
    }
    ExpectEquivalent(*spec, conjunction);
  }
}

TEST(MatcherEquivalence, DisableToggleFallsBackToNaive) {
  const MatchEngine saved_engine = CurrentMatchEngine();
  MappingSpec spec = AmazonSpec();
  std::vector<Constraint> conjunction = {C("[ln = \"Smith\"]"),
                                         C("[pyear = 1997]"), C("[pmonth = 5]")};
  ASSERT_NE(CurrentMatchEngine(), MatchEngine::kNaive);
  std::vector<Matching> accelerated = MatchSpec(spec, conjunction);
  SetMatchEngine(MatchEngine::kNaive);
  EXPECT_EQ(CurrentMatchEngine(), MatchEngine::kNaive);
  MatchCounters counters;
  std::vector<Matching> disabled = MatchSpec(spec, conjunction, &counters);
  SetMatchEngine(saved_engine);
  EXPECT_EQ(Render(disabled), Render(accelerated));
  // The naive fallback has no buckets to hit or save with.
  EXPECT_EQ(counters.index_hits, 0u);
  EXPECT_EQ(counters.pattern_attempts_saved, 0u);
  EXPECT_EQ(counters.compiled_hits, 0u);
}

// End-to-end A/B: full translations (mapped query AND residue filter) must
// be identical under both match engines (naive, compiled), with
// the match memo on or off, in every combination — across all three
// algorithms.
TEST(MatcherEquivalence, TranslationsIdenticalAcrossAccelerationModes) {
  const MatchEngine saved_engine = CurrentMatchEngine();
  const std::vector<Query> queries = {
      Q("[ln = \"Smith\"] and [pyear = 1997] and ([pmonth = 5] or "
        "[pmonth = 6])"),
      Q("(([ln = \"Smith\"] and [fn = \"J\"]) or [kwd contains \"www\"]) and "
        "[pyear = 1997]"),
      Q("[ti contains \"java\"] or ([category = \"D.3\"] and "
        "[publisher = \"oreilly\"])"),
  };
  for (MappingAlgorithm algorithm :
       {MappingAlgorithm::kTdqm, MappingAlgorithm::kDnf,
        MappingAlgorithm::kNaive}) {
    std::vector<std::string> renderings;
    for (MatchEngine engine :
         {MatchEngine::kCompiled, MatchEngine::kNaive}) {
      for (bool memo_on : {true, false}) {
        SetMatchEngine(engine);
        TranslatorOptions options;
        options.algorithm = algorithm;
        options.use_match_memo = memo_on;
        Translator translator(AmazonSpec(), options);
        std::string rendering;
        for (const Query& query : queries) {
          Result<Translation> t = translator.Translate(query);
          ASSERT_TRUE(t.ok()) << t.status().ToString();
          rendering += t->mapped.ToString() + " / " + t->filter.ToString() + "\n";
        }
        renderings.push_back(std::move(rendering));
      }
    }
    SetMatchEngine(saved_engine);
    for (size_t i = 1; i < renderings.size(); ++i) {
      EXPECT_EQ(renderings[i], renderings[0])
          << "acceleration mode " << i << " diverged";
    }
  }
}

}  // namespace
}  // namespace qmap
