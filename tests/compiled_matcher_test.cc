// Acceptance suite for the compiled discrimination-DAG matcher
// (qmap/rules/compiled_matcher.h, qmap/rules/rule_program.h):
//
//  * full translations must be byte-identical under both match engines for
//    every shipped context spec;
//  * randomized-query equivalence: 500+ random queries per synthetic spec,
//    every DNF disjunct matched by both engines, seed echoed on failure so
//    a miss is reproducible;
//  * the lazily-built plan is built exactly once under a concurrent
//    first-build race, on one spec and on copies of it (pointer identity
//    across threads) — both race tests run under TSan in CI;
//  * copies of a spec share its plan, so Mediator::Translate, which copies
//    every source's spec per call, compiles each source's plan once;
//  * QMAP_MATCH_ENGINE decoding.
//
// Every suite name starts with "CompiledMatcher" — the TSan CI job selects
// them by that regex.

#include "qmap/rules/compiled_matcher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <latch>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <thread>
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
#include "qmap/rules/rule_program.h"
#include "qmap/rules/spec_parser.h"
#include "test_util.h"

namespace qmap {
namespace {

using testing::C;
using testing::Q;

constexpr MatchEngine kAllEngines[] = {MatchEngine::kNaive,
                                       MatchEngine::kCompiled};

std::string Render(const std::vector<Matching>& matchings) {
  std::string out;
  for (const Matching& m : matchings) {
    out += m.ToString();
    out += '\n';
  }
  return out;
}

/// Restores the process-wide engine selection on scope exit, so a failing
/// assertion mid-test cannot leak an engine into later tests.
class ScopedEngine {
 public:
  ScopedEngine() : saved_(CurrentMatchEngine()) {}
  ~ScopedEngine() { SetMatchEngine(saved_); }

 private:
  MatchEngine saved_;
};

// --- Byte-identical translations, all engines, all shipped contexts -------

struct ContextCase {
  const char* name;
  MappingSpec spec;
  // Constraint texts in the context's source vocabulary; the test derives
  // singleton / pair / all-of / disjunctive queries from them.
  std::vector<std::string> pool;
};

std::vector<ContextCase> AllContexts() {
  std::vector<ContextCase> out;
  out.push_back({"amazon",
                 AmazonSpec(),
                 {"[ln = \"Smith\"]", "[fn = \"Tom\"]",
                  "[ti contains \"java(near)jdk\"]", "[pyear = 1997]",
                  "[pmonth = 5]", "[kwd contains \"www\"]",
                  "[category = \"D.3\"]", "[publisher = \"oreilly\"]"}});
  out.push_back({"clbooks",
                 ClbooksSpec(),
                 {"[ln = \"Smith\"]", "[fn = \"Tom\"]",
                  "[ti contains \"java\"]", "[id-no = \"0818\"]",
                  "[pyear = 1997]"}});
  out.push_back({"diglib-prox10",
                 Prox10Spec(),
                 {"[ti = \"databases\"]", "[au contains \"smith\"]",
                  "[abstract contains \"query mapping\"]"}});
  out.push_back({"faculty-k1",
                 FacultyK1(),
                 {"[fac.ln = \"Smith\"]", "[fac.fn = \"Tom\"]",
                  "[pub.ti = \"Java\"]", "[fac.bib contains \"java\"]",
                  "[fac.dept = \"CS\"]", "[fac.ln = pub.ln]"}});
  out.push_back({"geo",
                 GeoSpec(),
                 {"[x_min = 10]", "[x_max = 20]", "[y_min = 5]",
                  "[y_max = 15]"}});
  out.push_back({"shop",
                 ShopSpec(),
                 {"[price = 10]", "[price < 20]", "[price >= 1]",
                  "[length = 2]", "[name contains \"chair\"]"}});
  SyntheticOptions options;
  options.num_attrs = 6;
  options.dependent_pairs = {{0, 1}, {2, 3}};
  Result<MappingSpec> synthetic = MakeSyntheticSpec(options);
  EXPECT_TRUE(synthetic.ok()) << synthetic.status().ToString();
  if (synthetic.ok()) {
    out.push_back({"synthetic",
                   *synthetic,
                   {"[a0 = 1]", "[a1 = 0]", "[a2 = 1]", "[a3 = 0]",
                    "[a4 = 1]", "[a5 = 0]"}});
  }
  return out;
}

// Singletons, adjacent pairs, the whole pool as one conjunction, and one
// two-disjunct query: enough shape diversity to reach every rule family.
std::vector<Query> QueriesFromPool(const std::vector<std::string>& pool) {
  std::vector<Query> out;
  std::string all;
  for (size_t i = 0; i < pool.size(); ++i) {
    out.push_back(Q(pool[i]));
    out.push_back(
        Q(pool[i] + " and " + pool[(i + 1) % pool.size()]));
    all += (i == 0 ? "" : " and ") + pool[i];
  }
  out.push_back(Q(all));
  if (pool.size() >= 4) {
    out.push_back(Q("(" + pool[0] + " and " + pool[1] + ") or (" + pool[2] +
                    " and " + pool[3] + ")"));
  }
  return out;
}

TEST(CompiledMatcherTranslations, ByteIdenticalAcrossEnginesAllContexts) {
  ScopedEngine restore;
  for (ContextCase& context : AllContexts()) {
    SCOPED_TRACE(context.name);
    const std::vector<Query> queries = QueriesFromPool(context.pool);
    std::vector<std::string> renderings;
    for (MatchEngine engine : kAllEngines) {
      SetMatchEngine(engine);
      Translator translator(context.spec, TranslatorOptions{});
      std::string rendering;
      for (const Query& query : queries) {
        Result<Translation> t = translator.Translate(query);
        ASSERT_TRUE(t.ok()) << t.status().ToString();
        rendering +=
            t->mapped.ToString() + " / " + t->filter.ToString() + "\n";
      }
      renderings.push_back(std::move(rendering));
    }
    EXPECT_EQ(renderings[1], renderings[0]) << "compiled diverged from naive";
  }
}

// --- Randomized equivalence with seed echo --------------------------------

void RandomizedEquivalence(const SyntheticOptions& options, uint64_t seed,
                           int num_queries) {
  Result<MappingSpec> spec = MakeSyntheticSpec(options);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  RandomQueryOptions query_options;
  query_options.num_attrs = options.num_attrs;
  std::mt19937 rng(static_cast<uint32_t>(seed));
  for (int trial = 0; trial < num_queries; ++trial) {
    Query query = RandomQuery(rng, query_options);
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " trial=" + std::to_string(trial) +
                 " query=" + query.ToString());
    for (const std::vector<Constraint>& disjunct : DnfDisjuncts(query)) {
      std::vector<Matching> naive = MatchSpecNaive(*spec, disjunct);
      std::vector<Matching> compiled = MatchSpecCompiled(*spec, disjunct);
      ASSERT_EQ(Render(compiled), Render(naive));
    }
  }
}

TEST(CompiledMatcherRandomized, FiveHundredQueriesPerSpec) {
  // Two synthetic vocabularies (different dependency structure), 520 random
  // queries each. The seed is fixed for reproducibility and echoed in every
  // failure message via SCOPED_TRACE.
  SyntheticOptions wide;
  wide.num_attrs = 8;
  wide.dependent_pairs = {{0, 1}, {2, 3}};
  RandomizedEquivalence(wide, /*seed=*/20260808, /*num_queries=*/520);

  SyntheticOptions dense;
  dense.num_attrs = 4;
  dense.dependent_pairs = {{0, 1}, {1, 2}, {2, 3}};
  RandomizedEquivalence(dense, /*seed=*/987654321, /*num_queries=*/520);
}

TEST(CompiledMatcherRandomized, DuplicateHeavyConjunctions) {
  // Repeated attributes and literally repeated constraints stress the
  // per-rule dedup and the used-constraint bookkeeping of the DAG walk.
  SyntheticOptions options;
  options.num_attrs = 4;
  options.dependent_pairs = {{0, 1}};
  Result<MappingSpec> spec = MakeSyntheticSpec(options);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const uint64_t seed = 4242;
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> attr(0, 3);
  std::uniform_int_distribution<int> value(0, 1);
  std::uniform_int_distribution<int> length(0, 8);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Constraint> conjunction;
    const int n = length(rng);
    for (int i = 0; i < n; ++i) {
      conjunction.push_back(C("[a" + std::to_string(attr(rng)) + " = " +
                              std::to_string(value(rng)) + "]"));
    }
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " trial=" + std::to_string(trial));
    std::vector<Matching> naive = MatchSpecNaive(*spec, conjunction);
    ASSERT_EQ(Render(MatchSpecCompiled(*spec, conjunction)), Render(naive));
  }
}

TEST(CompiledMatcherRandomized, DedupTableGrowsAndSurvivesEpochWrap) {
  // Wholly ambiguous heads over a conjunction with repeated constraints:
  // many slot assignments reach one accept, duplicates among them, so the
  // dedup table grows well past its initial size within one run. A wrapped
  // epoch must not read stale or empty slots as live.
  auto registry = SyntheticRegistry();
  Result<MappingSpec> spec = ParseMappingSpec(
      "rule R: [A0 = N0]; [A1 = N1]; [A2 = N2] => emit true;", "test",
      registry);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const std::vector<Constraint> conjunction = {
      C("[x = 1]"), C("[x = 1]"), C("[y = 2]"),
      C("[y = 2]"), C("[z = 3]"), C("[x = 1]")};
  const size_t expected = MatchSpecNaive(*spec, conjunction).size();
  ASSERT_GT(expected, 16u);
  std::shared_ptr<const CompiledRulePlan> plan = spec->compiled_plan();
  CompiledMatchScratch scratch;
  // Every slot stamped with the current epoch must be an entry of this run.
  const auto live_slots = [&scratch] {
    return static_cast<size_t>(std::count_if(
        scratch.dedup_slots.begin(), scratch.dedup_slots.end(),
        [&scratch](const CompiledMatchScratch::DedupSlot& slot) {
          return slot.epoch == scratch.dedup_epoch;
        }));
  };
  EXPECT_EQ(RunCompiled(*plan, *spec, conjunction, &scratch), expected);
  EXPECT_EQ(live_slots(), scratch.dedup_size);
  EXPECT_GT(scratch.dedup_slots.size(), 16u);
  scratch.dedup_epoch = std::numeric_limits<uint32_t>::max();
  for (int run = 0; run < 2; ++run) {
    EXPECT_EQ(RunCompiled(*plan, *spec, conjunction, &scratch), expected);
    EXPECT_EQ(live_slots(), scratch.dedup_size);
  }
}

// --- Plan structure -------------------------------------------------------

TEST(CompiledMatcherPlan, SharedPrefixesMergeIntoOneNode) {
  auto registry = SyntheticRegistry();
  Result<MappingSpec> spec = ParseMappingSpec(
      "rule A: [x = V]; [y = W] => emit true;"
      "rule B: [x = V]; [z = W] => emit true;"
      "rule C: [x = V] => emit true;",
      "test", registry);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  std::shared_ptr<const CompiledRulePlan> plan = spec->compiled_plan();
  // root + shared [x = V] node + one node each for [y = W] and [z = W]; the
  // structurally identical first pattern of A, B and C is one edge.
  EXPECT_EQ(plan->num_nodes(), 4u);
  EXPECT_EQ(plan->num_rules(), 3);
  ASSERT_EQ(plan->accepts.size(), 3u);
  EXPECT_EQ(plan->max_head_patterns(), 2u);
}

TEST(CompiledMatcherPlan, CompileTelemetryAdvances) {
  CompiledPlanBuildStats before = CompiledPlanGlobalStats();
  auto registry = SyntheticRegistry();
  Result<MappingSpec> spec = ParseMappingSpec(
      "rule A: [x = V] => emit true;", "test", registry);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  std::shared_ptr<const CompiledRulePlan> plan = spec->compiled_plan();
  CompiledPlanBuildStats after = CompiledPlanGlobalStats();
  EXPECT_EQ(after.plans_built, before.plans_built + 1);
  EXPECT_EQ(after.plan_nodes, before.plan_nodes + plan->num_nodes());
  EXPECT_GT(after.compile_ns, before.compile_ns);
}

TEST(CompiledMatcherPlan, DifferentRuleListsGetDifferentPlans) {
  auto registry = SyntheticRegistry();
  Result<MappingSpec> one = ParseMappingSpec(
      "rule A: [x = V] => emit true;", "test", registry);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  std::shared_ptr<const CompiledRulePlan> first = one->compiled_plan();
  EXPECT_EQ(first.get(), one->compiled_plan().get()) << "plan not cached";
  // The same rules plus one more make another spec, with a plan of its own.
  Result<MappingSpec> donor = ParseMappingSpec(
      "rule B: [y = V] => emit true;", "test", registry);
  ASSERT_TRUE(donor.ok());
  std::vector<Rule> rules = one->rules();
  rules.push_back(donor->rules()[0]);
  MappingSpec two(one->target_name(), registry, std::move(rules));
  std::shared_ptr<const CompiledRulePlan> second = two.compiled_plan();
  EXPECT_NE(first.get(), second.get());
  EXPECT_EQ(first->num_rules(), 1);
  EXPECT_EQ(second->num_rules(), 2);
}

TEST(CompiledMatcherPlan, MediatorTranslationsBuildOnePlanPerSource) {
  // Mediator::Translate copies each source's spec into a fresh Translator
  // on every call. The copies share the spec's plan, so N calls over K
  // sources compile K plans in total, not K per call.
  ScopedEngine restore;
  SetMatchEngine(MatchEngine::kCompiled);
  const Mediator mediator = MakeFacultyMediator();
  const uint64_t sources = mediator.sources().size();
  ASSERT_GE(sources, 2u);
  const Query query = Q(
      "[fac.ln = pub.ln] and [fac.fn = pub.fn] and "
      "[fac.bib contains \"data(near)mining\"] and [fac.dept = \"cs\"]");
  const uint64_t built_before = CompiledPlanGlobalStats().plans_built;
  for (int call = 0; call < 5; ++call) {
    ASSERT_TRUE(mediator.Translate(query).ok());
  }
  EXPECT_EQ(CompiledPlanGlobalStats().plans_built - built_before, sources);
  for (const SourceContext& source : mediator.sources()) {
    const MappingSpec copy = source.spec();
    EXPECT_EQ(copy.compiled_plan().get(), source.spec().compiled_plan().get())
        << source.name();
  }
  EXPECT_EQ(CompiledPlanGlobalStats().plans_built - built_before, sources);
}

// --- Concurrent publication ----------------------------------------------

TEST(CompiledMatcherConcurrency, FirstBuildRacePublishesOnePlan) {
  // Many threads race the cold compiled_plan() build on a shared spec.
  // Exactly one plan object may win; every thread must observe the same
  // pointer, and every thread's match result must be correct. Run under
  // TSan in CI.
  for (int round = 0; round < 20; ++round) {
    MappingSpec spec = AmazonSpec();
    const std::vector<Constraint> conjunction = {
        C("[ln = \"Smith\"]"), C("[pyear = 1997]"), C("[pmonth = 5]")};
    const std::string expected = Render(MatchSpecNaive(spec, conjunction));
    constexpr int kThreads = 8;
    std::vector<const CompiledRulePlan*> plans(kThreads, nullptr);
    std::vector<std::string> results(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        plans[t] = spec.compiled_plan().get();
        results[t] = Render(MatchSpecCompiled(spec, conjunction));
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(plans[t], plans[0]) << "thread " << t << " got its own plan";
    }
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(results[t], expected) << "thread " << t;
    }
  }
}

TEST(CompiledMatcherConcurrency, CopiesRacingTheFirstBuildShareOnePlan) {
  // Copies of one spec, all made before its plan exists, race the first
  // compiled_plan() call from many threads: one build in total, and every
  // copy, the original included, returns that one plan. Run under TSan in
  // CI.
  constexpr int kThreads = 8;
  for (int round = 0; round < 20; ++round) {
    const MappingSpec original = AmazonSpec();
    const std::vector<MappingSpec> copies(kThreads, original);
    const uint64_t built_before = CompiledPlanGlobalStats().plans_built;
    std::vector<const CompiledRulePlan*> plans(kThreads, nullptr);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        plans[t] = copies[t].compiled_plan().get();
      });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(CompiledPlanGlobalStats().plans_built - built_before, 1u)
        << "round " << round;
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(plans[t], plans[0]) << "copy " << t << " got its own plan";
    }
    EXPECT_EQ(original.compiled_plan().get(), plans[0]);
  }
}

// --- Engine selection -----------------------------------------------------

TEST(CompiledMatcherEngine, EnvDecoding) {
  // MatchEngineFromEnv re-reads the environment on every call (only the
  // process default is latched), so the decode table is directly testable.
  const char* saved_engine = std::getenv("QMAP_MATCH_ENGINE");
  const std::string saved_engine_value = saved_engine ? saved_engine : "";

  ::setenv("QMAP_MATCH_ENGINE", "naive", 1);
  EXPECT_EQ(MatchEngineFromEnv(), MatchEngine::kNaive);
  ::setenv("QMAP_MATCH_ENGINE", "indexed", 1);
  EXPECT_EQ(MatchEngineFromEnv(), MatchEngine::kCompiled)
      << "the retired engine name must fall back to the default engine";
  ::setenv("QMAP_MATCH_ENGINE", "compiled", 1);
  EXPECT_EQ(MatchEngineFromEnv(), MatchEngine::kCompiled);
  ::setenv("QMAP_MATCH_ENGINE", "hovercraft", 1);
  EXPECT_EQ(MatchEngineFromEnv(), MatchEngine::kCompiled)
      << "unknown value must fall back to the default engine";
  ::unsetenv("QMAP_MATCH_ENGINE");
  EXPECT_EQ(MatchEngineFromEnv(), MatchEngine::kCompiled);

  if (saved_engine) {
    ::setenv("QMAP_MATCH_ENGINE", saved_engine_value.c_str(), 1);
  } else {
    ::unsetenv("QMAP_MATCH_ENGINE");
  }
}

TEST(CompiledMatcherEngine, NamesAndDeprecatedWrappers) {
  ScopedEngine restore;
  EXPECT_STREQ(MatchEngineName(MatchEngine::kNaive), "naive");
  EXPECT_STREQ(MatchEngineName(MatchEngine::kCompiled), "compiled");
  SetMatchEngine(MatchEngine::kCompiled);
  EXPECT_EQ(CurrentMatchEngine(), MatchEngine::kCompiled);
  SetMatchEngine(MatchEngine::kNaive);
  EXPECT_EQ(CurrentMatchEngine(), MatchEngine::kNaive);
}

TEST(CompiledMatcherEngine, CompiledHitsCounterAdvances) {
  MappingSpec spec = AmazonSpec();
  const std::vector<Constraint> conjunction = {C("[ln = \"Smith\"]"),
                                               C("[pyear = 1997]")};
  MatchCounters counters;
  MatchSpecCompiled(spec, conjunction, &counters);
  EXPECT_EQ(counters.compiled_hits, 1u);
  MatchCounters naive_counters;
  MatchSpecNaive(spec, conjunction, &naive_counters);
  EXPECT_EQ(naive_counters.compiled_hits, 0u);
}

}  // namespace
}  // namespace qmap
