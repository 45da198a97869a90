// Randomized differential harness for offline mapping composition
// (qmap/rules/compose.h): a mediator-of-mediators chain S2∘S1 collapsed to
// one composed spec must translate *evaluation-equivalently* to running the
// hops sequentially. For every chain topology, over seeded random queries
// and tuple samples, assert on materialized data that
//
//   equivalence:  Sc(Q)(w)  ==  S2(S1(Q))(w)       (composed vs sequential)
//   subsumption:  Q(t)  ⇒  Sc(Q)(w)                 (Sc(Q) ⊇ Q end-to-end)
//   identity:     Q(t) ==  Sc(Q)(w) ∧ Fc(w)          (Eq. 3, composed)
//   identity:     Q(t) ==  S2(S1(Q))(w) ∧ F1(w) ∧ F2(w)   (chained filters)
//
// where w is the tuple converted through every hop's data direction. The
// harness also pins that these topologies compose *exactly* (zero
// approximate marks), that both match engines produce byte-identical
// composed-spec translations, and that containment-pruning a subsumed
// source never changes the merged result.
//
// Seeds default to {101, 202, 303}; QMAP_SUBSUMPTION_SEED overrides (echoed
// in the log). Failures are greedily shrunk to a minimal query, printed with
// the seed for direct replay — same protocol as subsumption_property_test.

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <iostream>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "qmap/contexts/synthetic.h"
#include "qmap/core/translator.h"
#include "qmap/expr/printer.h"
#include "qmap/rules/compose.h"
#include "qmap/rules/containment.h"
#include "qmap/rules/matcher.h"
#include "qmap/service/translation_service.h"

namespace qmap {
namespace {

// ---------------------------------------------------------------------------
// Seeds (same contract as subsumption_property_test.cc)

std::vector<uint32_t> HarnessSeeds() {
  if (const char* env = std::getenv("QMAP_SUBSUMPTION_SEED")) {
    return {static_cast<uint32_t>(std::strtoul(env, nullptr, 10))};
  }
  return {101, 202, 303};
}

// ---------------------------------------------------------------------------
// Chain topologies

struct ChainTopology {
  const char* name;
  SyntheticOptions hop1;
  SyntheticHop2Options hop2;  // hop2.hop1 is filled in by Topologies()
  bool three_hop = false;
};

std::vector<ChainTopology> Topologies() {
  std::vector<ChainTopology> out;

  // T1: pure renames — every hop-1 target forwarded one-to-one.
  {
    ChainTopology t;
    t.name = "rename_2hop";
    t.hop1.num_attrs = 6;
    out.push_back(t);
  }

  // T2: conversion chains and second-level dependencies — hop 1 has a
  // dependent pair with a partial single, hop 2 re-pairs two independent b
  // attributes (Concat over Concat fuses in the composed lets) and punches
  // a deliberate coverage gap at b2 (independent at both hops, so the gap
  // costs coverage, never equivalence).
  {
    ChainTopology t;
    t.name = "pairs_2hop";
    t.hop1.num_attrs = 6;
    t.hop1.dependent_pairs = {{0, 1}};
    t.hop1.partial_single_for_pair_first = true;
    t.hop2.dependent_b_pairs = {{4, 5}};
    t.hop2.partial_single_for_pair_first = true;
    t.hop2.skip_b_attr = 2;
    out.push_back(t);
  }

  // T3: sub-matching suppression transfer — two hop-1 pairs each with a
  // partial single (the R6/R7 pattern), forwarded by hop 2. The composed
  // spec must preserve which emissions get suppressed by wider matchings.
  {
    ChainTopology t;
    t.name = "suppression_2hop";
    t.hop1.num_attrs = 6;
    t.hop1.dependent_pairs = {{0, 1}, {2, 3}};
    t.hop1.partial_single_for_pair_first = true;
    out.push_back(t);
  }

  // T4: three hops — T2's chain extended with a renaming third hop, so the
  // composer's output is itself composed again.
  {
    ChainTopology t;
    t.name = "pairs_3hop";
    t.hop1.num_attrs = 6;
    t.hop1.dependent_pairs = {{0, 1}};
    t.hop1.partial_single_for_pair_first = true;
    t.hop2.dependent_b_pairs = {{4, 5}};
    t.hop2.partial_single_for_pair_first = true;
    t.hop2.skip_b_attr = 2;
    t.three_hop = true;
    out.push_back(t);
  }

  for (ChainTopology& t : out) t.hop2.hop1 = t.hop1;
  return out;
}

// Everything one topology needs to translate both ways and convert data.
struct ChainFixture {
  ChainTopology topology;
  std::vector<MappingSpec> hops;
  MappingSpec composed;
  ComposeStats last_stats;
  bool exact = true;
};

ChainFixture BuildFixture(const ChainTopology& topology) {
  ChainFixture f;
  f.topology = topology;
  Result<MappingSpec> hop1 = MakeSyntheticSpec(topology.hop1);
  EXPECT_TRUE(hop1.ok()) << hop1.status().ToString();
  Result<MappingSpec> hop2 = MakeSyntheticHop2Spec(topology.hop2);
  EXPECT_TRUE(hop2.ok()) << hop2.status().ToString();
  f.hops.push_back(*hop1);
  f.hops.push_back(*hop2);
  if (topology.three_hop) {
    Result<MappingSpec> hop3 = MakeSyntheticHop3Spec(topology.hop2);
    EXPECT_TRUE(hop3.ok()) << hop3.status().ToString();
    f.hops.push_back(*hop3);
  }
  f.composed = f.hops[0];
  for (size_t i = 1; i < f.hops.size(); ++i) {
    Result<ComposedSpec> folded = ComposeSpecs(f.composed, f.hops[i]);
    EXPECT_TRUE(folded.ok()) << folded.status().ToString();
    if (!folded.ok()) break;
    f.composed = std::move(folded->spec);
    f.last_stats = folded->stats;
    f.exact = f.exact && folded->exact;
  }
  return f;
}

// The data-conversion direction through the whole chain: w carries the
// original a-attributes plus every intermediate and final vocabulary, so
// queries at any level evaluate against it.
Tuple ConvertThroughChain(const Tuple& source, const ChainFixture& f) {
  Tuple w = ConvertSyntheticTuple(source, f.topology.hop1);
  w = ConvertSyntheticHop2Tuple(w, f.topology.hop2);
  if (f.topology.three_hop) w = ConvertSyntheticHop3Tuple(w, f.topology.hop2);
  return w;
}

// ---------------------------------------------------------------------------
// Tuple sampling (directed + random, as in the subsumption harness)

Tuple DirectedTuple(const Query& q, std::mt19937& rng,
                    const SyntheticOptions& options, int num_values) {
  Tuple t = RandomSourceTuple(rng, options.num_attrs, num_values);
  std::function<void(const Query&)> satisfy = [&](const Query& node) {
    switch (node.kind()) {
      case NodeKind::kLeaf: {
        const Constraint& c = node.constraint();
        if (c.op == Op::kEq && !c.is_join()) {
          t.Set(c.lhs.ToString(), c.rhs_value());
        }
        return;
      }
      case NodeKind::kAnd:
        for (const Query& child : node.children()) satisfy(child);
        return;
      case NodeKind::kOr: {
        if (node.children().empty()) return;
        std::uniform_int_distribution<size_t> pick(0, node.children().size() - 1);
        satisfy(node.children()[pick(rng)]);
        return;
      }
      default:
        return;
    }
  };
  satisfy(q);
  return t;
}

std::vector<Tuple> SampleTuples(const Query& q, std::mt19937& rng,
                                const SyntheticOptions& options,
                                int num_values) {
  std::vector<Tuple> out;
  for (int i = 0; i < 8; ++i) {
    out.push_back(RandomSourceTuple(rng, options.num_attrs, num_values));
  }
  for (int i = 0; i < 4; ++i) {
    out.push_back(DirectedTuple(q, rng, options, num_values));
  }
  return out;
}

// ---------------------------------------------------------------------------
// The differential property

// Translates `q` through the composed spec and sequentially hop-by-hop,
// then checks equivalence / subsumption / both filter identities over
// `sample`. Deterministic given (q, sample): re-runnable during shrinking.
std::optional<std::string> CheckChainQuery(const Query& q,
                                           const Translator& composed_tr,
                                           const std::vector<Translator>& hop_trs,
                                           const ChainFixture& f,
                                           const std::vector<Tuple>& sample) {
  Result<Translation> composed = composed_tr.Translate(q);
  if (!composed.ok()) {
    return "composed translation failed: " + composed.status().ToString();
  }
  Query seq_mapped = q;
  Query seq_filter = Query::True();
  for (const Translator& hop : hop_trs) {
    Result<Translation> step = hop.Translate(seq_mapped);
    if (!step.ok()) {
      return "sequential hop translation failed: " + step.status().ToString();
    }
    seq_filter = seq_filter & step->filter;
    seq_mapped = step->mapped;
  }

  for (const Tuple& source : sample) {
    const Tuple w = ConvertThroughChain(source, f);
    const bool original = EvalQuery(q, source);
    const bool via_composed = EvalQuery(composed->mapped, w);
    const bool via_sequential = EvalQuery(seq_mapped, w);
    if (via_composed != via_sequential) {
      return std::string("composed/sequential divergence: Sc(Q) ") +
             (via_composed ? "true" : "false") + " but chained S2(S1(Q)) " +
             (via_sequential ? "true" : "false") +
             "\n  tuple:      " + source.ToString() +
             "\n  composed:   " + ToParseableText(composed->mapped) +
             "\n  sequential: " + ToParseableText(seq_mapped);
    }
    if (original && !via_composed) {
      return "chain subsumption violated: Q(t) true but Sc(Q)(w) false"
             "\n  tuple:    " + source.ToString() +
             "\n  composed: " + ToParseableText(composed->mapped);
    }
    const bool composed_identity =
        via_composed && EvalQuery(composed->filter, w);
    if (composed_identity != original) {
      return std::string("composed filter identity violated: Q(t) ") +
             (original ? "true" : "false") + " but Fc ∧ Sc(Q) " +
             (composed_identity ? "true" : "false") +
             "\n  tuple:    " + source.ToString() +
             "\n  composed: " + ToParseableText(composed->mapped) +
             "\n  filter:   " + ToParseableText(composed->filter);
    }
    const bool sequential_identity =
        via_sequential && EvalQuery(seq_filter, w);
    if (sequential_identity != original) {
      return std::string("chained filter identity violated: Q(t) ") +
             (original ? "true" : "false") + " but F1∧F2 ∧ S2(S1(Q)) " +
             (sequential_identity ? "true" : "false") +
             "\n  tuple:   " + source.ToString() +
             "\n  mapped:  " + ToParseableText(seq_mapped) +
             "\n  filters: " + ToParseableText(seq_filter);
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Shrinking (same greedy protocol as the subsumption harness)

Query Shrink(Query q, const std::function<bool(const Query&)>& fails) {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    std::vector<Query> candidates;
    if (q.kind() == NodeKind::kAnd || q.kind() == NodeKind::kOr) {
      for (const Query& child : q.children()) candidates.push_back(child);
      if (q.children().size() > 1) {
        for (size_t drop = 0; drop < q.children().size(); ++drop) {
          std::vector<Query> kept;
          for (size_t i = 0; i < q.children().size(); ++i) {
            if (i != drop) kept.push_back(q.children()[i]);
          }
          candidates.push_back(q.kind() == NodeKind::kAnd
                                   ? Query::And(std::move(kept))
                                   : Query::Or(std::move(kept)));
        }
      }
    }
    for (const Query& candidate : candidates) {
      if (fails(candidate)) {
        q = candidate;
        progressed = true;
        break;
      }
    }
  }
  return q;
}

// ---------------------------------------------------------------------------
// The harness

class CompositionHarness : public ::testing::TestWithParam<ChainTopology> {};

TEST_P(CompositionHarness, ComposedEquivalentToSequential) {
  const ChainTopology& topology = GetParam();
  ChainFixture f = BuildFixture(topology);
  ASSERT_FALSE(::testing::Test::HasFailure());

  // These topologies live inside the exactly-composable fragment: the
  // composer must prove equivalence statically, not just pass the sample.
  ASSERT_TRUE(f.exact) << "composer marked topology " << topology.name
                       << " approximate:\n  "
                       << (f.last_stats.notes.empty()
                               ? std::string("(no notes)")
                               : f.last_stats.notes.front());
  ASSERT_EQ(f.last_stats.approximate_marks, 0);
  ASSERT_GT(f.composed.rules().size(), 0u);

  TranslatorOptions topt;
  Translator composed_tr(f.composed, topt);
  std::vector<Translator> hop_trs;
  hop_trs.reserve(f.hops.size());
  for (const MappingSpec& hop : f.hops) hop_trs.emplace_back(hop, topt);

  const std::vector<uint32_t> seeds = HarnessSeeds();
  // ≥500 per topology regardless of how many seeds run.
  const int queries_per_seed =
      static_cast<int>((525 + seeds.size() - 1) / seeds.size());
  constexpr int kNumValues = 4;
  int checked = 0;

  for (uint32_t seed : seeds) {
    std::cout << "[composition] topology=" << topology.name << " seed=" << seed
              << " queries=" << queries_per_seed
              << " composed_rules=" << f.composed.rules().size() << std::endl;
    std::mt19937 rng(seed);
    RandomQueryOptions deep;
    deep.num_attrs = topology.hop1.num_attrs;
    deep.num_values = kNumValues;
    deep.max_depth = 3;
    RandomQueryOptions shallow = deep;
    shallow.max_depth = 1;

    for (int i = 0; i < queries_per_seed; ++i) {
      Query q = RandomQuery(rng, i % 3 == 0 ? shallow : deep);
      std::vector<Tuple> sample =
          SampleTuples(q, rng, topology.hop1, kNumValues);
      std::optional<std::string> bad =
          CheckChainQuery(q, composed_tr, hop_trs, f, sample);
      ++checked;
      if (!bad.has_value()) continue;

      const auto fails = [&](const Query& candidate) {
        return CheckChainQuery(candidate, composed_tr, hop_trs, f, sample)
            .has_value();
      };
      Query minimal = Shrink(q, fails);
      FAIL() << "topology " << topology.name << ", seed " << seed
             << ", query #" << i << ": " << *bad
             << "\n  original query: " << ToParseableText(q)
             << "\n  minimal failing query: " << ToParseableText(minimal)
             << "\n  reproduce with: QMAP_SUBSUMPTION_SEED=" << seed;
    }
  }
  EXPECT_GE(checked, 500) << "harness must exercise 500+ queries per topology";
}

INSTANTIATE_TEST_SUITE_P(
    Chains, CompositionHarness, ::testing::ValuesIn(Topologies()),
    [](const ::testing::TestParamInfo<ChainTopology>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// Engine differential: the composed spec must translate byte-identically
// under both match engines (the engines' contract extends to composer
// output — composed rules are ordinary rules).

TEST(CompositionHarness, MatchEnginesAgreeOnComposedSpec) {
  const MatchEngine restore = CurrentMatchEngine();
  for (const ChainTopology& topology : Topologies()) {
    ChainFixture f = BuildFixture(topology);
    ASSERT_FALSE(::testing::Test::HasFailure());
    Translator translator(f.composed, TranslatorOptions{});

    for (uint32_t seed : HarnessSeeds()) {
      std::mt19937 rng(seed ^ 0x5eedu);
      RandomQueryOptions qopt;
      qopt.num_attrs = topology.hop1.num_attrs;
      qopt.max_depth = 3;
      for (int i = 0; i < 40; ++i) {
        Query q = RandomQuery(rng, qopt);
        std::string reference_mapped, reference_filter;
        for (MatchEngine engine :
             {MatchEngine::kNaive, MatchEngine::kCompiled}) {
          SetMatchEngine(engine);
          Result<Translation> t = translator.Translate(q);
          ASSERT_TRUE(t.ok()) << t.status().ToString();
          const std::string mapped = ToParseableText(t->mapped);
          const std::string filter = ToParseableText(t->filter);
          if (engine == MatchEngine::kNaive) {
            reference_mapped = mapped;
            reference_filter = filter;
          } else {
            ASSERT_EQ(mapped, reference_mapped)
                << "engine " << MatchEngineName(engine)
                << " diverged on composed spec, topology " << topology.name
                << ", seed " << seed
                << "\n  query: " << ToParseableText(q);
            ASSERT_EQ(filter, reference_filter)
                << "engine " << MatchEngineName(engine)
                << " filter diverged, topology " << topology.name
                << ", seed " << seed;
          }
        }
      }
    }
  }
  SetMatchEngine(restore);
}

// ---------------------------------------------------------------------------
// Containment pruning end-to-end: a service that drops a source whose
// mapping is contained in another's must produce the same merged answer as
// the service that keeps it — the A/B experiment of the pruning pre-pass.

TEST(CompositionHarness, PrunedSourceNeverChangesMergedResult) {
  SyntheticOptions hop1;
  hop1.num_attrs = 6;
  hop1.dependent_pairs = {{0, 1}};
  hop1.partial_single_for_pair_first = true;
  SyntheticHop2Options wide;
  wide.hop1 = hop1;
  SyntheticHop2Options narrow = wide;
  narrow.skip_b_attr = 2;  // strict rule subset of `wide`

  Result<MappingSpec> hop1_spec = MakeSyntheticSpec(hop1);
  ASSERT_TRUE(hop1_spec.ok());
  Result<MappingSpec> wide_spec = MakeSyntheticHop2Spec(wide);
  ASSERT_TRUE(wide_spec.ok());
  Result<MappingSpec> narrow_spec = MakeSyntheticHop2Spec(narrow);
  ASSERT_TRUE(narrow_spec.ok());

  // The pruning precondition, checked directly: wide contains narrow but
  // not vice versa.
  ASSERT_EQ(Contains(*wide_spec, *narrow_spec), ContainmentVerdict::kContains);
  ASSERT_EQ(Contains(*narrow_spec, *wide_spec), ContainmentVerdict::kUnknown);

  ServiceOptions keep_options;
  keep_options.num_threads = 1;
  TranslationService keep(keep_options);  // A: both sources stay
  ASSERT_TRUE(keep.AddChain("wide", {*hop1_spec, *wide_spec}).ok());
  ASSERT_TRUE(keep.AddChain("narrow", {*hop1_spec, *narrow_spec}).ok());
  ASSERT_EQ(keep.num_sources(), 2u);

  ServiceOptions prune_options;
  prune_options.num_threads = 1;
  prune_options.prune_contained_sources = true;
  TranslationService prune(prune_options);  // B: narrow gets dropped
  ASSERT_TRUE(prune.AddChain("wide", {*hop1_spec, *wide_spec}).ok());
  ASSERT_TRUE(prune.AddChain("narrow", {*hop1_spec, *narrow_spec}).ok());
  ASSERT_EQ(prune.num_sources(), 1u);
  ASSERT_EQ(prune.pruned_sources().size(), 1u);
  EXPECT_EQ(prune.pruned_sources()[0].name, "narrow");
  EXPECT_EQ(prune.pruned_sources()[0].subsumed_by, "wide");

  // Both chains convert data identically (the narrow spec's rule gap is a
  // *mapping* gap; the data-level correspondence is the same).
  const auto convert = [&](const Tuple& t) {
    return ConvertSyntheticHop2Tuple(ConvertSyntheticTuple(t, hop1), wide);
  };
  const auto reconstruct = [&](const MediatorTranslation& translated,
                               const Tuple& w) {
    bool all_pushed = true;
    for (const auto& [name, translation] : translated.per_source) {
      all_pushed = all_pushed && EvalQuery(translation.mapped, w);
    }
    return all_pushed && EvalQuery(translated.filter, w);
  };

  for (uint32_t seed : HarnessSeeds()) {
    std::cout << "[composition] pruned-source A/B seed=" << seed << std::endl;
    std::mt19937 rng(seed * 17 + 5);
    RandomQueryOptions qopt;
    qopt.num_attrs = hop1.num_attrs;
    qopt.max_depth = 3;
    for (int i = 0; i < 60; ++i) {
      Query q = RandomQuery(rng, qopt);
      Result<MediatorTranslation> with_narrow = keep.Translate(q);
      Result<MediatorTranslation> without_narrow = prune.Translate(q);
      ASSERT_TRUE(with_narrow.ok()) << with_narrow.status().ToString();
      ASSERT_TRUE(without_narrow.ok()) << without_narrow.status().ToString();
      ASSERT_EQ(with_narrow->per_source.size(), 2u);
      ASSERT_EQ(without_narrow->per_source.size(), 1u);

      for (int s = 0; s < 12; ++s) {
        Tuple source = s % 3 == 0 ? DirectedTuple(q, rng, hop1, 4)
                                  : RandomSourceTuple(rng, hop1.num_attrs, 4);
        const Tuple w = convert(source);
        const bool original = EvalQuery(q, source);
        const bool a = reconstruct(*with_narrow, w);
        const bool b = reconstruct(*without_narrow, w);
        ASSERT_EQ(a, b) << "pruning changed the merged answer, seed " << seed
                        << "\n  query: " << ToParseableText(q)
                        << "\n  tuple: " << source.ToString();
        ASSERT_EQ(b, original)
            << "merged identity violated after pruning, seed " << seed
            << "\n  query: " << ToParseableText(q)
            << "\n  filter: " << ToParseableText(without_narrow->filter)
            << "\n  tuple: " << source.ToString();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Chain registration surfaces: AddChain records topology and exactness, and
// the composed source carries capabilities derived from its emissions.

TEST(CompositionHarness, AddChainRecordsTopologyAndStatus) {
  SyntheticOptions hop1;
  hop1.num_attrs = 4;
  SyntheticHop2Options hop2;
  hop2.hop1 = hop1;

  Result<MappingSpec> hop1_spec = MakeSyntheticSpec(hop1);
  Result<MappingSpec> hop2_spec = MakeSyntheticHop2Spec(hop2);
  ASSERT_TRUE(hop1_spec.ok());
  ASSERT_TRUE(hop2_spec.ok());

  ServiceOptions options;
  options.num_threads = 1;
  TranslationService service(options);
  ASSERT_TRUE(service.AddChain("chain", {*hop1_spec, *hop2_spec}).ok());
  ASSERT_EQ(service.chains().size(), 1u);
  const ChainStatus& chain = service.chains()[0];
  EXPECT_EQ(chain.name, "chain");
  ASSERT_EQ(chain.hop_targets.size(), 2u);
  EXPECT_EQ(chain.hop_targets[0], "synthetic");
  EXPECT_EQ(chain.hop_targets[1], "synthetic2");
  EXPECT_EQ(chain.approximate_marks, 0);
  EXPECT_TRUE(chain.exact);
  EXPECT_EQ(chain.composed_rules, 4);  // xb0..xb3 renames

  ServiceStatus status = service.StatusSnapshot();
  ASSERT_EQ(status.chains.size(), 1u);
  EXPECT_EQ(status.chains[0].name, "chain");

  // Empty hops is a loud error, not a silent no-op source.
  EXPECT_FALSE(service.AddChain("empty", {}).ok());
}

}  // namespace
}  // namespace qmap
