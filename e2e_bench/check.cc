#include "check.h"

#include <map>
#include <random>
#include <set>

#include "qmap/expr/eval.h"
#include "qmap/rules/compose.h"
#include "workload.h"

namespace e2e {
namespace {

// A value no generated leaf uses, for tuples that must fail a leaf.
constexpr int64_t kOutsideValue = 99;

void CollectValues(const qmap::Query& query,
                   std::map<std::string, std::set<int64_t>>* values) {
  if (query.is_leaf()) {
    const qmap::Constraint& c = query.constraint();
    if (!c.is_join() && c.rhs_value().kind() == qmap::ValueKind::kInt) {
      (*values)[c.lhs.ToString()].insert(c.rhs_value().AsInt());
    }
    return;
  }
  for (const qmap::Query& child : query.children()) CollectValues(child, values);
}

uint64_t CountNodes(const qmap::Query& query) {
  uint64_t n = 1;
  for (const qmap::Query& child : query.children()) n += CountNodes(child);
  return n;
}

// The source tuple extended with every source's target attributes. The
// synthetic conversions agree wherever two sources share a target name, so
// one tuple serves all sources.
qmap::Tuple ConvertForAllSources(const qmap::Tuple& source) {
  qmap::Tuple out = source;
  for (const auto& [name, options] : SourceOptions()) {
    out = qmap::ConvertSyntheticTuple(out, options);
  }
  const qmap::SyntheticHop2Options chain = ChainOptions();
  return qmap::ConvertSyntheticHop2Tuple(
      qmap::ConvertSyntheticTuple(out, chain.hop1), chain);
}

}  // namespace

std::vector<std::pair<std::string, qmap::SyntheticOptions>> SourceOptions() {
  const std::vector<std::vector<std::pair<int, int>>> pair_sets = {
      {}, {{0, 1}}, {{2, 3}}, {{4, 5}}, {{0, 2}, {4, 6}}, {{1, 3}, {5, 7}}};
  std::vector<std::pair<std::string, qmap::SyntheticOptions>> out;
  for (size_t i = 0; i < pair_sets.size(); ++i) {
    qmap::SyntheticOptions options;
    options.num_attrs = kNumAttrs;
    options.dependent_pairs = pair_sets[i];
    out.emplace_back("S" + std::to_string(i), options);
  }
  return out;
}

qmap::SyntheticHop2Options ChainOptions() {
  // The pairs_2hop topology of bench/bench_composition.cc over eight
  // attributes: a hop-1 pair with a partial single, a second-level pair
  // over two independent b attributes, and a coverage gap at b2.
  qmap::SyntheticHop2Options options;
  options.hop1.num_attrs = kNumAttrs;
  options.hop1.dependent_pairs = {{0, 1}};
  options.hop1.partial_single_for_pair_first = true;
  options.dependent_b_pairs = {{4, 5}};
  options.partial_single_for_pair_first = true;
  options.skip_b_attr = 2;
  return options;
}

qmap::Result<std::vector<std::pair<std::string, qmap::MappingSpec>>>
ParseSourceSpecs() {
  std::vector<std::pair<std::string, qmap::MappingSpec>> out;
  for (const auto& [name, options] : SourceOptions()) {
    qmap::Result<qmap::MappingSpec> spec = qmap::MakeSyntheticSpec(options);
    if (!spec.ok()) return spec.status();
    out.emplace_back(name, std::move(spec).value());
  }
  return out;
}

qmap::Result<std::vector<qmap::MappingSpec>> ParseChainHops() {
  const qmap::SyntheticHop2Options options = ChainOptions();
  qmap::Result<qmap::MappingSpec> hop1 = qmap::MakeSyntheticSpec(options.hop1);
  if (!hop1.ok()) return hop1.status();
  qmap::Result<qmap::MappingSpec> hop2 = qmap::MakeSyntheticHop2Spec(options);
  if (!hop2.ok()) return hop2.status();
  return std::vector<qmap::MappingSpec>{std::move(hop1).value(),
                                       std::move(hop2).value()};
}

qmap::Result<qmap::Mediator> MakeReferenceMediator() {
  auto sources = ParseSourceSpecs();
  if (!sources.ok()) return sources.status();
  auto hops = ParseChainHops();
  if (!hops.ok()) return hops.status();
  qmap::Result<qmap::ComposedSpec> composed =
      qmap::ComposeSpecs((*hops)[0], (*hops)[1]);
  if (!composed.ok()) return composed.status();
  qmap::Mediator mediator;
  for (auto& [name, spec] : *sources) {
    mediator.AddSource(qmap::SourceContext(name, std::move(spec)));
  }
  mediator.AddSource(qmap::SourceContext(kChainName, composed->spec));
  return mediator;
}

Digest DigestOf(const qmap::MediatorTranslation& translation) {
  Digest digest;
  for (const auto& [name, t] : translation.per_source) {
    digest.sources.push_back(
        {name, {t.mapped.fingerprint(), t.filter.fingerprint()}});
  }
  digest.filter = translation.filter.fingerprint();
  return digest;
}

bool Matches(const qmap::MediatorTranslation& translation,
             const Digest& digest) {
  if (translation.filter.fingerprint() != digest.filter ||
      translation.per_source.size() != digest.sources.size()) {
    return false;
  }
  auto expected = digest.sources.begin();
  for (const auto& [name, t] : translation.per_source) {
    const auto& [ref_name, fps] = *expected++;
    if (name != ref_name || t.mapped.fingerprint() != fps.first ||
        t.filter.fingerprint() != fps.second) {
      return false;
    }
  }
  return true;
}

void CheckSemantics(const qmap::Query& query,
                    const qmap::MediatorTranslation& translation,
                    uint64_t seed, int num_tuples, SemanticTally* tally) {
  std::map<std::string, std::set<int64_t>> mentioned;
  CollectValues(query, &mentioned);
  // Per attribute: the values the query mentions plus one it does not, so
  // tuples land on both sides of every leaf.
  std::vector<std::vector<int64_t>> domains(kNumAttrs);
  for (int a = 0; a < kNumAttrs; ++a) {
    const std::set<int64_t>& values = mentioned["a" + std::to_string(a)];
    domains[a].assign(values.begin(), values.end());
    domains[a].push_back(kOutsideValue);
    if (values.empty()) {
      domains[a].clear();
      for (int v = 0; v < kNumValues; ++v) domains[a].push_back(v);
    }
  }
  std::mt19937_64 rng(seed);
  for (int k = 0; k < num_tuples; ++k) {
    qmap::Tuple source;
    for (int a = 0; a < kNumAttrs; ++a) {
      const std::vector<int64_t>& d = domains[a];
      source.Set("a" + std::to_string(a),
                 qmap::Value::Int(d[std::uniform_int_distribution<size_t>(
                     0, d.size() - 1)(rng)]));
    }
    const qmap::Tuple converted = ConvertForAllSources(source);
    const bool q = qmap::EvalQuery(query, source);
    bool all_sources = true;
    std::string violation;
    for (const auto& [name, t] : translation.per_source) {
      const bool s = qmap::EvalQuery(t.mapped, converted);
      if (q && !s && violation.empty()) {
        violation = "S(Q) does not subsume Q at source " + name;
      }
      tally->admitted += s ? 1 : 0;
      tally->false_pos += s && !q ? 1 : 0;
      all_sources = all_sources && s;
    }
    const bool f = qmap::EvalQuery(translation.filter, converted);
    if (violation.empty() && q != (f && all_sources)) {
      violation = "Q differs from F and every S_i(Q)";
    }
    if (!violation.empty()) {
      if (tally->violations++ == 0) {
        tally->first_violation = violation + " on tuple " + source.ToString();
      }
    }
  }
}

uint64_t CountOutputNodes(const qmap::MediatorTranslation& translation) {
  uint64_t n = CountNodes(translation.filter);
  for (const auto& [name, t] : translation.per_source) {
    n += CountNodes(t.mapped) + CountNodes(t.filter);
  }
  return n;
}

}  // namespace e2e
