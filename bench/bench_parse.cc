// The query front door: lexing and parsing query text into interned Query
// nodes, on every path a request takes (the front-end's ParseQuery, the rule
// DSL at set-up, and the decode of every translation a wire worker returns).
//
//   ParseQuery_Repeated     — one thread re-parses ~100 query texts shaped
//                             like the e2e hot set, each parsed twice before
//                             timing, so ParseQuery's per-thread memo
//                             answers every parse; memo_hit_frac reports
//                             the share it answered. allocs_per_iter pins
//                             the memo's answer at 0.
//   ParseQuery_AllHit       — the same texts, all held, so every node the
//                             parse builds already exists, but each pass
//                             over them ends every text in a different run
//                             of spaces and tabs (the pass number in binary,
//                             rewritten in place), so no text repeats and
//                             the memo, which keys on the exact text, never
//                             answers: every parse lexes and probes the
//                             intern tables. allocs_per_iter pins that
//                             allocation-free probe path at 0.
//   ParseQuery_Novel        — the same texts behind a leaf carrying a fresh
//                             nonce each iteration: the nonce leaf and the
//                             root miss, the rest hits; each parse dies at
//                             once, so inserts also sweep.
//   ParseMappingSpec        — the rule DSL of synthetic specs like the
//                             e2e sources'.
//   DecodeTranslateResponse — one 7-source wire response whose translations
//                             are all held, decoded over and over, so after
//                             the first two decodes the memo answers each
//                             of its texts, as on a front-end that keeps
//                             receiving the same answers.
//
// Counters whose names contain "allocs" are pinned one-sided by
// bench/check_bench_regression.py; times get the loose smoke tolerance.

#define QMAP_BENCH_COUNT_ALLOCS
#include "bench_util.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "qmap/contexts/synthetic.h"
#include "qmap/core/translator.h"
#include "qmap/expr/intern.h"
#include "qmap/expr/parser.h"
#include "qmap/rules/spec_parser.h"
#include "qmap/wire/messages.h"

namespace {

// Query text over a0..a7 with values 0..3, in the shapes of the e2e hot
// set: a quarter are conjunctions of 2-3 disjunctions whose leaves sit on one
// attribute pair, the rest alternating and/or trees of depth 2-3 and fanout
// 2-3 whose branches end in a leaf early with probability 1/2.
class HotShapedText {
 public:
  explicit HotShapedText(uint32_t seed) : rng_(seed) {}

  std::string Next() {
    if (Uniform(0, 3) == 0) return PairConjunction();
    return Tree(Uniform(2, 3), /*conjunctive=*/Uniform(0, 3) != 0,
                /*root=*/true);
  }

 private:
  int Uniform(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }
  std::string Leaf(int attr) {
    return "[a" + std::to_string(attr) + " = " + std::to_string(Uniform(0, 3)) +
           "]";
  }
  static std::string Join(const std::vector<std::string>& parts,
                          const char* connective, bool root) {
    std::string out = root ? "" : "(";
    for (size_t i = 0; i < parts.size(); ++i) {
      if (i > 0) out += connective;
      out += parts[i];
    }
    return root ? out : out + ")";
  }
  std::string Tree(int depth, bool conjunctive, bool root) {
    std::vector<std::string> children;
    const int fanout = Uniform(2, 3);
    for (int i = 0; i < fanout; ++i) {
      children.push_back(depth > 1 && Uniform(0, 1) == 1
                             ? Tree(depth - 1, !conjunctive, false)
                             : Leaf(Uniform(0, 7)));
    }
    return Join(children, conjunctive ? " and " : " or ", root);
  }
  std::string PairConjunction() {
    const int first = Uniform(0, 6);
    const int second = first + 1;
    std::vector<std::string> conjuncts;
    const int num_conjuncts = Uniform(2, 3);
    for (int c = 0; c < num_conjuncts; ++c) {
      std::vector<std::string> disjuncts;
      const int num_disjuncts = Uniform(2, 3);
      for (int d = 0; d < num_disjuncts; ++d) {
        disjuncts.push_back(Leaf((c + d) % 2 == 0 ? first : second));
      }
      conjuncts.push_back(Join(disjuncts, " or ", false));
    }
    return Join(conjuncts, " and ", true);
  }

  std::mt19937 rng_;
};

std::vector<std::string> HotTexts() {
  HotShapedText generator(2701);
  std::vector<std::string> texts;
  for (int i = 0; i < 100; ++i) texts.push_back(generator.Next());
  return texts;
}

qmap::Query Parse(const std::string& text) {
  qmap::Result<qmap::Query> q = qmap::ParseQuery(text);
  if (!q.ok()) std::abort();
  return *q;
}

void ReportAllocs(benchmark::State& state, uint64_t allocs_before) {
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(qmap_bench::AllocCount() - allocs_before),
      benchmark::Counter::kAvgIterations);
}

void ParseQuery_Repeated(benchmark::State& state) {
  const std::vector<std::string> texts = HotTexts();
  std::vector<qmap::Query> held;
  for (const std::string& text : texts) {
    Parse(text);
    held.push_back(Parse(text));
  }
  size_t next = 0;
  const qmap::InternStats before = qmap::QueryInternStats();
  const uint64_t allocs_before = qmap_bench::AllocCount();
  for (auto _ : state) {
    qmap::Result<qmap::Query> q = qmap::ParseQuery(texts[next]);
    benchmark::DoNotOptimize(q);
    next = next + 1 == texts.size() ? 0 : next + 1;
  }
  ReportAllocs(state, allocs_before);
  const qmap::InternStats after = qmap::QueryInternStats();
  const double hits =
      static_cast<double>(after.parse_memo_hits - before.parse_memo_hits);
  const double misses =
      static_cast<double>(after.parse_memo_misses - before.parse_memo_misses);
  state.counters["memo_hit_frac"] = hits / std::max(1.0, hits + misses);
}
BENCHMARK(ParseQuery_Repeated);

void ParseQuery_AllHit(benchmark::State& state) {
  // Each text ends in kVariantBits blanks, a space or a tab per bit of the
  // pass number. The pass count runs on across the benchmark's repeated
  // runs, so no text is ever parsed twice.
  constexpr size_t kVariantBits = 24;
  static uint64_t pass = 0;
  std::vector<std::string> texts = HotTexts();
  std::vector<qmap::Query> held;
  double bytes = 0;
  for (std::string& text : texts) {
    held.push_back(Parse(text));
    bytes += static_cast<double>(text.size());
    text.append(kVariantBits, ' ');
  }
  const auto rewrite = [&](std::string& text) {
    char* blanks = text.data() + text.size() - kVariantBits;
    for (size_t bit = 0; bit < kVariantBits; ++bit) {
      blanks[bit] = (pass >> bit) & 1 ? '\t' : ' ';
    }
  };
  ++pass;
  for (std::string& text : texts) rewrite(text);
  size_t next = 0;
  const uint64_t allocs_before = qmap_bench::AllocCount();
  for (auto _ : state) {
    qmap::Result<qmap::Query> q = qmap::ParseQuery(texts[next]);
    benchmark::DoNotOptimize(q);
    if (++next == texts.size()) {
      next = 0;
      ++pass;
      for (std::string& text : texts) rewrite(text);
    }
  }
  ReportAllocs(state, allocs_before);
  state.counters["bytes_per_query"] = bytes / static_cast<double>(texts.size());
}
BENCHMARK(ParseQuery_AllHit);

void ParseQuery_Novel(benchmark::State& state) {
  // Each text starts with a nonce leaf whose fixed-width value field is
  // rewritten in place, so the loop itself allocates nothing. The nonce
  // runs on across the benchmark's repeated runs, so no text repeats.
  const std::string prefix = "[nonce = ";
  constexpr size_t kNonceDigits = 12;
  std::vector<std::string> texts;
  for (const std::string& hot : HotTexts()) {
    texts.push_back(prefix + std::string(kNonceDigits, '0') + "] and (" + hot +
                    ")");
  }
  std::vector<qmap::Query> held;
  for (const std::string& hot : HotTexts()) held.push_back(Parse(hot));
  static uint64_t nonce = 100000000000;
  size_t next = 0;
  const uint64_t allocs_before = qmap_bench::AllocCount();
  for (auto _ : state) {
    std::string& text = texts[next];
    std::to_chars(text.data() + prefix.size(),
                  text.data() + prefix.size() + kNonceDigits, nonce++);
    qmap::Result<qmap::Query> q = qmap::ParseQuery(text);
    benchmark::DoNotOptimize(q);
    next = next + 1 == texts.size() ? 0 : next + 1;
  }
  ReportAllocs(state, allocs_before);
}
BENCHMARK(ParseQuery_Novel);

// The rule DSL of a synthetic spec over a0..a7: one-to-one rules for the
// independent attributes, a pair rule and a partial single per pair.
std::string SyntheticDsl(const std::vector<std::pair<int, int>>& pairs) {
  std::vector<bool> in_pair(8, false);
  for (const auto& [i, j] : pairs) in_pair[i] = in_pair[j] = true;
  std::string dsl;
  for (int i = 0; i < 8; ++i) {
    if (in_pair[i]) continue;
    const std::string n = std::to_string(i);
    dsl += "rule S" + n + ": [a" + n + " = V] where Value(V) => emit [b" + n +
           " = V];\n";
  }
  for (const auto& [i, j] : pairs) {
    const std::string a = std::to_string(i);
    const std::string b = std::to_string(j);
    dsl += "rule P" + a + "_" + b + ": [a" + a + " = V]; [a" + b +
           " = W] where Value(V), Value(W)\n  => let C = Concat(V, W); emit [c" +
           a + "_" + b + " = C];\n";
    dsl += "rule D" + a + ": [a" + a + " = V] where Value(V) => emit [d" + a +
           " = V];  # partial single\n";
  }
  return dsl;
}

void ParseMappingSpec(benchmark::State& state) {
  const std::vector<std::string> specs = {
      SyntheticDsl({}),       SyntheticDsl({{0, 1}}),
      SyntheticDsl({{2, 3}}), SyntheticDsl({{0, 1}, {4, 5}}),
      SyntheticDsl({{4, 6}}), SyntheticDsl({{1, 3}, {5, 7}})};
  const auto registry = qmap::SyntheticRegistry();
  size_t next = 0;
  const uint64_t allocs_before = qmap_bench::AllocCount();
  for (auto _ : state) {
    qmap::Result<qmap::MappingSpec> spec =
        qmap::ParseMappingSpec(specs[next], "synthetic", registry);
    if (!spec.ok()) {
      state.SkipWithError(spec.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(spec);
    next = next + 1 == specs.size() ? 0 : next + 1;
  }
  ReportAllocs(state, allocs_before);
}
BENCHMARK(ParseMappingSpec);

void DecodeTranslateResponse(benchmark::State& state) {
  // Seven synthetic sources translate one hot-shaped query; their answers
  // travel in one response, as a worker serving all seven sends them.
  const std::vector<std::vector<std::pair<int, int>>> source_pairs = {
      {}, {{0, 1}}, {{2, 3}}, {{4, 5}}, {{0, 2}}, {{4, 6}}, {{1, 3}, {5, 7}}};
  const qmap::Query query = Parse(HotTexts()[3]);
  qmap::TranslateResponse response;
  response.request_id = 7;
  for (size_t i = 0; i < source_pairs.size(); ++i) {
    qmap::SyntheticOptions options;
    options.dependent_pairs = source_pairs[i];
    qmap::Result<qmap::MappingSpec> spec = qmap::MakeSyntheticSpec(options);
    if (!spec.ok()) std::abort();
    qmap::Result<qmap::Translation> translation =
        qmap::Translator(*spec).Translate(query);
    if (!translation.ok()) std::abort();
    qmap::SourceReply& reply =
        i == 0 ? response : response.further.emplace_back();
    reply.ok = true;
    reply.value = *std::move(translation);
  }
  const std::string payload = qmap::EncodeTranslateResponse(response);
  const qmap::Result<qmap::TranslateResponse> held =
      qmap::DecodeTranslateResponse(payload);
  if (!held.ok()) std::abort();
  const uint64_t allocs_before = qmap_bench::AllocCount();
  for (auto _ : state) {
    qmap::Result<qmap::TranslateResponse> decoded =
        qmap::DecodeTranslateResponse(payload);
    benchmark::DoNotOptimize(decoded);
  }
  ReportAllocs(state, allocs_before);
  state.counters["payload_bytes"] = static_cast<double>(payload.size());
}
BENCHMARK(DecodeTranslateResponse);

}  // namespace

QMAP_BENCH_MAIN(bench_parse)
