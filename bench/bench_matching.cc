// B1b — the P term of Section 4.4: rule-head size.  The paper models the
// matching cost as N·P·R with independent patterns; the matcher enumerates
// candidate constraints per pattern position, pruning on mismatch, so the
// realized cost depends on how many constraints can satisfy each position.
//
// Series regenerated:
//   MatchVsP_Distinct — P patterns over *distinct* attributes: pruning keeps
//     the cost near N·P (linear in P).
//   MatchVsP_Ambiguous — P patterns that all match every constraint (the
//     adversarial case): cost grows as N^P, bounded by tiny P in practice
//     (the paper's rules use P <= 2-3).

// This TU defines the binary's replaceable operator new (bench_util.h) so
// every series can report allocs_per_iter; the compiled-engine series pins
// steady-state allocations at zero.
#define QMAP_BENCH_COUNT_ALLOCS
#include "bench_util.h"

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "qmap/core/match_memo.h"
#include "qmap/expr/constraint.h"
#include "qmap/rules/compiled_matcher.h"
#include "qmap/rules/matcher.h"
#include "qmap/rules/rule_program.h"
#include "qmap/rules/spec_parser.h"

namespace {

using qmap::Attr;
using qmap::Constraint;
using qmap::MakeSel;
using qmap::Op;
using qmap::Value;

std::shared_ptr<const qmap::FunctionRegistry> Registry() {
  static const auto& registry =
      *new std::shared_ptr<const qmap::FunctionRegistry>(
          std::make_shared<qmap::FunctionRegistry>(
              qmap::FunctionRegistry::WithBuiltins()));
  return registry;
}

// One rule with P patterns over attributes x0..x{P-1}.
qmap::Result<qmap::MappingSpec> DistinctSpec(int p) {
  std::string dsl = "rule R:";
  for (int i = 0; i < p; ++i) {
    dsl += std::string(i == 0 ? " " : "; ") + "[x" + std::to_string(i) + " = V" +
           std::to_string(i) + "]";
  }
  dsl += " => emit true;";
  return ParseMappingSpec(dsl, "bench", Registry());
}

// One rule with P wholly ambiguous patterns [Ai = Ni].
qmap::Result<qmap::MappingSpec> AmbiguousSpec(int p) {
  std::string dsl = "rule R:";
  for (int i = 0; i < p; ++i) {
    dsl += std::string(i == 0 ? " " : "; ") + "[A" + std::to_string(i) + " = N" +
           std::to_string(i) + "]";
  }
  dsl += " => emit true;";
  return ParseMappingSpec(dsl, "bench", Registry());
}

std::vector<Constraint> Conjunction(int n) {
  std::vector<Constraint> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(
        MakeSel(Attr::Simple("x" + std::to_string(i)), Op::kEq, Value::Int(1)));
  }
  return out;
}

void MatchVsP_Distinct(benchmark::State& state) {
  int p = static_cast<int>(state.range(0));
  qmap::Result<qmap::MappingSpec> spec = DistinctSpec(p);
  if (!spec.ok()) {
    state.SkipWithError(spec.status().ToString().c_str());
    return;
  }
  std::vector<Constraint> conjunction = Conjunction(16);
  qmap::MatchCounters counters;
  for (auto _ : state) {
    std::vector<qmap::Matching> matchings =
        MatchSpec(*spec, conjunction, &counters);
    benchmark::DoNotOptimize(matchings);
  }
  state.counters["P"] = p;
  state.counters["attempts/iter"] = benchmark::Counter(
      static_cast<double>(counters.pattern_attempts),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(MatchVsP_Distinct)->DenseRange(1, 6, 1);

void MatchVsP_Ambiguous(benchmark::State& state) {
  int p = static_cast<int>(state.range(0));
  qmap::Result<qmap::MappingSpec> spec = AmbiguousSpec(p);
  if (!spec.ok()) {
    state.SkipWithError(spec.status().ToString().c_str());
    return;
  }
  std::vector<Constraint> conjunction = Conjunction(10);
  qmap::MatchCounters counters;
  for (auto _ : state) {
    std::vector<qmap::Matching> matchings =
        MatchSpec(*spec, conjunction, &counters);
    benchmark::DoNotOptimize(matchings);
  }
  state.counters["P"] = p;
  state.counters["attempts/iter"] = benchmark::Counter(
      static_cast<double>(counters.pattern_attempts),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(MatchVsP_Ambiguous)->DenseRange(1, 4, 1);

}  // namespace

// B1c — wide-spec matching: R rules over a shared "hot" attribute plus
// distinct per-rule attributes plus a wildcard rule, against a fixed
// 16-constraint conjunction. Both engines over the same spec/conjunction:
//   naive     sweeps all N constraints for every head slot of every rule
//             (cost ~ R·N);
//   compiled  runs the discrimination DAG (qmap/rules/compiled_matcher.h):
//             (attribute, op) candidate buckets per head slot, shared
//             head-pattern prefixes tested once per conjunction,
//             empty-bucket edges skipping whole rule subtrees in O(1), and —
//             with a reused scratch — zero allocations in steady state.
// All series run from the same binary into one JSON, so a single
// BENCH_bench_matching.json records the naive/compiled timing ratio (CI
// gates MatchWide_Compiled/64 at ≤ 0.045× MatchWide_Naive/64), the
// attempts/iter counters, and allocs_per_iter, which
// bench/check_bench_regression.py pins (compiled raw path: ≤ 2).

namespace {

// R/4 "hot pair" rules [hot = A]; [y<i> = B], R distinct rules [x<i> = V],
// and one wildcard rule [A0 = N0] (matches any equality constraint — both
// matchers must sweep it; it exercises the wildcard bucket).
qmap::Result<qmap::MappingSpec> WideSpec(int r) {
  std::string dsl;
  for (int i = 0; i < r / 4; ++i) {
    dsl += "rule H" + std::to_string(i) + ": [hot = A]; [y" +
           std::to_string(i) + " = B] => emit true;";
  }
  for (int i = 0; i < r; ++i) {
    dsl += "rule X" + std::to_string(i) + ": [x" + std::to_string(i) +
           " = V] => emit true;";
  }
  dsl += "rule W0: [A0 = N0] => emit true;";
  return ParseMappingSpec(dsl, "bench", Registry());
}

// [hot = 1] ∧ y0..y3 ∧ x0..x7 ∧ z0..z2: completes 4 of the hot-pair rules,
// hits 8 of the distinct rules, and carries 3 attributes no literal head
// mentions (only the wildcard rule touches them).
std::vector<Constraint> WideConjunction() {
  std::vector<Constraint> out;
  out.push_back(MakeSel(Attr::Simple("hot"), Op::kEq, Value::Int(1)));
  for (int i = 0; i < 4; ++i) {
    out.push_back(
        MakeSel(Attr::Simple("y" + std::to_string(i)), Op::kEq, Value::Int(1)));
  }
  for (int i = 0; i < 8; ++i) {
    out.push_back(
        MakeSel(Attr::Simple("x" + std::to_string(i)), Op::kEq, Value::Int(1)));
  }
  for (int i = 0; i < 3; ++i) {
    out.push_back(
        MakeSel(Attr::Simple("z" + std::to_string(i)), Op::kEq, Value::Int(1)));
  }
  return out;
}

void MatchWide_Naive(benchmark::State& state) {
  int r = static_cast<int>(state.range(0));
  qmap::Result<qmap::MappingSpec> spec = WideSpec(r);
  if (!spec.ok()) {
    state.SkipWithError(spec.status().ToString().c_str());
    return;
  }
  std::vector<Constraint> conjunction = WideConjunction();
  qmap::MatchCounters counters;
  uint64_t allocs_before = qmap_bench::AllocCount();
  for (auto _ : state) {
    std::vector<qmap::Matching> matchings =
        MatchSpecNaive(*spec, conjunction, &counters);
    benchmark::DoNotOptimize(matchings);
  }
  state.counters["R"] = r;
  state.counters["attempts/iter"] = benchmark::Counter(
      static_cast<double>(counters.pattern_attempts),
      benchmark::Counter::kAvgIterations);
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(qmap_bench::AllocCount() - allocs_before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(MatchWide_Naive)->RangeMultiplier(8)->Range(8, 256);

// The raw compiled engine: plan prebuilt, scratch reused across iterations
// (exactly how MatchSpecCompiled's thread-local scratch behaves in steady
// state), no Matching materialization. allocs_per_iter is the acceptance
// gate: after the first warm-up run sizes the buffers, the loop must not
// allocate (the checker pins ≤ 2 to absorb one-off libc noise).
void MatchWide_Compiled(benchmark::State& state) {
  int r = static_cast<int>(state.range(0));
  qmap::Result<qmap::MappingSpec> spec = WideSpec(r);
  if (!spec.ok()) {
    state.SkipWithError(spec.status().ToString().c_str());
    return;
  }
  std::vector<Constraint> conjunction = WideConjunction();
  std::shared_ptr<const qmap::CompiledRulePlan> plan = spec->compiled_plan();
  qmap::CompiledMatchScratch scratch;
  qmap::MatchCounters counters;
  RunCompiled(*plan, *spec, conjunction, &scratch, &counters);  // warm buffers
  uint64_t allocs_before = qmap_bench::AllocCount();
  for (auto _ : state) {
    size_t found = RunCompiled(*plan, *spec, conjunction, &scratch, &counters);
    benchmark::DoNotOptimize(found);
  }
  state.counters["R"] = r;
  state.counters["attempts/iter"] = benchmark::Counter(
      static_cast<double>(counters.pattern_attempts),
      benchmark::Counter::kAvgIterations);
  state.counters["plan_nodes"] = static_cast<double>(plan->num_nodes());
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(qmap_bench::AllocCount() - allocs_before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(MatchWide_Compiled)->RangeMultiplier(8)->Range(8, 256);

// The compiled engine as SCM/TDQM actually consume it: MatchSpecCompiled,
// including materializing std::vector<Matching> (whose Bindings maps must
// allocate — that cost is inherent to the public return type, which is why
// it is a separate series from the raw-engine one above).
void MatchWide_CompiledMaterialized(benchmark::State& state) {
  int r = static_cast<int>(state.range(0));
  qmap::Result<qmap::MappingSpec> spec = WideSpec(r);
  if (!spec.ok()) {
    state.SkipWithError(spec.status().ToString().c_str());
    return;
  }
  std::vector<Constraint> conjunction = WideConjunction();
  spec->compiled_plan();  // build outside the timed loop
  qmap::MatchCounters counters;
  uint64_t allocs_before = qmap_bench::AllocCount();
  for (auto _ : state) {
    std::vector<qmap::Matching> matchings =
        MatchSpecCompiled(*spec, conjunction, &counters);
    benchmark::DoNotOptimize(matchings);
  }
  state.counters["R"] = r;
  state.counters["attempts/iter"] = benchmark::Counter(
      static_cast<double>(counters.pattern_attempts),
      benchmark::Counter::kAvgIterations);
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(qmap_bench::AllocCount() - allocs_before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(MatchWide_CompiledMaterialized)->RangeMultiplier(8)->Range(8, 256);

// One-time plan build cost (amortized over every translation that shares
// the spec): CompileRulePlan over the same R-rule specs the match series
// use. plan_nodes records the DAG size prefix sharing achieves.
void CompilePlan(benchmark::State& state) {
  int r = static_cast<int>(state.range(0));
  qmap::Result<qmap::MappingSpec> spec = WideSpec(r);
  if (!spec.ok()) {
    state.SkipWithError(spec.status().ToString().c_str());
    return;
  }
  size_t nodes = 0;
  for (auto _ : state) {
    std::shared_ptr<const qmap::CompiledRulePlan> plan =
        CompileRulePlan(spec->rules());
    nodes = plan->num_nodes();
    benchmark::DoNotOptimize(plan);
  }
  state.counters["R"] = r;
  state.counters["plan_nodes"] = static_cast<double>(nodes);
}
BENCHMARK(CompilePlan)->RangeMultiplier(8)->Range(8, 256);

}  // namespace

// B1d — memo key cost: what one MatchMemo probe costs under the fingerprint
// key (fold precomputed 64-bit constraint fingerprints — MatchMemo::KeyOf).
// The series builds the key for an N-constraint conjunction and probes a
// warm table with it; key_bytes/iter records the bytes materialized per
// probe (a constant 8).

namespace {

void MemoProbe_FingerprintKey(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::vector<Constraint> conjunction = Conjunction(n);
  std::unordered_map<uint64_t, int> memo;
  memo.emplace(qmap::MatchMemo::KeyOf(conjunction), 1);
  uint64_t key_bytes = 0;
  for (auto _ : state) {
    uint64_t key = qmap::MatchMemo::KeyOf(conjunction);
    key_bytes += sizeof(key);
    auto it = memo.find(key);
    benchmark::DoNotOptimize(it);
  }
  state.counters["N"] = n;
  state.counters["key_bytes/iter"] = benchmark::Counter(
      static_cast<double>(key_bytes), benchmark::Counter::kAvgIterations);
}
BENCHMARK(MemoProbe_FingerprintKey)->RangeMultiplier(2)->Range(4, 16);

}  // namespace

QMAP_BENCH_MAIN(bench_matching)
