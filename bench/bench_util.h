#ifndef QMAP_BENCH_BENCH_UTIL_H_
#define QMAP_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <vector>

// qmap's build, as bench/CMakeLists.txt configured it.
#ifndef QMAP_BENCH_BUILD_TYPE
#define QMAP_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef QMAP_BENCH_COMPILER
#define QMAP_BENCH_COMPILER "unknown"
#endif
#ifndef QMAP_BENCH_SOURCE_DIR
#define QMAP_BENCH_SOURCE_DIR "."
#endif

namespace qmap_bench {

/// Process-wide count of global operator new calls. Always callable; it only
/// ever advances when exactly one translation unit of the binary defined
/// QMAP_BENCH_COUNT_ALLOCS before including this header (which emits the
/// replaceable allocation functions below). Benches read it before and after
/// their timed loop and report the delta as an allocs_per_iter counter —
/// bench/check_bench_regression.py pins those like attempt counts, so an
/// accidental allocation on a hot path that promises none fails CI.
inline std::atomic<uint64_t>& AllocCounterRef() {
  static std::atomic<uint64_t> count{0};
  return count;
}
inline uint64_t AllocCount() {
  return AllocCounterRef().load(std::memory_order_relaxed);
}

/// Runs `git -C <qmap source dir> <args>`; true when it exits 0, with the
/// first line it printed (without the newline) in `*line`.
inline bool Git(const char* args, std::string* line) {
  const std::string command = std::string("git -C '") + QMAP_BENCH_SOURCE_DIR +
                              "' " + args + " 2>/dev/null";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return false;
  std::string out;
  char buf[256];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
  *line = out.substr(0, out.find('\n'));
  return pclose(pipe) == 0;
}

/// Stamps the run's JSON context with qmap's own build type, compiler, CPU
/// count and git revision (and whether tracked files had uncommitted
/// changes), the way e2e_bench stamps its runs; libbenchmark's
/// `library_build_type` describes libbenchmark, not qmap.
/// bench/check_bench_regression.py refuses to compare two stamped runs
/// whose build type or CPU count differ.
inline void StampContext() {
  benchmark::AddCustomContext("qmap_build_type", QMAP_BENCH_BUILD_TYPE);
  benchmark::AddCustomContext("qmap_compiler", QMAP_BENCH_COMPILER);
  benchmark::AddCustomContext(
      "qmap_num_cpus", std::to_string(std::thread::hardware_concurrency()));
  std::string revision;
  std::string change;
  const bool have_revision = Git("rev-parse HEAD", &revision);
  const bool have_status =
      Git("status --porcelain --untracked-files=no", &change);
  benchmark::AddCustomContext("qmap_git_revision",
                              have_revision ? revision : "unknown");
  benchmark::AddCustomContext(
      "qmap_git_dirty",
      !have_status ? "unknown" : (change.empty() ? "0" : "1"));
}

/// Runs the google-benchmark main loop with three additions over the stock
/// benchmark_main:
///  - unless the caller passed --benchmark_out themselves, results are also
///    written to BENCH_<name>.json (benchmark's JSON schema) in the current
///    directory, so every bench run leaves a machine-readable artifact that
///    CI can upload and scripts can diff across commits;
///  - when the QMAP_BENCH_SMOKE environment variable is set (any value),
///    --benchmark_min_time=0.01 is appended so CI can smoke-run every bench
///    in seconds. Smoke numbers are for "does it run and emit JSON", not
///    for performance comparison;
///  - the JSON context carries qmap's build stamp (StampContext).
inline int BenchMain(const char* name, int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  std::string out_flag;
  static char format_flag[] = "--benchmark_out_format=json";
  if (!has_out) {
    out_flag = std::string("--benchmark_out=BENCH_") + name + ".json";
    args.push_back(out_flag.data());
    args.push_back(format_flag);
  }
  static char min_time_flag[] = "--benchmark_min_time=0.01";
  if (std::getenv("QMAP_BENCH_SMOKE") != nullptr) {
    args.push_back(min_time_flag);
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  StampContext();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace qmap_bench

#ifdef QMAP_BENCH_COUNT_ALLOCS
// Replaceable global allocation functions (define QMAP_BENCH_COUNT_ALLOCS in
// exactly ONE translation unit of a bench binary — they are non-inline, so a
// second definition is a link error by design). Counting happens on new only;
// delete is forwarded straight to free, keeping the hot-path overhead to one
// relaxed fetch_add per allocation.
void* operator new(std::size_t size) {
  qmap_bench::AllocCounterRef().fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  qmap_bench::AllocCounterRef().fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif  // QMAP_BENCH_COUNT_ALLOCS

/// Expands to a main() that forwards to BenchMain with this bench's name
/// (used for the BENCH_<name>.json output path).
#define QMAP_BENCH_MAIN(name) \
  int main(int argc, char** argv) { return qmap_bench::BenchMain(#name, argc, argv); }

#endif  // QMAP_BENCH_BENCH_UTIL_H_
