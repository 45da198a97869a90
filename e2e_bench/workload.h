// Request generation for the end-to-end benchmark. Requests are query *text*:
// the generator never builds qmap::Query objects, so nothing is interned in
// the measured process before the request reaches ParseQuery.
#ifndef QMAP_E2E_BENCH_WORKLOAD_H_
#define QMAP_E2E_BENCH_WORKLOAD_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace e2e {

/// Attributes a0..a7 of the mediator vocabulary, values 0..3 of the small
/// domain every leaf draws from (except a cold request's nonce leaf).
inline constexpr int kNumAttrs = 8;
inline constexpr int kNumValues = 4;
/// Nonce leaves carry kNonceBase + nonce, outside the small domain.
inline constexpr int64_t kNonceBase = 1000;

/// SplitMix64 finalizer: derives independent stream seeds from one seed.
uint64_t Mix(uint64_t seed, uint64_t stream);

/// Seeded generator of query text over a0..a7.
///
/// Shape (Section 8 or tree and the dependent pair a Section 8 query spans,
/// depth, fanout, where branches end) and content (the other attributes,
/// values) come from two separate streams. The benchmark fixes
/// the shape streams and seeds only the content, so every seed measures the
/// same mix of query sizes: with Zipf popularity a handful of queries carry
/// most requests, and letting the seed pick their sizes would make the cost
/// per request depend on the seed.
///
/// A quarter of the queries have the Section 8 shape: a conjunction of 2-3
/// disjunctions whose leaves sit on one dependent attribute pair, so a
/// pair rule can only match across conjuncts and TDQM must Disjunctivize
/// and run PSafe/EDNF. The rest are alternating and/or trees of depth 2-3
/// with fanout 2-3 (leaves end a branch early with probability 1/2).
/// Siblings are never textually equal, so the text is already in the
/// normalized shape the Query constructors produce.
class QueryTextGenerator {
 public:
  QueryTextGenerator(uint64_t shape_seed, uint64_t content_seed)
      : shape_(shape_seed), content_(content_seed) {}

  /// The next query. With `nonce` >= 0 its first leaf takes the value
  /// kNonceBase + nonce, so the query differs from every query whose nonce
  /// differs.
  std::string Next(int64_t nonce = -1);

 private:
  std::string Leaf(int attr);
  std::string Tree(int depth, bool conjunctive);
  std::string Section8();
  /// Joins distinct child texts under `op`; falls back to the one child
  /// when duplicates leave a single one.
  static std::string Join(std::vector<std::string> children, const char* op);

  std::mt19937_64 shape_;
  std::mt19937_64 content_;
  int64_t pending_nonce_ = -1;
};

/// `n` distinct query texts: the hot working set of the hot/remote
/// workloads. Rank k has the same shape for every seed.
std::vector<std::string> HotSet(uint64_t seed, size_t n);

/// Zipf(s) draws over indices 0..n-1 (index 0 most popular).
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);
  size_t Draw(std::mt19937_64& rng) const;

 private:
  std::vector<double> cdf_;
};

/// The requests one client sends: Zipf(1) draws over `hot` when it is
/// non-empty, else novel queries whose k-th carries nonce nonce_base + k.
/// `stream` tells the clients (and window phases) of one run apart.
class RequestStream {
 public:
  RequestStream(uint64_t seed, uint64_t stream,
                const std::vector<std::string>& hot, int64_t nonce_base);

  /// The next request; `hot_index` is its hot-set rank (0 for novel ones).
  /// The reference stays valid until the next call.
  const std::string& Next(size_t* hot_index);

 private:
  const std::vector<std::string>& hot_;
  std::mt19937_64 rng_;
  ZipfSampler zipf_;
  QueryTextGenerator generator_;
  const int64_t nonce_base_;
  int64_t next_nonce_ = 0;
  std::string novel_;
};

}  // namespace e2e

#endif  // QMAP_E2E_BENCH_WORKLOAD_H_
