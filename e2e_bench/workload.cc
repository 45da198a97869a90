#include "workload.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <set>
#include <utility>

namespace e2e {
namespace {

// Dependent pairs of the federation's sources (S1..S5 and the chain's
// first hop); the Section 8 queries draw one of them.
constexpr std::pair<int, int> kPairs[] = {{0, 1}, {2, 3}, {4, 5}, {0, 2},
                                          {4, 6}, {1, 3}, {5, 7}};

int Uniform(std::mt19937_64& rng, int lo, int hi) {
  return std::uniform_int_distribution<int>(lo, hi)(rng);
}

// Seeds the shape streams; see QueryTextGenerator.
constexpr uint64_t kShapeSeed = 0x5eed5a9e;

}  // namespace

uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::string QueryTextGenerator::Leaf(int attr) {
  int64_t value = Uniform(content_, 0, kNumValues - 1);
  if (pending_nonce_ >= 0) {
    value = kNonceBase + pending_nonce_;
    pending_nonce_ = -1;
  }
  return "[a" + std::to_string(attr) + " = " + std::to_string(value) + "]";
}

std::string QueryTextGenerator::Join(std::vector<std::string> children,
                                     const char* op) {
  if (children.size() == 1) return children.front();
  std::string out = "(";
  for (size_t i = 0; i < children.size(); ++i) {
    if (i > 0) out += op;
    out += children[i];
  }
  return out + ")";
}

std::string QueryTextGenerator::Tree(int depth, bool conjunctive) {
  const int fanout = Uniform(shape_, 2, 3);
  std::vector<std::string> children;
  std::set<std::string> seen;
  for (int i = 0; i < fanout; ++i) {
    for (int attempt = 0; attempt < 8; ++attempt) {
      std::string child = depth > 1 && Uniform(shape_, 0, 1) == 1
                              ? Tree(depth - 1, !conjunctive)
                              : Leaf(Uniform(content_, 0, kNumAttrs - 1));
      if (seen.insert(child).second) {
        children.push_back(std::move(child));
        break;
      }
    }
  }
  return Join(std::move(children), conjunctive ? " and " : " or ");
}

std::string QueryTextGenerator::Section8() {
  const auto& [i, j] = kPairs[Uniform(shape_, 0, std::size(kPairs) - 1)];
  const int conjuncts = Uniform(shape_, 2, 3);
  std::vector<std::string> ands;
  std::set<std::string> seen_and;
  for (int c = 0; c < conjuncts; ++c) {
    const int disjuncts = Uniform(shape_, 2, 3);
    std::vector<std::string> ors;
    std::set<std::string> seen_or;
    for (int d = 0; d < disjuncts; ++d) {
      // Alternate the pair's members so every conjunct mentions both and a
      // pair rule needs constraints from two conjuncts.
      std::string leaf = Leaf((c + d) % 2 == 0 ? i : j);
      if (seen_or.insert(leaf).second) ors.push_back(std::move(leaf));
    }
    std::string child = Join(std::move(ors), " or ");
    if (seen_and.insert(child).second) ands.push_back(std::move(child));
  }
  return Join(std::move(ands), " and ");
}

std::string QueryTextGenerator::Next(int64_t nonce) {
  pending_nonce_ = nonce;
  std::string text;
  if (Uniform(shape_, 0, 3) == 0) {
    text = Section8();
  } else {
    const int depth = Uniform(shape_, 2, 3);
    text = Tree(depth, /*conjunctive=*/Uniform(shape_, 0, 3) != 0);
  }
  // The root prints without its outer parentheses.
  if (text.size() > 1 && text.front() == '(' && text.back() == ')') {
    int open = 0;
    bool outer = true;
    for (size_t k = 0; k + 1 < text.size(); ++k) {
      open += text[k] == '(' ? 1 : text[k] == ')' ? -1 : 0;
      if (open == 0) {
        outer = false;
        break;
      }
    }
    if (outer) text = text.substr(1, text.size() - 2);
  }
  return text;
}

std::vector<std::string> HotSet(uint64_t seed, size_t n) {
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (size_t k = 0; k < n; ++k) {
    // A duplicate redraws the content under the same shape.
    for (uint64_t attempt = 0;; ++attempt) {
      QueryTextGenerator generator(Mix(kShapeSeed, 0x6807 + k),
                                   Mix(seed, 0x6807 + k + attempt * n));
      std::string text = generator.Next();
      if (seen.insert(text).second) {
        out.push_back(std::move(text));
        break;
      }
    }
  }
  return out;
}

ZipfSampler::ZipfSampler(size_t n, double s) {
  cdf_.reserve(n);
  double total = 0;
  for (size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::Draw(std::mt19937_64& rng) const {
  const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                          cdf_.size() - 1);
}

}  // namespace e2e

namespace e2e {

RequestStream::RequestStream(uint64_t seed, uint64_t stream,
                             const std::vector<std::string>& hot,
                             int64_t nonce_base)
    : hot_(hot),
      rng_(Mix(seed, 0x100 + stream)),
      zipf_(hot.empty() ? 1 : hot.size(), 1.0),
      generator_(Mix(kShapeSeed, 0x200 + stream), Mix(seed, 0x200 + stream)),
      nonce_base_(nonce_base) {}

const std::string& RequestStream::Next(size_t* hot_index) {
  if (!hot_.empty()) {
    *hot_index = zipf_.Draw(rng_);
    return hot_[*hot_index];
  }
  *hot_index = 0;
  novel_ = generator_.Next(nonce_base_ + next_nonce_++);
  return novel_;
}

}  // namespace e2e
