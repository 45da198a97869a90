#ifndef QMAP_COMMON_FNV_H_
#define QMAP_COMMON_FNV_H_

#include <bit>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace qmap {

/// Incremental FNV-1a 64-bit hasher — the fingerprint primitive of the
/// interned query IR (see DESIGN.md §9).  All canonical hashes in the
/// library (Value/Attr::CanonicalHash, Constraint/Query fingerprints, memo
/// and cache keys) are built from this one stream so that equal inputs hash
/// equal across layers, processes, and the intern on/off toggle.
class Fnv64 {
 public:
  static constexpr uint64_t kOffsetBasis = 1469598103934665603ull;
  static constexpr uint64_t kPrime = 1099511628211ull;

  Fnv64& AddByte(unsigned char c) {
    h_ ^= c;
    h_ *= kPrime;
    return *this;
  }

  Fnv64& Add(std::string_view s) {
    for (unsigned char c : s) AddByte(c);
    return *this;
  }

  /// Folds in the decimal digits of `v`, the bytes printf's "%lld" and
  /// std::to_string render for it.
  Fnv64& AddDecimal(int64_t v) {
    char buf[24];
    const char* end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
    return Add(std::string_view(buf, static_cast<size_t>(end - buf)));
  }

  /// Folds a finished 64-bit hash (or any integer tag) into the stream as
  /// eight little-endian bytes.  Used to combine sub-fingerprints (e.g. a
  /// query node mixes its children's fingerprints) without re-hashing the
  /// text they summarize.
  Fnv64& AddU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) AddByte(static_cast<unsigned char>(v >> (8 * i)));
    return *this;
  }

  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = kOffsetBasis;
};

/// One-shot FNV-1a 64 of a byte string.
inline uint64_t Fnv64Hash(std::string_view s) { return Fnv64().Add(s).value(); }

/// One-shot 64-bit hash of a byte string that walks it a word at a time:
/// each 64-bit word, loaded little-endian so every host agrees, is folded in
/// as h = (h ^ w) * 0x9E3779B97F4A7C15, h ^= h >> 32, and the trailing bytes
/// as FNV-1a steps. Every step is a bijection of h for a fixed input, so a
/// change confined to one word or one byte always changes the result. About
/// eight times fewer multiplies than Fnv64Hash on long inputs; for hashes
/// that live only in memory or on the wire (frame checksums, the parse
/// memo). Fingerprints and the record log keep Fnv64, whose values are
/// persisted. Its low bits never see the top bytes of the last whole word,
/// so a table indexed by it takes its slot from the top bits of the hash
/// times an odd constant, as the parse memo does.
inline uint64_t WordHash64(std::string_view s) {
  uint64_t h = Fnv64::kOffsetBasis;
  size_t i = 0;
  for (; i + 8 <= s.size(); i += 8) {
    uint64_t w;
    std::memcpy(&w, s.data() + i, sizeof(w));
    if constexpr (std::endian::native == std::endian::big) {
      w = __builtin_bswap64(w);
    }
    h = (h ^ w) * 0x9E3779B97F4A7C15ull;
    h ^= h >> 32;
  }
  for (; i < s.size(); ++i) {
    h ^= static_cast<unsigned char>(s[i]);
    h *= Fnv64::kPrime;
  }
  return h;
}

}  // namespace qmap

#endif  // QMAP_COMMON_FNV_H_
