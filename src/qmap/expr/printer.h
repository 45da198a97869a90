#ifndef QMAP_EXPR_PRINTER_H_
#define QMAP_EXPR_PRINTER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "qmap/expr/query.h"

namespace qmap {

/// Renders `query` in the concrete syntax accepted by ParseQuery — `and`/
/// `or` keywords and function-style value literals (`date(1997, 5)`,
/// `range(10, 30)`, `point(10, 20)`) instead of the pretty ∧/∨ and `May/97`
/// forms of Query::ToString().  Guaranteed round-trip:
/// ParseQuery(ToParseableText(q)) == q for every normalized query.
std::string ToParseableText(const Query& query);

/// Appends ToParseableText(query) to `*out`: the one renderer, building no
/// temporary strings, so a caller encoding a message renders in place.
void AppendParseableText(const Query& query, std::string* out);

/// RenderMemo's bounds, the same as the parse memo's (parser.h): slots in
/// its direct-mapped table, a power of two so a node's slot is the low bits
/// of its fingerprint, and the longest text it admits.
inline constexpr size_t kRenderMemoSlots = size_t{1} << 12;
inline constexpr size_t kRenderMemoMaxTextBytes = size_t{2} << 10;

/// A memo from query node to its parseable text, the mirror of ParseQuery's
/// text memo (DESIGN.md §9), for a caller that renders the same nodes again
/// and again: a wire worker encoding replies out of its RAM cache. The table
/// is direct-mapped, keyed by node identity, with the slot taken from the
/// node's fingerprint. A node is admitted only on its second sighting in its
/// slot; the first only marks the slot, so a node rendered once pins
/// nothing. An admitted slot holds a handle to its node, so no other node
/// can take that identity while the slot names it, plus the text, until
/// another node's second sighting replaces it. A text over
/// kRenderMemoMaxTextBytes is never admitted, so the memo holds at most
/// kRenderMemoSlots texts of at most that size.
///
/// One owner renders through it; it is not thread-safe. Its hit and miss
/// counts may be read from any thread.
class RenderMemo {
 public:
  RenderMemo() = default;
  RenderMemo(const RenderMemo&) = delete;
  RenderMemo& operator=(const RenderMemo&) = delete;

  /// Appends exactly the bytes AppendParseableText(query, out) would.
  void Append(const Query& query, std::string* out);

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

 private:
  struct Entry {
    Query query;
    std::string text;
  };

  // Allocated on the first render, the entries on the first admission.
  std::unique_ptr<uint32_t[]> marks_;
  std::unique_ptr<std::unique_ptr<Entry>[]> entries_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

/// Same for a single constraint.
std::string ToParseableText(const Constraint& constraint);

/// Parseable rendering of a value (`"s"`, `3`, `date(1997, 5)`, ...).
std::string ToParseableText(const Value& value);

}  // namespace qmap

#endif  // QMAP_EXPR_PRINTER_H_
