#include "qmap/expr/parser.h"

#include <bit>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "qmap/common/fnv.h"
#include "qmap/expr/intern.h"

namespace qmap {
namespace {

// What a thread keeps between parses; a larger input frees its buffers on
// the way out.
constexpr size_t kKeepTokenBytes = size_t{16} << 10;
constexpr size_t kKeepOperands = 256;

// A direct-mapped memo from query text to the interned Query that text
// parsed to, one per thread. A text is admitted only the second time it
// lands in its slot: the first sighting only marks the slot with the text's
// hash, so a text parsed once pins nothing. An admitted text stays until
// another text's second sighting in its slot replaces it. The marks are
// allocated on the thread's first noted parse, the entries on its first
// admission.
class ParseMemo {
 public:
  // The query `text` (whose WordHash64 is `hash`) parsed to earlier on this
  // thread, if the memo holds it.
  const Query* Find(uint64_t hash, std::string_view text) const {
    if (entries_ == nullptr) return nullptr;
    const Entry* entry = entries_[Slot(hash)].get();
    if (entry == nullptr || entry->hash != hash || entry->text != text) {
      return nullptr;
    }
    return &entry->query;
  }

  // Notes that `text` parsed to `query`: marks its slot on a first sighting
  // and admits it on a second.
  void Note(uint64_t hash, std::string_view text, const Query& query) {
    if (marks_ == nullptr) {
      marks_ = std::make_unique<uint32_t[]>(kParseMemoSlots);
    }
    const size_t slot = Slot(hash);
    // Never 0, the mark of a slot nothing has landed in.
    const uint32_t mark = static_cast<uint32_t>(hash >> 32) | 1;
    if (marks_[slot] != mark) {
      marks_[slot] = mark;
      return;
    }
    if (entries_ == nullptr) {
      entries_ = std::make_unique<std::unique_ptr<Entry>[]>(kParseMemoSlots);
    }
    std::unique_ptr<Entry>& entry = entries_[slot];
    if (entry == nullptr) entry = std::make_unique<Entry>();
    entry->hash = hash;
    entry->text.assign(text);
    entry->query = query;
  }

 private:
  struct Entry {
    uint64_t hash = 0;
    std::string text;
    Query query;
  };

  // The top bits of the hash times the golden ratio (Fibonacci hashing),
  // which depend on every bit of the hash: WordHash64's own low bits never
  // see the top bytes of a text's last word, and its top bits spread texts
  // that differ in a few digits over too few slots.
  static size_t Slot(uint64_t hash) {
    constexpr int kShift = 64 - std::countr_zero(kParseMemoSlots);
    return static_cast<size_t>((hash * 0x9E3779B97F4A7C15ull) >> kShift);
  }

  std::unique_ptr<uint32_t[]> marks_;
  std::unique_ptr<std::unique_ptr<Entry>[]> entries_;
};

// Whether `v` lies in T's range, so that casting it to T is defined. T's
// minimum is a power of two, so both bounds are exact doubles.
template <typename T>
bool Fits(double v) {
  constexpr double kMin = static_cast<double>(std::numeric_limits<T>::min());
  return v >= kMin && v < -kMin;
}

Status OutOfRange(const Token& t) {
  std::string message = "number ";
  message.append(t.text);
  return Status::ParseError(message + " out of range at offset " +
                            std::to_string(t.offset));
}

// Recursive descent over one cursor. And/Or collect their operands on
// `operands`, a stack shared by the nested calls: each call pushes above
// its caller's operands and pops back before it returns, so its own
// operands are contiguous when it hands them to Query::And/Or as a span.
class QueryParser {
 public:
  QueryParser(TokenCursor& cursor, std::vector<Query>& operands)
      : cursor_(cursor), operands_(operands) {}

  // The whole input as one query.
  Result<Query> Whole() {
    Result<Query> q = Or();
    if (q.ok() && !cursor_.AtEnd()) {
      std::string message = "trailing input after query: '";
      message.append(cursor_.Peek().text);
      return Status::ParseError(message + "'");
    }
    return q;
  }

 private:
  Result<Query> Or() { return Connected(NodeKind::kOr); }

  Result<Query> Primary() {
    if (cursor_.TryConsumePunct("(")) {
      Result<Query> inner = Or();
      if (!inner.ok()) return inner.status();
      Status s = cursor_.ExpectPunct(")");
      if (!s.ok()) return s;
      return inner;
    }
    if (cursor_.TryConsumeIdent("true")) return Query::True();
    const Token& t = cursor_.Peek();
    if (t.kind == TokenKind::kPunct && t.text == "[") {
      Result<Constraint> c = ParseConstraintAt(cursor_);
      if (!c.ok()) return c.status();
      return Query::Leaf(*std::move(c));
    }
    std::string message = "expected '(', '[' or 'true' but found '";
    message.append(t.text);
    return Status::ParseError(message + "' at offset " +
                              std::to_string(t.offset));
  }

  // An `or` chain of `and` chains, or an `and` chain of primaries.
  Result<Query> Connected(NodeKind kind) {
    Result<Query> first = Operand(kind);
    if (!first.ok() || !TryConsumeConnective(kind)) return first;
    const size_t base = operands_.size();
    struct PopOnReturn {
      std::vector<Query>& stack;
      size_t base;
      ~PopOnReturn() { stack.erase(stack.begin() + base, stack.end()); }
    } pop{operands_, base};
    operands_.push_back(*std::move(first));
    do {
      Result<Query> next = Operand(kind);
      if (!next.ok()) return next;
      operands_.push_back(*std::move(next));
    } while (TryConsumeConnective(kind));
    const std::span<const Query> parts(operands_.data() + base,
                                       operands_.size() - base);
    return kind == NodeKind::kAnd ? Query::And(parts) : Query::Or(parts);
  }

  Result<Query> Operand(NodeKind kind) {
    return kind == NodeKind::kOr ? Connected(NodeKind::kAnd) : Primary();
  }

  bool TryConsumeConnective(NodeKind kind) {
    return kind == NodeKind::kAnd
               ? cursor_.TryConsumeIdent("and") || cursor_.TryConsumePunct("&")
               : cursor_.TryConsumeIdent("or") || cursor_.TryConsumePunct("|");
  }

  TokenCursor& cursor_;
  std::vector<Query>& operands_;
};

}  // namespace

bool NextIsLiteralCall(const TokenCursor& cursor) {
  const Token& t = cursor.Peek();
  return t.kind == TokenKind::kIdent &&
         (t.text == "date" || t.text == "range" || t.text == "point") &&
         cursor.Peek(1).kind == TokenKind::kPunct && cursor.Peek(1).text == "(";
}

Result<int> IntLiteral(const Token& t) {
  if (!Fits<int>(t.number)) return OutOfRange(t);
  return static_cast<int>(t.number);
}

Result<Attr> ParseAttrAt(TokenCursor& cursor) {
  Result<std::string_view> head = cursor.ExpectIdent();
  if (!head.ok()) return head.status();
  int instance = 0;
  if (cursor.TryConsumePunct("[")) {
    const Token& t = cursor.Peek();
    if (t.kind != TokenKind::kNumber || !t.is_integer) {
      return Status::ParseError("expected integer view index at offset " +
                                std::to_string(t.offset));
    }
    Result<int> index = IntLiteral(cursor.Next());
    if (!index.ok()) return index.status();
    instance = *index;
    Status s = cursor.ExpectPunct("]");
    if (!s.ok()) return s;
  }
  Attr attr;
  if (!cursor.TryConsumePunct(".")) {
    if (instance != 0) {
      return Status::ParseError("view index requires a qualified attribute");
    }
    attr.name = *head;
    return attr;
  }
  attr.view = *head;
  attr.instance = instance;
  // The components after the view join into the name: `aubib.bib`.
  do {
    Result<std::string_view> part = cursor.ExpectIdent();
    if (!part.ok()) return part.status();
    if (!attr.name.empty()) attr.name += '.';
    attr.name += *part;
  } while (cursor.TryConsumePunct("."));
  return attr;
}

Result<Op> ParseOpAt(TokenCursor& cursor) {
  const Token& t = cursor.Peek();
  if (t.kind == TokenKind::kPunct || t.kind == TokenKind::kIdent) {
    Result<Op> op = ParseOp(t.text);
    if (op.ok()) {
      cursor.Next();
      return op;
    }
  }
  std::string message = "expected operator but found '";
  message.append(t.text);
  return Status::ParseError(message + "' at offset " + std::to_string(t.offset));
}

Result<Value> ParseValueAt(TokenCursor& cursor) {
  const Token& t = cursor.Peek();
  if (t.kind == TokenKind::kString) {
    return Value::Str(std::string(cursor.Next().text));
  }
  if (t.kind == TokenKind::kNumber) {
    const Token& num = cursor.Next();
    if (!num.is_integer) return Value::Real(num.number);
    if (!Fits<int64_t>(num.number)) return OutOfRange(num);
    return Value::Int(static_cast<int64_t>(num.number));
  }
  if (NextIsLiteralCall(cursor)) {
    const std::string fn(cursor.Next().text);
    const bool is_date = fn == "date";
    cursor.Next();  // '('
    // No literal takes more than three arguments; a longer list is still
    // counted, for its arity error.
    double args[3] = {};
    size_t num_args = 0;
    while (true) {
      const Token& arg = cursor.Peek();
      if (arg.kind != TokenKind::kNumber) {
        return Status::ParseError("expected number in " + fn + "() literal");
      }
      if (is_date && !Fits<int>(arg.number)) return OutOfRange(arg);
      if (num_args < std::size(args)) args[num_args] = arg.number;
      ++num_args;
      cursor.Next();
      if (!cursor.TryConsumePunct(",")) break;
    }
    Status s = cursor.ExpectPunct(")");
    if (!s.ok()) return s;
    if (is_date) {
      if (num_args > 3) {
        return Status::ParseError("date() takes 1-3 integer arguments");
      }
      Date d;
      d.year = static_cast<int>(args[0]);
      if (num_args > 1) d.month = static_cast<int>(args[1]);
      if (num_args > 2) d.day = static_cast<int>(args[2]);
      return Value::OfDate(d);
    }
    if (num_args != 2) {
      return Status::ParseError(fn + "() takes exactly 2 arguments");
    }
    if (fn == "range") return Value::OfRange(Range{args[0], args[1]});
    return Value::OfPoint(Point{args[0], args[1]});
  }
  std::string message = "expected value literal but found '";
  message.append(t.text);
  return Status::ParseError(message + "' at offset " + std::to_string(t.offset));
}

Result<Constraint> ParseConstraintAt(TokenCursor& cursor) {
  Status s = cursor.ExpectPunct("[");
  if (!s.ok()) return s;
  Result<Attr> lhs = ParseAttrAt(cursor);
  if (!lhs.ok()) return lhs.status();
  Result<Op> op = ParseOpAt(cursor);
  if (!op.ok()) return op.status();
  Constraint c;
  c.lhs = *std::move(lhs);
  c.op = *op;
  if (cursor.Peek().kind == TokenKind::kIdent && !NextIsLiteralCall(cursor)) {
    Result<Attr> rhs = ParseAttrAt(cursor);
    if (!rhs.ok()) return rhs.status();
    c.rhs = *std::move(rhs);
  } else {
    Result<Value> rhs = ParseValueAt(cursor);
    if (!rhs.ok()) return rhs.status();
    c.rhs = *std::move(rhs);
  }
  s = cursor.ExpectPunct("]");
  if (!s.ok()) return s;
  return c;
}

Result<Query> ParseQuery(std::string_view text) {
  // Nothing a parse calls parses again, so one scratch per thread suffices.
  thread_local TokenCursor cursor;
  thread_local std::vector<Query> operands;
  thread_local ParseMemo memo;
  // With interning off a parse must build fresh nodes, so the memo is
  // neither read nor written and nothing is counted.
  const bool interning = QueryInternEnabled();
  const bool memoize = interning && text.size() <= kParseMemoMaxTextBytes;
  const uint64_t hash = memoize ? WordHash64(text) : 0;
  if (memoize) {
    if (const Query* hit = memo.Find(hash, text)) {
      CountParseMemo(/*hit=*/true);
      return *hit;
    }
  }
  if (interning) CountParseMemo(/*hit=*/false);
  Status s = cursor.Reset(text);
  Result<Query> q = s.ok() ? QueryParser(cursor, operands).Whole() : s;
  cursor.Release(kKeepTokenBytes);
  if (operands.capacity() > kKeepOperands) std::vector<Query>().swap(operands);
  if (memoize && q.ok()) memo.Note(hash, text, *q);
  return q;
}

Result<Constraint> ParseConstraint(std::string_view text) {
  TokenCursor cursor;
  Status s = cursor.Reset(text);
  if (!s.ok()) return s;
  Result<Constraint> c = ParseConstraintAt(cursor);
  if (!c.ok()) return c;
  if (!cursor.AtEnd()) {
    return Status::ParseError("trailing input after constraint");
  }
  return c;
}

}  // namespace qmap
