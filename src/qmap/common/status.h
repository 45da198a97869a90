#ifndef QMAP_COMMON_STATUS_H_
#define QMAP_COMMON_STATUS_H_

#include <optional>
#include <string>
#include <utility>

namespace qmap {

/// Error categories used across the library. The library does not use C++
/// exceptions; fallible operations return Status or Result<T>.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kUnsupported,
  kParseError,
  kInternal,
  // Resilience-category codes (qmap/service/resilience.h): transient
  // per-source conditions a federated caller may retry or degrade around,
  // as opposed to the permanent errors above.
  kUnavailable,       // source down / circuit breaker open; retryable
  kDeadlineExceeded,  // per-source or per-request budget exhausted
  kCancelled,         // request cancelled (explicitly or by a parent budget)
};

/// Lightweight status object, modeled after the Status idiom used by
/// production database libraries (RocksDB, Arrow).
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status Unsupported(std::string msg) {
    return Status(StatusCode::kUnsupported, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Human-readable rendering, e.g. "ParseError: unexpected token".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Result<T> carries either a value or an error Status (a minimal StatusOr).
template <typename T>
class Result {
 public:
  // Intentionally implicit so functions can `return value;` / `return status;`.
  Result(T value) : value_(std::move(value)) {}          // NOLINT
  Result(Status status) : status_(std::move(status)) {}  // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& { return *value_; }
  T& value() & { return *value_; }
  T&& value() && { return *std::move(value_); }

  const T& operator*() const& { return *value_; }
  T& operator*() & { return *value_; }
  T&& operator*() && { return *std::move(value_); }
  const T* operator->() const { return &*value_; }
  T* operator->() { return &*value_; }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace qmap

#endif  // QMAP_COMMON_STATUS_H_
