// Status / StatusOr: lightweight, exception-free error handling in the style
// used by large C++ database codebases (Arrow, RocksDB).
#ifndef MMJOIN_UTIL_STATUS_H_
#define MMJOIN_UTIL_STATUS_H_

#include <cassert>
#include <string>
#include <utility>
#include <variant>

namespace mmjoin {

/// Error categories used across the library.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kNotFound,
  kAlreadyExists,
  kResourceExhausted,
  kIOError,
  kInternal,
  kUnimplemented,
  kCorruption,  ///< data disagrees with its own metadata
};

/// Returns a human-readable name for a StatusCode (e.g. "InvalidArgument").
const char* StatusCodeName(StatusCode code);

/// A success-or-error result. Cheap to copy on the success path (no
/// allocation); carries a message only on error.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// Constructs a status with the given code and message.
  Status(StatusCode code, std::string msg)
      : code_(code), msg_(std::move(msg)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const { return code_ == other.code_; }

 private:
  StatusCode code_;
  std::string msg_;
};

/// A value or an error. `ok()` must be checked before dereferencing.
template <typename T>
class StatusOr {
 public:
  StatusOr(T value) : rep_(std::move(value)) {}  // NOLINT(runtime/explicit)
  StatusOr(Status status)                        // NOLINT(runtime/explicit)
      : rep_(std::move(status)) {
    assert(!std::get<Status>(rep_).ok() && "StatusOr constructed from OK");
  }

  bool ok() const { return std::holds_alternative<T>(rep_); }

  const Status& status() const {
    static const Status kOk;
    return ok() ? kOk : std::get<Status>(rep_);
  }

  T& value() & {
    assert(ok());
    return std::get<T>(rep_);
  }
  const T& value() const& {
    assert(ok());
    return std::get<T>(rep_);
  }
  T&& value() && {
    assert(ok());
    return std::move(std::get<T>(rep_));
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  std::variant<Status, T> rep_;
};

/// Propagates an error Status out of the current function.
#define MMJOIN_RETURN_NOT_OK(expr)          \
  do {                                      \
    ::mmjoin::Status _st = (expr);          \
    if (!_st.ok()) return _st;              \
  } while (0)

/// Assigns the value of a StatusOr expression or propagates its error.
#define MMJOIN_ASSIGN_OR_RETURN(lhs, expr)       \
  auto MMJOIN_CONCAT_(_sor_, __LINE__) = (expr); \
  if (!MMJOIN_CONCAT_(_sor_, __LINE__).ok())     \
    return MMJOIN_CONCAT_(_sor_, __LINE__).status(); \
  lhs = std::move(MMJOIN_CONCAT_(_sor_, __LINE__)).value()

#define MMJOIN_CONCAT_INNER_(a, b) a##b
#define MMJOIN_CONCAT_(a, b) MMJOIN_CONCAT_INNER_(a, b)

}  // namespace mmjoin

#endif  // MMJOIN_UTIL_STATUS_H_
