// Lightweight Status / Result<T> error handling for yieldhide.
//
// Hot paths in this library never throw; fallible operations return a Status
// or a Result<T> (a tagged union of T and Status). Mirrors the style of
// absl::Status / zx::result without pulling in either dependency.
#ifndef YIELDHIDE_SRC_COMMON_STATUS_H_
#define YIELDHIDE_SRC_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <variant>

namespace yieldhide {

enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kOutOfRange = 3,
  kFailedPrecondition = 4,
  kInternal = 7,
  kUnavailable = 8,
  kResourceExhausted = 9,
};

// Human-readable name of a status code ("OK", "INVALID_ARGUMENT", ...).
const char* StatusCodeName(StatusCode code);

// A success-or-error value carrying a code and an optional message.
class [[nodiscard]] Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // Full "CODE: message" rendering.
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

Status InvalidArgumentError(std::string message);
Status NotFoundError(std::string message);
Status OutOfRangeError(std::string message);
Status FailedPreconditionError(std::string message);
Status InternalError(std::string message);
Status UnavailableError(std::string message);
Status ResourceExhaustedError(std::string message);

// Result<T>: either a value of type T or a non-OK Status.
template <typename T>
class [[nodiscard]] Result {
 public:
  // Implicit construction from a value or an error, matching absl::StatusOr.
  Result(T value) : payload_(std::move(value)) {}
  Result(Status status) : payload_(std::move(status)) {
    assert(!std::get<Status>(payload_).ok() &&
           "Result<T> must not be constructed from an OK status");
  }

  bool ok() const { return std::holds_alternative<T>(payload_); }

  const Status& status() const {
    static const Status kOk;
    if (ok()) {
      return kOk;
    }
    return std::get<Status>(payload_);
  }

  T& value() & {
    assert(ok());
    return std::get<T>(payload_);
  }
  const T& value() const& {
    assert(ok());
    return std::get<T>(payload_);
  }
  T&& value() && {
    assert(ok());
    return std::get<T>(std::move(payload_));
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  std::variant<T, Status> payload_;
};

// Propagates errors out of the calling function (which must return Status or
// Result<...>).
#define YH_RETURN_IF_ERROR(expr)                  \
  do {                                            \
    ::yieldhide::Status yh_status_ = (expr);      \
    if (!yh_status_.ok()) return yh_status_;      \
  } while (0)

// Assigns the value of a Result<T> expression to `lhs`, propagating errors.
#define YH_ASSIGN_OR_RETURN(lhs, expr)            \
  YH_ASSIGN_OR_RETURN_IMPL_(                      \
      YH_STATUS_CONCAT_(yh_result_, __LINE__), lhs, expr)

#define YH_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                              \
  if (!tmp.ok()) return tmp.status();             \
  lhs = std::move(tmp).value()

#define YH_STATUS_CONCAT_(a, b) YH_STATUS_CONCAT_IMPL_(a, b)
#define YH_STATUS_CONCAT_IMPL_(a, b) a##b

}  // namespace yieldhide

#endif  // YIELDHIDE_SRC_COMMON_STATUS_H_
