// Status: lightweight error propagation without exceptions, in the style of
// LevelDB/absl. Functions that can fail return a Status (or a Result<T>); the
// OK path carries no allocation.
#ifndef SRC_COMMON_STATUS_H_
#define SRC_COMMON_STATUS_H_

#include <cstdint>
#include <string>
#include <utility>

namespace flowkv {

enum class StatusCode : uint8_t {
  kOk = 0,
  kNotFound = 1,
  kInvalidArgument = 2,
  kIOError = 3,
  kCorruption = 4,
  kResourceExhausted = 5,
  kFailedPrecondition = 6,
  kUnimplemented = 7,
  kInternal = 8,
  // Network-specific codes (src/net): a deadline expired while waiting on a
  // peer, or the peer went away mid-conversation. Distinct from kIOError so
  // callers can retry/reconnect without pattern-matching message strings.
  kTimedOut = 9,
  kConnectionReset = 10,
  // The server refused the request before executing any of it because a
  // shard's queue is over its bound. Unlike kTimedOut, an overloaded request
  // is guaranteed un-applied, so retrying after backoff is always safe.
  kOverloaded = 11,
  // The server refused a mutating batch before executing any of it because
  // of cluster-epoch fencing (docs/NETWORK.md "Cluster roles, epochs, and
  // failover"): the server is a standby / has been fenced, or the request's
  // epoch does not match the server's. Like kOverloaded the batch is
  // guaranteed un-applied; clients re-poll kClusterInfo across their
  // endpoint list, adopt the newest epoch, and retry against the primary.
  kFencedOff = 12,
};

// Human-readable name of a status code ("OK", "NotFound", ...).
const char* StatusCodeName(StatusCode code);

// [[nodiscard]]: a Status that is neither checked nor explicitly ignored is
// a bug, and the build compiles with -Werror=unused-result, so dropping one
// fails to compile (tests/dropped_status.cc). Call sites that legitimately
// drop a Status (best-effort cleanup on an already-failing path) must say so
// with IgnoreError(), which documents the decision at the call site.
class [[nodiscard]] Status {
 public:
  Status() : code_(StatusCode::kOk) {}

  static Status Ok() { return Status(); }
  static Status NotFound(std::string msg = "") {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status InvalidArgument(std::string msg = "") {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status IOError(std::string msg = "") {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Corruption(std::string msg = "") {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg = "") {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg = "") {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Unimplemented(std::string msg = "") {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg = "") {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status TimedOut(std::string msg = "") {
    return Status(StatusCode::kTimedOut, std::move(msg));
  }
  static Status ConnectionReset(std::string msg = "") {
    return Status(StatusCode::kConnectionReset, std::move(msg));
  }
  static Status Overloaded(std::string msg = "") {
    return Status(StatusCode::kOverloaded, std::move(msg));
  }
  static Status FencedOff(std::string msg = "") {
    return Status(StatusCode::kFencedOff, std::move(msg));
  }

  // Rebuilds a Status from a (code, message) pair received over the wire.
  // Unknown numeric codes map to kInternal so a newer peer cannot make an
  // older client misreport success.
  static Status FromCode(uint8_t code, std::string msg);

  // Wraps the current errno into an IOError status with context.
  static Status FromErrno(const std::string& context);

  bool ok() const { return code_ == StatusCode::kOk; }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsIOError() const { return code_ == StatusCode::kIOError; }
  bool IsCorruption() const { return code_ == StatusCode::kCorruption; }
  bool IsResourceExhausted() const { return code_ == StatusCode::kResourceExhausted; }
  bool IsFailedPrecondition() const { return code_ == StatusCode::kFailedPrecondition; }
  bool IsTimedOut() const { return code_ == StatusCode::kTimedOut; }
  bool IsConnectionReset() const { return code_ == StatusCode::kConnectionReset; }
  bool IsOverloaded() const { return code_ == StatusCode::kOverloaded; }
  bool IsFencedOff() const { return code_ == StatusCode::kFencedOff; }

  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "NotFound: key missing" style rendering for logs and tests.
  std::string ToString() const;

  // Explicitly discards this Status. The only sanctioned way to drop one:
  // it defeats [[nodiscard]], so every use should carry a comment saying why
  // failure is acceptable.
  void IgnoreError() const {}

  bool operator==(const Status& other) const { return code_ == other.code_; }

 private:
  Status(StatusCode code, std::string msg) : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

// Evaluates `expr`; if the resulting Status is not OK, returns it from the
// enclosing function. The enclosing function must return Status.
#define FLOWKV_RETURN_IF_ERROR(expr)          \
  do {                                        \
    ::flowkv::Status _s = (expr);             \
    if (!_s.ok()) {                           \
      return _s;                              \
    }                                         \
  } while (0)

}  // namespace flowkv

#endif  // SRC_COMMON_STATUS_H_
