#ifndef OLAP_COMMON_CANCELLATION_H_
#define OLAP_COMMON_CANCELLATION_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/status.h"

namespace olap {

// Cooperative cancellation for long-running query work.
//
// A CancellationSource owns the stop signal; the CancellationToken it hands
// out is a cheap copyable view that worker code polls at work-unit
// granularity (a chunk, a row block, a retry attempt). Nothing is ever
// interrupted preemptively — code that observes a stop request unwinds by
// returning Status::Cancelled / Status::DeadlineExceeded, which is what
// keeps every exit path ordinary C++ control flow (locks released by RAII,
// trace spans closed by destructors, no orphaned pool tasks).
//
// Three ways a token can trip:
//   * CancellationSource::RequestCancel()      — explicit, e.g. a client
//                                                disconnect;
//   * a deadline set via SetDeadlineAfter()    — latched on the first poll
//                                                past the deadline;
//   * a chained parent token tripping          — a per-query source built
//                                                over a per-session token.
// The first observed reason wins and is sticky.
//
// Determinism hook: CancelAfterPolls(n) trips the token on the n-th poll.
// Fuzz tests use it to place cancellation at exact work-unit boundaries
// without racing wall-clock timers.
//
// A default-constructed token is the "never cancelled" token: every check
// is a single branch on a null pointer, so unconditioned call sites can
// thread tokens through without a fast-path cost.

enum class CancelReason : int {
  kNone = 0,
  kCancelled = 1,
  kDeadlineExceeded = 2,
};

namespace cancel_internal {
struct CancelState;
}  // namespace cancel_internal

class CancellationToken {
 public:
  // The never-cancelled token.
  CancellationToken() = default;

  // True when this token can actually trip (it came from a source).
  bool valid() const { return state_ != nullptr; }

  // Polls the stop signal. Counts one poll (for CancelAfterPolls), latches
  // an expired deadline, and consults the chained parent. Cheap enough for
  // per-work-unit use.
  bool ShouldStop() const;

  // ShouldStop() expressed as a Status: Ok, or Cancelled /
  // DeadlineExceeded once tripped. `what` names the abandoned work in the
  // status message (may be null).
  Status Poll(const char* what = nullptr) const;

  // The sticky reason (kNone while running). Does not count a poll.
  CancelReason reason() const;

  // Blocks for up to `seconds`, waking early when the token trips.
  // Returns true iff a stop was requested. On the never-cancelled token
  // this is a plain uninterruptible sleep.
  bool WaitFor(double seconds) const;

  // Total polls observed so far (0 for the never-cancelled token). Fuzz
  // tests measure a run's poll count to bound CancelAfterPolls.
  int64_t polls() const;

 private:
  friend class CancellationSource;
  explicit CancellationToken(
      std::shared_ptr<cancel_internal::CancelState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<cancel_internal::CancelState> state_;
};

class CancellationSource {
 public:
  CancellationSource();
  // Chains to `parent`: this source's token also stops (with the parent's
  // reason) once `parent` trips. An invalid parent is ignored.
  explicit CancellationSource(const CancellationToken& parent);

  // Trips the token with kCancelled (first reason wins; idempotent).
  void RequestCancel();

  // Arms a deadline `seconds` from now (steady clock). The token trips
  // with kDeadlineExceeded on the first poll or wait past the deadline.
  void SetDeadlineAfter(double seconds);

  // Fraction of the armed deadline already elapsed (0 when no deadline).
  double DeadlineFractionElapsed() const;

  // Deterministic test hook: trip with kCancelled on the n-th poll from
  // now (n <= 0 trips on the next poll).
  void CancelAfterPolls(int64_t n);

  const CancellationToken& token() const { return token_; }

 private:
  std::shared_ptr<cancel_internal::CancelState> state_;
  CancellationToken token_;
};

}  // namespace olap

#endif  // OLAP_COMMON_CANCELLATION_H_
