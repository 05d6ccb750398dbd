#ifndef OLAP_STORAGE_RETRY_H_
#define OLAP_STORAGE_RETRY_H_

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "common/cancellation.h"
#include "common/rng.h"
#include "common/status.h"

namespace olap {

// Bounded retry with decorrelated-jitter backoff for transient storage
// faults. Only kUnavailable and kResourceExhausted are retried — a
// kDataLoss or kInvalidArgument will return the same answer however often
// it is asked.
//
// Backoff schedule: with jitter enabled (the default), attempt i sleeps
//   sleep_i = min(max_backoff, uniform(initial_backoff, 3 * sleep_{i-1}))
// with sleep_0 = initial_backoff — the "decorrelated jitter" scheme, which
// keeps concurrent retriers from re-colliding in synchronized waves the
// way pure exponential backoff does. With jitter disabled the legacy
// deterministic schedule initial * multiplier^i (capped) applies.
//
// Sleeps honor a CancellationToken: a cancelled caller stops waiting
// immediately and CallWithRetry returns kCancelled / kDeadlineExceeded
// instead of burning the remaining attempts.
//
// The clock is injected so tests assert the backoff schedule without
// sleeping: CallWithRetry(policy, &fake_clock, op).

struct RetryPolicy {
  int max_attempts = 3;                   // Total attempts, including the first.
  double initial_backoff_seconds = 0.01;  // Sleep before the second attempt.
  double backoff_multiplier = 2.0;        // Used only when jitter is off.
  double max_backoff_seconds = 1.0;
  // Decorrelated jitter (see file comment). Disable for a deterministic
  // exponential schedule.
  bool decorrelated_jitter = true;
  // Seed for the jitter draws; 0 picks a distinct per-call seed from a
  // process-wide sequence (deterministic within a process run). Tests pin
  // a nonzero seed to assert an exact schedule.
  uint64_t jitter_seed = 0;
};

inline bool IsRetriable(StatusCode code) {
  return code == StatusCode::kUnavailable ||
         code == StatusCode::kResourceExhausted;
}

class Clock {
 public:
  virtual ~Clock() = default;
  virtual void SleepFor(double seconds) = 0;
  // Sleeps up to `seconds` but wakes early if `cancel` trips; returns true
  // iff the sleep was interrupted. The base implementation ignores the
  // token (one uncancellable full sleep) so fake clocks that only record
  // durations keep working; Clock::Real() waits on the token.
  virtual bool SleepInterruptible(double seconds,
                                  const CancellationToken& cancel) {
    (void)cancel;
    SleepFor(seconds);
    return false;
  }
  // The process-wide wall clock (never null, never deleted).
  static Clock* Real();
};

namespace retry_internal {
inline StatusCode CodeOf(const Status& s) { return s.code(); }
template <typename T>
StatusCode CodeOf(const Result<T>& r) {
  return r.ok() ? StatusCode::kOk : r.status().code();
}

// Process-wide seed sequence for jitter_seed == 0: distinct per call,
// reproducible within a run (no wall-clock entropy).
inline uint64_t NextAutoSeed() {
  static std::atomic<uint64_t> counter{0x9e3779b97f4a7c15ULL};
  return counter.fetch_add(0x2545f4914f6cdd1dULL, std::memory_order_relaxed);
}
}  // namespace retry_internal

// Invokes `op` (returning Status or Result<T>) up to policy.max_attempts
// times, sleeping between attempts while the outcome is retriable. Returns
// the first success, the last failure, or the cancellation status if
// `cancel` trips during a backoff sleep.
template <typename F>
auto CallWithRetry(const RetryPolicy& policy, Clock* clock, F&& op,
                   const CancellationToken& cancel = {}) -> decltype(op()) {
  const int max_attempts = std::max(1, policy.max_attempts);
  Rng rng(policy.jitter_seed != 0 ? policy.jitter_seed
                                  : retry_internal::NextAutoSeed());
  double backoff = policy.initial_backoff_seconds;
  double prev_sleep = policy.initial_backoff_seconds;
  for (int attempt = 1;; ++attempt) {
    auto outcome = op();
    if (retry_internal::CodeOf(outcome) == StatusCode::kOk ||
        attempt >= max_attempts ||
        !IsRetriable(retry_internal::CodeOf(outcome))) {
      return outcome;
    }
    double sleep = backoff;
    if (policy.decorrelated_jitter) {
      const double lo = policy.initial_backoff_seconds;
      const double hi = std::max(lo, 3.0 * prev_sleep);
      sleep = std::min(policy.max_backoff_seconds,
                       lo + (hi - lo) * rng.NextDouble());
      prev_sleep = sleep;
    } else {
      backoff = std::min(backoff * policy.backoff_multiplier,
                         policy.max_backoff_seconds);
    }
    if (clock->SleepInterruptible(sleep, cancel) || cancel.ShouldStop()) {
      return cancel.Poll("retry backoff");
    }
  }
}

}  // namespace olap

#endif  // OLAP_STORAGE_RETRY_H_
