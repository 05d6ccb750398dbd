#include "storage/retry.h"

#include <gtest/gtest.h>

#include "support/fake_clock.h"

namespace olap {
namespace {

TEST(RetryTest, SuccessOnFirstAttemptNeverSleeps) {
  FakeClock clock;
  int calls = 0;
  Status s = CallWithRetry(RetryPolicy{}, &clock, [&] {
    ++calls;
    return Status::Ok();
  });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(clock.sleeps().empty());
}

TEST(RetryTest, TransientFaultsAreRetriedWithExponentialBackoff) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff_seconds = 0.01;
  policy.backoff_multiplier = 2.0;
  policy.decorrelated_jitter = false;  // Assert the deterministic schedule.
  FakeClock clock;
  int calls = 0;
  Status s = CallWithRetry(policy, &clock, [&] {
    return ++calls < 4 ? Status::Unavailable("blip") : Status::Ok();
  });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 4);
  ASSERT_EQ(clock.sleeps().size(), 3u);
  EXPECT_DOUBLE_EQ(clock.sleeps()[0], 0.01);
  EXPECT_DOUBLE_EQ(clock.sleeps()[1], 0.02);
  EXPECT_DOUBLE_EQ(clock.sleeps()[2], 0.04);
}

TEST(RetryTest, BackoffIsCapped) {
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.initial_backoff_seconds = 0.5;
  policy.backoff_multiplier = 10.0;
  policy.max_backoff_seconds = 1.0;
  policy.decorrelated_jitter = false;
  FakeClock clock;
  Status s = CallWithRetry(policy, &clock,
                           [] { return Status::ResourceExhausted("full"); });
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  ASSERT_EQ(clock.sleeps().size(), 5u);
  EXPECT_DOUBLE_EQ(clock.sleeps()[0], 0.5);
  for (size_t i = 1; i < clock.sleeps().size(); ++i) {
    EXPECT_DOUBLE_EQ(clock.sleeps()[i], 1.0);
  }
}

TEST(RetryTest, PermanentErrorsAreNotRetried) {
  FakeClock clock;
  int calls = 0;
  Status s = CallWithRetry(RetryPolicy{}, &clock, [&] {
    ++calls;
    return Status::DataLoss("rot");
  });
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(clock.sleeps().empty());
}

TEST(RetryTest, ExhaustionReturnsTheLastTransientError) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  FakeClock clock;
  int calls = 0;
  Status s = CallWithRetry(policy, &clock, [&] {
    ++calls;
    return Status::Unavailable("still down");
  });
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(clock.sleeps().size(), 2u);
}

TEST(RetryTest, WorksWithResultValues) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  FakeClock clock;
  int calls = 0;
  Result<int> r = CallWithRetry(policy, &clock, [&]() -> Result<int> {
    if (++calls < 2) return Status::Unavailable("blip");
    return 42;
  });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(clock.sleeps().size(), 1u);
}

TEST(RetryTest, IsRetriableClassification) {
  EXPECT_TRUE(IsRetriable(StatusCode::kUnavailable));
  EXPECT_TRUE(IsRetriable(StatusCode::kResourceExhausted));
  EXPECT_FALSE(IsRetriable(StatusCode::kOk));
  EXPECT_FALSE(IsRetriable(StatusCode::kDataLoss));
  EXPECT_FALSE(IsRetriable(StatusCode::kNotFound));
  EXPECT_FALSE(IsRetriable(StatusCode::kInternal));
}

TEST(RetryTest, MaxAttemptsBelowOneStillRunsOnce) {
  RetryPolicy policy;
  policy.max_attempts = 0;
  FakeClock clock;
  int calls = 0;
  Status s = CallWithRetry(policy, &clock, [&] {
    ++calls;
    return Status::Unavailable("x");
  });
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(s.ok());
}

// ---- decorrelated jitter --------------------------------------------------

std::vector<double> JitteredSchedule(uint64_t seed, int attempts) {
  RetryPolicy policy;
  policy.max_attempts = attempts;
  policy.initial_backoff_seconds = 0.01;
  policy.max_backoff_seconds = 1.0;
  policy.jitter_seed = seed;
  FakeClock clock;
  Status s = CallWithRetry(policy, &clock,
                           [] { return Status::Unavailable("down"); });
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  return clock.sleeps();
}

TEST(RetryJitterTest, SleepsStayWithinDecorrelatedBounds) {
  // sleep_i in [initial, min(cap, 3 * sleep_{i-1})], sleep_0's upper bound
  // being 3 * initial.
  const std::vector<double> sleeps = JitteredSchedule(/*seed=*/7, 12);
  ASSERT_EQ(sleeps.size(), 11u);
  double prev = 0.01;
  for (double s : sleeps) {
    EXPECT_GE(s, 0.01);
    EXPECT_LE(s, std::min(1.0, 3.0 * prev) + 1e-12);
    prev = s;
  }
}

TEST(RetryJitterTest, SameSeedReproducesTheSchedule) {
  EXPECT_EQ(JitteredSchedule(42, 8), JitteredSchedule(42, 8));
}

TEST(RetryJitterTest, DifferentSeedsDecorrelate) {
  EXPECT_NE(JitteredSchedule(1, 8), JitteredSchedule(2, 8));
}

TEST(RetryJitterTest, AutoSeedsGiveDistinctSchedules) {
  // jitter_seed = 0: each call draws a fresh seed from the process-wide
  // sequence, so two concurrent retriers do not sleep in lockstep.
  EXPECT_NE(JitteredSchedule(0, 8), JitteredSchedule(0, 8));
}

// ---- cancellation ---------------------------------------------------------

TEST(RetryCancelTest, CancelledDuringBackoffStopsRetrying) {
  CancellationSource source;
  source.RequestCancel();
  FakeClock clock;
  int calls = 0;
  Status s = CallWithRetry(
      RetryPolicy{}, &clock,
      [&] {
        ++calls;
        return Status::Unavailable("blip");
      },
      source.token());
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
  EXPECT_EQ(calls, 1);  // Remaining attempts are not burned.
  EXPECT_EQ(clock.sleeps().size(), 1u);  // The interrupted sleep.
}

TEST(RetryCancelTest, DeadlineSurfacesAsDeadlineExceeded) {
  CancellationSource source;
  source.SetDeadlineAfter(0.0);
  FakeClock clock;
  Result<int> r = CallWithRetry(
      RetryPolicy{}, &clock,
      [&]() -> Result<int> { return Status::Unavailable("blip"); },
      source.token());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(RetryCancelTest, UncancelledTokenChangesNothing) {
  CancellationSource source;
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.decorrelated_jitter = false;
  FakeClock clock;
  int calls = 0;
  Status s = CallWithRetry(
      policy, &clock,
      [&] { return ++calls < 3 ? Status::Unavailable("blip") : Status::Ok(); },
      source.token());
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(clock.sleeps().size(), 2u);
}

}  // namespace
}  // namespace olap
