#ifndef OLAP_TESTS_SUPPORT_FAKE_CLOCK_H_
#define OLAP_TESTS_SUPPORT_FAKE_CLOCK_H_

#include <vector>

#include "common/cancellation.h"
#include "storage/retry.h"

namespace olap {

// Records requested sleeps instead of performing them, so tests assert the
// retry backoff schedule without sleeping. Cancellation is still observed:
// an already-tripped token interrupts the (recorded) sleep, so
// retry-cancellation tests run without real waiting.
class FakeClock : public Clock {
 public:
  void SleepFor(double seconds) override { sleeps_.push_back(seconds); }
  bool SleepInterruptible(double seconds,
                          const CancellationToken& cancel) override {
    sleeps_.push_back(seconds);
    return cancel.ShouldStop();
  }
  const std::vector<double>& sleeps() const { return sleeps_; }
  double total_slept() const {
    double total = 0;
    for (double s : sleeps_) total += s;
    return total;
  }

 private:
  std::vector<double> sleeps_;
};

}  // namespace olap

#endif  // OLAP_TESTS_SUPPORT_FAKE_CLOCK_H_
