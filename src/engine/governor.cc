#include "engine/governor.h"

#include <algorithm>

#include "common/metrics.h"

namespace olap {

namespace {

Counter* QueriesCounter() {
  static Counter* c = MetricsRegistry::Global().counter("governor.queries");
  return c;
}
Counter* CancelledCounter() {
  static Counter* c = MetricsRegistry::Global().counter("governor.cancelled");
  return c;
}
Counter* DeadlineCounter() {
  static Counter* c =
      MetricsRegistry::Global().counter("governor.deadline_exceeded");
  return c;
}
Counter* DeniedCounter() {
  static Counter* c = MetricsRegistry::Global().counter("governor.mem.denied");
  return c;
}
Gauge* ReservedGauge() {
  static Gauge* g =
      MetricsRegistry::Global().gauge("governor.mem.reserved_cells");
  return g;
}
Counter* StepCounter(DegradeStep step) {
  // One counter per rung, named governor.degrade.<step>.
  static Counter* counters[] = {
      MetricsRegistry::Global().counter("governor.degrade.batched_eval_off"),
      MetricsRegistry::Global().counter("governor.degrade.serial_rollup"),
  };
  return counters[static_cast<int>(step)];
}

std::atomic<int64_t> g_reserved_total{0};

}  // namespace

const char* DegradeStepName(DegradeStep step) {
  switch (step) {
    case DegradeStep::kBatchedEvalOff:
      return "batched_eval_off";
    case DegradeStep::kSerialRollup:
      return "serial_rollup";
  }
  return "unknown";
}

QueryContext::QueryContext(const GovernorOptions& options)
    : options_(options), source_(options.cancel) {
  if (options_.deadline_seconds > 0.0) {
    source_.SetDeadlineAfter(options_.deadline_seconds);
  }
  QueriesCounter()->Increment();
}

QueryContext::~QueryContext() {
  // Return any reservation the owning phases did not release themselves
  // (e.g. an error path that unwound past the evaluator) so the global
  // gauge never drifts across queries.
  const int64_t leak = reserved_cells_.exchange(0, std::memory_order_relaxed);
  if (leak > 0) {
    ReservedGauge()->Set(
        g_reserved_total.fetch_sub(leak, std::memory_order_relaxed) - leak);
  }
}

bool QueryContext::UnderDeadlinePressure() const {
  if (options_.deadline_seconds <= 0.0) return false;
  return source_.DeadlineFractionElapsed() >=
         std::max(0.0, options_.pressure_fraction);
}

bool QueryContext::TryReserveCells(int64_t cells) {
  if (cells <= 0) return true;
  if (options_.memory_budget_cells > 0) {
    int64_t cur = reserved_cells_.load(std::memory_order_relaxed);
    while (true) {
      if (cur + cells > options_.memory_budget_cells) {
        memory_pressure_.store(true, std::memory_order_relaxed);
        DeniedCounter()->Increment();
        return false;
      }
      if (reserved_cells_.compare_exchange_weak(cur, cur + cells,
                                                std::memory_order_relaxed)) {
        break;
      }
    }
  } else {
    reserved_cells_.fetch_add(cells, std::memory_order_relaxed);
  }
  ReservedGauge()->Set(g_reserved_total.fetch_add(cells,
                                                  std::memory_order_relaxed) +
                       cells);
  return true;
}

void QueryContext::ReleaseCells(int64_t cells) {
  if (cells <= 0) return;
  reserved_cells_.fetch_sub(cells, std::memory_order_relaxed);
  ReservedGauge()->Set(g_reserved_total.fetch_sub(cells,
                                                  std::memory_order_relaxed) -
                       cells);
}

void QueryContext::RecordDegradation(DegradeStep step) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (std::find(steps_.begin(), steps_.end(), step) != steps_.end()) return;
    steps_.push_back(step);
  }
  StepCounter(step)->Increment();
}

std::vector<std::string> QueryContext::degradation_steps() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(steps_.size());
  for (DegradeStep s : steps_) names.emplace_back(DegradeStepName(s));
  return names;
}

void QueryContext::NoteTerminalStatus(const Status& s) {
  if (s.code() == StatusCode::kCancelled) CancelledCounter()->Increment();
  if (s.code() == StatusCode::kDeadlineExceeded) DeadlineCounter()->Increment();
}

}  // namespace olap
