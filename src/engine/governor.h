#ifndef OLAP_ENGINE_GOVERNOR_H_
#define OLAP_ENGINE_GOVERNOR_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"

namespace olap {

// Per-query resource governance: a deadline, a cooperative cancellation
// token, and a memory-budget accountant, carried by one QueryContext that
// the Executor threads through every phase of a query.
//
// The governor's contract is graceful degradation before failure: when a
// budget or the deadline comes under pressure it walks a deterministic
// ladder of plan downgrades — each one trades speed or memory for a
// cheaper execution shape — and only returns kDeadlineExceeded /
// kCancelled once the ladder is exhausted (or the caller explicitly
// cancelled). Every step taken is recorded in `governor.*` metrics and on
// the query's result, so EXPLAIN ANALYZE shows exactly how a pressured
// query was reshaped.
//
// The ladder (applied in this order as pressure is observed):
//   1. kBatchedEvalOff   — the batch evaluator's scratch-view plan is
//                          denied (memory + startup); derived cells are
//                          served by the persistent views or the residual
//                          leaf roll-up. Recorded only when a plan is shed.
//   2. kSerialRollup     — parallel rollup/evaluation falls back to serial
//                          (returns pool slots to other tenants).
// Downgrades only ever shrink resource use, and results stay bit-identical
// to the undegraded plan — every rung reuses an execution path whose
// output is already contract-tested against the oracle.

struct GovernorOptions {
  // External cancel signal (e.g. a client disconnect). The QueryContext
  // chains its own source under this token, so either trips the query.
  CancellationToken cancel;
  // Wall-clock budget for the whole query; <= 0 means no deadline.
  double deadline_seconds = 0.0;
  // Scratch-memory budget, in cells, for optional allocations (batched
  // evaluation's cover views); <= 0 means unlimited.
  int64_t memory_budget_cells = 0;
  // Fraction of the deadline after which the planner starts degrading
  // instead of starting new optional work.
  double pressure_fraction = 0.75;
  // Create a QueryContext even when no limit above is set ("enabled but
  // idle") — used to measure governance overhead.
  bool enabled = false;

  bool active() const {
    return enabled || cancel.valid() || deadline_seconds > 0.0 ||
           memory_budget_cells > 0;
  }
};

enum class DegradeStep {
  kBatchedEvalOff,
  kSerialRollup,
};

// Stable metric/profile name, e.g. "batched_eval_off".
const char* DegradeStepName(DegradeStep step);

class QueryContext {
 public:
  explicit QueryContext(const GovernorOptions& options);
  ~QueryContext();

  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  // The token to thread into ParallelFor, chunk streams and operators.
  // Trips on RequestCancel of the chained parent or on deadline expiry.
  const CancellationToken& cancel() const { return source_.token(); }

  // Ok, or the terminal kCancelled / kDeadlineExceeded status. Phase
  // boundaries call this and propagate.
  Status CheckInterrupted(const char* phase) const {
    return source_.token().Poll(phase);
  }

  // True once >= pressure_fraction of the deadline has elapsed.
  bool UnderDeadlinePressure() const;
  // True once a reservation has been denied (sticky for the query).
  bool UnderMemoryPressure() const {
    return memory_pressure_.load(std::memory_order_relaxed);
  }
  bool UnderPressure() const {
    return UnderDeadlinePressure() || UnderMemoryPressure();
  }

  // Budget accounting for optional scratch allocations. A denial latches
  // memory pressure (the planner then sheds optional work for the rest of
  // the query). Reservations not released by the caller are returned when
  // the context dies.
  bool TryReserveCells(int64_t cells);
  void ReleaseCells(int64_t cells);
  int64_t reserved_cells() const {
    return reserved_cells_.load(std::memory_order_relaxed);
  }

  // Records one ladder step (metrics + the per-query step list). Steps are
  // recorded in the order taken; duplicates are collapsed.
  void RecordDegradation(DegradeStep step);
  std::vector<std::string> degradation_steps() const;

  // Classifies a query's terminal status into governor.cancelled /
  // governor.deadline_exceeded counters. Call once per query.
  void NoteTerminalStatus(const Status& s);

 private:
  GovernorOptions options_;
  CancellationSource source_;
  std::atomic<int64_t> reserved_cells_{0};
  std::atomic<bool> memory_pressure_{false};
  mutable std::mutex mu_;
  std::vector<DegradeStep> steps_;
};

}  // namespace olap

#endif  // OLAP_ENGINE_GOVERNOR_H_
