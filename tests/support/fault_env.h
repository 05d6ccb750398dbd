#ifndef OLAP_TESTS_SUPPORT_FAULT_ENV_H_
#define OLAP_TESTS_SUPPORT_FAULT_ENV_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "storage/env.h"

namespace olap {

// Env decorator that injects storage faults at precise points, for testing
// the durability guarantees of SaveCube/LoadCube and the retry policy.
// Not thread-safe (it is a test harness).
//
// Three fault shapes:
//   * InjectError      — the Nth matching operation returns the given
//                        status; `times` consecutive matches fail, so two
//                        kUnavailable hiccups followed by success exercises
//                        retry, and times=kForever simulates a dead disk.
//   * InjectTornWrite  — the Nth Append persists only a prefix of its
//                        buffer and then fails: a crash mid-write.
//   * InjectBitFlip    — every Read that covers file offset `offset` sees
//                        the byte XOR `mask`: bit rot without touching the
//                        real file.
//
// Example (exactly the acceptance scenario for transient faults):
//   FaultInjectingEnv env(Env::Default());
//   env.InjectError(FaultOp::kOpenRead, /*skip=*/0,
//                   StatusCode::kUnavailable, /*times=*/2);
//   // First two LoadCube attempts fail UNAVAILABLE, the third succeeds.

enum class FaultOp {
  kOpenWrite,
  kOpenRead,
  kAppend,
  kSync,
  kRename,
  kRemove,
  kRead,
};

// Returns a stable name, e.g. "APPEND" (for test diagnostics).
const char* FaultOpName(FaultOp op);

class FaultInjectingEnv : public Env {
 public:
  static constexpr int kForever = -1;

  // `base` must outlive this Env.
  explicit FaultInjectingEnv(Env* base) : base_(base) {}

  // After `skip` unaffected matching operations, fail the next `times`
  // matching operations with `code` (kForever: fail them all).
  void InjectError(FaultOp op, int skip, StatusCode code, int times = 1);

  // After `skip` unaffected Appends, the next Append writes only
  // `fraction` (in [0,1]) of its buffer to the base env, then reports
  // `code`. Every later Append and Sync on any file also fails (the
  // process crashed; nothing further reaches the disk).
  void InjectTornWrite(int skip, double fraction,
                       StatusCode code = StatusCode::kUnavailable);

  // XOR the byte at absolute file offset `offset` with `mask` on every
  // Read through this env (all files opened via NewRandomAccessFile).
  void InjectBitFlip(int64_t offset, uint8_t mask);

  void ClearFaults();

  // Operations observed so far (counted whether or not they failed).
  int64_t op_count(FaultOp op) const;

  // Env:
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override;
  Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status RemoveFile(const std::string& path) override;
  bool FileExists(const std::string& path) override;
  Result<int64_t> GetFileSize(const std::string& path) override;

 private:
  friend class FaultWritableFile;
  friend class FaultRandomAccessFile;

  struct ErrorFault {
    FaultOp op;
    int skip;
    int times;
    StatusCode code;
  };
  struct TornWrite {
    bool armed = false;
    int skip = 0;
    double fraction = 0.0;
    StatusCode code = StatusCode::kUnavailable;
    bool fired = false;  // After firing, all writes/syncs fail.
  };
  struct BitFlip {
    int64_t offset;
    uint8_t mask;
  };

  // Records the operation and returns the injected status (OK if no fault
  // matches).
  Status OnOp(FaultOp op, const std::string& path);
  // Append interception: returns the number of bytes to pass through
  // (normally n) and sets *injected to the status to report.
  size_t OnAppend(size_t n, Status* injected);
  void ApplyBitFlips(int64_t offset, std::string* data) const;

  Env* base_;
  std::vector<ErrorFault> error_faults_;
  TornWrite torn_;
  std::vector<BitFlip> bit_flips_;
  std::map<FaultOp, int64_t> op_counts_;
};

}  // namespace olap

#endif  // OLAP_TESTS_SUPPORT_FAULT_ENV_H_
