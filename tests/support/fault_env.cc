#include "support/fault_env.h"

#include <algorithm>
#include <utility>

namespace olap {

namespace {

Status MakeFaultStatus(StatusCode code, FaultOp op, const std::string& path) {
  return Status(code, std::string("injected fault on ") + FaultOpName(op) +
                          " '" + path + "'");
}

}  // namespace

const char* FaultOpName(FaultOp op) {
  switch (op) {
    case FaultOp::kOpenWrite:
      return "OPEN_WRITE";
    case FaultOp::kOpenRead:
      return "OPEN_READ";
    case FaultOp::kAppend:
      return "APPEND";
    case FaultOp::kSync:
      return "SYNC";
    case FaultOp::kRename:
      return "RENAME";
    case FaultOp::kRemove:
      return "REMOVE";
    case FaultOp::kRead:
      return "READ";
  }
  return "UNKNOWN";
}

// A WritableFile that consults the env before every operation, so faults
// injected after the file was opened still apply.
class FaultWritableFile : public WritableFile {
 public:
  FaultWritableFile(std::unique_ptr<WritableFile> base, FaultInjectingEnv* env,
                    std::string path)
      : base_(std::move(base)), env_(env), path_(std::move(path)) {}

  Status Append(const void* data, size_t n) override {
    Status injected = env_->OnOp(FaultOp::kAppend, path_);
    if (!injected.ok()) return injected;
    size_t pass = env_->OnAppend(n, &injected);
    if (pass > 0) {
      Status written = base_->Append(data, std::min(pass, n));
      if (!written.ok()) return written;
    }
    return injected;
  }

  Status Sync() override {
    Status injected = env_->OnOp(FaultOp::kSync, path_);
    if (!injected.ok()) return injected;
    return base_->Sync();
  }

  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<WritableFile> base_;
  FaultInjectingEnv* env_;
  std::string path_;
};

class FaultRandomAccessFile : public RandomAccessFile {
 public:
  FaultRandomAccessFile(std::unique_ptr<RandomAccessFile> base,
                        FaultInjectingEnv* env, std::string path)
      : base_(std::move(base)), env_(env), path_(std::move(path)) {}

  Status Read(int64_t offset, size_t n, std::string* out) const override {
    Status injected = env_->OnOp(FaultOp::kRead, path_);
    if (!injected.ok()) return injected;
    Status read = base_->Read(offset, n, out);
    if (!read.ok()) return read;
    env_->ApplyBitFlips(offset, out);
    return Status::Ok();
  }

  Result<int64_t> Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<RandomAccessFile> base_;
  FaultInjectingEnv* env_;
  std::string path_;
};

void FaultInjectingEnv::InjectError(FaultOp op, int skip, StatusCode code,
                                    int times) {
  error_faults_.push_back(ErrorFault{op, skip, times, code});
}

void FaultInjectingEnv::InjectTornWrite(int skip, double fraction,
                                        StatusCode code) {
  torn_.armed = true;
  torn_.skip = skip;
  torn_.fraction = std::clamp(fraction, 0.0, 1.0);
  torn_.code = code;
  torn_.fired = false;
}

void FaultInjectingEnv::InjectBitFlip(int64_t offset, uint8_t mask) {
  bit_flips_.push_back(BitFlip{offset, mask});
}

void FaultInjectingEnv::ClearFaults() {
  error_faults_.clear();
  torn_ = TornWrite{};
  bit_flips_.clear();
}

int64_t FaultInjectingEnv::op_count(FaultOp op) const {
  auto it = op_counts_.find(op);
  return it == op_counts_.end() ? 0 : it->second;
}

Status FaultInjectingEnv::OnOp(FaultOp op, const std::string& path) {
  ++op_counts_[op];
  // A fired torn write means the process is "dead": nothing else reaches
  // the disk.
  if (torn_.fired && (op == FaultOp::kAppend || op == FaultOp::kSync ||
                      op == FaultOp::kRename)) {
    return MakeFaultStatus(torn_.code, op, path);
  }
  for (ErrorFault& fault : error_faults_) {
    if (fault.op != op || fault.times == 0) continue;
    if (fault.skip > 0) {
      --fault.skip;
      continue;
    }
    if (fault.times > 0) --fault.times;
    return MakeFaultStatus(fault.code, op, path);
  }
  return Status::Ok();
}

size_t FaultInjectingEnv::OnAppend(size_t n, Status* injected) {
  *injected = Status::Ok();
  if (!torn_.armed || torn_.fired) return n;
  if (torn_.skip > 0) {
    --torn_.skip;
    return n;
  }
  torn_.fired = true;
  *injected = Status(torn_.code, "injected torn write");
  return static_cast<size_t>(static_cast<double>(n) * torn_.fraction);
}

void FaultInjectingEnv::ApplyBitFlips(int64_t offset, std::string* data) const {
  for (const BitFlip& flip : bit_flips_) {
    if (flip.offset >= offset &&
        flip.offset < offset + static_cast<int64_t>(data->size())) {
      (*data)[static_cast<size_t>(flip.offset - offset)] ^=
          static_cast<char>(flip.mask);
    }
  }
}

Result<std::unique_ptr<WritableFile>> FaultInjectingEnv::NewWritableFile(
    const std::string& path) {
  Status injected = OnOp(FaultOp::kOpenWrite, path);
  if (!injected.ok()) return injected;
  Result<std::unique_ptr<WritableFile>> base = base_->NewWritableFile(path);
  if (!base.ok()) return base.status();
  return std::unique_ptr<WritableFile>(
      new FaultWritableFile(*std::move(base), this, path));
}

Result<std::unique_ptr<RandomAccessFile>> FaultInjectingEnv::NewRandomAccessFile(
    const std::string& path) {
  Status injected = OnOp(FaultOp::kOpenRead, path);
  if (!injected.ok()) return injected;
  Result<std::unique_ptr<RandomAccessFile>> base =
      base_->NewRandomAccessFile(path);
  if (!base.ok()) return base.status();
  return std::unique_ptr<RandomAccessFile>(
      new FaultRandomAccessFile(*std::move(base), this, path));
}

Status FaultInjectingEnv::RenameFile(const std::string& from,
                                     const std::string& to) {
  Status injected = OnOp(FaultOp::kRename, from);
  if (!injected.ok()) return injected;
  return base_->RenameFile(from, to);
}

Status FaultInjectingEnv::RemoveFile(const std::string& path) {
  Status injected = OnOp(FaultOp::kRemove, path);
  if (!injected.ok()) return injected;
  return base_->RemoveFile(path);
}

bool FaultInjectingEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

Result<int64_t> FaultInjectingEnv::GetFileSize(const std::string& path) {
  return base_->GetFileSize(path);
}

}  // namespace olap
