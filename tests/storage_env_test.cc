#include "storage/env.h"

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "support/fault_env.h"

namespace olap {
namespace {

// Unique per test case: cases of the same binary run concurrently under
// `ctest -j`, so a shared filename would race.
std::string TempPath(const char* name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string unique = info == nullptr
                           ? std::string("unknown")
                           : std::string(info->test_suite_name()) + "_" +
                                 info->name();
  for (char& c : unique) {
    if (c == '/' || c == '\\') c = '_';
  }
  return std::string(::testing::TempDir()) + "/" + unique + "_" + name;
}

Status WriteWholeFile(Env* env, const std::string& path,
                      const std::string& bytes) {
  Result<std::unique_ptr<WritableFile>> file = env->NewWritableFile(path);
  if (!file.ok()) return file.status();
  OLAP_RETURN_IF_ERROR((*file)->Append(bytes));
  OLAP_RETURN_IF_ERROR((*file)->Sync());
  return (*file)->Close();
}

TEST(EnvTest, WriteReadRoundTrip) {
  Env* env = Env::Default();
  std::string path = TempPath("env_roundtrip.bin");
  ASSERT_TRUE(WriteWholeFile(env, path, "hello storage").ok());

  EXPECT_TRUE(env->FileExists(path));
  Result<int64_t> size = env->GetFileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 13);

  std::string contents;
  ASSERT_TRUE(env->ReadFileToString(path, &contents).ok());
  EXPECT_EQ(contents, "hello storage");

  Result<std::unique_ptr<RandomAccessFile>> file = env->NewRandomAccessFile(path);
  ASSERT_TRUE(file.ok());
  std::string middle;
  ASSERT_TRUE((*file)->Read(6, 7, &middle).ok());
  EXPECT_EQ(middle, "storage");
  std::remove(path.c_str());
}

TEST(EnvTest, ShortReadIsDataLoss) {
  Env* env = Env::Default();
  std::string path = TempPath("env_short.bin");
  ASSERT_TRUE(WriteWholeFile(env, path, "abc").ok());
  Result<std::unique_ptr<RandomAccessFile>> file = env->NewRandomAccessFile(path);
  ASSERT_TRUE(file.ok());
  std::string out;
  EXPECT_EQ((*file)->Read(0, 10, &out).code(), StatusCode::kDataLoss);
  EXPECT_EQ((*file)->Read(100, 1, &out).code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(EnvTest, MissingFileIsNotFound) {
  Env* env = Env::Default();
  std::string path = TempPath("env_missing.bin");
  EXPECT_FALSE(env->FileExists(path));
  EXPECT_EQ(env->NewRandomAccessFile(path).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(env->GetFileSize(path).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(env->RemoveFile(path).code(), StatusCode::kNotFound);
}

TEST(EnvTest, RenameReplacesAtomically) {
  Env* env = Env::Default();
  std::string from = TempPath("env_from.bin");
  std::string to = TempPath("env_to.bin");
  ASSERT_TRUE(WriteWholeFile(env, to, "old").ok());
  ASSERT_TRUE(WriteWholeFile(env, from, "new contents").ok());
  ASSERT_TRUE(env->RenameFile(from, to).ok());
  EXPECT_FALSE(env->FileExists(from));
  std::string contents;
  ASSERT_TRUE(env->ReadFileToString(to, &contents).ok());
  EXPECT_EQ(contents, "new contents");
  std::remove(to.c_str());
}

TEST(EnvTest, OperationsOnClosedWritableFileFail) {
  Env* env = Env::Default();
  std::string path = TempPath("env_closed.bin");
  Result<std::unique_ptr<WritableFile>> file = env->NewWritableFile(path);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Close().ok());
  EXPECT_TRUE((*file)->Close().ok());  // Idempotent.
  EXPECT_FALSE((*file)->Append("x", 1).ok());
  EXPECT_FALSE((*file)->Sync().ok());
  std::remove(path.c_str());
}

TEST(FaultEnvTest, InjectedErrorFiresAfterSkipForGivenTimes) {
  FaultInjectingEnv env(Env::Default());
  std::string path = TempPath("fault_skip.bin");
  env.InjectError(FaultOp::kOpenWrite, /*skip=*/1, StatusCode::kUnavailable,
                  /*times=*/2);
  EXPECT_TRUE(env.NewWritableFile(path).ok());  // Skipped.
  EXPECT_EQ(env.NewWritableFile(path).status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(env.NewWritableFile(path).status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(env.NewWritableFile(path).ok());  // Fault exhausted.
  EXPECT_EQ(env.op_count(FaultOp::kOpenWrite), 4);
  std::remove(path.c_str());
}

TEST(FaultEnvTest, AppendFaultInterruptsWrites) {
  FaultInjectingEnv env(Env::Default());
  std::string path = TempPath("fault_append.bin");
  env.InjectError(FaultOp::kAppend, /*skip=*/1, StatusCode::kDataLoss);
  Result<std::unique_ptr<WritableFile>> file = env.NewWritableFile(path);
  ASSERT_TRUE(file.ok());
  EXPECT_TRUE((*file)->Append("one").ok());
  EXPECT_EQ((*file)->Append("two").code(), StatusCode::kDataLoss);
  EXPECT_TRUE((*file)->Append("three").ok());
  ASSERT_TRUE((*file)->Close().ok());
  std::string contents;
  ASSERT_TRUE(env.ReadFileToString(path, &contents).ok());
  EXPECT_EQ(contents, "onethree");  // The failed append wrote nothing.
  std::remove(path.c_str());
}

TEST(FaultEnvTest, TornWritePersistsPrefixThenKillsTheDisk) {
  FaultInjectingEnv env(Env::Default());
  std::string path = TempPath("fault_torn.bin");
  env.InjectTornWrite(/*skip=*/1, /*fraction=*/0.5);
  Result<std::unique_ptr<WritableFile>> file = env.NewWritableFile(path);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("intact").ok());
  EXPECT_EQ((*file)->Append("12345678").code(), StatusCode::kUnavailable);
  // The process is "dead": nothing further reaches the disk.
  EXPECT_FALSE((*file)->Append("more").ok());
  EXPECT_FALSE((*file)->Sync().ok());
  EXPECT_FALSE(env.RenameFile(path, path + ".x").ok());
  ASSERT_TRUE((*file)->Close().ok());
  std::string contents;
  ASSERT_TRUE(env.ReadFileToString(path, &contents).ok());
  EXPECT_EQ(contents, "intact1234");  // Half of the torn append persisted.
  std::remove(path.c_str());
}

TEST(FaultEnvTest, BitFlipCorruptsReadsNotTheFile) {
  FaultInjectingEnv env(Env::Default());
  std::string path = TempPath("fault_flip.bin");
  ASSERT_TRUE(WriteWholeFile(&env, path, "abcdef").ok());
  env.InjectBitFlip(/*offset=*/2, /*mask=*/0x01);

  std::string through_env;
  ASSERT_TRUE(env.ReadFileToString(path, &through_env).ok());
  EXPECT_EQ(through_env, "abbdef");  // 'c' ^ 0x01 == 'b'.

  // A partial read that does not cover the offset is untouched.
  Result<std::unique_ptr<RandomAccessFile>> file = env.NewRandomAccessFile(path);
  ASSERT_TRUE(file.ok());
  std::string tail;
  ASSERT_TRUE((*file)->Read(3, 3, &tail).ok());
  EXPECT_EQ(tail, "def");

  // The underlying file is pristine.
  std::string direct;
  ASSERT_TRUE(Env::Default()->ReadFileToString(path, &direct).ok());
  EXPECT_EQ(direct, "abcdef");
  std::remove(path.c_str());
}

TEST(FaultEnvTest, ClearFaultsRestoresHealth) {
  FaultInjectingEnv env(Env::Default());
  std::string path = TempPath("fault_clear.bin");
  env.InjectError(FaultOp::kOpenRead, /*skip=*/0, StatusCode::kUnavailable,
                  FaultInjectingEnv::kForever);
  ASSERT_TRUE(WriteWholeFile(&env, path, "x").ok());
  EXPECT_FALSE(env.NewRandomAccessFile(path).ok());
  env.ClearFaults();
  EXPECT_TRUE(env.NewRandomAccessFile(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace olap
