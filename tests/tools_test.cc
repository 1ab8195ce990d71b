// The command-line tools' numeric flags: a malformed or out-of-range value
// is a usage error (exit 1), never a silent 0 or a truncated value.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/io.h"
#include "tools/flags.h"

namespace wave {
namespace {

/// Runs `args` in a process group of its own, in `dir`, with stdout and
/// stderr in `log`. Returns the exit code, or -1 when the child died by a
/// signal or was still running after `deadline_seconds`. Either way the
/// whole group is killed at the end, so a daemon the child started never
/// outlives the test.
int RunBounded(std::vector<std::string> args, const std::string& dir,
               const std::string& log, double deadline_seconds) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::setpgid(0, 0);
    const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0 || ::chdir(dir.c_str()) != 0) ::_exit(126);
    ::dup2(fd, STDOUT_FILENO);
    ::dup2(fd, STDERR_FILENO);
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::setpgid(pid, pid);  // also here, so the kill below never misses it
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(deadline_seconds);
  int status = 0;
  bool timed_out = false;
  while (::waitpid(pid, &status, WNOHANG) == 0) {
    if (std::chrono::steady_clock::now() >= deadline) {
      timed_out = true;
      ::kill(-pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ::kill(-pid, SIGKILL);
  if (timed_out || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

TEST(ToolFlagsTest, MalformedNumbersAreUsageErrors) {
  // Each would run (or listen) on a lax parser: the bench suite at a 0 s
  // budget, a vacuous crash campaign, a fuzz campaign on every hardware
  // thread, a daemon on an ephemeral port.
  struct Case {
    std::vector<std::string> args;
    std::string flag;
  };
  const std::vector<Case> cases = {
      {{WAVE_BENCH_BIN, "--suite", "e2", "--timeout=abc"}, "--timeout=abc"},
      {{WAVE_CRASH_BIN, "--kills=abc"}, "--kills=abc"},
      {{WAVE_FUZZ_BIN, "--jobs=abc"}, "--jobs=abc"},
      {{WAVE_LOAD_BIN, "--clients=abc", "--spawn"}, "--clients=abc"},
      {{WAVE_SERVE_BIN, "--port=abc"}, "--port=abc"},
  };
  const std::string dir = ::testing::TempDir() + "wave_tools_flags";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string log = dir + "/child.log";
  for (const Case& c : cases) {
    SCOPED_TRACE(c.args[0]);
    EXPECT_EQ(RunBounded(c.args, dir, log, /*deadline_seconds=*/5), 1);
    StatusOr<std::string> output = ReadFileToString(log);
    ASSERT_TRUE(output.ok());
    EXPECT_NE(output->find("bad value in " + c.flag), std::string::npos)
        << *output;
  }
}

TEST(ToolFlagsTest, ThreadCountsAndPortsAreBounded) {
  std::string error;
  int threads = 7;
  EXPECT_TRUE(ParseThreadsFlag("--jobs=0", "0", 0, &threads, &error));
  EXPECT_EQ(threads, 0) << "0 = one per hardware thread, where allowed";
  EXPECT_TRUE(ParseThreadsFlag("--jobs=1024", "1024", 0, &threads, &error));
  EXPECT_EQ(threads, 1024);
  EXPECT_FALSE(ParseThreadsFlag("--jobs=1025", "1025", 0, &threads, &error));
  EXPECT_FALSE(ParseThreadsFlag("--executors=0", "0", 1, &threads, &error));
  // 2^32 + 1 would truncate to 1 in an int.
  EXPECT_FALSE(ParseThreadsFlag("--clients=4294967297", "4294967297", 1,
                                &threads, &error));
  EXPECT_EQ(threads, 1024) << "a rejected value leaves the field alone";
  EXPECT_EQ(error,
            "bad value in --clients=4294967297: want a whole number in [1, "
            "1024]");

  int port = 7;
  EXPECT_TRUE(ParsePortFlag("--port=0", "0", &port, &error));
  EXPECT_EQ(port, 0) << "0 asks for an ephemeral port";
  EXPECT_TRUE(ParsePortFlag("--port=65535", "65535", &port, &error));
  EXPECT_EQ(port, 65535);
  for (const char* bad : {"65536", "70000", "-1", "80x", " 80", ""}) {
    EXPECT_FALSE(ParsePortFlag("--port", bad, &port, &error)) << bad;
  }
  EXPECT_EQ(port, 65535);

  double seconds = 0;
  EXPECT_TRUE(
      ParseNumberFlag("--timeout=0.5", "0.5", 0, kMaxSeconds, &seconds, &error));
  EXPECT_EQ(seconds, 0.5);
  for (const char* bad : {"abc", "nan", "inf", "1e10", "-0.5", "0.5s"}) {
    EXPECT_FALSE(
        ParseNumberFlag("--timeout", bad, 0, kMaxSeconds, &seconds, &error))
        << bad;
  }

  EXPECT_STREQ(FlagValue("--port=80", "--port"), "80");
  EXPECT_EQ(FlagValue("--ports=80", "--port"), nullptr);
  EXPECT_EQ(FlagValue("--port", "--port"), nullptr);
}

}  // namespace
}  // namespace wave
