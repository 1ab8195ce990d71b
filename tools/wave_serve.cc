// wave_serve — the long-lived verification daemon (ISSUE 9). Speaks the
// line-delimited JSON protocol of src/serve/protocol.h over a Unix-domain
// or loopback TCP socket:
//
//   wave_serve --socket=/tmp/wave.sock --cache-dir=/var/cache/wave
//   wave_serve --port=0 --executors=4        # prints the resolved port
//
// Many clients connect concurrently; requests multiplex onto the
// executor fleet with admission control and per-client round-robin
// fairness, repeat specs hit the hot `SessionPool` (warm pre-pass memo),
// and decided verdicts persist in one shared `ResultCache` directory.
// SIGTERM/SIGINT drains gracefully: in-flight requests finish, queued
// ones are answered with a typed SHUTTING_DOWN. See docs/SERVING.md.
#include <csignal>
#include <cstdio>
#include <string>

#include "common/fault.h"
#include "serve/server.h"

#include "flags.h"

namespace wave {
namespace {

constexpr char kUsage[] = R"(usage: wave_serve [options]

options:
  --socket=PATH          listen on a Unix-domain socket (replaces a stale
                         socket file at PATH)
  --port=N               listen on TCP 127.0.0.1:N, 0..65535 (0 =
                         ephemeral; the resolved port is printed; default
                         when no --socket is given)
  --cache-dir=PATH       shared persistent result cache for all requests
                         (created if missing; default: no cache)
  --executors=N          request-executor threads, 1..1024 (default 2)
  --session-capacity=N   hot specs kept by the LRU session pool (default 8)
  --queue-capacity=N     admission bound on queued requests (default 64)
  --max-jobs=N           clamp per-request worker counts to [1, N], N in
                         1..1024 (default 4)

Protocol: one JSON object per line (docs/SERVING.md). SIGTERM/SIGINT
drain gracefully. Exit status: 0 clean shutdown, 1 usage/bind error.
)";

struct CliOptions {
  serve::ServerOptions server;
};

bool ParseArgs(int argc, char** argv, CliOptions* out, std::string* error) {
  serve::ServerOptions& server = out->server;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* v = nullptr;
    bool parsed = true;
    if ((v = FlagValue(arg, "--socket")) != nullptr) {
      server.socket_path = v;
    } else if ((v = FlagValue(arg, "--port")) != nullptr) {
      parsed = ParsePortFlag(arg, v, &server.port, error);
    } else if ((v = FlagValue(arg, "--cache-dir")) != nullptr) {
      server.cache_dir = v;
    } else if ((v = FlagValue(arg, "--executors")) != nullptr) {
      parsed = ParseThreadsFlag(arg, v, 1, &server.executors, error);
    } else if ((v = FlagValue(arg, "--session-capacity")) != nullptr) {
      parsed = ParseIntFlag(arg, v, 1, kMaxInt, &server.session_capacity,
                            error);
    } else if ((v = FlagValue(arg, "--queue-capacity")) != nullptr) {
      parsed = ParseIntFlag(arg, v, 1, kMaxInt, &server.queue_capacity, error);
    } else if ((v = FlagValue(arg, "--max-jobs")) != nullptr) {
      parsed = ParseThreadsFlag(arg, v, 1, &server.max_jobs, error);
    } else {
      *error = std::string("unknown option: ") + arg;
      return false;
    }
    if (!parsed) return false;
  }
  return true;
}

/// SIGTERM/SIGINT handlers may only do an async-signal-safe store; the
/// main thread polls the flag and runs the actual drain.
serve::Server* g_server = nullptr;

extern "C" void HandleShutdownSignal(int) {
  if (g_server != nullptr) g_server->RequestShutdown();
}

int Main(int argc, char** argv) {
  CliOptions cli;
  std::string error;
  if (!ParseArgs(argc, argv, &cli, &error)) {
    std::fprintf(stderr, "wave_serve: %s\n%s", error.c_str(), kUsage);
    return 1;
  }
  if (Status armed = fault::ArmFromEnv(); !armed.ok()) {
    std::fprintf(stderr, "wave_serve: WAVE_FAULT_SPEC: %s\n",
                 armed.ToString().c_str());
    return 1;
  }

  StatusOr<std::unique_ptr<serve::Server>> server =
      serve::Server::Start(cli.server);
  if (!server.ok()) {
    std::fprintf(stderr, "wave_serve: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  g_server = server->get();
  std::signal(SIGTERM, HandleShutdownSignal);
  std::signal(SIGINT, HandleShutdownSignal);
  std::signal(SIGPIPE, SIG_IGN);

  // The "listening" line is the handshake harnesses wait for; flush so a
  // pipe-captured stdout delivers it immediately.
  if (!(*server)->socket_path().empty()) {
    std::printf("wave_serve: listening on %s\n",
                (*server)->socket_path().c_str());
  } else {
    std::printf("wave_serve: listening on 127.0.0.1:%d\n", (*server)->port());
  }
  std::fflush(stdout);

  // All real work happens on the server's threads; this thread only waits
  // for a drain request.
  while (!(*server)->shutdown_requested()) {
    struct timespec nap = {0, 50 * 1000 * 1000};  // 50ms
    ::nanosleep(&nap, nullptr);
  }
  std::fprintf(stderr, "wave_serve: draining...\n");
  (*server)->Shutdown();
  g_server = nullptr;
  std::fprintf(stderr, "wave_serve: shut down cleanly\n");
  return 0;
}

}  // namespace
}  // namespace wave

int main(int argc, char** argv) { return wave::Main(argc, argv); }
