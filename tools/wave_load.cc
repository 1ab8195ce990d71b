// wave_load — concurrency/latency harness for the wave_serve daemon
// (ISSUE 9). N client connections fire a mix of cold, warm and batch
// requests over the bundled E1–E4 specs, every response is checked
// against the specs' `expect` annotations, and the latency distribution
// lands in `BENCH_serve.json` using the same record schema the
// `wave_bench --compare` gate consumes (records `serve/cold`,
// `serve/warm`, `serve/batch`; counters responses/wrong/dropped).
//
//   wave_load --spawn --clients=8 --requests=400     # own daemon, Unix socket
//   wave_load --port=7333 --clients=16               # against a live daemon
//
// Exit status: 0 all responses present and correct AND warm traffic hit
// the session/cache layers; 1 usage/connect/spawn error; 2 wrong or
// dropped responses, or a warm phase that never reused a session.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/io.h"
#include "common/stopwatch.h"
#include "obs/json.h"
#include "parser/parser.h"
#include "serve/protocol.h"
#include "verifier/verifier.h"

#include "flags.h"

#ifndef WAVE_SERVE_BIN
#define WAVE_SERVE_BIN ""
#endif
#ifndef WAVE_SPECS_DIR
#define WAVE_SPECS_DIR ""
#endif

namespace wave {
namespace {

constexpr char kUsage[] = R"(usage: wave_load [options]

options:
  --socket=PATH     connect to a daemon on this Unix socket
  --port=N          connect to a daemon on 127.0.0.1:N
  --spawn           fork a private wave_serve (Unix socket + fresh cache
                    in a temp dir), load it, then SIGTERM-drain it
  --clients=N       concurrent client connections, 1..1024 (default 8)
  --requests=N      warm-phase requests per client (default 50)
  --specs-dir=PATH  directory with e1..e4 .spec files (default: built-in)
  --out=PATH        latency record file (default BENCH_serve.json)
)";

struct CliOptions {
  std::string socket_path;
  int port = 0;
  bool spawn = false;
  int clients = 8;
  int requests_per_client = 50;
  std::string specs_dir = WAVE_SPECS_DIR;
  std::string out_path = "BENCH_serve.json";
};

struct SpecInfo {
  std::string name;
  std::string text;
  std::vector<std::string> property_names;
  std::vector<bool> expected;  // expect annotation per property
};

bool ParseArgs(int argc, char** argv, CliOptions* out, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* v = nullptr;
    bool parsed = true;
    if ((v = FlagValue(arg, "--socket")) != nullptr) {
      out->socket_path = v;
    } else if ((v = FlagValue(arg, "--port")) != nullptr) {
      parsed = ParsePortFlag(arg, v, &out->port, error);
    } else if (std::strcmp(arg, "--spawn") == 0) {
      out->spawn = true;
    } else if ((v = FlagValue(arg, "--clients")) != nullptr) {
      // Also the spawned daemon's --executors.
      parsed = ParseThreadsFlag(arg, v, 1, &out->clients, error);
    } else if ((v = FlagValue(arg, "--requests")) != nullptr) {
      parsed = ParseIntFlag(arg, v, 1, kMaxInt, &out->requests_per_client,
                            error);
    } else if ((v = FlagValue(arg, "--specs-dir")) != nullptr) {
      out->specs_dir = v;
    } else if ((v = FlagValue(arg, "--out")) != nullptr) {
      out->out_path = v;
    } else {
      *error = std::string("unknown option: ") + arg;
      return false;
    }
    if (!parsed) return false;
  }
  int modes = (out->spawn ? 1 : 0) + (!out->socket_path.empty() ? 1 : 0) +
              (out->port != 0 ? 1 : 0);
  if (modes != 1) {
    *error = "pick exactly one of --spawn, --socket, --port";
    return false;
  }
  return true;
}

int ConnectTo(const std::string& socket_path, int port) {
  if (!socket_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof(addr.sun_path)) return -1;
    ::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = ::htonl(INADDR_LOOPBACK);
  addr.sin_port = ::htons(static_cast<uint16_t>(port));
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// One blocking request/response client over a line-framed socket.
class Client {
 public:
  bool Connect(const std::string& socket_path, int port) {
    fd_ = ConnectTo(socket_path, port);
    return fd_ >= 0;
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool SendLine(const std::string& frame) {
    size_t off = 0;
    while (off < frame.size()) {
      ssize_t n = ::send(fd_, frame.data() + off, frame.size() - off,
                         MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<size_t>(n);
    }
    return true;
  }

  bool ReadLine(std::string* line) {
    for (;;) {
      size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        line->assign(buffer_, 0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      char chunk[4096];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n == 0) return false;
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Aggregates one phase's outcomes across client threads.
struct Tally {
  std::mutex mu;
  std::vector<double> latencies;
  int64_t sent = 0;
  int64_t received = 0;
  int64_t wrong = 0;
  int64_t prepass_reuses = 0;
  int64_t cache_hits = 0;
};

int64_t StatInt(const obs::Json& response, const char* field) {
  const obs::Json* stats = response.Find("stats");
  if (stats == nullptr) return 0;
  const obs::Json* v = stats->Find(field);
  return v != nullptr && v->is_number() ? v->AsInt() : 0;
}

/// Sends one envelope, waits for its response, verifies the verdict(s).
/// Returns false when the response never arrived (a drop).
bool RoundTrip(Client& client, const SpecInfo& spec,
               const serve::RequestEnvelope& envelope, Tally* tally,
               std::vector<double>* latencies_out) {
  Stopwatch watch;
  {
    std::lock_guard<std::mutex> lock(tally->mu);
    ++tally->sent;
  }
  if (!client.SendLine(serve::FrameLine(serve::RequestEnvelopeToJson(envelope)))) {
    return false;
  }
  std::string line;
  if (!client.ReadLine(&line)) return false;
  double latency = watch.ElapsedSeconds();

  StatusOr<serve::ResponseEnvelope> response = serve::ParseResponseLine(line);
  std::lock_guard<std::mutex> lock(tally->mu);
  ++tally->received;
  latencies_out->push_back(latency);
  if (!response.ok() || !response->ok) {
    ++tally->wrong;
    return true;
  }

  auto check_verdict = [&](const obs::Json& body, size_t property_index) {
    const obs::Json* verdict = body.Find("verdict");
    const char* want = api::VerdictName(
        spec.expected[property_index] ? Verdict::kHolds : Verdict::kViolated);
    if (verdict == nullptr || !verdict->is_string() ||
        verdict->AsString() != want) {
      ++tally->wrong;
    }
    tally->prepass_reuses += StatInt(body, "prepass_reuses");
    tally->cache_hits += StatInt(body, "cache_hits");
  };

  if (envelope.verb == serve::Verb::kBatch) {
    const obs::Json* responses = response->response.Find("responses");
    if (responses == nullptr || !responses->is_array() ||
        responses->size() != spec.property_names.size()) {
      ++tally->wrong;
      return true;
    }
    for (size_t i = 0; i < responses->size(); ++i) {
      check_verdict(responses->items()[i], i);
    }
  } else {
    // The verify envelope's request carries the property name; recover
    // its catalog index for the expectation check.
    const obs::Json* name = envelope.request.Find("property");
    size_t index = 0;
    for (size_t i = 0; i < spec.property_names.size(); ++i) {
      if (name != nullptr && spec.property_names[i] == name->AsString()) {
        index = i;
      }
    }
    check_verdict(response->response, index);
  }
  return true;
}

serve::RequestEnvelope VerifyEnvelope(const SpecInfo& spec,
                                      size_t property_index,
                                      const std::string& id) {
  serve::RequestEnvelope envelope;
  envelope.id = id;
  envelope.verb = serve::Verb::kVerify;
  envelope.spec_text = spec.text;
  envelope.request = obs::Json::Object();
  envelope.request.Set(
      "property", obs::Json::Str(spec.property_names[property_index]));
  return envelope;
}

serve::RequestEnvelope BatchEnvelope(const SpecInfo& spec,
                                     const std::string& id) {
  serve::RequestEnvelope envelope;
  envelope.id = id;
  envelope.verb = serve::Verb::kBatch;
  envelope.spec_text = spec.text;
  envelope.request = obs::Json::Object();  // empty = whole catalog
  return envelope;
}

obs::Json Record(const char* name, const CliOptions& cli, Tally& tally,
                 std::vector<double> latencies) {
  std::sort(latencies.begin(), latencies.end());
  obs::Json params = obs::Json::Object();
  params.Set("suite", obs::Json::Str("serve"));
  params.Set("clients", obs::Json::Int(cli.clients));
  params.Set("prepass_reuses", obs::Json::Int(tally.prepass_reuses));
  params.Set("cache_hits", obs::Json::Int(tally.cache_hits));
  params.Set("p50_s", obs::Json::Number(bench::Quantile(latencies, 0.5)));
  params.Set("p99_s", obs::Json::Number(bench::Quantile(latencies, 0.99)));
  obs::Json counters = obs::Json::Object();
  counters.Set("responses", obs::Json::Int(tally.received));
  counters.Set("wrong", obs::Json::Int(tally.wrong));
  counters.Set("dropped", obs::Json::Int(tally.sent - tally.received));
  return bench::TimingRecord(name, std::move(params), std::move(latencies),
                             std::move(counters));
}

int Main(int argc, char** argv) {
  CliOptions cli;
  std::string error;
  if (!ParseArgs(argc, argv, &cli, &error)) {
    std::fprintf(stderr, "wave_load: %s\n%s", error.c_str(), kUsage);
    return 1;
  }

  // Load + locally parse the four bundled specs (names and expectations).
  const char* files[] = {"e1_shopping.spec", "e2_motogp.spec",
                         "e3_airline.spec", "e4_bookstore.spec"};
  std::vector<SpecInfo> specs;
  for (const char* file : files) {
    SpecInfo info;
    info.name = file;
    StatusOr<std::string> text =
        ReadFileToString(cli.specs_dir + "/" + file);
    if (!text.ok()) {
      std::fprintf(stderr, "wave_load: %s\n",
                   text.status().ToString().c_str());
      return 1;
    }
    info.text = std::move(*text);
    ParseResult parsed = ParseSpec(info.text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "wave_load: %s does not parse\n", file);
      return 1;
    }
    for (const ParsedProperty& p : parsed.properties) {
      info.property_names.push_back(p.property.name);
      info.expected.push_back(p.expected);
    }
    specs.push_back(std::move(info));
  }

  // --spawn: a private daemon on a Unix socket with a fresh cache dir.
  pid_t daemon_pid = -1;
  char scratch[] = "/tmp/wave_load_XXXXXX";
  if (cli.spawn) {
    if (::mkdtemp(scratch) == nullptr) {
      std::fprintf(stderr, "wave_load: mkdtemp failed\n");
      return 1;
    }
    cli.socket_path = std::string(scratch) + "/serve.sock";
    std::string cache_dir = std::string(scratch) + "/cache";
    std::string bin = WAVE_SERVE_BIN;
    if (bin.empty()) {
      std::fprintf(stderr, "wave_load: built without WAVE_SERVE_BIN\n");
      return 1;
    }
    // One executor per client: the load run measures engine + protocol
    // latency, not queueing behind an undersized default fleet.
    std::vector<std::string> args = {bin, "--socket=" + cli.socket_path,
                                     "--cache-dir=" + cache_dir,
                                     "--executors=" + std::to_string(cli.clients)};
    daemon_pid = ::fork();
    if (daemon_pid < 0) {
      std::fprintf(stderr, "wave_load: fork failed\n");
      return 1;
    }
    if (daemon_pid == 0) {
      std::freopen("/dev/null", "w", stdout);
      std::vector<char*> child_argv;
      for (std::string& a : args) child_argv.push_back(a.data());
      child_argv.push_back(nullptr);
      ::execv(bin.c_str(), child_argv.data());
      std::fprintf(stderr, "wave_load: exec %s failed\n", bin.c_str());
      ::_exit(127);
    }
    // Wait for the listener (the socket file appears, then accepts).
    bool up = false;
    for (int i = 0; i < 200 && !up; ++i) {
      int fd = ConnectTo(cli.socket_path, 0);
      if (fd >= 0) {
        ::close(fd);
        up = true;
      } else {
        struct timespec nap = {0, 50 * 1000 * 1000};
        ::nanosleep(&nap, nullptr);
      }
    }
    if (!up) {
      std::fprintf(stderr, "wave_load: daemon never came up\n");
      ::kill(daemon_pid, SIGKILL);
      return 1;
    }
  }

  // Phase 1 — cold: one sequential client touches every (spec, property)
  // pair once, so the cold latencies measure parse + first verification
  // and the whole warm phase below consists of genuine repeats.
  Tally cold;
  std::vector<double> cold_latencies;
  {
    Client client;
    if (!client.Connect(cli.socket_path, cli.port)) {
      std::fprintf(stderr, "wave_load: cannot connect\n");
      if (daemon_pid > 0) ::kill(daemon_pid, SIGKILL);
      return 1;
    }
    for (size_t s = 0; s < specs.size(); ++s) {
      for (size_t p = 0; p < specs[s].property_names.size(); ++p) {
        RoundTrip(client, specs[s],
                  VerifyEnvelope(specs[s], p,
                                 "cold-" + std::to_string(s) + "-" +
                                     std::to_string(p)),
                  &cold, &cold_latencies);
      }
    }
  }

  // Phase 2 — warm mix: N concurrent clients, each its own connection,
  // interleaving per-property verifies with occasional whole-catalog
  // batches across all four specs.
  Tally warm;
  Tally batch;
  std::vector<std::vector<double>> warm_lat(cli.clients);
  std::vector<std::vector<double>> batch_lat(cli.clients);
  std::atomic<bool> connect_failed{false};
  std::vector<std::thread> threads;
  for (int c = 0; c < cli.clients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      if (!client.Connect(cli.socket_path, cli.port)) {
        connect_failed.store(true);
        return;
      }
      for (int r = 0; r < cli.requests_per_client; ++r) {
        const SpecInfo& spec = specs[(c + r) % specs.size()];
        std::string id = "c" + std::to_string(c) + "-" + std::to_string(r);
        // An occasional whole-catalog batch rides along (~1 in 13); a
        // batch holds its spec's session lease for tens of ms, so a
        // heavier share would measure lease queueing, not the warm path.
        if (r % 13 == 5) {
          if (!RoundTrip(client, spec, BatchEnvelope(spec, id), &batch,
                         &batch_lat[c])) {
            return;  // dropped tail shows up as sent - received
          }
        } else {
          size_t property = static_cast<size_t>(r) %
                            spec.property_names.size();
          if (!RoundTrip(client, spec, VerifyEnvelope(spec, property, id),
                         &warm, &warm_lat[c])) {
            return;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::vector<double> warm_latencies;
  std::vector<double> batch_latencies;
  for (int c = 0; c < cli.clients; ++c) {
    warm_latencies.insert(warm_latencies.end(), warm_lat[c].begin(),
                          warm_lat[c].end());
    batch_latencies.insert(batch_latencies.end(), batch_lat[c].begin(),
                           batch_lat[c].end());
  }

  // --spawn: graceful SIGTERM drain must exit 0.
  int drain_failed = 0;
  if (daemon_pid > 0) {
    ::kill(daemon_pid, SIGTERM);
    int status = 0;
    ::waitpid(daemon_pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "wave_load: daemon did not drain cleanly\n");
      drain_failed = 1;
    }
    ::unlink(cli.socket_path.c_str());
  }

  obs::Json cold_record = Record("serve/cold", cli, cold, cold_latencies);
  obs::Json warm_record = Record("serve/warm", cli, warm, warm_latencies);
  obs::Json batch_record = Record("serve/batch", cli, batch, batch_latencies);
  {
    std::string out = cold_record.Dump() + "\n" + warm_record.Dump() + "\n" +
                      batch_record.Dump() + "\n";
    Status written = AtomicWriteFile(cli.out_path, out);
    if (!written.ok()) {
      std::fprintf(stderr, "wave_load: %s\n", written.ToString().c_str());
      return 1;
    }
  }

  auto print_phase = [](const char* name, const Tally& tally,
                        const obs::Json& record) {
    const obs::Json* params = record.Find("params");
    double p50 = params->Find("p50_s")->AsDouble();
    double p99 = params->Find("p99_s")->AsDouble();
    std::printf(
        "%-12s sent=%lld received=%lld wrong=%lld dropped=%lld "
        "p50=%.4fs p99=%.4fs prepass_reuses=%lld cache_hits=%lld\n",
        name, static_cast<long long>(tally.sent),
        static_cast<long long>(tally.received),
        static_cast<long long>(tally.wrong),
        static_cast<long long>(tally.sent - tally.received), p50, p99,
        static_cast<long long>(tally.prepass_reuses),
        static_cast<long long>(tally.cache_hits));
  };
  print_phase("serve/cold", cold, cold_record);
  print_phase("serve/warm", warm, warm_record);
  print_phase("serve/batch", batch, batch_record);
  std::printf("records -> %s\n", cli.out_path.c_str());

  if (connect_failed.load()) {
    std::fprintf(stderr, "wave_load: a client failed to connect\n");
    return 1;
  }
  int64_t wrong = cold.wrong + warm.wrong + batch.wrong;
  int64_t dropped = (cold.sent - cold.received) + (warm.sent - warm.received) +
                    (batch.sent - batch.received);
  bool warmed = warm.prepass_reuses + warm.cache_hits +
                    batch.prepass_reuses + batch.cache_hits >
                0;
  if (wrong > 0 || dropped > 0 || !warmed || drain_failed != 0) {
    std::fprintf(stderr,
                 "wave_load: FAILED (wrong=%lld dropped=%lld warmed=%s%s)\n",
                 static_cast<long long>(wrong),
                 static_cast<long long>(dropped), warmed ? "yes" : "NO",
                 drain_failed ? " drain=FAILED" : "");
    return 2;
  }
  std::printf("wave_load: OK\n");
  return 0;
}

}  // namespace
}  // namespace wave

int main(int argc, char** argv) { return wave::Main(argc, argv); }
