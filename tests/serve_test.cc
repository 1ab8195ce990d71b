// Daemon tests (ISSUE 9, ctest label `serve`): the in-process
// serve::Server driven over real loopback sockets.
//
// Covered here:
//   * protocol basics — ping, metrics, malformed lines (typed error
//     envelope, connection survives), unknown verbs, line framing (a line
//     at the length cap, pipelined lines, an over-cap line closing only
//     its own connection);
//   * concurrent correctness — N client threads, every verdict matches
//     the E1 suite's expected annotations, ids echo back intact;
//   * warm-path observability — a repeat spec is served by the hot
//     session (stats.prepass_reuses > 0 on the wire);
//   * per-client fairness — a light client's request does not queue
//     behind a saturating client's flood (round-robin admission);
//   * graceful drain — in-flight requests finish, queued ones are
//     answered with a typed SHUTTING_DOWN, never silently dropped;
//   * the serve.* fault sites (fault::KnownSites) — each fires and
//     degrades the advertised way: refused/dropped connections and
//     typed error envelopes, with the daemon alive throughout.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "apps/apps.h"
#include "common/fault.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "obs/json.h"
#include "parser/parser.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace wave {
namespace {

using serve::RequestEnvelope;
using serve::ResponseEnvelope;
using serve::Server;
using serve::ServerOptions;
using serve::Verb;

// --- a tiny blocking line-protocol client -----------------------------------

class TestClient {
 public:
  ~TestClient() { Close(); }

  bool Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Close();
      return false;
    }
    return true;
  }

  bool SendLine(const std::string& line) {
    size_t sent = 0;
    while (sent < line.size()) {
      ssize_t n = ::send(fd_, line.data() + sent, line.size() - sent,
                         MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads one newline-terminated frame; false on EOF/error. A torn
  /// frame (EOF mid-line) is reported as failure, which is exactly what
  /// the serve.write test asserts never leaks data.
  bool ReadLine(std::string* line) {
    line->clear();
    while (true) {
      size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        *line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      char chunk[4096];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// One request/response round trip.
  bool Call(const RequestEnvelope& envelope, ResponseEnvelope* out) {
    if (!SendLine(serve::FrameLine(serve::RequestEnvelopeToJson(envelope))))
      return false;
    std::string line;
    if (!ReadLine(&line)) return false;
    StatusOr<ResponseEnvelope> parsed = serve::ParseResponseLine(line);
    if (!parsed.ok()) return false;
    *out = std::move(*parsed);
    return true;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

// --- fixtures ---------------------------------------------------------------

RequestEnvelope Ping(const std::string& id) {
  RequestEnvelope e;
  e.id = id;
  e.verb = Verb::kPing;
  return e;
}

RequestEnvelope VerifyOne(const std::string& id, const std::string& spec,
                          const std::string& property) {
  RequestEnvelope e;
  e.id = id;
  e.verb = Verb::kVerify;
  e.spec_text = spec;
  e.request = obs::Json::Object();
  e.request.Set("property", obs::Json::Str(property));
  return e;
}

/// The E1 property suite with its expected verdicts, parsed once.
struct Suite {
  std::string spec_text;
  std::vector<std::string> names;
  std::vector<bool> expected;  // true = holds
};

const Suite& E1Suite() {
  static const Suite* suite = [] {
    auto* s = new Suite;
    s->spec_text = E1SpecText();
    ParseResult parsed = ParseSpec(s->spec_text);
    WAVE_CHECK(parsed.ok());
    for (const ParsedProperty& p : parsed.properties) {
      WAVE_CHECK(p.has_expected);
      s->names.push_back(p.property.name);
      s->expected.push_back(p.expected);
    }
    return s;
  }();
  return *suite;
}

std::unique_ptr<Server> StartServer(ServerOptions options = {}) {
  options.port = 0;  // ephemeral
  StatusOr<std::unique_ptr<Server>> server = Server::Start(options);
  WAVE_CHECK_MSG(server.ok(), server.status().ToString());
  return std::move(*server);
}

std::string VerdictOf(const ResponseEnvelope& response) {
  const obs::Json* v = response.response.Find("verdict");
  return v != nullptr && v->is_string() ? v->AsString() : "";
}

int64_t StatOf(const ResponseEnvelope& response, const char* key) {
  const obs::Json* stats = response.response.Find("stats");
  if (stats == nullptr) return -1;
  const obs::Json* v = stats->Find(key);
  return v != nullptr ? v->AsInt() : -1;
}

// --- protocol basics --------------------------------------------------------

TEST(ServeProtocolTest, PingPong) {
  std::unique_ptr<Server> server = StartServer();
  TestClient client;
  ASSERT_TRUE(client.Connect(server->port()));
  ResponseEnvelope response;
  ASSERT_TRUE(client.Call(Ping("p1"), &response));
  EXPECT_EQ(response.id, "p1");
  EXPECT_TRUE(response.ok);
  const obs::Json* pong = response.response.Find("pong");
  ASSERT_NE(pong, nullptr);
  EXPECT_TRUE(pong->AsBool());
}

TEST(ServeProtocolTest, MalformedLineGetsTypedErrorAndConnectionSurvives) {
  std::unique_ptr<Server> server = StartServer();
  TestClient client;
  ASSERT_TRUE(client.Connect(server->port()));

  // Plain garbage, and 2 MB of '[' (deeper than the parser's nesting
  // bound, so it must fail cleanly rather than overflow the stack).
  for (const std::string& bad :
       {std::string("this is not json"), std::string(2 << 20, '[')}) {
    ASSERT_TRUE(client.SendLine(bad + "\n"));
    std::string line;
    ASSERT_TRUE(client.ReadLine(&line));
    StatusOr<ResponseEnvelope> error = serve::ParseResponseLine(line);
    ASSERT_TRUE(error.ok());
    EXPECT_FALSE(error->ok);
    EXPECT_EQ(error->id, "");  // no id was recoverable
    EXPECT_EQ(error->status.code(), StatusCode::kInvalidArgument);

    // One bad frame must not poison the connection.
    ResponseEnvelope response;
    ASSERT_TRUE(client.Call(Ping("after"), &response));
    EXPECT_TRUE(response.ok);
  }
}

TEST(ServeProtocolTest, LongAndPipelinedLinesFrameAndOverCapLinesClose) {
  std::unique_ptr<Server> server = StartServer();
  TestClient client;
  ASSERT_TRUE(client.Connect(server->port()));

  // The longest line allowed: a ping padded with JSON whitespace to
  // exactly the cap.
  std::string longest = serve::RequestEnvelopeToJson(Ping("longest")).Dump();
  ASSERT_EQ(longest.back(), '}');
  longest.insert(longest.size() - 1,
                 serve::kMaxRequestLine - longest.size(), ' ');
  ASSERT_EQ(longest.size(), serve::kMaxRequestLine);
  ASSERT_TRUE(client.SendLine(longest + "\n"));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  StatusOr<ResponseEnvelope> pong = serve::ParseResponseLine(line);
  ASSERT_TRUE(pong.ok());
  EXPECT_TRUE(pong->ok);
  EXPECT_EQ(pong->id, "longest");

  // Many small lines in one send are framed one by one, in order.
  constexpr int kPipelined = 2000;
  std::string burst;
  for (int i = 0; i < kPipelined; ++i) {
    burst += serve::FrameLine(
        serve::RequestEnvelopeToJson(Ping("p" + std::to_string(i))));
  }
  ASSERT_TRUE(client.SendLine(burst));
  for (int i = 0; i < kPipelined; ++i) {
    ASSERT_TRUE(client.ReadLine(&line)) << i;
    StatusOr<ResponseEnvelope> response = serve::ParseResponseLine(line);
    ASSERT_TRUE(response.ok()) << i;
    EXPECT_TRUE(response->ok);
    EXPECT_EQ(response->id, "p" + std::to_string(i));
  }

  // One byte over the cap gets one typed envelope naming the cap, then
  // that connection (only) closes. The send may fail part-way once the
  // daemon hangs up.
  TestClient over;
  ASSERT_TRUE(over.Connect(server->port()));
  over.SendLine(std::string(serve::kMaxRequestLine + 1, ' ') + "\n");
  ASSERT_TRUE(over.ReadLine(&line));
  StatusOr<ResponseEnvelope> refused = serve::ParseResponseLine(line);
  ASSERT_TRUE(refused.ok());
  EXPECT_FALSE(refused->ok);
  EXPECT_EQ(refused->id, "");
  EXPECT_EQ(refused->status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused->status.message().find("4 MiB"), std::string::npos)
      << refused->status.message();
  EXPECT_FALSE(over.ReadLine(&line));
  EXPECT_EQ(server->metrics().counter("serve.oversized_lines")->value(), 1);

  ResponseEnvelope response;
  ASSERT_TRUE(client.Call(Ping("after"), &response));
  EXPECT_TRUE(response.ok);
  TestClient fresh;
  ASSERT_TRUE(fresh.Connect(server->port()));
  ASSERT_TRUE(fresh.Call(Ping("fresh"), &response));
  EXPECT_TRUE(response.ok);
}

TEST(ServeProtocolTest, VerifyWithoutSpecIsRejected) {
  std::unique_ptr<Server> server = StartServer();
  TestClient client;
  ASSERT_TRUE(client.Connect(server->port()));
  // Hand-built frame: a verify envelope with neither spec nor spec_path.
  ASSERT_TRUE(client.SendLine(
      "{\"schema_version\":1,\"id\":\"x\",\"verb\":\"verify\","
      "\"request\":{}}\n"));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  StatusOr<ResponseEnvelope> response = serve::ParseResponseLine(line);
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->ok);
  EXPECT_EQ(response->status.code(), StatusCode::kInvalidArgument);
}

TEST(ServeProtocolTest, OutOfRangeCandidateBudgetIsRejected) {
  std::unique_ptr<Server> server = StartServer();
  TestClient client;
  ASSERT_TRUE(client.Connect(server->port()));
  // The wide retry rung would double this budget.
  RequestEnvelope e = VerifyOne("big", E1Suite().spec_text, "P8");
  obs::Json options = obs::Json::Object();
  options.Set("max_candidates", obs::Json::Int(2147483647));
  e.request.Set("options", std::move(options));
  obs::Json retry = obs::Json::Object();
  retry.Set("enabled", obs::Json::Bool(true));
  e.request.Set("retry", std::move(retry));
  ResponseEnvelope response;
  ASSERT_TRUE(client.Call(e, &response));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(response.status.message().find("max_candidates"),
            std::string::npos)
      << response.status.message();
}

TEST(ServeProtocolTest, TooDeepAPropertyIsRejectedAndTheDaemonLives) {
  // An inline spec whose property nests 30,000 parentheses once overflowed
  // the parser's stack and took the daemon down.
  std::unique_ptr<Server> server = StartServer();
  TestClient client;
  ASSERT_TRUE(client.Connect(server->port()));
  const std::string spec = E1Suite().spec_text +
                           "\nproperty deep {\n" + std::string(30000, '(') +
                           "F [at HP]" + std::string(30000, ')') + "\n}\n";
  ResponseEnvelope response;
  ASSERT_TRUE(client.Call(VerifyOne("deep", spec, "deep"), &response));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(response.status.message().find("nested more than 1000 levels"),
            std::string::npos)
      << response.status.message();
  ASSERT_TRUE(client.Call(Ping("after"), &response));
  EXPECT_TRUE(response.ok);
  EXPECT_EQ(response.id, "after");
}

TEST(ServeProtocolTest, NewerSchemaVersionIsRejected) {
  std::unique_ptr<Server> server = StartServer();
  TestClient client;
  ASSERT_TRUE(client.Connect(server->port()));
  ASSERT_TRUE(client.SendLine(
      "{\"schema_version\":99,\"id\":\"v99\",\"verb\":\"ping\"}\n"));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  StatusOr<ResponseEnvelope> response = serve::ParseResponseLine(line);
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->ok);
  EXPECT_EQ(response->status.code(), StatusCode::kInvalidArgument);
}

TEST(ServeProtocolTest, MetricsVerbDumpsTheRegistry) {
  std::unique_ptr<Server> server = StartServer();
  TestClient client;
  ASSERT_TRUE(client.Connect(server->port()));
  ResponseEnvelope pong;
  ASSERT_TRUE(client.Call(Ping("p"), &pong));

  ResponseEnvelope metrics;
  RequestEnvelope request;
  request.id = "m1";
  request.verb = Verb::kMetrics;
  ASSERT_TRUE(client.Call(request, &metrics));
  EXPECT_TRUE(metrics.ok);
  ASSERT_NE(metrics.response.Find("metrics"), nullptr);
  ASSERT_NE(metrics.response.Find("sessions"), nullptr);
  ASSERT_NE(metrics.response.Find("queue_depth"), nullptr);
}

// --- correctness under concurrency ------------------------------------------

TEST(ServeConcurrencyTest, ManyClientsGetCorrectVerdicts) {
  const Suite& suite = E1Suite();
  std::unique_ptr<Server> server = StartServer([] {
    ServerOptions o;
    o.executors = 4;
    return o;
  }());

  constexpr int kClients = 6;
  constexpr int kRequests = 8;
  std::vector<int> wrong(kClients, 0);
  std::vector<int> dropped(kClients, 0);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      TestClient client;
      if (!client.Connect(server->port())) {
        dropped[c] = kRequests;
        return;
      }
      for (int r = 0; r < kRequests; ++r) {
        size_t p = static_cast<size_t>(c + r) % suite.names.size();
        std::string id = "c" + std::to_string(c) + "-r" + std::to_string(r);
        ResponseEnvelope response;
        if (!client.Call(VerifyOne(id, suite.spec_text, suite.names[p]),
                         &response)) {
          ++dropped[c];
          continue;
        }
        std::string want = suite.expected[p] ? "holds" : "violated";
        if (response.id != id || !response.ok || VerdictOf(response) != want)
          ++wrong[c];
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(wrong[c], 0) << "client " << c;
    EXPECT_EQ(dropped[c], 0) << "client " << c;
  }
}

TEST(ServeConcurrencyTest, RepeatSpecHitsTheHotSession) {
  const Suite& suite = E1Suite();
  std::unique_ptr<Server> server = StartServer();
  TestClient client;
  ASSERT_TRUE(client.Connect(server->port()));

  ResponseEnvelope first;
  ASSERT_TRUE(client.Call(VerifyOne("cold", suite.spec_text, suite.names[0]),
                          &first));
  ASSERT_TRUE(first.ok);

  ResponseEnvelope second;
  ASSERT_TRUE(client.Call(VerifyOne("warm", suite.spec_text, suite.names[0]),
                          &second));
  ASSERT_TRUE(second.ok);
  // The warm request reuses memoized pre-pass layers instead of
  // rebuilding them — the signal wave_load gates on.
  EXPECT_GT(StatOf(second, "prepass_reuses"), 0);
  EXPECT_EQ(server->sessions().stats().misses, 1);
  EXPECT_GE(server->sessions().stats().hits, 1);
}

TEST(ServeConcurrencyTest, BatchVerbVerifiesTheWholeCatalog) {
  const Suite& suite = E1Suite();
  std::unique_ptr<Server> server = StartServer();
  TestClient client;
  ASSERT_TRUE(client.Connect(server->port()));

  RequestEnvelope request;
  request.id = "b1";
  request.verb = Verb::kBatch;
  request.spec_text = suite.spec_text;
  request.request = obs::Json::Object();  // empty selector = whole catalog
  ResponseEnvelope response;
  ASSERT_TRUE(client.Call(request, &response));
  ASSERT_TRUE(response.ok) << response.status.ToString();

  const obs::Json* responses = response.response.Find("responses");
  ASSERT_NE(responses, nullptr);
  ASSERT_EQ(responses->size(), suite.names.size());
  for (size_t i = 0; i < suite.names.size(); ++i) {
    const obs::Json* v = responses->items()[i].Find("verdict");
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->AsString(), suite.expected[i] ? "holds" : "violated")
        << suite.names[i];
  }
}

// --- fairness ---------------------------------------------------------------

// A light client's single request must not queue behind a saturating
// client's flood: admission is round-robin across connections, so with
// one executor the light job runs after at most one more heavy job, not
// after the whole flood.
TEST(ServeFairnessTest, LightClientDoesNotQueueBehindAFlood) {
  const Suite& suite = E1Suite();
  std::unique_ptr<Server> server = StartServer([] {
    ServerOptions o;
    o.executors = 1;  // force queueing so fairness is observable
    o.queue_capacity = 64;
    o.session_capacity = 4;
    return o;
  }());

  // Every heavy request carries a distinct spec text (a unique comment
  // line), so each one pays a full parse + pre-pass under a 10ms
  // injected delay — long enough for a deterministic queue.
  fault::Plan plan;
  fault::Rule rule;
  rule.site = "session.prepass.build";
  rule.kind = fault::Kind::kDelay;
  rule.delay_seconds = 0.01;
  rule.probability = 1;
  plan.rules.push_back(rule);
  fault::ScopedPlan armed(std::move(plan));

  // Pre-warm the light client's spec so its request skips the pre-pass
  // (and with it the injected delay).
  TestClient light;
  ASSERT_TRUE(light.Connect(server->port()));
  ResponseEnvelope warmup;
  ASSERT_TRUE(light.Call(VerifyOne("warmup", suite.spec_text, suite.names[0]),
                         &warmup));
  ASSERT_TRUE(warmup.ok);

  constexpr int kFlood = 12;
  TestClient heavy;
  ASSERT_TRUE(heavy.Connect(server->port()));
  Stopwatch heavy_clock;
  for (int i = 0; i < kFlood; ++i) {
    std::string spec = suite.spec_text + "\n# flood " + std::to_string(i);
    ASSERT_TRUE(heavy.SendLine(serve::FrameLine(serve::RequestEnvelopeToJson(
        VerifyOne("h" + std::to_string(i), spec, suite.names[0])))));
  }

  // Give the flood a head start so the queue is genuinely deep.
  std::this_thread::sleep_for(std::chrono::milliseconds(25));

  Stopwatch light_clock;
  ResponseEnvelope light_response;
  ASSERT_TRUE(light.Call(VerifyOne("light", suite.spec_text, suite.names[0]),
                         &light_response));
  double light_seconds = light_clock.ElapsedSeconds();
  ASSERT_TRUE(light_response.ok);

  int heavy_ok = 0;
  for (int i = 0; i < kFlood; ++i) {
    std::string line;
    ASSERT_TRUE(heavy.ReadLine(&line));
    StatusOr<ResponseEnvelope> response = serve::ParseResponseLine(line);
    ASSERT_TRUE(response.ok());
    if (response->ok) ++heavy_ok;
  }
  double heavy_seconds = heavy_clock.ElapsedSeconds();
  EXPECT_EQ(heavy_ok, kFlood);

  // FIFO admission would park the light request behind ~9 queued heavy
  // jobs (>= 90ms); round-robin runs it after at most one job finishes.
  // The /3 margin absorbs scheduler noise without admitting FIFO.
  EXPECT_LT(light_seconds, heavy_seconds / 3)
      << "light=" << light_seconds << "s heavy_total=" << heavy_seconds
      << "s";
}

// --- graceful drain ---------------------------------------------------------

TEST(ServeDrainTest, InFlightFinishesQueuedGetsTypedShutdown) {
  const Suite& suite = E1Suite();
  std::unique_ptr<Server> server = StartServer([] {
    ServerOptions o;
    o.executors = 1;
    o.queue_capacity = 64;
    o.session_capacity = 4;
    return o;
  }());

  // 10ms pre-pass delay (unique spec per request) keeps the executor
  // busy long enough that Shutdown provably races a non-empty queue.
  fault::Plan plan;
  fault::Rule rule;
  rule.site = "session.prepass.build";
  rule.kind = fault::Kind::kDelay;
  rule.delay_seconds = 0.01;
  rule.probability = 1;
  plan.rules.push_back(rule);
  fault::ScopedPlan armed(std::move(plan));

  constexpr int kPipelined = 24;
  TestClient client;
  ASSERT_TRUE(client.Connect(server->port()));
  for (int i = 0; i < kPipelined; ++i) {
    std::string spec = suite.spec_text + "\n# drain " + std::to_string(i);
    ASSERT_TRUE(client.SendLine(serve::FrameLine(serve::RequestEnvelopeToJson(
        VerifyOne("d" + std::to_string(i), spec, suite.names[0])))));
  }
  // Let the first request reach an executor, then drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server->Shutdown();

  // Every request gets exactly one response: either a finished verdict
  // (in-flight work completes) or a typed SHUTTING_DOWN — never silence.
  int finished = 0;
  int shut_down = 0;
  std::string line;
  std::vector<bool> answered(kPipelined, false);
  while (client.ReadLine(&line)) {
    StatusOr<ResponseEnvelope> response = serve::ParseResponseLine(line);
    ASSERT_TRUE(response.ok()) << line;
    ASSERT_EQ(response->id[0], 'd');
    int index = std::stoi(response->id.substr(1));
    EXPECT_FALSE(answered[index]) << "duplicate response " << response->id;
    answered[index] = true;
    if (response->ok) {
      ++finished;
    } else {
      EXPECT_EQ(response->status.code(), StatusCode::kShuttingDown)
          << response->status.ToString();
      ++shut_down;
    }
  }
  EXPECT_EQ(finished + shut_down, kPipelined);
  EXPECT_GE(finished, 1) << "the in-flight request must finish";
  EXPECT_GE(shut_down, 1) << "the drain must catch a queued request";

  // Shutdown is idempotent.
  server->Shutdown();
}

TEST(ServeDrainTest, RequestShutdownIsObservable) {
  std::unique_ptr<Server> server = StartServer();
  EXPECT_FALSE(server->shutdown_requested());
  server->RequestShutdown();
  EXPECT_TRUE(server->shutdown_requested());
  server->Shutdown();
}

TEST(ServeDrainTest, QueueOverflowIsTypedResourceExhausted) {
  const Suite& suite = E1Suite();
  std::unique_ptr<Server> server = StartServer([] {
    ServerOptions o;
    o.executors = 1;
    o.queue_capacity = 2;
    o.session_capacity = 4;
    return o;
  }());

  fault::Plan plan;
  fault::Rule rule;
  rule.site = "session.prepass.build";
  rule.kind = fault::Kind::kDelay;
  rule.delay_seconds = 0.02;
  rule.probability = 1;
  plan.rules.push_back(rule);
  fault::ScopedPlan armed(std::move(plan));

  constexpr int kPipelined = 12;
  TestClient client;
  ASSERT_TRUE(client.Connect(server->port()));
  for (int i = 0; i < kPipelined; ++i) {
    std::string spec = suite.spec_text + "\n# overflow " + std::to_string(i);
    ASSERT_TRUE(client.SendLine(serve::FrameLine(serve::RequestEnvelopeToJson(
        VerifyOne("q" + std::to_string(i), spec, suite.names[0])))));
  }

  int ok = 0;
  int exhausted = 0;
  for (int i = 0; i < kPipelined; ++i) {
    std::string line;
    ASSERT_TRUE(client.ReadLine(&line));
    StatusOr<ResponseEnvelope> response = serve::ParseResponseLine(line);
    ASSERT_TRUE(response.ok());
    if (response->ok) {
      ++ok;
    } else {
      EXPECT_EQ(response->status.code(), StatusCode::kResourceExhausted);
      ++exhausted;
    }
  }
  EXPECT_EQ(ok + exhausted, kPipelined);
  EXPECT_GE(exhausted, 1) << "a 2-deep queue must reject part of a 12-burst";
  EXPECT_GE(ok, 1);
}

// --- serve.* fault sites ----------------------------------------------------

fault::Plan OneShot(const std::string& site, fault::Kind kind) {
  fault::Plan plan;
  fault::Rule rule;
  rule.site = site;
  rule.kind = kind;
  rule.fail_nth = 1;
  plan.rules.push_back(rule);
  return plan;
}

TEST(ServeFaultTest, EnqueueFaultIsATypedErrorEnvelope) {
  const Suite& suite = E1Suite();
  std::unique_ptr<Server> server = StartServer();
  TestClient client;
  ASSERT_TRUE(client.Connect(server->port()));

  fault::ScopedPlan armed(OneShot("serve.enqueue", fault::Kind::kEio));
  ResponseEnvelope response;
  ASSERT_TRUE(client.Call(VerifyOne("f1", suite.spec_text, suite.names[0]),
                          &response));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
  EXPECT_NE(response.status.message().find("fault-injected"),
            std::string::npos);

  // The fault consumed its one shot; the connection and daemon live on.
  ResponseEnvelope retry;
  ASSERT_TRUE(client.Call(VerifyOne("f2", suite.spec_text, suite.names[0]),
                          &retry));
  EXPECT_TRUE(retry.ok);
}

TEST(ServeFaultTest, ReadFaultDropsTheConnectionNotTheDaemon) {
  std::unique_ptr<Server> server = StartServer();
  TestClient doomed;
  ASSERT_TRUE(doomed.Connect(server->port()));

  fault::ScopedPlan armed(OneShot("serve.read", fault::Kind::kEio));
  // The read fault fires on the reader thread before any frame parses;
  // the client observes EOF, never a partial response.
  ASSERT_TRUE(doomed.SendLine(
      serve::FrameLine(serve::RequestEnvelopeToJson(Ping("doomed")))));
  std::string line;
  EXPECT_FALSE(doomed.ReadLine(&line));
  EXPECT_TRUE(line.empty());

  TestClient fresh;
  ASSERT_TRUE(fresh.Connect(server->port()));
  ResponseEnvelope response;
  ASSERT_TRUE(fresh.Call(Ping("alive"), &response));
  EXPECT_TRUE(response.ok);
}

TEST(ServeFaultTest, WriteFaultHangsUpNeverTearsAFrame) {
  std::unique_ptr<Server> server = StartServer();
  TestClient doomed;
  ASSERT_TRUE(doomed.Connect(server->port()));

  fault::ScopedPlan armed(
      OneShot("serve.write", fault::Kind::kShortWrite));
  ASSERT_TRUE(doomed.SendLine(
      serve::FrameLine(serve::RequestEnvelopeToJson(Ping("torn?")))));
  // The server detects the injected short write BEFORE sending anything,
  // so the client sees a clean EOF — a hang-up, not a torn frame.
  std::string line;
  EXPECT_FALSE(doomed.ReadLine(&line));
  EXPECT_TRUE(line.empty());

  TestClient fresh;
  ASSERT_TRUE(fresh.Connect(server->port()));
  ResponseEnvelope response;
  ASSERT_TRUE(fresh.Call(Ping("alive"), &response));
  EXPECT_TRUE(response.ok);
}

TEST(ServeFaultTest, AcceptFaultRefusesOneConnectionDaemonLives) {
  std::unique_ptr<Server> server = StartServer();

  fault::ScopedPlan armed(OneShot("serve.accept", fault::Kind::kEio));
  TestClient refused;
  // The TCP handshake may complete (the kernel accepted), but the server
  // closes the socket before a reader ever starts: first read is EOF.
  if (refused.Connect(server->port())) {
    std::string line;
    EXPECT_FALSE(refused.ReadLine(&line));
  }

  TestClient fresh;
  ASSERT_TRUE(fresh.Connect(server->port()));
  ResponseEnvelope response;
  ASSERT_TRUE(fresh.Call(Ping("alive"), &response));
  EXPECT_TRUE(response.ok);
}

}  // namespace
}  // namespace wave
