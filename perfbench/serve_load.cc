// The `serve` workload: an open-loop, seeded Poisson stream of requests
// against a `wave_serve` daemon spawned with its shipped defaults and an
// empty --cache-dir. One load-generator thread drives a few pipelined
// connections (never more than nproc) and matches responses by id.
//
// Mix: ~80% re-checks of unchanged bundled E1–E4 properties (cache-hit
// reads that never reach the search), ~15% never-seen generated specs
// (session build, search and a cache Store — writes that also evict hot
// sessions), ~5% whole-catalog `batch` requests over one bundled spec.
// Set-up touches the whole bundled catalog once, so E1/P4's search is not
// in the timed window. Latency is timed from each request's due time, so
// a stall also charges the requests queued behind it.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "hostspeed.h"
#include "layers.h"
#include "obs/json.h"
#include "serve/protocol.h"
#include "spans.h"

namespace perfbench {
namespace {

// Frozen traffic parameters; README.md gives the measurements behind them.
// The p99 limit of the ladder. A generated spec's own service time already
// reaches 30-60 ms on a loaded host as the cache grows, so at 50 ms the
// ladder measured that tail rather than when queueing sets in.
constexpr double kLatencyLimitMs = 100;
// Far enough below the sustained rate that the fixed-rate latencies are
// mostly service time even when other tenants slow the host down.
constexpr double kLowRate = 25;   // requests/s
constexpr double kHighRate = 80;  // requests/s
// The mix; the rest are re-checks of bundled properties.
constexpr double kShareBatch = 0.05;
constexpr double kShareGenerated = 0.15;
// sustained_rps ladder: kLadderBase * kLadderStep^k for k < kLadderRungs
// (40 to 119 requests/s), searched by bisection: always three probes, so
// the run length does not depend on the answer.
constexpr double kLadderBase = 40;
constexpr double kLadderStep = 1.2;
constexpr int kLadderRungs = 7;
// Shares of the timed window: five fixed-rate repeats (about 1,900
// requests at the high rate in a 28 s window, so about 19 beyond the p99)
// and three short ladder probes, each on a fresh daemon.
constexpr int kFixedRepeats = 5;
constexpr double kRepeatShare = 0.17;
constexpr double kProbeShare = 0.05;
// Arrival times and request kinds are one frozen Poisson realization per
// phase (common random numbers): runs with different --seed put the same
// load on the daemon. Over the fixed-rate repeats every seed also sends
// the same multiset of contents (which property, spec or generated case);
// the seed decides which request carries which.
constexpr uint64_t kArrivalSeed = 0xa441fa1;
// Reference cases behind the generated share; each request renders one
// under a fresh app name, so every generated spec is new to the daemon.
// The pool is frozen like the generated corpus, in the fuzz-default shape:
// these requests exercise the daemon's write path, not the search.
constexpr int kGeneratedPool = 64;
constexpr uint64_t kPoolSeed = 0x5e7e;
const wave::testing::GeneratorConfig kPoolConfig{};
// A request still unanswered this long after the last send is dropped.
constexpr double kDrainTimeoutS = 10;
// What a refused, failed or dropped request counts as.
constexpr double kMissedMs = 1e6;
// The host reference kernel (hostspeed.h) runs at most this often, and
// only while nothing is outstanding and the next request is at least
// kHostIdleMs away.
constexpr double kHostSampleMs = 20;
constexpr double kHostIdleMs = 10;

enum class Kind { kBundled, kGenerated, kBatch };

/// A `wave_serve --port=0` child process.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool Start(const std::string& bin, const std::string& cache_dir) {
    std::string cache_flag = "--cache-dir=" + cache_dir;
    int out[2];
    if (::pipe(out) != 0) return false;
    pid_ = ::fork();
    if (pid_ < 0) {
      ::close(out[0]);
      ::close(out[1]);
      return false;
    }
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(out[1], STDOUT_FILENO);
      ::close(out[0]);
      ::close(out[1]);
      ::execl(bin.c_str(), bin.c_str(), "--port=0", cache_flag.c_str(),
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(out[1]);
    // The daemon's handshake: "wave_serve: listening on 127.0.0.1:<port>".
    std::string line;
    char c;
    while (line.size() < 200 && ::read(out[0], &c, 1) == 1 && c != '\n') {
      line += c;
    }
    ::close(out[0]);
    size_t colon = line.rfind(':');
    if (line.find("listening on 127.0.0.1:") == std::string::npos ||
        colon == std::string::npos) {
      std::fprintf(stderr, "perfbench: wave_serve did not start (%s)\n",
                   line.c_str());
      return false;
    }
    port_ = std::atoi(line.c_str() + colon + 1);
    return port_ > 0;
  }

  /// SIGTERM drain; true when the daemon exits 0 in time.
  bool Drain() {
    if (pid_ <= 0) return false;
    ::kill(pid_, SIGTERM);
    int status = 0;
    for (int i = 0; i < 300; ++i) {
      pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return false;  // the destructor kills it
  }

  pid_t pid() const { return pid_; }
  int port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

int Connect(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = ::htonl(INADDR_LOOPBACK);
  addr.sin_port = ::htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const std::string& frame) {
  for (size_t off = 0; off < frame.size();) {
    ssize_t n = ::send(fd, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Blocking read of the next response line on `fd`; `buffer` carries
/// bytes past that line to the next call.
std::optional<wave::serve::ResponseEnvelope> ReadResponse(int fd,
                                                          std::string* buffer) {
  char chunk[65536];
  size_t nl;
  while ((nl = buffer->find('\n')) == std::string::npos) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return std::nullopt;
    buffer->append(chunk, static_cast<size_t>(n));
  }
  wave::StatusOr<wave::serve::ResponseEnvelope> r =
      wave::serve::ParseResponseLine(buffer->substr(0, nl));
  buffer->erase(0, nl + 1);
  if (!r.ok()) return std::nullopt;
  return std::move(*r);
}

/// A request frame with its id left open: prefix + id + suffix.
struct FrameTemplate {
  std::string prefix;
  std::string suffix;

  static FrameTemplate Of(wave::serve::Verb verb, const std::string& spec,
                          wave::obs::Json request) {
    wave::serve::RequestEnvelope envelope;
    envelope.verb = verb;
    envelope.spec_text = spec;
    envelope.request = std::move(request);
    std::string frame =
        wave::serve::FrameLine(wave::serve::RequestEnvelopeToJson(envelope));
    // RequestEnvelopeToJson writes the (empty) id right after the version.
    const std::string key = "\"id\":\"\"";
    size_t at = frame.find(key);
    FrameTemplate t;
    t.prefix = frame.substr(0, at + key.size() - 1);
    t.suffix = frame.substr(at + key.size() - 1);
    return t;
  }
  std::string With(const std::string& id) const { return prefix + id + suffix; }
};

wave::obs::Json PropertyRequest(const std::string& name) {
  wave::obs::Json request = wave::obs::Json::Object();
  request.Set("property", wave::obs::Json::Str(name));
  return request;
}

/// Everything the generator sends, prepared during set-up.
struct Traffic {
  std::vector<CatalogSpec> catalog;
  std::vector<std::pair<int, int>> bundled;  // (spec, property)
  std::vector<FrameTemplate> bundled_frames;
  std::vector<FrameTemplate> batch_frames;  // per spec
  std::vector<ReferenceCase> pool;
  uint64_t generated_serial = 0;
  int64_t next_id = 0;  // request ids, unique across phases
};

struct Outstanding {
  int64_t due_ns = 0;
  int64_t span = 0;
  Kind kind = Kind::kBundled;
  int index = 0;  // bundled pair, spec (batch) or pool case
};

struct PhaseStats {
  double rate = 0;
  double seconds = 0;
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t wrong = 0;    // wrong or unknown verdicts
  int64_t errors = 0;   // ok:false other than refusals, unparseable lines
  int64_t refused = 0;  // RESOURCE_EXHAUSTED
  int64_t dropped = 0;  // never answered
  std::vector<double> latency_ms;        // every request; misses = kMissedMs
  // Parallel to latency_ms: (due, answer) ns, or (0, 0) for a miss.
  std::vector<std::pair<int64_t, int64_t>> timed;
  std::vector<double> lateness_ms;       // send time - due time
  std::vector<double> decode_us;
  int64_t answered_in_window = 0;  // answers before the schedule ended
  double answered_s = 0;           // phase start to its last answer

  int64_t failed() const { return wrong + errors + refused + dropped; }
  /// Pools another phase's samples and counts into this one.
  void Merge(const PhaseStats& o) {
    rate = o.rate;
    seconds += o.seconds;
    sent += o.sent;
    ok += o.ok;
    wrong += o.wrong;
    errors += o.errors;
    refused += o.refused;
    dropped += o.dropped;
    answered_in_window += o.answered_in_window;
    answered_s += o.answered_s;
    for (auto [to, from] :
         {std::pair{&latency_ms, &o.latency_ms},
          std::pair{&lateness_ms, &o.lateness_ms},
          std::pair{&decode_us, &o.decode_us}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
    timed.insert(timed.end(), o.timed.begin(), o.timed.end());
  }
  /// Latencies scaled by the host kernel around each request (hostspeed.h);
  /// misses stay kMissedMs.
  std::vector<double> ScaledLatencyMs(const HostSpeed& host) const {
    std::vector<double> out;
    for (size_t i = 0; i < latency_ms.size(); ++i) {
      auto [due, answer] = timed[i];
      out.push_back(answer == 0 ? latency_ms[i]
                                : host.Scale(latency_ms[i], due, answer));
    }
    return out;
  }
  /// Answers per second over the measured span from the phase's start to
  /// its last answer.
  double completed_per_s() const {
    return answered_s > 0 ? ok / answered_s : 0;
  }
  bool MeetsLimit() const {
    // No growing backlog: nearly every request sent in the window was
    // also answered in it.
    return failed() == 0 && Quantile(latency_ms, 0.99) <= kLatencyLimitMs &&
           answered_in_window >= 0.95 * sent;
  }
};

std::string VerdictOf(const wave::obs::Json& body) {
  const wave::obs::Json* v = body.Find("verdict");
  return v != nullptr && v->is_string() ? v->AsString() : "";
}

bool CheckResponse(const Traffic& traffic, const Outstanding& req,
                   const wave::obs::Json& body) {
  auto expect = [](bool holds) { return holds ? "holds" : "violated"; };
  switch (req.kind) {
    case Kind::kBundled: {
      auto [s, p] = traffic.bundled[req.index];
      return VerdictOf(body) == expect(traffic.catalog[s].expect_holds[p]);
    }
    case Kind::kGenerated:
      return VerdictOf(body) ==
             VerdictName(traffic.pool[req.index].reference);
    case Kind::kBatch: {
      const CatalogSpec& spec = traffic.catalog[req.index];
      const wave::obs::Json* responses = body.Find("responses");
      if (responses == nullptr || !responses->is_array() ||
          responses->size() != spec.properties.size()) {
        return false;
      }
      for (size_t i = 0; i < responses->size(); ++i) {
        if (VerdictOf(responses->items()[i]) != expect(spec.expect_holds[i])) {
          return false;
        }
      }
      return true;
    }
  }
  return false;
}

/// A pipelined, non-blocking connection of the load generator.
struct Lane {
  int fd = -1;
  std::string out;
  size_t out_off = 0;
  std::string in;
};

struct Arrival {
  int64_t at_ns = 0;  // from the phase's start
  Kind kind = Kind::kBundled;
  int index = 0;  // bundled pair, pool case or spec (batch)
};

/// One phase's schedule: its rate and length, and the frozen Poisson
/// arrivals of `salt` (exponential gaps, then the request kind).
struct Schedule {
  double rate = 0;
  double seconds = 0;
  std::vector<Arrival> arrivals;

  Schedule(double rate_per_s, double length_s, uint64_t salt)
      : rate(rate_per_s), seconds(length_s) {
    uint64_t state = Mix(kArrivalSeed ^ salt);
    auto uniform = [&] {
      state = Mix(state);
      return (static_cast<double>(state >> 11) + 0.5) / 9007199254740992.0;
    };
    for (double t = -std::log(uniform()) / rate; t < seconds;
         t += -std::log(uniform()) / rate) {
      double u = uniform();
      Arrival a;
      a.at_ns = static_cast<int64_t>(t * 1e9);
      a.kind = u < kShareBatch                     ? Kind::kBatch
               : u < kShareBatch + kShareGenerated ? Kind::kGenerated
                                                   : Kind::kBundled;
      arrivals.push_back(a);
    }
  }
};

/// Gives every arrival of `schedules` its content. Per kind, the contents
/// 0, 1, .., n-1, 0, 1, .. are dealt until every arrival of that kind has
/// one, then shuffled by `seed`: every seed sends the same multiset of
/// contents over these phases, in its own order.
void DealContents(const Traffic& traffic, uint64_t seed,
                  const std::vector<Schedule*>& schedules) {
  uint64_t state = seed;
  for (Kind kind : {Kind::kBundled, Kind::kGenerated, Kind::kBatch}) {
    size_t n = kind == Kind::kBundled     ? traffic.bundled.size()
               : kind == Kind::kGenerated ? traffic.pool.size()
                                          : traffic.catalog.size();
    std::vector<Arrival*> slots;
    for (Schedule* schedule : schedules) {
      for (Arrival& a : schedule->arrivals) {
        if (a.kind == kind) slots.push_back(&a);
      }
    }
    std::vector<int> contents;
    for (size_t i = 0; i < slots.size(); ++i) {
      contents.push_back(static_cast<int>(i % n));
    }
    for (size_t i = contents.size(); i > 1; --i) {  // Fisher-Yates
      state = Mix(state);
      std::swap(contents[i - 1], contents[state % i]);
    }
    for (size_t i = 0; i < slots.size(); ++i) slots[i]->index = contents[i];
  }
}

/// Runs one open-loop phase on `schedule`, then waits for every answer
/// (up to kDrainTimeoutS).
PhaseStats RunPhase(Traffic* traffic, std::vector<Lane>* lanes,
                    const Schedule& phase, HostSpeed* host, SpanLog* log) {
  PhaseStats stats;
  stats.rate = phase.rate;
  stats.seconds = phase.seconds;
  const double seconds = phase.seconds;
  const std::vector<Arrival>& schedule = phase.arrivals;

  std::unordered_map<int64_t, Outstanding> outstanding;
  size_t next = 0;
  size_t rr = 0;
  int64_t start = NowNs();
  int64_t window_end = start + static_cast<int64_t>(seconds * 1e9);
  int64_t give_up = start + static_cast<int64_t>((seconds + kDrainTimeoutS) * 1e9);

  auto handle_line = [&](const std::string& line, int lane_index) {
    int64_t now = NowNs();
    wave::StatusOr<wave::serve::ResponseEnvelope> response =
        wave::serve::ParseResponseLine(line);
    int64_t decoded = NowNs();
    stats.decode_us.push_back((decoded - now) / 1e3);
    if (!response.ok()) {
      ++stats.errors;
      return;
    }
    auto it = outstanding.find(std::strtoll(response->id.c_str(), nullptr, 10));
    if (response->id.empty() || it == outstanding.end()) {
      ++stats.errors;
      return;
    }
    Outstanding req = it->second;
    outstanding.erase(it);
    if (now <= window_end) ++stats.answered_in_window;
    stats.answered_s = (now - start) / 1e9;
    double ms = (now - req.due_ns) / 1e6;
    if (!response->ok) {
      if (response->status.code() == wave::StatusCode::kResourceExhausted) {
        ++stats.refused;
      } else {
        ++stats.errors;
      }
      ms = kMissedMs;
    } else if (!CheckResponse(*traffic, req, response->response)) {
      ++stats.wrong;
      std::fprintf(stderr, "perfbench: wrong verdict for request %s\n",
                   response->id.c_str());
      ms = kMissedMs;
    } else {
      ++stats.ok;
    }
    stats.latency_ms.push_back(ms);
    stats.timed.emplace_back(ms == kMissedMs ? 0 : req.due_ns,
                             ms == kMissedMs ? 0 : now);
    if (log->enabled()) {
      const char* name = req.kind == Kind::kBatch       ? "serve.batch"
                         : req.kind == Kind::kGenerated ? "serve.generated"
                                                        : "serve.recheck";
      int64_t request = std::strtoll(response->id.c_str(), nullptr, 10);
      log->Add(log->NewId(), "wire.decode", now, decoded, req.span, request,
               lane_index);
      log->Add(req.span, name, req.due_ns, now, 0, request, lane_index);
    }
  };

  std::vector<pollfd> fds(lanes->size());
  while (next < schedule.size() || !outstanding.empty()) {
    int64_t now = NowNs();
    if (now > give_up) break;
    // Send every request that is due.
    while (next < schedule.size() && start + schedule[next].at_ns <= now) {
      const Arrival& a = schedule[next++];
      int64_t id = ++traffic->next_id;
      int lane_index = static_cast<int>(rr++ % lanes->size());
      Lane& lane = (*lanes)[lane_index];
      int64_t enc0 = NowNs();
      std::string ids = std::to_string(id);
      switch (a.kind) {
        case Kind::kBundled:
          lane.out += traffic->bundled_frames[a.index].With(ids);
          break;
        case Kind::kBatch:
          lane.out += traffic->batch_frames[a.index].With(ids);
          break;
        case Kind::kGenerated: {
          wave::testing::FuzzCase fresh = traffic->pool[a.index].fuzz;
          fresh.decls[0] =
              "app g" + std::to_string(++traffic->generated_serial);
          wave::serve::RequestEnvelope envelope;
          envelope.id = ids;
          envelope.verb = wave::serve::Verb::kVerify;
          envelope.spec_text = fresh.Text();
          envelope.request = wave::obs::Json::Object();
          envelope.request.Set("property_index", wave::obs::Json::Int(0));
          lane.out += wave::serve::FrameLine(
              wave::serve::RequestEnvelopeToJson(envelope));
          break;
        }
      }
      int64_t enc1 = NowNs();
      int64_t due = start + a.at_ns;
      stats.lateness_ms.push_back((enc0 - due) / 1e6);
      Outstanding req{due, log->NewId(), a.kind, a.index};
      if (log->enabled()) {
        log->Add(log->NewId(), "wire.encode", enc0, enc1, req.span, id,
                 lane_index);
      }
      outstanding.emplace(id, req);
      ++stats.sent;
    }
    // Flush, then wait for input or the next due time.
    for (size_t i = 0; i < lanes->size(); ++i) {
      Lane& lane = (*lanes)[i];
      while (lane.out_off < lane.out.size()) {
        ssize_t n = ::send(lane.fd, lane.out.data() + lane.out_off,
                           lane.out.size() - lane.out_off,
                           MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n <= 0) break;
        lane.out_off += static_cast<size_t>(n);
      }
      if (lane.out_off == lane.out.size()) {
        lane.out.clear();
        lane.out_off = 0;
      }
      fds[i].fd = lane.fd;
      fds[i].events = POLLIN | (lane.out.empty() ? 0 : POLLOUT);
      fds[i].revents = 0;
    }
    if (outstanding.empty() && next < schedule.size() &&
        start + schedule[next].at_ns - NowNs() >
            static_cast<int64_t>(kHostIdleMs * 1e6)) {
      host->MaybeSample(kHostSampleMs);
    }
    int64_t wait_ns = 50'000'000;
    if (next < schedule.size()) {
      wait_ns = std::max<int64_t>(start + schedule[next].at_ns - NowNs(), 0);
    }
    timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                     static_cast<long>(wait_ns % 1'000'000'000)};
    if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) <= 0) continue;
    for (size_t i = 0; i < lanes->size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Lane& lane = (*lanes)[i];
      char buf[65536];
      ssize_t n = ::recv(lane.fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n <= 0) continue;
      lane.in.append(buf, static_cast<size_t>(n));
      size_t begin = 0;
      for (size_t nl; (nl = lane.in.find('\n', begin)) != std::string::npos;
           begin = nl + 1) {
        handle_line(lane.in.substr(begin, nl - begin), static_cast<int>(i));
      }
      lane.in.erase(0, begin);
    }
  }
  stats.dropped = static_cast<int64_t>(outstanding.size());
  for (size_t i = 0; i < outstanding.size(); ++i) {
    stats.latency_ms.push_back(kMissedMs);
    stats.timed.emplace_back(0, 0);
  }
  return stats;
}

/// Daemon metrics document via the `metrics` verb.
std::optional<wave::obs::Json> Snapshot(int port) {
  int fd = Connect(port);
  if (fd < 0) return std::nullopt;
  wave::serve::RequestEnvelope envelope;
  envelope.id = "metrics";
  envelope.verb = wave::serve::Verb::kMetrics;
  std::string buffer;
  std::optional<wave::serve::ResponseEnvelope> r;
  if (SendAll(fd, wave::serve::FrameLine(
                      wave::serve::RequestEnvelopeToJson(envelope)))) {
    r = ReadResponse(fd, &buffer);
  }
  ::close(fd);
  if (!r || !r->ok) return std::nullopt;
  return r->response;
}

double Counter(const wave::obs::Json& snap, const char* name) {
  const wave::obs::Json* counters = snap.Find("metrics");
  if (counters != nullptr) counters = counters->Find("counters");
  const wave::obs::Json* v = counters ? counters->Find(name) : nullptr;
  return v != nullptr ? v->AsDouble() : 0;
}

double HistogramField(const wave::obs::Json& snap, const char* name,
                      const char* field) {
  const wave::obs::Json* h = snap.Find("metrics");
  if (h != nullptr) h = h->Find("histograms");
  if (h != nullptr) h = h->Find(name);
  const wave::obs::Json* v = h ? h->Find(field) : nullptr;
  return v != nullptr ? v->AsDouble() : 0;
}

double Sessions(const wave::obs::Json& snap, const char* field) {
  const wave::obs::Json* s = snap.Find("sessions");
  const wave::obs::Json* v = s ? s->Find(field) : nullptr;
  return v != nullptr ? v->AsDouble() : 0;
}

/// (start, end) ns of one timed step.
using Interval = std::pair<int64_t, int64_t>;

/// Spawns a daemon on a fresh cache directory (`*start`: until it
/// accepts), then touches the whole bundled catalog once, one cold `batch`
/// per spec (`*batches`: until each verdict). Samples `host` before the
/// spawn and after each batch.
bool SetUpDaemon(const RunOptions& options, const Traffic& traffic,
                 const std::string& cache_dir, Daemon* daemon,
                 HostSpeed* host, Interval* start,
                 std::vector<Interval>* batches) {
  std::error_code ec;
  std::filesystem::remove_all(cache_dir, ec);
  host->Sample();
  int64_t t0 = NowNs();
  if (!daemon->Start(options.serve_bin, cache_dir)) return false;
  int fd = Connect(daemon->port());
  if (fd < 0) return false;
  int64_t t1 = NowNs();
  // One batch at a time, as a CI client checking spec after spec would:
  // one executor works at a time, so the time does not depend on how the
  // host schedules two of them.
  bool ok = true;
  std::string buffer;
  for (size_t s = 0; s < traffic.catalog.size() && ok; ++s) {
    int64_t b0 = NowNs();
    ok = SendAll(fd, traffic.batch_frames[s].With(std::to_string(s)));
    std::optional<wave::serve::ResponseEnvelope> r =
        ok ? ReadResponse(fd, &buffer) : std::nullopt;
    Outstanding req{0, 0, Kind::kBatch, static_cast<int>(s)};
    ok = r && r->ok && r->id == std::to_string(s) &&
         CheckResponse(traffic, req, r->response);
    batches->emplace_back(b0, NowNs());
    host->Sample();
  }
  *start = {t0, t1};
  ::close(fd);
  if (!ok) std::fprintf(stderr, "perfbench: catalog touch failed\n");
  return ok;
}

void PrintPhase(const char* name, const PhaseStats& p) {
  std::printf(
      "serve %-10s rate=%6.1f/s sent=%lld ok=%lld failed=%lld "
      "p50=%.3fms p99=%.3fms late_p99=%.3fms done=%.1f/s\n",
      name, p.rate, static_cast<long long>(p.sent),
      static_cast<long long>(p.ok), static_cast<long long>(p.failed()),
      Quantile(p.latency_ms, 0.5), Quantile(p.latency_ms, 0.99),
      Quantile(p.lateness_ms, 0.99), p.completed_per_s());
}

enum class Role { kLow, kHigh, kProbe };

struct PhaseRun {
  Role role = Role::kHigh;
  PhaseStats stats;
  Interval start;    // daemon spawn until it accepts
  std::vector<Interval> catalog;  // cold whole-catalog touch, per batch
  std::optional<wave::obs::Json> before;  // metrics around the phase
  std::optional<wave::obs::Json> after;
  double peak_rss_mb = 0;
  int64_t cache_entries = 0;
  bool drained = false;
};

/// One phase against its own freshly set-up daemon, so every phase starts
/// from the same state (empty cache plus the touched catalog) whatever
/// ran before it.
bool RunFreshPhase(const RunOptions& options, Traffic* traffic,
                   const Schedule& schedule, HostSpeed* host, SpanLog* log,
                   PhaseRun* run) {
  std::string cache_dir = options.work_dir + "/serve-cache";
  Daemon daemon;
  if (!SetUpDaemon(options, *traffic, cache_dir, &daemon, host, &run->start,
                   &run->catalog)) {
    return false;
  }

  int num_lanes = std::clamp(
      static_cast<int>(std::thread::hardware_concurrency()), 1, 4);
  std::vector<Lane> lanes(num_lanes);
  bool connected = true;
  for (Lane& lane : lanes) {
    lane.fd = Connect(daemon.port());
    connected = connected && lane.fd >= 0;
  }
  run->before = Snapshot(daemon.port());
  if (connected && run->before) {
    run->stats = RunPhase(traffic, &lanes, schedule, host, log);
    run->after = Snapshot(daemon.port());
  }
  run->peak_rss_mb = PeakRssMb(daemon.pid());
  for (Lane& lane : lanes) {
    if (lane.fd >= 0) ::close(lane.fd);
  }
  run->drained = daemon.Drain();
  std::error_code ec;
  for (const auto& e :
       std::filesystem::directory_iterator(cache_dir + "/entries", ec)) {
    run->cache_entries += e.is_regular_file() ? 1 : 0;
  }
  return connected && run->before.has_value();
}

}  // namespace

bool RunServe(const RunOptions& options, RunResult* result) {
  Traffic traffic;
  traffic.catalog = LoadCatalog(options.root);
  if (traffic.catalog.empty()) return false;
  for (size_t s = 0; s < traffic.catalog.size(); ++s) {
    const CatalogSpec& spec = traffic.catalog[s];
    traffic.batch_frames.push_back(FrameTemplate::Of(
        wave::serve::Verb::kBatch, spec.text, wave::obs::Json::Object()));
    for (size_t p = 0; p < spec.properties.size(); ++p) {
      traffic.bundled.emplace_back(static_cast<int>(s), static_cast<int>(p));
      traffic.bundled_frames.push_back(
          FrameTemplate::Of(wave::serve::Verb::kVerify, spec.text,
                            PropertyRequest(spec.properties[p])));
    }
  }
  int skipped = 0;
  traffic.pool = DrawReferenceCorpus(kPoolSeed,
                                     kGeneratedPool, kPoolConfig, &skipped);
  if (static_cast<int>(traffic.pool.size()) != kGeneratedPool) return false;
  for (const ReferenceCase& c : traffic.pool) {
    if (c.fuzz.decls.empty() || c.fuzz.decls[0].rfind("app ", 0) != 0) {
      std::fprintf(stderr, "perfbench: generated case lacks an app line\n");
      return false;
    }
  }

  // Timed window: repeats of the fixed-rate phases and the ladder
  // bisection. Every phase sets up its own daemon, so phases are
  // independent and short: the daemon slows as its cache grows, and a
  // long phase would measure that drift rather than the rate.
  SpanLog log(options.trace);
  HostSpeed host;
  double s = options.seconds;
  // The fixed-rate repeats, salts 1..kFixedRepeats; the traced run makes
  // its first two low-rate ones. Their contents are dealt together.
  int low_repeats = options.trace ? 2 : 0;
  std::vector<Schedule> fixed_schedules;
  for (int i = 0; i < kFixedRepeats; ++i) {
    fixed_schedules.emplace_back(i < low_repeats ? kLowRate : kHighRate,
                                 kRepeatShare * s, i + 1);
  }
  std::vector<Schedule*> dealt;
  for (Schedule& schedule : fixed_schedules) dealt.push_back(&schedule);
  DealContents(traffic, options.seed, dealt);

  std::vector<PhaseRun> runs;
  // Runs into runs.back(), which the caller has added.
  auto phase = [&](const Schedule& schedule, const char* name) {
    bool ok = RunFreshPhase(options, &traffic, schedule, &host, &log,
                            &runs.back());
    if (ok) PrintPhase(name, runs.back().stats);
    return ok;
  };
  // Fixed-rate repeats interleave with the ladder probes, so a passing
  // disturbance on the shared host lands in few repeats.
  int fixed_done = 0;
  auto fixed = [&] {
    bool is_low = fixed_done < low_repeats;
    runs.emplace_back();
    runs.back().role = is_low ? Role::kLow : Role::kHigh;
    return phase(fixed_schedules[fixed_done++], is_low ? "low" : "high");
  };
  double sustained = 0;
  int lo = -1, hi = kLadderRungs;
  while (hi - lo > 1) {
    if (!fixed()) return false;
    int mid = (lo + hi) / 2;
    double rate = kLadderBase * std::pow(kLadderStep, mid);
    Schedule probe_schedule(rate, kProbeShare * s, 16 + mid);
    DealContents(traffic, Mix(options.seed ^ (16 + mid)), {&probe_schedule});
    runs.emplace_back();
    runs.back().role = Role::kProbe;
    if (!phase(probe_schedule, "probe")) return false;
    const PhaseStats& probe = runs.back().stats;
    bool ok = probe.MeetsLimit();
    std::printf("serve probe at %.1f/s %s the %.0f ms limit\n", rate,
                ok ? "meets" : "misses", kLatencyLimitMs);
    if (ok) sustained = std::max(sustained, probe.completed_per_s());
    (ok ? lo : hi) = mid;
  }
  while (fixed_done < kFixedRepeats) {
    if (!fixed()) return false;
  }

  PhaseStats low, high;
  std::vector<double> start_s, catalog_s, high_p50, high_p90, high_rss;
  std::vector<double> raw_catalog_s, raw_high_p50;
  std::vector<double> queue_p50, queue_p99, entries;
  std::vector<const PhaseRun*> high_runs;
  for (const PhaseRun& run : runs) {
    auto seconds = [](Interval at) { return (at.second - at.first) / 1e9; };
    start_s.push_back(
        host.Scale(seconds(run.start), run.start.first, run.start.second));
    double touch = 0, raw_touch = 0;
    for (Interval batch : run.catalog) {
      touch += host.Scale(seconds(batch), batch.first, batch.second);
      raw_touch += seconds(batch);
    }
    catalog_s.push_back(touch);
    raw_catalog_s.push_back(raw_touch);
    if (!run.drained) result->Fail("wave_serve did not drain cleanly");
    if (!run.after) result->Fail("no metrics snapshot after a phase");
    // Requests of the fixed-rate phases all count; the ladder probes
    // overload on purpose, so only their wrong verdicts and errors do.
    const PhaseStats& p = run.stats;
    result->attempted += p.sent;
    int64_t failed =
        run.role == Role::kProbe ? p.wrong + p.errors : p.failed();
    for (int64_t k = 0; k < failed; ++k) {
      result->Fail("request failed (wrong, error, refused or dropped)");
    }
    if (run.role == Role::kLow) low.Merge(p);
    if (run.role != Role::kHigh) continue;
    high.Merge(p);
    high_runs.push_back(&run);
    std::vector<double> scaled = p.ScaledLatencyMs(host);
    high_p50.push_back(Quantile(scaled, 0.5));
    high_p90.push_back(Quantile(scaled, 0.9));
    raw_high_p50.push_back(Quantile(p.latency_ms, 0.5));
    high_rss.push_back(run.peak_rss_mb);
    entries.push_back(static_cast<double>(run.cache_entries));
    if (run.after) {
      queue_p50.push_back(
          HistogramField(*run.after, "serve.queue_wait_seconds", "p50"));
      queue_p99.push_back(
          HistogramField(*run.after, "serve.queue_wait_seconds", "p99"));
    }
  }
  std::vector<double> high_ms = high.ScaledLatencyMs(host);
  std::printf("serve: %zu high-rate repeats, %zu requests pooled\n",
              high_runs.size(), high.latency_ms.size());
  std::printf("serve: unscaled catalog_s=%.4f verdict_ms_p50=%.4f "
              "verdict_ms_p99=%.4f; pooled scaled p50=%.4f p90=%.4f\n",
              Quantile(raw_catalog_s, 0.5), Quantile(raw_high_p50, 0.5),
              Quantile(high.latency_ms, 0.99), Quantile(high_ms, 0.5),
              Quantile(high_ms, 0.9));
  std::printf("%s\n", host.Describe().c_str());

  // Set-up is the daemon's start; the cold catalog touch that follows it
  // is serve's catalog_s, the daemon-side counterpart of paper's. Both are
  // medians over every phase. p50 and p90 are medians of the per-repeat
  // values; p99 needs the pooled sample (about 1,900 requests) to have
  // ten beyond it. All are scaled times (hostspeed.h).
  if (!options.trace) {
    result->Add("setup_s", Quantile(start_s, 0.5), "s");
    result->Add("catalog_s", Quantile(catalog_s, 0.5), "s");
    result->Add("verdict_ms_p50", Quantile(high_p50, 0.5), "ms");
    result->Add("verdict_ms_p90", Quantile(high_p90, 0.5), "ms");
    result->Add("verdict_ms_p99", Quantile(high_ms, 0.99), "ms");
    result->Add("verdicts_per_s", sustained, "1/s");
    result->Add("peak_rss_mb", Quantile(high_rss, 0.5), "MB");
    return true;
  }

  // Daemon-side layers of the high-rate repeats: counters are exact sums
  // of before/after `metrics` snapshot differences. Histograms are
  // cumulative summaries, so queue-wait quantiles come from each
  // after-snapshot (set-up adds only the four catalog-touch batches) and
  // the service-time mean from count/sum differences.
  LayerReport report;
  std::map<std::string, double> sums;
  auto add = [&](const char* key, double v) { sums[key] += v; };
  for (const PhaseRun* run : high_runs) {
    if (!run->after) continue;
    const wave::obs::Json& b = *run->before;
    const wave::obs::Json& a = *run->after;
    for (const char* name :
         {"verify.cache.misses", "verify.cache.hits", "verify.cache.stores",
          "verify.cache.lock_waits", "verify.prepare_us", "verify.dataflow_us",
          "verify.search_us", "verify.assignments", "verify.cores",
          "verify.expansions", "verify.successors", "trie.hits",
          "trie.misses", "gpvw.states_before_simplify", "serve.rejected"}) {
      add(name, Counter(a, name) - Counter(b, name));
    }
    for (const char* field : {"hits", "misses", "evictions"}) {
      add(field, Sessions(a, field) - Sessions(b, field));
    }
    add("served", HistogramField(a, "serve.latency_seconds", "count") -
                      HistogramField(b, "serve.latency_seconds", "count"));
    add("service_s",
        (HistogramField(a, "serve.latency_seconds", "sum") -
         HistogramField(b, "serve.latency_seconds", "sum")) -
            (HistogramField(a, "serve.queue_wait_seconds", "sum") -
             HistogramField(b, "serve.queue_wait_seconds", "sum")));
  }
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  double searched = sums["verify.cache.misses"];
  report.Set("prepare.plan_ms", ratio(sums["verify.prepare_us"] / 1e3, searched));
  report.Set("analysis.prepass_ms",
             ratio(sums["verify.dataflow_us"] / 1e3, searched));
  report.Set("search.run_ms", ratio(sums["verify.search_us"] / 1e3, searched));
  report.Set("analysis.assignments", sums["verify.assignments"]);
  report.Set("analysis.cores", sums["verify.cores"]);
  report.Set("search.expansions", sums["verify.expansions"]);
  report.Set("search.successors", sums["verify.successors"]);
  report.Set("search.new_config_ratio",
             ratio(sums["trie.misses"], sums["trie.hits"] + sums["trie.misses"]));
  report.Set("prepare.gpvw_states_before_simplify",
             sums["gpvw.states_before_simplify"]);
  report.Set("serve.queue_wait_ms_p50", Quantile(queue_p50, 0.5) * 1e3);
  report.Set("serve.queue_wait_ms_p99", Quantile(queue_p99, 0.5) * 1e3);
  report.Set("serve.service_ms_mean",
             ratio(sums["service_s"] * 1e3, sums["served"]));
  report.Set("serve.rejected", sums["serve.rejected"]);
  report.Set("session_pool.hit_ratio",
             ratio(sums["hits"], sums["hits"] + sums["misses"]));
  report.Set("session_pool.evictions", sums["evictions"]);
  report.Set("cache.hit_ratio", ratio(sums["verify.cache.hits"],
                                      sums["verify.cache.hits"] + searched));
  report.Set("cache.stores", sums["verify.cache.stores"]);
  report.Set("cache.lock_waits", sums["verify.cache.lock_waits"]);
  report.Set("cache.entries_end", Quantile(entries, 0.5));
  PhaseStats both = low;
  both.Merge(high);
  report.Set("wire.decode_us_p50", Quantile(both.decode_us, 0.5));
  report.Set("loadgen.lateness_ms_p99", Quantile(both.lateness_ms, 0.99));
  report.Set("loadgen.latency_ms_p50.low", Quantile(low.latency_ms, 0.5));
  report.Set("loadgen.latency_ms_p99.low", Quantile(low.latency_ms, 0.99));
  report.Set("corpus.skipped", skipped);
  report.Set("trace.overhead_frac", log.bookkeeping_ns() / (s * 1e9));
  report.Emit(result);
  std::printf("%s", log.SelfTimeTable().c_str());
  WriteTrace(log, options);
  return true;
}

}  // namespace perfbench
