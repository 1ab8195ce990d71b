#include "serve/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/io.h"
#include "common/stopwatch.h"
#include "obs/tracer.h"
#include "serve/protocol.h"

namespace wave::serve {
namespace {

Status Errno(const std::string& what) {
  return Status::Unavailable(what + ": " + ::strerror(errno), WAVE_LOC);
}

/// What `LineReader::ReadLine` found.
enum class ReadResult {
  kLine,       // a line is in `*line`, without its '\n'
  kEof,        // the client closed between lines
  kError,      // a read error, or EOF inside a line
  kOversized,  // the line passed `kMaxRequestLine`
};

/// Buffered newline framing over a socket fd. Each byte is scanned for
/// '\n' once and consumed lines are dropped once per `recv`, so framing
/// is linear in the bytes received. A line longer than `kMaxRequestLine`
/// ends the connection: a runaway frame must not eat the heap.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  ReadResult ReadLine(std::string* line) {
    for (;;) {
      size_t nl = buffer_.find('\n', scanned_);
      if (nl != std::string::npos) {
        if (nl - start_ > kMaxRequestLine) return ReadResult::kOversized;
        line->assign(buffer_, start_, nl - start_);
        start_ = scanned_ = nl + 1;
        return ReadResult::kLine;
      }
      // One compaction per recv drops the consumed lines; `scanned_`
      // keeps the unfinished line's bytes from being scanned again.
      buffer_.erase(0, start_);
      start_ = 0;
      scanned_ = buffer_.size();
      if (buffer_.size() > kMaxRequestLine) return ReadResult::kOversized;
      char chunk[4096];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n == 0) {  // EOF inside a line is an error
        return buffer_.empty() ? ReadResult::kEof : ReadResult::kError;
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        return ReadResult::kError;
      }
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buffer_;
  size_t start_ = 0;    // where the next line begins in `buffer_`
  size_t scanned_ = 0;  // [start_, scanned_) holds no '\n'
};

/// One client connection. The fd closes with the LAST reference — queued
/// jobs hold the connection alive, so an fd number is never recycled
/// under a response still destined for it.
struct Connection {
  int fd = -1;
  int64_t id = 0;
  std::string name;  // "c<id>", the per-client metrics label
  std::mutex write_mu;
  std::thread reader;
  std::atomic<bool> done{false};

  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
};

struct Job {
  std::shared_ptr<Connection> conn;
  RequestEnvelope envelope;
  Stopwatch queued;  // started at admission; yields wait + total latency
};

/// Bounded job queue with per-client round-robin fairness: one deque per
/// connection, served in rotation, so a flooding client holds exactly one
/// turn per cycle regardless of how many jobs it has parked.
class AdmissionQueue {
 public:
  explicit AdmissionQueue(int capacity) : capacity_(capacity) {}

  Status Push(Job job) {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) {
      return Status::ShuttingDown("server draining; request not admitted",
                                  WAVE_LOC);
    }
    if (size_ >= capacity_) {
      return Status::ResourceExhausted(
          "admission queue full (" + std::to_string(capacity_) + " queued)",
          WAVE_LOC);
    }
    int64_t client = job.conn->id;
    std::deque<Job>& lane = per_client_[client];
    if (lane.empty()) rotation_.push_back(client);
    lane.push_back(std::move(job));
    ++size_;
    cv_.notify_one();
    return Status::Ok();
  }

  /// Blocks for the next job (round-robin across clients); false once the
  /// queue is draining — the executor's signal to exit.
  bool Pop(Job* out) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return draining_ || size_ > 0; });
    if (draining_) return false;
    int64_t client = rotation_.front();
    rotation_.pop_front();
    std::deque<Job>& lane = per_client_[client];
    *out = std::move(lane.front());
    lane.pop_front();
    if (lane.empty()) {
      per_client_.erase(client);
    } else {
      rotation_.push_back(client);  // one job per turn: fairness
    }
    --size_;
    return true;
  }

  /// Flips to draining and returns every queued job (for SHUTTING_DOWN
  /// responses); wakes all blocked `Pop`s.
  std::vector<Job> Drain() {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
    std::vector<Job> leftover;
    for (int64_t client : rotation_) {
      std::deque<Job>& lane = per_client_[client];
      for (Job& job : lane) leftover.push_back(std::move(job));
    }
    per_client_.clear();
    rotation_.clear();
    size_ = 0;
    cv_.notify_all();
    return leftover;
  }

  int depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return size_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  int capacity_;
  int size_ = 0;
  bool draining_ = false;
  std::map<int64_t, std::deque<Job>> per_client_;
  std::deque<int64_t> rotation_;  // clients with queued jobs, in turn order
};

}  // namespace

class Server::Impl {
 public:
  explicit Impl(const ServerOptions& options)
      : options_(options),
        metrics_(options.metrics != nullptr ? options.metrics
                                            : &owned_metrics_),
        sessions_(options.session_capacity, options.cache_dir),
        queue_(options.queue_capacity) {}

  ~Impl() { Shutdown(); }

  Status Listen() {
    if (!options_.socket_path.empty()) {
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
        return Status::InvalidArgument(
            "socket path too long: " + options_.socket_path, WAVE_LOC);
      }
      ::strncpy(addr.sun_path, options_.socket_path.c_str(),
                sizeof(addr.sun_path) - 1);
      listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (listen_fd_ < 0) return Errno("socket");
      ::unlink(options_.socket_path.c_str());  // replace a stale socket file
      if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                 sizeof(addr)) != 0) {
        return Errno("bind " + options_.socket_path);
      }
      socket_path_ = options_.socket_path;
    } else {
      listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
      if (listen_fd_ < 0) return Errno("socket");
      int one = 1;
      ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = ::htonl(INADDR_LOOPBACK);
      addr.sin_port = ::htons(static_cast<uint16_t>(options_.port));
      if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                 sizeof(addr)) != 0) {
        return Errno("bind 127.0.0.1:" + std::to_string(options_.port));
      }
      sockaddr_in bound{};
      socklen_t len = sizeof(bound);
      if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                        &len) != 0) {
        return Errno("getsockname");
      }
      resolved_port_ = ::ntohs(bound.sin_port);
    }
    if (::listen(listen_fd_, 64) != 0) return Errno("listen");
    return Status::Ok();
  }

  void StartThreads() {
    accept_thread_ = std::thread(&Impl::AcceptLoop, this);
    executors_.reserve(static_cast<size_t>(options_.executors));
    for (int i = 0; i < options_.executors; ++i) {
      executors_.emplace_back(&Impl::ExecutorLoop, this);
    }
  }

  int port() const { return resolved_port_; }
  const std::string& socket_path() const { return socket_path_; }
  obs::MetricsRegistry& metrics() { return *metrics_; }
  const SessionPool& sessions() const { return sessions_; }

  void RequestShutdown() {
    shutdown_requested_.store(true, std::memory_order_relaxed);
  }
  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_relaxed);
  }

  void Shutdown() {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    if (stopped_) return;
    draining_.store(true, std::memory_order_relaxed);

    // 1. Stop accepting (the poll loop observes `draining_`).
    if (accept_thread_.joinable()) accept_thread_.join();
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    if (!socket_path_.empty()) ::unlink(socket_path_.c_str());

    // 2. Queued-but-unstarted jobs get a typed SHUTTING_DOWN; executors
    //    finish whatever they are mid-way through, then exit.
    std::vector<Job> leftover = queue_.Drain();
    for (Job& job : leftover) {
      metrics_->Add("serve.shutdown_rejected");
      WriteFrame(*job.conn,
                 ErrorEnvelope(job.envelope.id,
                               Status::ShuttingDown(
                                   "server draining; request not started",
                                   WAVE_LOC)));
    }
    for (std::thread& t : executors_) {
      if (t.joinable()) t.join();
    }

    // 3. In-flight responses are written; now hang up and join readers.
    std::vector<std::shared_ptr<Connection>> conns;
    {
      std::lock_guard<std::mutex> conns_lock(conns_mu_);
      conns.swap(conns_);
    }
    for (auto& conn : conns) ::shutdown(conn->fd, SHUT_RDWR);
    for (auto& conn : conns) {
      if (conn->reader.joinable()) conn->reader.join();
    }
    stopped_ = true;
  }

 private:
  void AcceptLoop() {
    for (;;) {
      if (draining_.load(std::memory_order_relaxed)) return;
      pollfd pfd{listen_fd_, POLLIN, 0};
      int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
      if (ready < 0) {
        if (errno == EINTR) continue;
        return;
      }
      if (ready == 0) continue;
      int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        return;
      }
      fault::Action fa = WAVE_FAULT("serve.accept");
      if (fault::IsError(fa)) {
        metrics_->Add("serve.accept_errors");
        ::close(fd);
        continue;
      }
      auto conn = std::make_shared<Connection>();
      conn->fd = fd;
      {
        std::lock_guard<std::mutex> lock(conns_mu_);
        conn->id = ++next_conn_id_;
        conn->name = "c" + std::to_string(conn->id);
        conns_.push_back(conn);
      }
      metrics_->Add("serve.connections");
      conn->reader = std::thread(&Impl::ReaderLoop, this, conn);
      ReapDoneConnections();
    }
  }

  /// Joins reader threads of connections that hung up, so a long-lived
  /// daemon does not accumulate finished-thread handles. The Connection
  /// object itself (and its fd) lives on with any queued jobs.
  void ReapDoneConnections() {
    std::vector<std::shared_ptr<Connection>> dead;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      auto alive = conns_.begin();
      for (auto& conn : conns_) {
        if (conn->done.load(std::memory_order_acquire)) {
          dead.push_back(std::move(conn));
        } else {
          *alive++ = std::move(conn);
        }
      }
      conns_.erase(alive, conns_.end());
    }
    for (auto& conn : dead) {
      if (conn->reader.joinable()) conn->reader.join();
    }
  }

  void ReaderLoop(std::shared_ptr<Connection> conn) {
    LineReader reader(conn->fd);
    std::string line;
    for (;;) {
      ReadResult got = reader.ReadLine(&line);
      if (got == ReadResult::kOversized) {
        metrics_->Add("serve.oversized_lines");
        WriteFrame(*conn,
                   ErrorEnvelope("", Status::InvalidArgument(
                                         "request line exceeds the " +
                                             std::to_string(kMaxRequestLine) +
                                             "-byte (4 MiB) cap",
                                         WAVE_LOC)));
        break;
      }
      if (got != ReadResult::kLine) break;
      fault::Action fa = WAVE_FAULT("serve.read");
      if (fault::IsError(fa)) {
        metrics_->Add("serve.read_errors");
        break;
      }
      if (line.empty()) continue;
      HandleLine(conn, line);
    }
    ::shutdown(conn->fd, SHUT_RDWR);
    conn->done.store(true, std::memory_order_release);
  }

  void HandleLine(const std::shared_ptr<Connection>& conn,
                  const std::string& line) {
    metrics_->Add("serve.requests");
    metrics_->Add("serve.client." + conn->name + ".requests");

    StatusOr<RequestEnvelope> envelope = ParseRequestLine(line);
    if (!envelope.ok()) {
      metrics_->Add("serve.malformed");
      WriteFrame(*conn, ErrorEnvelope("", envelope.status()));
      return;
    }

    // Cheap verbs are answered on the reader thread — they must work even
    // when every executor is busy (that is the point of `metrics`).
    if (envelope->verb == Verb::kPing) {
      obs::Json pong = obs::Json::Object();
      pong.Set("pong", obs::Json::Bool(true));
      WriteFrame(*conn, OkEnvelope(envelope->id, std::move(pong)));
      return;
    }
    if (envelope->verb == Verb::kMetrics) {
      obs::Json body = obs::Json::Object();
      body.Set("metrics", metrics_->ToJson());
      SessionPoolStats pool = sessions_.stats();
      obs::Json sessions = obs::Json::Object();
      sessions.Set("hits", obs::Json::Int(pool.hits));
      sessions.Set("misses", obs::Json::Int(pool.misses));
      sessions.Set("evictions", obs::Json::Int(pool.evictions));
      body.Set("sessions", std::move(sessions));
      body.Set("queue_depth", obs::Json::Int(queue_.depth()));
      WriteFrame(*conn, OkEnvelope(envelope->id, std::move(body)));
      return;
    }

    Job job;
    job.conn = conn;
    job.envelope = std::move(*envelope);
    std::string id = job.envelope.id;
    fault::Action fa = WAVE_FAULT("serve.enqueue");
    if (fault::IsError(fa)) {
      metrics_->Add("serve.enqueue_errors");
      WriteFrame(*conn, ErrorEnvelope(id, fault::ToStatus(fa, "serve.enqueue")));
      return;
    }
    Status admitted = queue_.Push(std::move(job));
    if (!admitted.ok()) {
      metrics_->Add(admitted.code() == StatusCode::kShuttingDown
                        ? "serve.shutdown_rejected"
                        : "serve.rejected");
      WriteFrame(*conn, ErrorEnvelope(id, admitted));
      return;
    }
    int depth = queue_.depth();
    metrics_->Record("serve.queue_depth", depth);
    metrics_->Record("serve.client." + conn->name + ".queue_depth", depth);
  }

  void ExecutorLoop() {
    Job job;
    while (queue_.Pop(&job)) {
      metrics_->Record("serve.queue_wait_seconds", job.queued.ElapsedSeconds());
      obs::Tracer tracer;
      obs::Json reply;
      {
        obs::ScopedSpan span(
            &tracer, std::string("serve.") + VerbName(job.envelope.verb));
        reply = Execute(job.envelope, &tracer);
      }
      double latency = job.queued.ElapsedSeconds();
      metrics_->Record("serve.latency_seconds", latency);
      metrics_->Record("serve.client." + job.conn->name + ".latency_seconds",
                       latency);
      WriteFrame(*job.conn, reply);
      {
        // One Perfetto lane per connection (modulo a small palette).
        std::lock_guard<std::mutex> lock(tracer_mu_);
        tracer_.MergeFrom(tracer, static_cast<int>(job.conn->id % 61) + 2);
      }
    }
  }

  int ClampJobs(int jobs) const {
    if (jobs < 1 || jobs > options_.max_jobs) return options_.max_jobs;
    return jobs;
  }

  obs::Json Execute(const RequestEnvelope& envelope, obs::Tracer* tracer) {
    const std::string* spec_text = &envelope.spec_text;
    std::string file_text;
    if (!envelope.spec_path.empty()) {
      StatusOr<std::string> text = ReadFileToString(envelope.spec_path);
      if (!text.ok()) return ErrorEnvelope(envelope.id, text.status());
      file_text = std::move(*text);
      spec_text = &file_text;
    }
    StatusOr<SessionPool::Lease> lease = sessions_.Acquire(*spec_text);
    if (!lease.ok()) return ErrorEnvelope(envelope.id, lease.status());

    if (envelope.verb == Verb::kVerify) {
      StatusOr<VerifyRequest> request = api::RequestFromJson(envelope.request);
      if (!request.ok()) return ErrorEnvelope(envelope.id, request.status());
      request->properties = &lease->properties();
      request->cache = lease->cache();
      request->jobs = ClampJobs(request->jobs);
      request->options.metrics = metrics_;
      request->options.tracer = tracer;
      StatusOr<VerifyResponse> response = lease->verifier().Run(*request);
      if (!response.ok()) return ErrorEnvelope(envelope.id, response.status());
      return OkEnvelope(envelope.id,
                        api::ResponseToJson(*response, lease->spec()));
    }

    StatusOr<api::WireBatchRequest> batch =
        api::BatchRequestFromJson(envelope.request);
    if (!batch.ok()) return ErrorEnvelope(envelope.id, batch.status());
    Status bound = api::BindBatchRequest(&*batch, lease->properties());
    if (!bound.ok()) return ErrorEnvelope(envelope.id, bound);
    batch->request.cache = lease->cache();
    batch->request.jobs = ClampJobs(batch->request.jobs);
    batch->request.options.metrics = metrics_;
    batch->request.options.tracer = tracer;
    StatusOr<BatchResponse> response =
        lease->verifier().RunBatch(batch->request);
    if (!response.ok()) return ErrorEnvelope(envelope.id, response.status());
    return OkEnvelope(envelope.id,
                      api::BatchResponseToJson(*response, lease->spec()));
  }

  void WriteFrame(Connection& conn, const obs::Json& doc) {
    std::string frame = FrameLine(doc);
    std::lock_guard<std::mutex> lock(conn.write_mu);
    fault::Action fa = WAVE_FAULT("serve.write");
    if (fault::IsError(fa)) {
      // A failed response write is a dead client: hang up so the reader
      // unblocks; the client sees EOF, never a torn frame.
      metrics_->Add("serve.write_errors");
      ::shutdown(conn.fd, SHUT_RDWR);
      return;
    }
    size_t off = 0;
    while (off < frame.size()) {
      ssize_t n = ::send(conn.fd, frame.data() + off, frame.size() - off,
                         MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        metrics_->Add("serve.write_errors");
        ::shutdown(conn.fd, SHUT_RDWR);
        return;
      }
      off += static_cast<size_t>(n);
    }
    metrics_->Add("serve.responses");
  }

  ServerOptions options_;
  int listen_fd_ = -1;
  int resolved_port_ = -1;
  std::string socket_path_;

  obs::MetricsRegistry owned_metrics_;
  obs::MetricsRegistry* metrics_;
  std::mutex tracer_mu_;
  obs::Tracer tracer_;  // per-request tracers merge here, one lane per client

  SessionPool sessions_;
  AdmissionQueue queue_;

  std::atomic<bool> shutdown_requested_{false};
  std::atomic<bool> draining_{false};
  std::mutex shutdown_mu_;
  bool stopped_ = false;

  std::thread accept_thread_;
  std::vector<std::thread> executors_;

  std::mutex conns_mu_;
  int64_t next_conn_id_ = 0;
  std::vector<std::shared_ptr<Connection>> conns_;
};

Server::Server(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
Server::~Server() = default;

StatusOr<std::unique_ptr<Server>> Server::Start(const ServerOptions& options) {
  if (options.executors < 1) {
    return Status::InvalidArgument("executors must be >= 1", WAVE_LOC);
  }
  if (options.queue_capacity < 1) {
    return Status::InvalidArgument("queue_capacity must be >= 1", WAVE_LOC);
  }
  if (options.max_jobs < 1) {
    return Status::InvalidArgument("max_jobs must be >= 1", WAVE_LOC);
  }
  auto impl = std::make_unique<Impl>(options);
  WAVE_RETURN_IF_ERROR(impl->Listen());
  impl->StartThreads();
  return std::unique_ptr<Server>(new Server(std::move(impl)));
}

int Server::port() const { return impl_->port(); }
const std::string& Server::socket_path() const { return impl_->socket_path(); }
void Server::RequestShutdown() { impl_->RequestShutdown(); }
bool Server::shutdown_requested() const { return impl_->shutdown_requested(); }
void Server::Shutdown() { impl_->Shutdown(); }
obs::MetricsRegistry& Server::metrics() { return impl_->metrics(); }
const SessionPool& Server::sessions() const { return impl_->sessions(); }

}  // namespace wave::serve
