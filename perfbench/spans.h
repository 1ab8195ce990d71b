// In-memory span log of the traced benchmark run.
//
// Spans are recorded by the harness around its own calls into WAVE's
// public functions (parser, spec, session, verifier, wire protocol); no
// tracing happens inside the program. Each span has a name, a start and
// an end, the id of the span that caused it, and the id of the request
// (property, case or daemon request) it belongs to. Everything stays in
// memory until `WriteChromeTrace` at the end of the run.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic clock in nanoseconds (steady_clock).
int64_t NowNs();

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = 0;   // 0 = root
  int64_t request = 0;  // shared by every span of one request
  int lane = 0;         // Chrome trace thread lane
};

/// Per-name totals: how often the span ran, its summed duration, and its
/// self time (duration minus the part covered by its child spans).
struct LayerTime {
  int64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};

class SpanLog {
 public:
  /// A disabled log records nothing and every call is a branch.
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Reserves an id for a span whose end is not known yet (0 when
  /// disabled).
  int64_t NewId() { return enabled_ ? ++last_id_ : 0; }

  /// Records a finished span under a reserved id.
  void Add(int64_t id, std::string name, int64_t start_ns, int64_t end_ns,
           int64_t parent, int64_t request, int lane = 0);

  /// Time spent inside `Add`, which is what tracing costs the serve
  /// workload's load generator.
  int64_t bookkeeping_ns() const { return bookkeeping_ns_; }

  std::map<std::string, LayerTime> LayerTimes() const;

  /// One line per span name: count, total, self, self share.
  std::string SelfTimeTable() const;

  /// Chrome trace-event JSON ("X" events, microseconds).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  friend class ScopedSpan;

  bool enabled_;
  int64_t last_id_ = 0;
  int64_t open_ = 0;  // innermost open ScopedSpan
  int64_t bookkeeping_ns_ = 0;
  std::vector<Span> spans_;
};

/// RAII span nested under the innermost open `ScopedSpan` of the same
/// log; synchronous call nesting only.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int64_t request);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  const char* name_;
  int64_t request_;
  int64_t id_;
  int64_t parent_;
  int64_t start_ns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
