#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SpanLog::Add(int64_t id, std::string name, int64_t start_ns,
                  int64_t end_ns, int64_t parent, int64_t request, int lane) {
  if (!enabled_) return;
  int64_t t0 = NowNs();
  spans_.push_back(
      Span{std::move(name), start_ns, end_ns, id, parent, request, lane});
  bookkeeping_ns_ += NowNs() - t0;
}

std::map<std::string, LayerTime> SpanLog::LayerTimes() const {
  // Children's durations, clipped to their parent's interval, per parent.
  std::unordered_map<int64_t, const Span*> by_id;
  for (const Span& s : spans_) by_id[s.id] = &s;
  std::unordered_map<int64_t, int64_t> covered_ns;
  for (const Span& s : spans_) {
    auto it = by_id.find(s.parent);
    if (it == by_id.end()) continue;
    const Span& p = *it->second;
    int64_t lo = std::max(s.start_ns, p.start_ns);
    int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) covered_ns[p.id] += hi - lo;
  }
  std::map<std::string, LayerTime> out;
  for (const Span& s : spans_) {
    LayerTime& t = out[s.name];
    int64_t dur = s.end_ns - s.start_ns;
    auto c = covered_ns.find(s.id);
    int64_t self = dur - (c == covered_ns.end() ? 0 : c->second);
    ++t.count;
    t.total_ms += dur / 1e6;
    t.self_ms += std::max<int64_t>(self, 0) / 1e6;
  }
  return out;
}

std::string SpanLog::SelfTimeTable() const {
  std::map<std::string, LayerTime> layers = LayerTimes();
  double all_self = 0;
  for (const auto& [name, t] : layers) all_self += t.self_ms;
  std::string out = "span                      count     total_ms      self_ms  self%\n";
  char line[160];
  for (const auto& [name, t] : layers) {
    std::snprintf(line, sizeof(line), "%-22s %8lld %12.3f %12.3f %6.2f\n",
                  name.c_str(), static_cast<long long>(t.count), t.total_ms,
                  t.self_ms, all_self > 0 ? 100.0 * t.self_ms / all_self : 0.0);
    out += line;
  }
  return out;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  std::fputs("{\"traceEvents\":[", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Span names are fixed identifiers: no JSON escaping needed.
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                 "\"parent\":%lld,\"request\":%lld}}",
                 i == 0 ? "" : ",", s.name.c_str(), s.lane + 1,
                 (s.start_ns - origin) / 1e3, (s.end_ns - s.start_ns) / 1e3,
                 static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 static_cast<long long>(s.request));
  }
  std::fputs("\n],\"displayTimeUnit\":\"ms\"}\n", f);
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanLog* log, const char* name, int64_t request)
    : log_(log), name_(name), request_(request), id_(0), parent_(0),
      start_ns_(0) {
  if (!log_->enabled()) return;
  id_ = log_->NewId();
  parent_ = log_->open_;
  log_->open_ = id_;
  start_ns_ = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!log_->enabled()) return;
  int64_t end = NowNs();
  log_->open_ = parent_;
  log_->Add(id_, name_, start_ns_, end, parent_, request_);
}

}  // namespace perfbench
