#include "common/fault.h"

#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "obs/metrics.h"
#include "obs/tracer.h"

namespace wave::fault {
namespace {

// SplitMix64 — the pinned, platform-stable generator behind probabilistic
// rules (and common/backoff jitter). Chosen over std::mt19937_64 because
// the whole state is one word, trivially seedable per plan.
uint64_t SplitMix64Next(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double UnitUniform(uint64_t* state) {
  // 53 mantissa bits -> uniform in [0, 1).
  return static_cast<double>(SplitMix64Next(state) >> 11) * 0x1.0p-53;
}

struct RuleState {
  int64_t hits = 0;   // matched evaluations of this rule
  int64_t fires = 0;  // times it actually fired
};

struct Injector {
  std::mutex mu;
  Plan plan;
  uint64_t rng = 0;
  std::vector<RuleState> rule_states;
  std::map<std::string, SiteCount> sites;  // per-site tallies, sorted
};

Injector& injector() {
  static Injector* inj = new Injector();  // leaked: usable during shutdown
  return *inj;
}

}  // namespace

namespace internal {
std::atomic<bool> g_armed{false};
}  // namespace internal

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kEio: return "eio";
    case Kind::kEnospc: return "enospc";
    case Kind::kShortWrite: return "shortwrite";
    case Kind::kDelay: return "delay";
    case Kind::kCrash: return "crash";
    case Kind::kFlip: return "flip";
  }
  return "unknown";
}

bool ParseKind(std::string_view name, Kind* out) {
  for (Kind k : {Kind::kEio, Kind::kEnospc, Kind::kShortWrite, Kind::kDelay,
                 Kind::kCrash, Kind::kFlip}) {
    if (name == KindName(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

Status ToStatus(const Action& a, const std::string& detail) {
  return Status::Unavailable(
      std::string("fault-injected ") + KindName(a.kind) + " (" + detail + ")",
      WAVE_LOC);
}

bool Rule::Matches(std::string_view site_name) const {
  if (!site.empty() && site.back() == '*') {
    std::string_view prefix(site.data(), site.size() - 1);
    return site_name.substr(0, prefix.size()) == prefix;
  }
  return site_name == site;
}

void Arm(Plan plan) {
  Injector& inj = injector();
  std::lock_guard<std::mutex> lock(inj.mu);
  inj.plan = std::move(plan);
  inj.rng = inj.plan.seed;
  inj.rule_states.assign(inj.plan.rules.size(), RuleState{});
  inj.sites.clear();
  internal::g_armed.store(!inj.plan.empty(), std::memory_order_relaxed);
}

void Disarm() {
  Injector& inj = injector();
  std::lock_guard<std::mutex> lock(inj.mu);
  internal::g_armed.store(false, std::memory_order_relaxed);
  inj.plan.rules.clear();
  inj.plan.metrics = nullptr;
  inj.plan.tracer = nullptr;
  inj.rule_states.clear();
  // inj.sites intentionally kept: Counts() stays readable after a test
  // disarms, until the next Arm resets it.
}

Action Evaluate(const char* site) {
  Action action;
  double sleep_seconds = 0;
  {
    Injector& inj = injector();
    std::lock_guard<std::mutex> lock(inj.mu);
    if (inj.plan.empty()) return action;
    SiteCount& sc = inj.sites[site];
    if (sc.site.empty()) sc.site = site;
    ++sc.hits;
    for (size_t i = 0; i < inj.plan.rules.size(); ++i) {
      const Rule& rule = inj.plan.rules[i];
      if (!rule.Matches(site)) continue;
      RuleState& rs = inj.rule_states[i];
      ++rs.hits;
      if (rule.max_fires >= 0 && rs.fires >= rule.max_fires) continue;
      bool fire = false;
      if (rule.fail_nth > 0) {
        fire = rs.hits == rule.fail_nth;
      } else if (rule.probability > 0) {
        fire = UnitUniform(&inj.rng) < rule.probability;
      } else {
        fire = true;  // no schedule given: always fire
      }
      if (!fire) continue;
      ++rs.fires;
      ++sc.fires;
      action.fire = true;
      action.kind = rule.kind;
      action.short_write_keep = rule.short_write_keep;
      if (rule.kind == Kind::kDelay) sleep_seconds = rule.delay_seconds;
      if (inj.plan.metrics != nullptr) {
        inj.plan.metrics->Add(std::string("fault.injected.") + site);
      }
      if (inj.plan.tracer != nullptr) {
        inj.plan.tracer->Instant(std::string("fault!") + site + "!" +
                                 KindName(rule.kind));
      }
      break;  // first matching rule that fires wins
    }
  }
  if (action.fire && action.kind == Kind::kCrash) {
    // The point of kCrash is to die with zero cleanup — no destructors, no
    // atexit, no flushing — exactly what tools/wave_crash rehearses.
    kill(getpid(), SIGKILL);
    _exit(137);  // unreachable; belt and braces
  }
  if (sleep_seconds > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(sleep_seconds));
  }
  return action;
}

std::vector<SiteCount> Counts() {
  Injector& inj = injector();
  std::lock_guard<std::mutex> lock(inj.mu);
  std::vector<SiteCount> out;
  out.reserve(inj.sites.size());
  for (const auto& [_, sc] : inj.sites) out.push_back(sc);
  return out;
}

int64_t TotalFires() {
  int64_t total = 0;
  for (const SiteCount& sc : Counts()) total += sc.fires;
  return total;
}

void ExportMetrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  for (const SiteCount& sc : Counts()) {
    metrics->counter("fault.hits." + sc.site)->Add(sc.hits);
    if (sc.fires > 0) {
      metrics->counter("fault.injected." + sc.site)->Add(sc.fires);
    }
  }
}

const std::vector<SiteInfo>& KnownSites() {
  auto mask = [](std::initializer_list<Kind> kinds) {
    unsigned m = 0;
    for (Kind k : kinds) m |= 1u << static_cast<unsigned>(k);
    return m;
  };
  static const std::vector<SiteInfo>* sites = new std::vector<SiteInfo>{
      // common/io.cc — every file the system reads or writes funnels here.
      {"io.read.open", "src/common/io.cc",
       mask({Kind::kEio, Kind::kDelay, Kind::kCrash})},
      {"io.read.data", "src/common/io.cc",
       mask({Kind::kEio, Kind::kDelay, Kind::kCrash})},
      {"io.write.open", "src/common/io.cc",
       mask({Kind::kEio, Kind::kEnospc, Kind::kDelay, Kind::kCrash})},
      {"io.write.data", "src/common/io.cc",
       mask({Kind::kEio, Kind::kEnospc, Kind::kShortWrite, Kind::kDelay,
             Kind::kCrash})},
      {"io.write.commit", "src/common/io.cc",
       mask({Kind::kEio, Kind::kEnospc, Kind::kDelay, Kind::kCrash})},
      {"io.write.done", "src/common/io.cc",
       mask({Kind::kDelay, Kind::kCrash})},
      // verifier/cache.cc — the crash-consistency surface under test.
      {"cache.open.recover", "src/verifier/cache.cc",
       mask({Kind::kDelay, Kind::kCrash})},
      {"cache.lock.acquire", "src/verifier/cache.cc",
       mask({Kind::kEio, Kind::kDelay, Kind::kCrash})},
      {"cache.lookup.entry", "src/verifier/cache.cc",
       mask({Kind::kEio, Kind::kDelay, Kind::kCrash})},
      {"cache.quarantine.move", "src/verifier/cache.cc",
       mask({Kind::kEio, Kind::kDelay, Kind::kCrash})},
      {"cache.store.entry", "src/verifier/cache.cc",
       mask({Kind::kEio, Kind::kEnospc, Kind::kShortWrite, Kind::kDelay,
             Kind::kCrash})},
      // verifier/session.cc — shared-artifact pre-pass construction.
      {"session.plan.build", "src/verifier/session.cc",
       mask({Kind::kDelay})},
      {"session.prepass.build", "src/verifier/session.cc",
       mask({Kind::kDelay})},
      // verifier/verifier.cc — the budget-escalation ladder.
      {"retry.ladder.build", "src/verifier/verifier.cc",
       mask({Kind::kDelay})},
      {"retry.rung.attempt", "src/verifier/verifier.cc",
       mask({Kind::kDelay})},
      // verifier/worker_pool.cc — thread lifecycle.
      {"worker.start", "src/verifier/worker_pool.cc",
       mask({Kind::kDelay})},
      {"worker.wait_done", "src/verifier/worker_pool.cc",
       mask({Kind::kDelay})},
      // serve/server.cc — the daemon's socket surface (ISSUE 9). These
      // need a live server + client, so the generic sweep skips them;
      // tests/serve_test.cc proves each one fires and degrades cleanly.
      {"serve.accept", "src/serve/server.cc",
       mask({Kind::kEio, Kind::kDelay})},
      {"serve.read", "src/serve/server.cc",
       mask({Kind::kEio, Kind::kDelay})},
      {"serve.write", "src/serve/server.cc",
       mask({Kind::kEio, Kind::kShortWrite, Kind::kDelay})},
      {"serve.enqueue", "src/serve/server.cc",
       mask({Kind::kEio, Kind::kDelay})},
      // testing/oracle.cc — the PR-5 flip hook, now on this framework.
      {"oracle.flip_verdict", "src/testing/oracle.cc",
       mask({Kind::kFlip})},
  };
  return *sites;
}

namespace {

std::vector<std::string> Split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::string cur;
  for (char c : text) {
    if (c == sep) {
      parts.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  parts.push_back(cur);
  return parts;
}

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\n\r");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\n\r");
  return s.substr(b, e - b + 1);
}

bool ParseDouble(const std::string& s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end != nullptr && *end == '\0' && !s.empty();
}

bool ParseInt(const std::string& s, long* out) {
  char* end = nullptr;
  *out = std::strtol(s.c_str(), &end, 10);
  return end != nullptr && *end == '\0' && !s.empty();
}

}  // namespace

StatusOr<Plan> ParsePlan(const std::string& text) {
  Plan plan;
  for (const std::string& raw : Split(text, ';')) {
    std::string item = Trim(raw);
    if (item.empty()) continue;
    size_t eq = item.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument(
          "fault spec item missing '=': \"" + item + "\"", WAVE_LOC);
    }
    std::string lhs = Trim(item.substr(0, eq));
    std::string rhs = Trim(item.substr(eq + 1));
    if (lhs == "seed") {
      char* end = nullptr;
      plan.seed = std::strtoull(rhs.c_str(), &end, 0);
      if (end == nullptr || *end != '\0' || rhs.empty()) {
        return Status::InvalidArgument("bad fault seed: \"" + rhs + "\"",
                                       WAVE_LOC);
      }
      continue;
    }
    Rule rule;
    rule.site = lhs;
    if (rule.site.empty()) {
      return Status::InvalidArgument("empty fault site in \"" + item + "\"",
                                     WAVE_LOC);
    }
    // rhs: KIND ['@' NTH] (':' MOD)*
    std::vector<std::string> mods = Split(rhs, ':');
    std::string head = Trim(mods[0]);
    size_t at = head.find('@');
    if (at != std::string::npos) {
      long nth = 0;
      if (!ParseInt(head.substr(at + 1), &nth) || nth < 1) {
        return Status::InvalidArgument(
            "bad fail-Nth in fault rule: \"" + head + "\"", WAVE_LOC);
      }
      rule.fail_nth = static_cast<int>(nth);
      head = Trim(head.substr(0, at));
    }
    if (!ParseKind(head, &rule.kind)) {
      return Status::InvalidArgument(
          "unknown fault kind \"" + head + "\" in \"" + item + "\"", WAVE_LOC);
    }
    for (size_t i = 1; i < mods.size(); ++i) {
      std::string mod = Trim(mods[i]);
      size_t meq = mod.find('=');
      std::string key = meq == std::string::npos ? mod : Trim(mod.substr(0, meq));
      std::string val = meq == std::string::npos ? "" : Trim(mod.substr(meq + 1));
      bool ok = true;
      if (key == "p") {
        ok = ParseDouble(val, &rule.probability) && rule.probability >= 0 &&
             rule.probability <= 1;
      } else if (key == "max") {
        long v = 0;
        ok = ParseInt(val, &v) && v >= 0;
        rule.max_fires = static_cast<int>(v);
      } else if (key == "delay") {
        ok = ParseDouble(val, &rule.delay_seconds) && rule.delay_seconds >= 0;
      } else if (key == "keep") {
        ok = ParseDouble(val, &rule.short_write_keep) &&
             rule.short_write_keep >= 0 && rule.short_write_keep <= 1;
      } else {
        ok = false;
      }
      if (!ok) {
        return Status::InvalidArgument(
            "bad fault rule modifier \"" + mod + "\" in \"" + item + "\"",
            WAVE_LOC);
      }
    }
    plan.rules.push_back(std::move(rule));
  }
  return plan;
}

std::string FormatPlan(const Plan& plan) {
  std::ostringstream out;
  bool first = true;
  for (const Rule& rule : plan.rules) {
    if (!first) out << ";";
    first = false;
    out << rule.site << "=" << KindName(rule.kind);
    if (rule.fail_nth > 0) out << "@" << rule.fail_nth;
    if (rule.probability > 0) out << ":p=" << rule.probability;
    if (rule.max_fires >= 0) out << ":max=" << rule.max_fires;
    if (rule.kind == Kind::kDelay) out << ":delay=" << rule.delay_seconds;
    if (rule.kind == Kind::kShortWrite) out << ":keep=" << rule.short_write_keep;
  }
  if (!first) out << ";";
  out << "seed=" << plan.seed;
  return out.str();
}

Status ArmFromEnv() {
  const char* spec = std::getenv("WAVE_FAULT_SPEC");
  if (spec == nullptr || spec[0] == '\0') return Status::Ok();
  WAVE_ASSIGN_OR_RETURN(Plan plan, ParsePlan(spec));
  Arm(std::move(plan));
  return Status::Ok();
}

}  // namespace wave::fault
