// Experiment: front-end throughput, from spec text to a verifier. Times
// `ParseSpec` over two sets of texts and prints the best of kPasses
// passes in MB/s: the four bundled applications E1-E4, and 300 generated
// cases of perfbench's `generated` shape (6 pages, 4 constants, property
// depth 4; seeds 1..300). Then it times `Verifier::Create` on each set's
// parsed specs and prints the best pass in microseconds per spec; each of
// those passes parses every text afresh, untimed. Run from any directory;
// it writes no file.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "parser/parser.h"
#include "testing/spec_gen.h"
#include "verifier/verifier.h"

namespace {

using namespace wave;  // NOLINT: experiment harness

constexpr int kPasses = 20;
constexpr uint64_t kGeneratedSeeds = 300;

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Best-of-kPasses times of one set of spec texts.
struct FrontEndTimes {
  double parse_s = std::numeric_limits<double>::infinity();
  double create_s = std::numeric_limits<double>::infinity();
};

/// False, with a message, if a parse failed.
bool AllParsed(const std::vector<ParseResult>& parsed) {
  for (const ParseResult& p : parsed) {
    if (!p.ok()) {
      std::fprintf(stderr, "bench_parser: parse failed:\n%s\n",
                   p.ErrorText().c_str());
      return false;
    }
  }
  return true;
}

/// Returns false, with a message, if a text does not parse or a spec
/// does not make a verifier. The parse passes run first, then the Create
/// passes, each on freshly parsed specs.
bool Time(const std::vector<std::string>& texts, FrontEndTimes* times) {
  std::vector<ParseResult> parsed;
  parsed.reserve(texts.size());
  for (int pass = 0; pass < kPasses; ++pass) {
    parsed.clear();
    auto start = std::chrono::steady_clock::now();
    for (const std::string& text : texts) parsed.push_back(ParseSpec(text));
    times->parse_s = std::min(times->parse_s, Seconds(start));
    if (!AllParsed(parsed)) return false;
  }
  for (int pass = 0; pass < kPasses; ++pass) {
    parsed.clear();
    for (const std::string& text : texts) parsed.push_back(ParseSpec(text));
    if (!AllParsed(parsed)) return false;
    std::vector<std::unique_ptr<Verifier>> verifiers;
    verifiers.reserve(parsed.size());
    auto start = std::chrono::steady_clock::now();
    for (ParseResult& p : parsed) {
      StatusOr<std::unique_ptr<Verifier>> verifier =
          Verifier::Create(p.spec.get());
      if (!verifier.ok()) {
        std::fprintf(stderr, "bench_parser: %s\n",
                     verifier.status().ToString().c_str());
        return false;
      }
      verifiers.push_back(std::move(*verifier));
    }
    times->create_s = std::min(times->create_s, Seconds(start));
  }
  return true;
}

}  // namespace

int main() {
  const std::vector<std::string> apps = {E1SpecText(), E2SpecText(),
                                         E3SpecText(), E4SpecText()};
  testing::GeneratorConfig shape;
  shape.max_pages = 6;
  shape.max_constants = 4;
  shape.max_property_depth = 4;
  std::vector<std::string> generated;
  for (uint64_t seed = 1; seed <= kGeneratedSeeds; ++seed) {
    generated.push_back(testing::GenerateCase(seed, shape).Text());
  }
  std::printf("front end, best of %d passes\n", kPasses);
  std::printf("%-10s %6s %9s %10s %8s %15s\n", "set", "specs", "bytes",
              "parse ms", "MB/s", "create us/spec");
  const std::pair<const char*, const std::vector<std::string>*> sets[] = {
      {"e1-e4", &apps}, {"generated", &generated}};
  for (const auto& [name, texts] : sets) {
    size_t bytes = 0;
    for (const std::string& text : *texts) bytes += text.size();
    FrontEndTimes times;
    if (!Time(*texts, &times)) return 1;
    std::printf("%-10s %6zu %9zu %10.3f %8.1f %15.2f\n", name, texts->size(),
                bytes, times.parse_s * 1e3, bytes / times.parse_s / 1e6,
                times.create_s * 1e6 / static_cast<double>(texts->size()));
  }
  return 0;
}
