// Self-tests of the benchmark harness: nearest-rank percentiles and the
// "at least 10 samples beyond" rule, self-time arithmetic over span trees,
// and the result line's schema. Plain asserts-as-checks, no framework:
//
//   cmake --build .bench_build/dataplane --target dataplane_harness_test
//   .bench_build/dataplane/dataplane_harness_test
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,     \
                   __LINE__, #cond);                                   \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

using namespace dataplane;

std::vector<double> one_to(int n) {
  std::vector<double> xs;
  for (int i = n; i >= 1; --i) xs.push_back(i);  // unsorted on purpose
  return xs;
}

void test_percentiles() {
  // Nearest rank: p50 of 1..10 is the 5th value, p99 of 1..1000 the 990th.
  const Percentile p50 = percentile(one_to(10), 0.5);
  EXPECT(p50.value == 5 && p50.samples == 10 && p50.beyond == 5);
  const Percentile p99 = percentile(one_to(1000), 0.99);
  EXPECT(p99.value == 990 && p99.beyond == 10 && p99.supported());
  // One sample short of the rule.
  EXPECT(!percentile(one_to(999), 0.99).supported());
  EXPECT(percentile(one_to(100), 0.9).supported());
  EXPECT(!percentile(one_to(99), 0.9).supported());
  EXPECT(percentile(one_to(1), 1.0).value == 1);
  EXPECT(!percentile({}, 0.5).supported());
  // The smallest supporting sizes.
  EXPECT(min_samples_for(0.99) == 1000);
  EXPECT(min_samples_for(0.9) == 100);
  EXPECT(min_samples_for(0.5) == 20);
  EXPECT(median({3, 1, 2}) == 2 && median({4, 1, 3, 2}) == 2.5);
}

Span span(std::uint64_t id, std::uint64_t parent, std::int64_t start,
          std::int64_t end) {
  Span s;
  s.name = "s";
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void test_self_time() {
  // Parent [0,100) with children [10,30), [20,50) (overlapping: union 40)
  // and [90,120) (clipped to 10); grandchild [12,18) belongs to child 2.
  const std::vector<Span> spans = {span(1, 0, 0, 100), span(2, 1, 10, 30),
                                   span(3, 1, 20, 50), span(4, 1, 90, 120),
                                   span(5, 2, 12, 18)};
  const auto self = self_times_ns(spans);
  EXPECT(self[0] == 100 - 40 - 10);
  EXPECT(self[1] == 20 - 6);
  EXPECT(self[2] == 30 && self[3] == 30 && self[4] == 6);
}

void test_tracer() {
  Tracer::clear();
  { SpanScope off("not-recorded"); }
  Tracer::set_enabled(true);
  {
    SpanScope outer("outer", 7);
    { SpanScope inner("inner"); }
  }
  std::thread([] { SpanScope other("other", 9); }).join();
  Tracer::set_enabled(false);
  const auto spans = Tracer::collect();
  EXPECT(spans.size() == 3);
  std::uint64_t outer_id = 0;
  for (const Span& s : spans) {
    if (std::string(s.name) == "outer") outer_id = s.id;
  }
  for (const Span& s : spans) {
    const std::string name = s.name;
    if (name == "inner") EXPECT(s.parent == outer_id && s.op == 7);
    if (name == "other") EXPECT(s.parent == 0 && s.op == 9);
    EXPECT(s.end_ns >= s.start_ns);
  }
  const auto summary = summarize(spans);
  EXPECT(summary.size() == 3);
  Tracer::clear();
  EXPECT(Tracer::collect().empty());
}

void test_schema() {
  EXPECT(valid_metric_name("ec.encode_mb_s.heptagon-local"));
  EXPECT(valid_metric_name("setup_s"));
  EXPECT(!valid_metric_name(".hidden") && !valid_metric_name("a b") &&
         !valid_metric_name(std::string(65, 'a')) && !valid_metric_name(""));
  const std::string line = result_json(
      true, 12, 0, {{"latency_ms", 1.0 / 3.0, "ms"}, {"setup_s", 2, "s"}});
  EXPECT(line ==
         "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": "
         "{\"latency_ms\": {\"value\": 0.33333333333333331, \"unit\": \"ms\"}, "
         "\"setup_s\": {\"value\": 2, \"unit\": \"s\"}}}");
  // Non-finite values must not produce invalid JSON.
  const std::string bad = result_json(false, 1, 1, {{"x", NAN, "s"}});
  EXPECT(bad.find("\"value\": null") != std::string::npos);
  EXPECT(bad.find("nan") == std::string::npos);
}

}  // namespace

int main() {
  test_percentiles();
  test_self_time();
  test_tracer();
  test_schema();
  if (g_failures == 0) std::printf("harness_test: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
