// Measurement harness of the data-plane benchmark: raw-sample percentiles,
// in-memory span tracing with self time, and the one-line JSON result.
//
// Kept free of any dblrep dependency so its self-tests build and run on
// their own (tests/harness_test.cc).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dataplane {

// ------------------------------------------------------------ percentiles

/// Samples a percentile needs beyond it before the benchmark reports it.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile of raw samples: the value at rank ceil(q * n)
/// (1-based) of the sorted samples, plus how many samples lie beyond it.
struct Percentile {
  double value = 0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  // samples ranked after the reported one
  bool supported() const { return beyond >= kMinBeyond; }
};

/// q in (0, 1]. An empty sample set gives {0, 0, 0} (unsupported).
Percentile percentile(std::vector<double> samples, double q);

/// Smallest sample count whose q-percentile has kMinBeyond samples beyond.
std::size_t min_samples_for(double q);

double median(std::vector<double> samples);
double mean(const std::vector<double>& samples);

// ---------------------------------------------------------------- tracing

/// One recorded span: a named interval on one thread. `parent` is the
/// enclosing span on the same thread (0 at top level); `op` groups the
/// spans of one client operation.
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t op = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Nanoseconds on the steady clock since the process's first call.
std::int64_t now_ns();

/// Process-wide span recorder. Spans live in per-thread buffers (no lock on
/// the recording path) and are merged by collect() once the recording
/// threads are done. Disabled, a SpanScope costs one relaxed load.
class Tracer {
 public:
  static void set_enabled(bool on);
  static bool enabled();
  /// Every span recorded since the last clear(), sorted by start time.
  static std::vector<Span> collect();
  static void clear();
};

/// Records one span for its lifetime when tracing is on. `op` == 0
/// inherits the enclosing span's op.
class SpanScope {
 public:
  explicit SpanScope(const char* name, std::uint64_t op = 0);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  bool active_ = false;
  Span span_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children are counted once).
/// Indexed like `spans`.
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/// Per-name totals over a span set.
struct SpanSummary {
  std::string name;
  std::size_t count = 0;
  double total_us = 0;
  double self_us = 0;
  double mean_us() const { return count ? total_us / count : 0; }
};
std::vector<SpanSummary> summarize(const std::vector<Span>& spans);

/// Writes one JSON object per span, one per line.
bool write_spans(const std::string& path, const std::vector<Span>& spans);

// ----------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// True when `name` is a valid metric name: starts with a letter or digit,
/// at most 64 of [A-Za-z0-9_.-].
bool valid_metric_name(const std::string& name);

/// The benchmark's last output line: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}. Values keep all their digits.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace dataplane
