#include "harness.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace dataplane {

// ------------------------------------------------------------ percentiles

namespace {

// 1-based nearest rank; the epsilon keeps q * n products such as
// 0.99 * 1000 from rounding up past an exact integer.
std::size_t nearest_rank(double q, std::size_t n) {
  const double raw = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(raw, 1.0)),
                                 1, n);
}

}  // namespace

Percentile percentile(std::vector<double> samples, double q) {
  Percentile out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  const std::size_t rank = nearest_rank(q, samples.size());
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  out.value = samples[rank - 1];
  out.beyond = samples.size() - rank;
  return out;
}

std::size_t min_samples_for(double q) {
  std::size_t n = kMinBeyond;
  while (n - nearest_rank(q, n) < kMinBeyond) ++n;
  return n;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

// ---------------------------------------------------------------- tracing

std::int64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};

struct ThreadBuffer {
  std::vector<Span> spans;
  std::vector<const Span*> stack;  // open spans of this thread
};

// Buffers outlive their threads so collect() can merge after the joins.
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<ThreadBuffer>>& buffers() {
  static std::vector<std::unique_ptr<ThreadBuffer>> all;
  return all;
}

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* mine = [] {
    auto owned = std::make_unique<ThreadBuffer>();
    ThreadBuffer* raw = owned.get();
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    buffers().push_back(std::move(owned));
    return raw;
  }();
  return *mine;
}

}  // namespace

void Tracer::set_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::vector<Span> Tracer::collect() {
  std::vector<Span> all;
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& buffer : buffers()) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& buffer : buffers()) buffer->spans.clear();
}

SpanScope::SpanScope(const char* name, std::uint64_t op) {
  if (!Tracer::enabled()) return;
  active_ = true;
  ThreadBuffer& buffer = local_buffer();
  span_.name = name;
  span_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  if (!buffer.stack.empty()) {
    span_.parent = buffer.stack.back()->id;
    if (op == 0) op = buffer.stack.back()->op;
  }
  span_.op = op;
  buffer.stack.push_back(&span_);
  span_.start_ns = now_ns();
}

SpanScope::~SpanScope() {
  if (!active_) return;
  span_.end_ns = now_ns();
  ThreadBuffer& buffer = local_buffer();
  buffer.stack.pop_back();
  buffer.spans.push_back(span_);
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  // Child intervals clipped to their parent, grouped by parent index.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> covered(
      spans.size());
  for (const Span& child : spans) {
    const auto it = index.find(child.parent);
    if (child.parent == 0 || it == index.end()) continue;
    const Span& parent = spans[it->second];
    const std::int64_t lo = std::max(child.start_ns, parent.start_ns);
    const std::int64_t hi = std::min(child.end_ns, parent.end_ns);
    if (hi > lo) covered[it->second].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = covered[i];
    std::sort(intervals.begin(), intervals.end());
    std::int64_t union_ns = 0;
    std::int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) union_ns += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) union_ns += cur_hi - cur_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - union_ns;
  }
  return self;
}

std::vector<SpanSummary> summarize(const std::vector<Span>& spans) {
  const auto self = self_times_ns(spans);
  std::map<std::string, SpanSummary> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanSummary& s = by_name[spans[i].name];
    s.name = spans[i].name;
    ++s.count;
    s.total_us +=
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e3;
    s.self_us += static_cast<double>(self[i]) / 1e3;
  }
  std::vector<SpanSummary> out;
  for (auto& [name, s] : by_name) out.push_back(s);
  return out;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans) {
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
  return static_cast<bool>(out);
}

// ----------------------------------------------------------------- output

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '.' &&
        c != '-') {
      return false;
    }
  }
  return true;
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char number[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    // JSON has no NaN/inf; a non-finite measurement is reported as null so
    // the run is visibly broken rather than silently zero.
    if (std::isfinite(m.value)) {
      std::snprintf(number, sizeof(number), "%.17g", m.value);
    } else {
      std::snprintf(number, sizeof(number), "null");
    }
    if (i) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + number + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace dataplane
