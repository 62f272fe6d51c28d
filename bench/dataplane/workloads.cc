// The three workloads. Each builds its cluster and file population from the
// seed, drives hdfs::Client / hdfs::MiniDfs through their public API with
// closed-loop clients, checks every byte returned, and records raw per-op
// samples. See README.md for why each workload looks the way it does.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <unordered_set>

#include "bench.h"
#include "common/rng.h"
#include "ec/registry.h"
#include "exec/thread_pool.h"
#include "harness.h"
#include "hdfs/client.h"
#include "hdfs/minidfs.h"
#include "net/model.h"
#include "sim/event_queue.h"

namespace dataplane {

using namespace dblrep;

cluster::Topology bench_topology() {
  cluster::Topology topology;
  topology.num_nodes = 25;
  topology.num_racks = 3;
  return topology;
}

namespace {

std::uint64_t mix64(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

void fill_payload(std::uint64_t key, std::size_t offset, std::uint8_t* out,
                  std::size_t n) {
  std::size_t i = 0;
  while (i < n) {
    const std::size_t pos = offset + i;
    const std::uint64_t word = mix64(key ^ mix64(pos >> 3));
    const std::size_t skip = pos & 7;
    const std::size_t take = std::min<std::size_t>(8 - skip, n - i);
    std::memcpy(out + i, reinterpret_cast<const std::uint8_t*>(&word) + skip,
                take);
    i += take;
  }
}

std::size_t last_level_cache_bytes() {
  int best_level = 0;
  std::size_t best_bytes = 0;
  for (int index = 0; index < 16; ++index) {
    const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" +
                            std::to_string(index) + "/";
    std::ifstream level_file(dir + "level");
    std::ifstream size_file(dir + "size");
    int level = 0;
    std::string size_text;
    if (!(level_file >> level) || !(size_file >> size_text)) continue;
    std::size_t bytes = std::strtoull(size_text.c_str(), nullptr, 10);
    if (size_text.ends_with("K")) bytes <<= 10;
    if (size_text.ends_with("M")) bytes <<= 20;
    if (level > best_level) {
      best_level = level;
      best_bytes = bytes;
    }
  }
  return best_bytes > 0 ? best_bytes : std::size_t{32} << 20;
}

bool known_workload(const std::string& workload) {
  return workload == "ingest" || workload == "serve" || workload == "repair";
}

Config config_for(const std::string& workload) {
  Config c;
  c.name = workload;
  if (workload == "ingest") {
    c.pool_workers = 3;
    // The live set fits in the LLC: 40% of it (about 20 files at 300 MiB).
    c.live_stored_cap = std::clamp<std::size_t>(
        last_level_cache_bytes() * 2 / 5, std::size_t{32} << 20,
        std::size_t{128} << 20);
    c.preload_stored_bytes = c.live_stored_cap;
    c.file_min = std::size_t{1} << 20;
    c.file_max = std::size_t{4} << 20;
    c.read_clients = 1;      // with 3 pool workers: 4 threads
    c.degraded_clients = 1;
    c.repair_all = true;
    c.write_share = 0.5;
    c.read_share = 0.25;
    c.degraded_share = 0.15;
  } else if (workload == "serve") {
    c.pool_workers = 0;
    c.preload_stored_bytes =
        std::clamp<std::size_t>(2 * last_level_cache_bytes(),
                                std::size_t{64} << 20, std::size_t{1} << 30);
    c.file_min = std::size_t{1} << 20;
    c.file_max = std::size_t{4} << 20;
    c.read_clients = 3;
    c.degraded_clients = 2;
    c.zipf_reads = true;
    c.repair_all = false;  // repair_all probes every stripe: ~20 s at 629 MB
    c.read_share = 0.7;
    c.degraded_share = 0.15;
  } else {  // repair
    c.pool_workers = 0;
    c.preload_stored_bytes = std::size_t{64} << 20;
    c.preload_min_files = 40;  // 3 set-ups x 40 files: p90 has 10 beyond
    c.file_min = std::size_t{512} << 10;
    c.file_max = std::size_t{1536} << 10;
    c.read_clients = 2;
    c.degraded_clients = 2;
    c.repair_all = true;
    c.reads_during_repair = true;
    c.degraded_share = 0.4;
  }
  return c;
}

namespace {

/// Minimum sample counts: each reported percentile needs kMinBeyond
/// samples beyond it (p90 for writes, p99 for reads), plus a margin.
const std::size_t kMinWrites = min_samples_for(0.90) + 10;
const std::size_t kMinReads = min_samples_for(0.99) + 100;
/// Loops that cannot reach their minimum stop here and fail the run.
constexpr double kHardCapS = 60;
constexpr std::size_t kMaxErrors = 5;

struct Geometry {
  std::size_t k = 0;      // data blocks per stripe
  std::size_t slots = 0;  // stored blocks per stripe (replicas counted)
  std::vector<std::size_t> slots_per_node;
};

struct FileSpec {
  std::string path;
  std::size_t scheme = 0;
  std::size_t length = 0;
  std::uint64_t key = 0;
  std::size_t blocks() const { return (length + kBlockSize - 1) / kBlockSize; }
};

/// A data block whose every replica sat on a failed node.
struct LostBlock {
  std::size_t file = 0;  // index into the failure-time file list
  std::size_t block = 0;
  std::size_t live_slots = 0;  // slots gather_stripe can still read
};

double elapsed_s(std::int64_t since_ns) {
  return static_cast<double>(now_ns() - since_ns) / 1e9;
}

class Runner {
 public:
  Runner(const Config& config, std::uint64_t seed, double seconds,
         bool capture)
      : cfg_(config), seed_(seed), seconds_(seconds), capture_(capture) {
    for (std::size_t s = 0; s < kNumSchemes; ++s) {
      auto code = ec::make_code(kSchemes[s]).value();
      geo_[s].k = code->data_blocks();
      geo_[s].slots = code->layout().num_slots();
      for (std::size_t n = 0; n < code->num_nodes(); ++n) {
        geo_[s].slots_per_node.push_back(
            code->layout().slots_on_node(static_cast<ec::NodeIndex>(n)).size());
      }
    }
    if (cfg_.pool_workers > 0) pool_.emplace(cfg_.pool_workers);
  }

  RunResult run(std::size_t setups);

 private:
  std::size_t stripes_of(const FileSpec& f) const {
    const std::size_t stripe_bytes = geo_[f.scheme].k * kBlockSize;
    return (f.length + stripe_bytes - 1) / stripe_bytes;
  }
  std::size_t stored_estimate(const FileSpec& f) const {
    return stripes_of(f) * geo_[f.scheme].slots * kBlockSize;
  }

  FileSpec next_file() {
    FileSpec f;
    const std::size_t id = next_file_++;
    f.scheme = id % kNumSchemes;
    // A seeded size rounded to whole stripes of the file's scheme, less a
    // ragged tail shorter than a block: stripe padding stays under one
    // block, so storage overhead measures the code rather than the draw.
    const std::size_t stripe_bytes = geo_[f.scheme].k * kBlockSize;
    const double target = rng_.uniform(static_cast<double>(cfg_.file_min),
                                       static_cast<double>(cfg_.file_max));
    const auto stripes = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::llround(target / static_cast<double>(stripe_bytes))));
    f.length = stripes * stripe_bytes -
               static_cast<std::size_t>(rng_.uniform_int(1, kBlockSize - 1));
    f.key = rng_.next_u64();
    f.path = "/" + cfg_.name + "/f" + std::to_string(id);
    return f;
  }

  void record_failure(const std::string& what) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(err_mu_);
    if (r_.errors.size() < kMaxErrors) r_.errors.push_back(what);
  }

  void build_cluster();
  void preload(bool record_writes);
  double write_file(const FileSpec& f, bool record);
  bool read_op(hdfs::Client& client, const FileSpec& f, std::size_t block,
               bool use_pread, const char* span_name, Buffer& expect,
               std::vector<double>* latency_us);
  void closed_loop(std::size_t clients, double budget_s, std::size_t min_ops,
                   const std::atomic<bool>* until,
                   const std::function<void(std::size_t, Rng&)>& op);
  void ingest_stream();
  void healthy_reads(double budget_s, std::size_t clients,
                     const std::vector<FileSpec>& files, bool zipf,
                     const std::unordered_set<std::uint64_t>* exclude,
                     const std::atomic<bool>* until);
  void fail_and_repair();
  void count_repair_calls(const std::vector<FileSpec>& files,
                          const std::set<cluster::NodeId>& failed);
  void drain_transfers(bool replay_repair);

  const Config& cfg_;
  std::uint64_t seed_;
  double seconds_;
  bool capture_;
  cluster::Topology topology_ = bench_topology();
  std::array<Geometry, kNumSchemes> geo_;
  std::optional<exec::ThreadPool> pool_;
  net::TransferLog log_;
  std::unique_ptr<hdfs::MiniDfs> dfs_;
  Rng rng_;
  std::size_t next_file_ = 0;
  std::size_t phases_ = 0;  // closed loops run so far; seeds their clients
  std::deque<FileSpec> live_;
  RunResult r_;
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> next_op_{1};
  std::mutex err_mu_;
  std::mutex counts_mu_;  // guards r_.calls from client threads
};

void Runner::build_cluster() {
  hdfs::MiniDfsOptions options;
  options.meta_shards = 4;
  options.transfer_log = capture_ ? &log_ : nullptr;
  dfs_.reset();
  log_.clear();
  SpanScope span("dfs.construct");
  dfs_ = std::make_unique<hdfs::MiniDfs>(
      topology_, seed_, pool_ ? &*pool_ : nullptr, options);
}

double Runner::write_file(const FileSpec& f, bool record) {
  attempted_.fetch_add(1, std::memory_order_relaxed);
  hdfs::Client client(*dfs_);
  SpanScope op("op.write_file", next_op_.fetch_add(1));
  std::int64_t busy = 0;
  std::int64_t t = now_ns();
  auto writer = [&] {
    SpanScope span("client.create");
    return client.create(f.path, kSchemes[f.scheme], kBlockSize);
  }();
  busy += now_ns() - t;
  if (!writer.is_ok()) {
    record_failure("create " + f.path + ": " + writer.status().to_string());
    return -1;
  }
  Buffer chunk(std::min(kAppendBytes, f.length));
  for (std::size_t off = 0; off < f.length; off += kAppendBytes) {
    const std::size_t n = std::min(kAppendBytes, f.length - off);
    {
      SpanScope span("bench.payload");
      fill_payload(f.key, off, chunk.data(), n);
    }
    t = now_ns();
    Status status;
    {
      SpanScope span("client.append");
      status = writer->append(ByteSpan(chunk.data(), n));
    }
    busy += now_ns() - t;
    if (!status.is_ok()) {
      record_failure("append " + f.path + ": " + status.to_string());
      return -1;
    }
  }
  const hdfs::WriterStats stats = writer->stats();
  t = now_ns();
  Status status;
  {
    SpanScope span("client.close");
    status = writer->close();
  }
  busy += now_ns() - t;
  if (!status.is_ok()) {
    record_failure("close " + f.path + ": " + status.to_string());
    return -1;
  }
  r_.files_created += 1;
  const double ms = static_cast<double>(busy) / 1e6;
  if (record) {
    const double stripes = static_cast<double>(stripes_of(f));
    r_.write_ms.push_back(ms);
    r_.written_bytes += static_cast<double>(f.length);
    r_.write_busy_s += ms / 1e3;
    r_.zero_copy_bytes += static_cast<double>(stats.zero_copy_bytes);
    r_.buffered_bytes += static_cast<double>(stats.buffered_bytes);
    std::lock_guard<std::mutex> lock(counts_mu_);
    r_.calls.stripes_encoded[f.scheme] += stripes;
    r_.calls.blocks_put += stripes * static_cast<double>(geo_[f.scheme].slots);
    r_.calls.pool_tasks += stripes;
    r_.calls.write_txns += 1;
  }
  return ms;
}

void Runner::preload(bool record_writes) {
  std::size_t stored = 0;
  while (stored < cfg_.preload_stored_bytes ||
         live_.size() < cfg_.preload_min_files) {
    FileSpec f = next_file();
    if (write_file(f, record_writes) < 0) return;
    stored += stored_estimate(f);
    live_.push_back(std::move(f));
  }
}

bool Runner::read_op(hdfs::Client& client, const FileSpec& f,
                     std::size_t block, bool use_pread, const char* span_name,
                     Buffer& expect, std::vector<double>* latency_us) {
  attempted_.fetch_add(1, std::memory_order_relaxed);
  SpanScope op("op.read", next_op_.fetch_add(1));
  const std::int64_t t = now_ns();
  auto got = [&] {
    SpanScope span(span_name);
    return use_pread ? client.pread(f.path, block * kBlockSize, kBlockSize)
                     : client.read_block(f.path, block);
  }();
  const double us = static_cast<double>(now_ns() - t) / 1e3;
  if (!got.is_ok()) {
    record_failure(std::string(span_name) + " " + f.path + ": " +
                   got.status().to_string());
    return false;
  }
  SpanScope span("bench.verify");
  // pread stops at EOF; read_block returns the whole stored block, whose
  // tail past EOF is the stripe's zero padding.
  const std::size_t n = std::min(kBlockSize, f.length - block * kBlockSize);
  expect.assign(use_pread ? n : kBlockSize, 0);
  fill_payload(f.key, block * kBlockSize, expect.data(), n);
  if (*got != expect) {
    record_failure(std::string(span_name) + " " + f.path + " block " +
                   std::to_string(block) + ": bytes differ from the payload");
    return false;
  }
  if (latency_us != nullptr) latency_us->push_back(us);
  return true;
}

void Runner::closed_loop(std::size_t clients, double budget_s,
                         std::size_t min_ops, const std::atomic<bool>* until,
                         const std::function<void(std::size_t, Rng&)>& op) {
  std::atomic<std::size_t> done{0};
  const std::size_t phase = ++phases_;
  const std::int64_t start = now_ns();
  auto keep_going = [&] {
    const double t = elapsed_s(start);
    if (t > kHardCapS) return false;
    if (done.load(std::memory_order_relaxed) < min_ops) return true;
    if (until != nullptr) return !until->load(std::memory_order_acquire);
    return t < budget_s;
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(seed_ ^ mix64(phase * 64 + c));
      while (keep_going()) {
        op(c, rng);
        done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& thread : threads) thread.join();
}

void Runner::ingest_stream() {
  const double budget = seconds_ * cfg_.write_share;
  const std::int64_t start = now_ns();
  std::size_t written = 0;
  while ((elapsed_s(start) < budget || written < kMinWrites) &&
         elapsed_s(start) < kHardCapS) {
    FileSpec f = next_file();
    if (write_file(f, true) < 0) return;
    ++written;
    live_.push_back(std::move(f));
    // Keep the live set inside the cap: the oldest files go first.
    while (live_.size() > 1) {
      std::size_t stored;
      {
        SpanScope span("dfs.stored_bytes");
        stored = dfs_->stored_bytes();
      }
      if (stored <= cfg_.live_stored_cap) break;
      attempted_.fetch_add(1, std::memory_order_relaxed);
      Status status;
      {
        SpanScope span("dfs.delete_file", next_op_.fetch_add(1));
        status = dfs_->delete_file(live_.front().path);
      }
      if (!status.is_ok()) {
        record_failure("delete " + live_.front().path + ": " +
                       status.to_string());
        return;
      }
      live_.pop_front();
    }
  }
}

void Runner::healthy_reads(double budget_s, std::size_t clients,
                           const std::vector<FileSpec>& files, bool zipf,
                           const std::unordered_set<std::uint64_t>* exclude,
                           const std::atomic<bool>* until) {
  // Zipf s = 1 over files: rank r has weight 1/(r+1); ranks map to files
  // through a seeded permutation so the hot head mixes all three schemes.
  std::vector<double> cdf(files.size());
  std::vector<std::size_t> by_rank(files.size());
  double total = 0;
  for (std::size_t r = 0; r < files.size(); ++r) {
    total += zipf ? 1.0 / static_cast<double>(r + 1) : 1.0;
    cdf[r] = total;
    by_rank[r] = r;
  }
  rng_.shuffle(by_rank);
  std::vector<std::vector<double>> latency(clients);
  std::vector<Buffer> expect(clients);
  std::vector<std::size_t> preads(clients, 0);
  const std::int64_t start = now_ns();
  closed_loop(clients, budget_s, kMinReads, until,
              [&](std::size_t c, Rng& rng) {
                hdfs::Client client(*dfs_);
                for (;;) {
                  const double u = rng.next_double() * total;
                  const std::size_t rank = std::min<std::size_t>(
                      std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin(),
                      files.size() - 1);
                  const std::size_t fi = by_rank[rank];
                  const FileSpec& f = files[fi];
                  const std::size_t block = rng.next_below(f.blocks());
                  if (exclude != nullptr &&
                      exclude->contains((std::uint64_t{fi} << 32) | block)) {
                    continue;
                  }
                  // A map task's split: one block, whole or as a pread.
                  const bool use_pread = rng.bernoulli(0.5);
                  read_op(client, f, block, use_pread,
                          use_pread ? "client.pread" : "client.read_block",
                          expect[c], &latency[c]);
                  preads[c] += use_pread;
                  return;
                }
              });
  r_.read_wall_s = elapsed_s(start);
  double pread_count = 0;
  for (std::size_t c = 0; c < clients; ++c) {
    r_.read_us.insert(r_.read_us.end(), latency[c].begin(), latency[c].end());
    pread_count += static_cast<double>(preads[c]);
  }
  std::lock_guard<std::mutex> lock(counts_mu_);
  const double n = static_cast<double>(r_.read_us.size());
  r_.calls.lookups += n;
  r_.calls.blocks_get += n;
  r_.calls.client_copies += n;
  r_.calls.pool_tasks += pread_count;  // pread fans its stripe out
}

void Runner::count_repair_calls(const std::vector<FileSpec>& files,
                                const std::set<cluster::NodeId>& failed) {
  // What the repair pass implies per stripe: every visit probes the
  // stripe's slots; an affected stripe is then gathered, executed once per
  // visit that finds holes, and its lost slots are put back.
  const auto& nn = dfs_->namenode();
  for (const FileSpec& f : files) {
    const auto info = dfs_->stat(f.path);
    if (!info.is_ok()) continue;
    const Geometry& g = geo_[f.scheme];
    for (cluster::StripeId stripe : info->stripes) {
      const auto& group = nn.stripe(stripe).group;
      std::size_t failed_in_group = 0, lost_slots = 0;
      for (std::size_t i = 0; i < group.size(); ++i) {
        if (failed.contains(group[i])) {
          ++failed_in_group;
          lost_slots += g.slots_per_node[i];
        }
      }
      const std::size_t visits =
          cfg_.repair_all ? group.size() : failed_in_group;
      r_.calls.blocks_get += static_cast<double>(visits * g.slots);
      if (failed_in_group == 0) continue;
      const std::size_t executions = cfg_.repair_all ? 1 : failed_in_group;
      r_.calls.blocks_get +=
          static_cast<double>(executions * (g.slots - lost_slots));
      r_.calls.stripes_repaired[f.scheme] += static_cast<double>(executions);
      r_.calls.blocks_put += static_cast<double>(lost_slots);
    }
  }
}

void Runner::drain_transfers(bool replay_repair) {
  if (!capture_) return;
  std::vector<std::vector<net::TransferRecord>> repair_flows;
  for (auto& flow : log_.drain_flows()) {
    std::vector<net::TransferRecord> repair;
    for (const auto& t : flow) {
      const auto cls = static_cast<std::size_t>(t.cls);
      r_.transfers[cls] += 1;
      r_.transfer_bytes[cls] += t.bytes;
      if (t.cls == net::TransferClass::kRepair) repair.push_back(t);
    }
    if (!repair.empty()) repair_flows.push_back(std::move(repair));
  }
  if (!replay_repair || repair_flows.empty()) return;
  // The repair storm, every stripe's flow released at t = 0.
  SpanScope span("net.replay");
  const std::int64_t t0 = now_ns();
  sim::EventQueue queue;
  net::NetworkModel model(queue, topology_, net::NetworkConfig{});
  double makespan = 0;
  for (auto& flow : repair_flows) {
    model.start_flow(std::move(flow), 0.0, [&makespan](sim::SimTime done) {
      makespan = std::max(makespan, done);
    });
  }
  queue.run();
  r_.replay_makespan_s = makespan;
  r_.replay_wall_s = elapsed_s(t0);
}

void Runner::fail_and_repair() {
  const std::vector<FileSpec> files(live_.begin(), live_.end());
  auto& nn = dfs_->namenode();

  // Every data block with its replica nodes; the failed pair is the one
  // that takes both replicas of the most pentagon / heptagon-local blocks
  // (two nodes of one placement group), ties broken by total blocks lost.
  struct Entry {
    cluster::NodeId a, b;  // b == -1: single-replica (rs) block
    std::size_t file, block, scheme;
    cluster::StripeId stripe;
  };
  const std::size_t n = topology_.num_nodes;
  std::vector<Entry> entries;
  std::vector<double> node_bytes(n, 0);
  {
    SpanScope span("namenode.catalog_scan");
    for (std::size_t fi = 0; fi < files.size(); ++fi) {
      const FileSpec& f = files[fi];
      const auto info = dfs_->stat(f.path);
      if (!info.is_ok()) {
        record_failure("stat " + f.path + ": " + info.status().to_string());
        return;
      }
      const std::size_t k = geo_[f.scheme].k;
      for (std::size_t j = 0; j < info->stripes.size(); ++j) {
        const auto& group = nn.stripe(info->stripes[j]).group;
        for (std::size_t i = 0; i < group.size(); ++i) {
          node_bytes[static_cast<std::size_t>(group[i])] += static_cast<double>(
              geo_[f.scheme].slots_per_node[i] * kBlockSize);
        }
        for (std::size_t b = 0; b < k && j * k + b < f.blocks(); ++b) {
          const auto nodes = nn.replica_nodes(info->stripes[j], b);
          entries.push_back({nodes.at(0), nodes.size() > 1 ? nodes[1] : -1, fi,
                             j * k + b, f.scheme, info->stripes[j]});
        }
      }
    }
  }
  // Blocks each pair would lose, per scheme: doubles[(a * n + b) * 3 + s]
  // for two-replica blocks, singles[node] for rs blocks.
  std::vector<std::size_t> doubles(n * n * kNumSchemes, 0), singles(n, 0);
  for (const Entry& e : entries) {
    if (e.b < 0) {
      ++singles[static_cast<std::size_t>(e.a)];
    } else {
      const auto [lo, hi] = std::minmax(e.a, e.b);
      const auto pair = static_cast<std::size_t>(lo) * n +
                        static_cast<std::size_t>(hi);
      ++doubles[pair * kNumSchemes + e.scheme];
    }
  }
  // Among the pairs that lose blocks of the most schemes (all three: the
  // pair shares a pentagon and a heptagon-local group), take the one whose
  // stored bytes are closest to two average nodes', so the rebuilt volume
  // does not swing with the seed.
  double mean_node_bytes = 0;
  for (double bytes : node_bytes) {
    mean_node_bytes += bytes / static_cast<double>(n);
  }
  std::size_t best_a = 0, best_b = 1, best_covered = 0;
  double best_distance = 0;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      std::size_t covered = singles[a] + singles[b] > 0;
      for (std::size_t s = 0; s < kNumSchemes; ++s) {
        covered += doubles[(a * n + b) * kNumSchemes + s] > 0;
      }
      const double distance =
          std::abs(node_bytes[a] + node_bytes[b] - 2 * mean_node_bytes);
      if (covered > best_covered ||
          (covered == best_covered && distance < best_distance)) {
        best_a = a, best_b = b;
        best_covered = covered, best_distance = distance;
      }
    }
  }
  const std::set<cluster::NodeId> failed = {
      static_cast<cluster::NodeId>(best_a),
      static_cast<cluster::NodeId>(best_b)};
  std::vector<LostBlock> lost;
  std::unordered_set<std::uint64_t> lost_keys;
  for (const Entry& e : entries) {
    if (!failed.contains(e.a) || (e.b >= 0 && !failed.contains(e.b))) continue;
    const auto& group = nn.stripe(e.stripe).group;
    std::size_t live = geo_[e.scheme].slots;
    for (std::size_t i = 0; i < group.size(); ++i) {
      if (failed.contains(group[i])) live -= geo_[e.scheme].slots_per_node[i];
    }
    lost.push_back({e.file, e.block, live});
    lost_keys.insert((std::uint64_t{e.file} << 32) | e.block);
  }
  if (lost.empty()) {
    record_failure("failure of nodes " + std::to_string(best_a) + "," +
                   std::to_string(best_b) + " lost no block");
    return;
  }

  // Healthy state, then the crash.
  {
    SpanScope span("dfs.stored_bytes");
    r_.stored_bytes = static_cast<double>(dfs_->stored_bytes());
  }
  r_.user_bytes = 0;
  for (const FileSpec& f : files) {
    r_.user_bytes += static_cast<double>(f.length);
  }
  for (cluster::NodeId node : failed) {
    SpanScope span("dfs.fail_node");
    const Status status = dfs_->fail_node(node);
    if (!status.is_ok()) record_failure("fail_node: " + status.to_string());
  }
  double after_failure;
  {
    SpanScope span("dfs.stored_bytes");
    after_failure = static_cast<double>(dfs_->stored_bytes());
  }
  r_.rebuilt_bytes = r_.stored_bytes - after_failure;

  // Degraded reads of exactly the lost blocks (on-the-fly decode). A
  // degraded read costs what its scheme's stripe width costs, so clients
  // cycle through the schemes in turn: the mix stays a third each whatever
  // number of blocks of each scheme the failure happened to take.
  {
    const std::size_t clients = cfg_.degraded_clients;
    std::vector<std::array<std::vector<double>, kNumSchemes>> latency(clients);
    std::vector<Buffer> expect(clients);
    std::vector<std::vector<std::size_t>> by_scheme;
    for (std::size_t s = 0; s < kNumSchemes; ++s) {
      std::vector<std::size_t> indices;
      for (std::size_t i = 0; i < lost.size(); ++i) {
        if (files[lost[i].file].scheme == s) indices.push_back(i);
      }
      rng_.shuffle(indices);
      if (!indices.empty()) by_scheme.push_back(std::move(indices));
    }
    std::vector<std::size_t> cursor(clients, 0);
    closed_loop(clients, seconds_ * cfg_.degraded_share, kMinReads, nullptr,
                [&](std::size_t c, Rng&) {
                  hdfs::Client client(*dfs_);
                  const std::size_t turn = cursor[c]++ + c;
                  const auto& pick = by_scheme[turn % by_scheme.size()];
                  const LostBlock& lb =
                      lost[pick[(turn / by_scheme.size()) % pick.size()]];
                  const FileSpec& f = files[lb.file];
                  if (read_op(client, f, lb.block, false,
                              "client.degraded_read", expect[c],
                              &latency[c][f.scheme])) {
                    std::lock_guard<std::mutex> lock(counts_mu_);
                    r_.calls.degraded_reads[f.scheme] += 1;
                    r_.calls.blocks_get += static_cast<double>(lb.live_slots);
                    r_.calls.lookups += 1;
                    r_.calls.client_copies += 1;
                  }
                });
    for (const auto& per_client : latency) {
      for (std::size_t s = 0; s < kNumSchemes; ++s) {
        const auto& l = per_client[s];
        r_.degraded_us.insert(r_.degraded_us.end(), l.begin(), l.end());
        r_.degraded_by_scheme[s].insert(r_.degraded_by_scheme[s].end(),
                                        l.begin(), l.end());
      }
    }
  }

  // Repair, alone or under two clients' healthy reads.
  drain_transfers(false);
  count_repair_calls(files, failed);
  const double cross0 = dfs_->traffic().cross_rack_bytes();
  const double intra0 = dfs_->traffic().intra_rack_bytes();
  std::atomic<bool> repaired{false};
  Status repair_status;
  auto repair = [&] {
    attempted_.fetch_add(1, std::memory_order_relaxed);
    const std::int64_t t0 = now_ns();
    {
      SpanScope span("dfs.repair", next_op_.fetch_add(1));
      if (cfg_.repair_all) {
        repair_status = dfs_->repair_all();
      } else {
        for (cluster::NodeId node : failed) {
          const Status status = dfs_->repair_node(node);
          if (!status.is_ok() && repair_status.is_ok()) repair_status = status;
        }
      }
    }
    r_.repair_s = elapsed_s(t0);
    repaired.store(true, std::memory_order_release);
  };
  if (cfg_.reads_during_repair) {
    std::thread repairer(repair);
    healthy_reads(0, cfg_.read_clients, files, false, &lost_keys, &repaired);
    repairer.join();
  } else {
    repair();
  }
  if (!repair_status.is_ok()) {
    record_failure("repair: " + repair_status.to_string());
  }
  r_.repair_cross_rack_bytes = dfs_->traffic().cross_rack_bytes() - cross0;
  r_.repair_intra_rack_bytes = dfs_->traffic().intra_rack_bytes() - intra0;
  drain_transfers(true);

  // Post-repair checks: a clean scrub, every stored byte back, and the lost
  // blocks readable again from replicas.
  attempted_.fetch_add(1, std::memory_order_relaxed);
  Status scrub;
  {
    SpanScope span("dfs.scrub", next_op_.fetch_add(1));
    scrub = dfs_->scrub();
  }
  if (!scrub.is_ok()) {
    record_failure("scrub after repair: " + scrub.to_string());
  }
  attempted_.fetch_add(1, std::memory_order_relaxed);
  const double stored_after = static_cast<double>(dfs_->stored_bytes());
  if (stored_after != r_.stored_bytes) {
    record_failure("stored bytes after repair " +
                   std::to_string(stored_after) + " != " +
                   std::to_string(r_.stored_bytes) + " before failure");
  }
  hdfs::Client client(*dfs_);
  Buffer expect;
  for (const LostBlock& lb : lost) {
    read_op(client, files[lb.file], lb.block, false, "client.read_block",
            expect, nullptr);
  }
}

RunResult Runner::run(std::size_t setups) {
  // Set-up: cluster construction + preload, repeated; the last cluster is
  // the one the workload runs on, and earlier rounds are its warm-up.
  const bool preload_is_write_phase = cfg_.write_share == 0;
  for (std::size_t s = 0; s < setups; ++s) {
    const std::int64_t t0 = now_ns();
    live_.clear();
    next_file_ = 0;
    // Each set-up draws its own population from the seed, so the write
    // samples pooled across set-ups cover that many distinct file sizes.
    rng_ = Rng(seed_ ^ mix64(s));
    build_cluster();
    r_.files_created = 0;
    preload(preload_is_write_phase);
    r_.setup_s.push_back(elapsed_s(t0));
  }
  if (cfg_.write_share > 0) ingest_stream();
  if (cfg_.read_share > 0) {
    const std::vector<FileSpec> files(live_.begin(), live_.end());
    healthy_reads(seconds_ * cfg_.read_share, cfg_.read_clients, files,
                  cfg_.zipf_reads, nullptr, nullptr);
  }
  fail_and_repair();

  r_.busy_s = r_.write_busy_s + r_.repair_s;
  for (double us : r_.read_us) r_.busy_s += us / 1e6;
  for (double us : r_.degraded_us) r_.busy_s += us / 1e6;
  std::array<double, kNumSchemes> files_per_scheme{};
  std::array<double, kNumSchemes> stripes_per_scheme{};
  for (const FileSpec& f : live_) {
    files_per_scheme[f.scheme] += 1;
    stripes_per_scheme[f.scheme] += static_cast<double>(stripes_of(f));
  }
  for (std::size_t s = 0; s < kNumSchemes; ++s) {
    r_.stripes_per_file[s] = files_per_scheme[s] > 0
                                 ? stripes_per_scheme[s] / files_per_scheme[s]
                                 : 1;
  }
  const auto& nn = dfs_->namenode();
  r_.journal_records = static_cast<double>(nn.total_journal_records());
  for (std::size_t shard = 0; shard < nn.num_shards(); ++shard) {
    r_.journal_bytes += static_cast<double>(nn.journal_bytes(shard).size());
  }
  r_.attempted = attempted_.load();
  r_.failed = failed_.load();
  dfs_.reset();
  return std::move(r_);
}

}  // namespace

RunResult run_workload(const Config& config, std::uint64_t seed,
                       double seconds, bool capture, std::size_t setups) {
  Runner runner(config, seed, seconds, capture);
  return runner.run(setups);
}

}  // namespace dataplane
