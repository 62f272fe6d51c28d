// Isolated per-call costs of each layer below hdfs::Client, measured by
// calling each layer's public functions directly on the workloads' shapes:
// 64 KiB blocks, the three schemes, and the failure of two code-local
// nodes {0, 1} (a pair that shares a replicated block). main.cc multiplies
// them by the call counts a workload's geometry implies.
#include <cmath>
#include <cstring>
#include <functional>
#include <thread>

#include "bench.h"
#include "common/bytes.h"
#include "ec/registry.h"
#include "ec/repair.h"
#include "ec/stripe_codec.h"
#include "exec/thread_pool.h"
#include "gf/kernel.h"
#include "harness.h"
#include "hdfs/datanode.h"
#include "hdfs/minidfs.h"

namespace dataplane {

using namespace dblrep;

namespace {

constexpr double kRoundS = 0.02;
constexpr int kRounds = 5;

/// Median over kRounds of the mean time of `fn` per call, in µs.
double us_per_call(const std::function<void()>& fn) {
  std::vector<double> rounds;
  for (int r = 0; r < kRounds; ++r) {
    std::size_t calls = 0;
    const std::int64_t t0 = now_ns();
    std::int64_t t = t0;
    do {
      fn();
      ++calls;
      t = now_ns();
    } while (t - t0 < static_cast<std::int64_t>(kRoundS * 1e9));
    rounds.push_back(static_cast<double>(t - t0) / 1e3 /
                     static_cast<double>(calls));
  }
  return median(rounds);
}

/// Like us_per_call, but times only `fn`; `reset` runs untimed before each
/// call (for operations that consume their input).
double us_per_call_reset(const std::function<void()>& reset,
                         const std::function<void()>& fn) {
  std::vector<double> rounds;
  for (int r = 0; r < kRounds; ++r) {
    std::size_t calls = 0;
    std::int64_t timed = 0;
    const std::int64_t t0 = now_ns();
    while (now_ns() - t0 < static_cast<std::int64_t>(kRoundS * 1e9)) {
      reset();
      const std::int64_t t = now_ns();
      fn();
      timed += now_ns() - t;
      ++calls;
    }
    rounds.push_back(static_cast<double>(timed) / 1e3 /
                     static_cast<double>(calls));
  }
  return median(rounds);
}

void measure_common(LayerCosts& c) {
  SpanScope span("layer.common");
  const Buffer block = random_buffer(kBlockSize, 1);
  volatile std::uint32_t crc_sink = 0;
  c.crc_us = us_per_call([&] { crc_sink = crc32c(block); });
  // Block copies walking a 64 MiB region, the memcpy ceiling of every path
  // that moves a block.
  const std::size_t region = std::size_t{64} << 20;
  Buffer src = random_buffer(region, 2);
  Buffer dst(region);
  std::size_t off = 0;
  c.copy_us = us_per_call([&] {
    std::memcpy(dst.data() + off, src.data() + off, kBlockSize);
    off = (off + kBlockSize) % region;
  });
  (void)crc_sink;
}

void measure_codes(LayerCosts& c) {
  const std::set<ec::NodeIndex> failed = {0, 1};
  double rebuilt_bytes = 0, exec_us = 0;
  std::vector<double> plan_us;
  for (std::size_t s = 0; s < kNumSchemes; ++s) {
    const auto code = ec::make_code(kSchemes[s]).value();
    const std::size_t k = code->data_blocks();
    std::vector<Buffer> data;
    for (std::size_t b = 0; b < k; ++b) {
      data.push_back(random_buffer(kBlockSize, 10 + b));
    }
    c.stripe_bytes[s] = static_cast<double>(k * kBlockSize);
    {
      SpanScope span("layer.gf");
      const auto coeffs = code->parity_coeffs();
      const std::size_t rows = coeffs.size() / k;
      std::vector<ByteSpan> sources(data.begin(), data.end());
      std::vector<Buffer> parity(rows, Buffer(kBlockSize));
      std::vector<MutableByteSpan> outputs(parity.begin(), parity.end());
      c.gf_apply_us[s] = us_per_call(
          [&] { gf::active_kernel().matrix_apply(coeffs, sources, outputs); });
    }
    SpanScope span("layer.ec");
    {
      ec::StripeCodec codec(*code);
      Buffer stripe;
      for (const Buffer& b : data) {
        stripe.insert(stripe.end(), b.begin(), b.end());
      }
      c.encode_us[s] =
          us_per_call([&] { (void)codec.encode_stripe(stripe, kBlockSize); });
    }
    plan_us.push_back(us_per_call(
        [&] { (void)code->plan_multi_node_repair(failed); }));

    // The stripe as the survivors hold it.
    const std::vector<Buffer> slots = code->encode(data);
    ec::SlotStore survivors;
    std::size_t lost_bytes = 0;
    for (std::size_t slot = 0; slot < slots.size(); ++slot) {
      if (failed.contains(code->layout().node_of_slot(slot))) {
        lost_bytes += slots[slot].size();
      } else {
        survivors.emplace(slot, slots[slot]);
      }
    }
    // The first data block with every replica on the failed pair.
    std::size_t lost_block = 0;
    for (std::size_t b = 0; b < k; ++b) {
      bool all_failed = true;
      for (std::size_t slot : code->layout().slots_of_symbol(b)) {
        all_failed &= failed.contains(code->layout().node_of_slot(slot));
      }
      if (all_failed) {
        lost_block = b;
        break;
      }
    }
    c.degraded_plan_us[s] = us_per_call(
        [&] { (void)code->plan_degraded_block(lost_block, failed); });
    ec::PlanExecutor executor(code->layout());
    ec::SlotStore store;
    const auto degraded = code->plan_degraded_block(lost_block, failed).value();
    c.degraded_exec_us[s] = us_per_call_reset(
        [&] { store = survivors; },
        [&] { (void)executor.execute(degraded, store); });
    const auto repair = code->plan_multi_node_repair(failed).value();
    c.repair_exec_us[s] = us_per_call_reset(
        [&] { store = survivors; },
        [&] { (void)executor.execute(repair, store); });
    rebuilt_bytes += static_cast<double>(lost_bytes);
    exec_us += c.repair_exec_us[s];
  }
  c.plan_build_us = mean(plan_us);
  c.plan_exec_mb_s = rebuilt_bytes / exec_us;  // bytes/µs == MB/s
}

void measure_datanode(LayerCosts& c) {
  SpanScope span("layer.datanode");
  const Buffer block = random_buffer(kBlockSize, 3);
  constexpr std::size_t kBlocks = 256;
  hdfs::DataNode node(0);
  for (std::size_t i = 0; i < kBlocks; ++i) {
    (void)node.put({i, 0}, ByteSpan(block));
  }
  std::size_t next = 0;
  c.put_us = us_per_call(
      [&] { (void)node.put({next++ % kBlocks, 0}, ByteSpan(block)); });
  c.get_us = us_per_call([&] { (void)node.get({next++ % kBlocks, 0}); });
  // Three readers on one node: the per-node mutex serializes them. The
  // mean latency per get is the three threads' time over all gets (the
  // mutex is unfair, so per-thread counts are not comparable).
  constexpr std::size_t kReaders = 3;
  std::vector<double> rounds;
  for (int r = 0; r < kRounds; ++r) {
    std::atomic<std::size_t> calls{0};
    std::vector<std::thread> threads;
    const std::int64_t t0 = now_ns();
    for (std::size_t t = 0; t < kReaders; ++t) {
      threads.emplace_back([&, t] {
        std::size_t mine = 0, i = t * 85;
        while (now_ns() - t0 < static_cast<std::int64_t>(kRoundS * 1e9)) {
          (void)node.get({i++ % kBlocks, 0});
          ++mine;
        }
        calls.fetch_add(mine);
      });
    }
    for (auto& thread : threads) thread.join();
    rounds.push_back(static_cast<double>(now_ns() - t0) / 1e3 * kReaders /
                     static_cast<double>(std::max<std::size_t>(calls, 1)));
  }
  c.get_us_3t = median(rounds);
}

void measure_namenode(LayerCosts& c, const RunResult& shapes) {
  SpanScope span("layer.namenode");
  hdfs::MiniDfs dfs(bench_topology(), 1, nullptr);
  hdfs::NameNode& nn = dfs.namenode();
  std::vector<std::unique_ptr<ec::CodeScheme>> codes;
  std::vector<std::vector<std::vector<cluster::NodeId>>> groups;
  for (std::size_t s = 0; s < kNumSchemes; ++s) {
    codes.push_back(ec::make_code(kSchemes[s]).value());
    std::vector<cluster::NodeId> group;
    for (std::size_t n = 0; n < codes[s]->num_nodes(); ++n) {
      group.push_back(static_cast<cluster::NodeId>(n));
    }
    const auto stripes = static_cast<std::size_t>(
        std::max(1.0, std::round(shapes.stripes_per_file[s])));
    groups.emplace_back(stripes, group);
  }
  std::size_t files = 0;
  c.write_txn_us = us_per_call([&] {
    const std::size_t s = files % kNumSchemes;
    const std::string path = "/txn/f" + std::to_string(files++);
    (void)nn.begin_write(path, kSchemes[s], kBlockSize);
    (void)nn.attach_stripes(path, *codes[s], groups[s]);
    (void)nn.commit_write(path);
  });
  std::size_t next = 0;
  c.lookup_us = us_per_call([&] {
    (void)nn.lookup("/txn/f" + std::to_string(next++ % files));
  });
}

void measure_exec(LayerCosts& c, const Config& config) {
  SpanScope span("layer.exec");
  exec::ThreadPool pool(config.pool_workers);
  c.task_us = us_per_call([&] { pool.async([] {}).get(); });
}

}  // namespace

LayerCosts measure_layers(const Config& config, const RunResult& shapes) {
  LayerCosts c;
  measure_common(c);
  measure_codes(c);
  measure_datanode(c);
  measure_namenode(c, shapes);
  measure_exec(c, config);
  return c;
}

}  // namespace dataplane
