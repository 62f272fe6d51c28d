// Shared definitions of the data-plane benchmark: the cluster and file
// shapes every workload uses, the seeded payload, and what one workload run
// reports back to main.cc.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/topology.h"
#include "net/transfer.h"

namespace dataplane {

inline constexpr std::size_t kBlockSize = 64 << 10;
inline constexpr std::size_t kAppendBytes = 1 << 20;
inline constexpr std::size_t kNumSchemes = 3;
/// Set-ups timed in an end-to-end run; setup_s is their median.
inline constexpr std::size_t kSetups = 3;
/// The paper's two codes and its RS baseline, in equal thirds of every
/// file population (file i uses kSchemes[i % 3]).
inline constexpr std::array<const char*, kNumSchemes> kSchemes = {
    "pentagon", "heptagon-local", "rs-10-4"};

/// 25 nodes (the paper's set-up 1) in 3 racks, so heptagon-local groups
/// land one per rack and repair traffic has a cross-rack share.
dblrep::cluster::Topology bench_topology();

/// Seeded file contents: byte `offset` of the file keyed `key`. Reads are
/// verified by regenerating the expected bytes, so no copy of the user data
/// is kept in memory.
void fill_payload(std::uint64_t key, std::size_t offset, std::uint8_t* out,
                  std::size_t n);

/// Last-level cache size in bytes as sysfs reports it (what lscpu shows),
/// or 32 MiB when it cannot be read.
std::size_t last_level_cache_bytes();

/// Per-workload sizing; see README.md for the reasons.
struct Config {
  std::string name;
  std::size_t pool_workers = 0;  // 0 = the inline pool
  std::size_t preload_stored_bytes = 0;
  std::size_t preload_min_files = 0;
  std::size_t file_min = 0, file_max = 0;  // user bytes per file
  std::size_t live_stored_cap = 0;         // ingest: delete oldest above this
  std::size_t read_clients = 1;
  std::size_t degraded_clients = 1;
  bool repair_all = true;       // false: repair_node on the failed pair only
  bool reads_during_repair = false;
  bool zipf_reads = false;  // healthy reads Zipf s = 1 over files, or uniform
  // Phase budgets as shares of --seconds.
  double write_share = 0, read_share = 0, degraded_share = 0;
};

Config config_for(const std::string& workload);
bool known_workload(const std::string& workload);

/// How often each layer's operation ran during the timed phases, derived
/// from the workload's geometry; main.cc multiplies these by isolated
/// per-call costs for the layer_frac metrics.
struct CallCounts {
  std::array<double, kNumSchemes> stripes_encoded{};
  std::array<double, kNumSchemes> degraded_reads{};
  std::array<double, kNumSchemes> stripes_repaired{};
  double blocks_put = 0;
  double blocks_get = 0;
  double client_copies = 0;  // block copies into client result buffers
  double write_txns = 0;
  double lookups = 0;
  double pool_tasks = 0;
};

struct RunResult {
  std::vector<double> setup_s;
  std::vector<double> write_ms;  // per-file time inside create/append/close
  double written_bytes = 0;
  double write_busy_s = 0;
  std::vector<double> read_us;
  double read_wall_s = 0;
  std::vector<double> degraded_us;
  std::array<std::vector<double>, kNumSchemes> degraded_by_scheme;
  double rebuilt_bytes = 0;
  double repair_s = 0;
  double stored_bytes = 0;  // healthy, before the failure
  double user_bytes = 0;    // live files' logical bytes at the same point
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // the first few, for the report

  // Layer attribution inputs.
  CallCounts calls;
  double busy_s = 0;  // summed op latencies of the timed phases + repair
  std::array<double, kNumSchemes> stripes_per_file{};
  double files_created = 0;
  double journal_records = 0;
  double journal_bytes = 0;
  double zero_copy_bytes = 0;
  double buffered_bytes = 0;
  double repair_cross_rack_bytes = 0;
  double repair_intra_rack_bytes = 0;
  std::array<double, dblrep::net::kNumTransferClasses> transfers{};
  std::array<double, dblrep::net::kNumTransferClasses> transfer_bytes{};
  double replay_makespan_s = 0;
  double replay_wall_s = 0;
};

/// Runs one workload end to end, setting up its cluster `setups` times.
/// `capture` attaches a TransferLog (the traced pass); the spans
/// themselves are controlled by Tracer::set_enabled.
RunResult run_workload(const Config& config, std::uint64_t seed,
                       double seconds, bool capture, std::size_t setups);

/// Isolated per-call costs of each layer, measured on the workloads'
/// shapes (64 KiB blocks, the three schemes, a two-node failure).
struct LayerCosts {
  double crc_us = 0;       // crc32c of one block
  double copy_us = 0;      // memcpy of one block
  std::array<double, kNumSchemes> gf_apply_us{};  // parity rows, one stripe
  std::array<double, kNumSchemes> encode_us{};    // StripeCodec, one stripe
  std::array<double, kNumSchemes> stripe_bytes{};
  double plan_build_us = 0;  // repair plan for the failed pair, mean
  std::array<double, kNumSchemes> degraded_plan_us{};
  std::array<double, kNumSchemes> degraded_exec_us{};
  std::array<double, kNumSchemes> repair_exec_us{};
  double plan_exec_mb_s = 0;  // rebuilt bytes / execute time, all schemes
  double put_us = 0, get_us = 0, get_us_3t = 0;
  double write_txn_us = 0, lookup_us = 0;
  double task_us = 0;
};

LayerCosts measure_layers(const Config& config, const RunResult& shapes);

}  // namespace dataplane
