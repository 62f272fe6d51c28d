// dataplane_bench: one client-side workload of the mini-HDFS data plane.
//
//   dataplane_bench --workload ingest|serve|repair --seed N --seconds S
//                   --trace 0|1 [--spans-out PATH]
//
// --trace 0 runs the workload once (set-up repeated kSetups times)
// and reports the end-to-end metrics. --trace 1 runs it twice -- untraced,
// then with spans recorded around every call into hdfs -- measures each
// lower layer in isolation, and reports the per-layer metrics. Either way a
// human-readable table comes first and the last stdout line is the JSON
// result. Exit status: 0 when every check passed, 1 when a read, repair or
// post-repair check failed, 2 on bad arguments, 3 when a percentile lacks
// the samples it needs or a metric name is malformed.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench.h"
#include "harness.h"

namespace dataplane {
namespace {

namespace net = dblrep::net;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string spans_out;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0') return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && known_workload(args.workload) && args.seconds > 0 &&
         args.seconds <= 600 && args.trace >= 0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Metrics plus the sample counts behind each percentile, for the table.
struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // parallel to metrics
  bool percentiles_ok = true;

  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    metrics.push_back({name, value, unit});
    notes.push_back(note);
  }
  void add_percentile(const std::string& name, const std::vector<double>& xs,
                      double q, double scale, const std::string& unit) {
    const Percentile p = percentile(xs, q);
    percentiles_ok &= p.supported();
    add(name, p.value * scale, unit,
        "n=" + std::to_string(p.samples) +
            " beyond=" + std::to_string(p.beyond) +
            (p.supported() ? "" : " (TOO FEW)"));
  }
};

Report end_to_end(const RunResult& r) {
  Report rep;
  rep.add("setup_s", median(r.setup_s), "s",
          "median of " + std::to_string(r.setup_s.size()) + " set-ups");
  rep.add("peak_rss_mb", peak_rss_mb(), "MB");
  rep.add("storage_overhead", r.stored_bytes / r.user_bytes, "x",
          "stored / user bytes, healthy");
  rep.add("ingest_mb_s", r.written_bytes / r.write_busy_s / 1e6, "MB/s",
          std::to_string(r.write_ms.size()) + " files");
  rep.add_percentile("write_p50_ms", r.write_ms, 0.5, 1, "ms");
  rep.add_percentile("write_p90_ms", r.write_ms, 0.9, 1, "ms");
  rep.add("read_ops_s", static_cast<double>(r.read_us.size()) / r.read_wall_s,
          "1/s");
  rep.add_percentile("read_p50_us", r.read_us, 0.5, 1, "us");
  rep.add_percentile("read_p99_us", r.read_us, 0.99, 1, "us");
  rep.add_percentile("degraded_read_p50_us", r.degraded_us, 0.5, 1, "us");
  rep.add_percentile("degraded_read_p99_us", r.degraded_us, 0.99, 1, "us");
  rep.add("repair_mb_s", r.rebuilt_bytes / r.repair_s / 1e6, "MB/s",
          "rebuilt " + std::to_string(r.rebuilt_bytes / 1e6) + " MB");
  return rep;
}

double span_mean_us(const std::vector<SpanSummary>& spans, const char* name) {
  for (const auto& s : spans) {
    if (s.name == name) return s.mean_us();
  }
  return 0;
}

/// Time per unit of the workload's primary operation, compared between the
/// untraced and traced passes for trace.overhead_frac.
double primary_cost(const Config& config, const RunResult& r) {
  if (config.write_share > 0) return r.write_busy_s / r.written_bytes;
  if (config.read_share > 0) return mean(r.read_us);
  return mean(r.degraded_us);
}

Report per_layer(const Config& config, const RunResult& plain,
                 const RunResult& traced, const LayerCosts& c,
                 const std::vector<SpanSummary>& spans,
                 std::size_t span_count) {
  Report rep;
  const double block = static_cast<double>(kBlockSize);
  const std::size_t rs = kNumSchemes - 1;
  rep.add("crc.mb_s", block / c.crc_us, "MB/s", "crc32c, 64 KiB");
  rep.add("mem.copy_mb_s", block / c.copy_us, "MB/s", "memcpy, 64 KiB");
  rep.add("gf.apply_mb_s", c.stripe_bytes[rs] / c.gf_apply_us[rs], "MB/s",
          "rs-10-4 parity rows");
  double encoded_bytes = 0, encode_us = 0;
  for (std::size_t s = 0; s < kNumSchemes; ++s) {
    rep.add(std::string("ec.encode_mb_s.") + kSchemes[s],
            c.stripe_bytes[s] / c.encode_us[s], "MB/s");
    encoded_bytes += plain.calls.stripes_encoded[s] * c.stripe_bytes[s];
    encode_us += plain.calls.stripes_encoded[s] * c.encode_us[s];
  }
  rep.add("ec.plan_build_us", c.plan_build_us, "us", "two-node repair plan");
  rep.add("ec.plan_exec_mb_s", c.plan_exec_mb_s, "MB/s");
  rep.add("datanode.put_us", c.put_us, "us");
  rep.add("datanode.get_us", c.get_us, "us");
  rep.add("datanode.get_us_3t", c.get_us_3t, "us", "3 readers, one node");
  rep.add("namenode.write_txn_us", c.write_txn_us, "us");
  rep.add("namenode.lookup_us", c.lookup_us, "us");
  rep.add("journal.records_per_file",
          plain.journal_records / plain.files_created, "records");
  rep.add("journal.bytes_per_file", plain.journal_bytes / plain.files_created,
          "B");
  rep.add("client.append_us", span_mean_us(spans, "client.append"), "us");
  rep.add("client.close_ms", span_mean_us(spans, "client.close") / 1e3, "ms");
  rep.add("client.read_block_us", span_mean_us(spans, "client.read_block"),
          "us");
  rep.add("client.pread_us", span_mean_us(spans, "client.pread"), "us");
  rep.add("client.degraded_read_us",
          span_mean_us(spans, "client.degraded_read"), "us");
  rep.add("dfs.repair_s", span_mean_us(spans, "dfs.repair") / 1e6, "s");
  rep.add("client.zero_copy_frac",
          plain.zero_copy_bytes /
              (plain.zero_copy_bytes + plain.buffered_bytes),
          "frac");
  rep.add("exec.task_us", c.task_us, "us",
          std::to_string(config.pool_workers) + " pool workers");
  for (const auto cls : {net::TransferClass::kClientWrite,
                         net::TransferClass::kClientRead,
                         net::TransferClass::kRepair}) {
    const auto i = static_cast<std::size_t>(cls);
    rep.add(std::string("net.transfers.") + net::to_string(cls),
            traced.transfers[i], "count");
    rep.add(std::string("net.bytes.") + net::to_string(cls),
            traced.transfer_bytes[i], "B");
  }
  rep.add("net.replay_makespan_s", traced.replay_makespan_s, "s",
          "repair storm replayed at t=0");
  rep.add("net.replay_wall_s", traced.replay_wall_s, "s");
  const double node_bytes =
      plain.repair_intra_rack_bytes + plain.repair_cross_rack_bytes;
  rep.add("traffic.repair_bytes_per_rebuilt_byte",
          node_bytes / plain.rebuilt_bytes, "ratio");
  rep.add("traffic.cross_rack_frac", plain.repair_cross_rack_bytes / node_bytes,
          "frac");

  // Isolated cost x implied calls, as shares of the untraced pass's summed
  // op time. Parallel work (pool workers, concurrent clients) can push the
  // sum past 1, which shows as a negative remainder.
  const CallCounts& n = plain.calls;
  // DataNode self time: its call minus the CRC and block copy it contains.
  // Left unclamped -- a small negative value means the node's own
  // bookkeeping is below the probes' noise.
  const double dn_get_self = c.get_us - c.crc_us - c.copy_us;
  const double dn_put_self = c.put_us - c.crc_us - c.copy_us;
  double gf_us = 0, ec_us = 0;
  for (std::size_t s = 0; s < kNumSchemes; ++s) {
    const double encode_self = std::max(0.0, c.encode_us[s] - c.gf_apply_us[s]);
    const double degraded = c.degraded_plan_us[s] + c.degraded_exec_us[s];
    gf_us += n.stripes_encoded[s] * c.gf_apply_us[s];
    ec_us += n.stripes_encoded[s] * encode_self +
             n.degraded_reads[s] * degraded +
             n.stripes_repaired[s] * c.repair_exec_us[s];
  }
  const std::vector<std::pair<const char*, double>> layers = {
      {"common", (n.blocks_get + n.blocks_put) * c.crc_us +
                     (n.blocks_get + n.blocks_put + n.client_copies) *
                         c.copy_us},
      {"gf", gf_us},
      {"ec", ec_us},
      {"datanode", n.blocks_get * dn_get_self + n.blocks_put * dn_put_self},
      {"namenode", n.write_txns * c.write_txn_us + n.lookups * c.lookup_us},
      {"exec", n.pool_tasks * c.task_us},
  };
  const double busy_us = plain.busy_s * 1e6;
  double attributed = 0;
  for (const auto& [layer, us] : layers) {
    rep.add(std::string("layer_frac.") + layer, us / busy_us, "frac");
    attributed += us / busy_us;
  }
  rep.add("unattributed_frac", 1 - attributed, "frac");
  const double ingest_mb_s = plain.written_bytes / plain.write_busy_s / 1e6;
  rep.add("codec_frac", ingest_mb_s / (encoded_bytes / encode_us), "frac",
          "ingest_mb_s / blended encode MB/s");
  rep.add("decode_frac",
          plain.rebuilt_bytes / plain.repair_s / 1e6 / c.plan_exec_mb_s, "frac",
          "repair_mb_s / plan_exec_mb_s");
  rep.add("trace.overhead_frac",
          primary_cost(config, traced) / primary_cost(config, plain) - 1,
          "frac");
  rep.add("trace.spans", static_cast<double>(span_count), "count");
  return rep;
}

void print_table(const Args& args, const Config& config, const Report& rep,
                 std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<std::string>& errors) {
  std::printf("# dataplane %s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace);
  std::printf("# pool_workers=%zu read_clients=%zu degraded_clients=%zu "
              "preload_stored=%.1fMB llc=%.1fMB\n",
              config.pool_workers, config.read_clients, config.degraded_clients,
              static_cast<double>(config.preload_stored_bytes) / 1e6,
              static_cast<double>(last_level_cache_bytes()) / 1e6);
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    std::printf("%-40s %16.6g %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), rep.notes[i].c_str());
  }
  std::printf("%-40s %16.6g %-8s attempted=%llu failed=%llu\n", "failed_frac",
              attempted ? static_cast<double>(failed) / attempted : 0.0, "frac",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (const auto& e : errors) std::printf("# error: %s\n", e.c_str());
}

}  // namespace
}  // namespace dataplane

int main(int argc, char** argv) {
  using namespace dataplane;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload ingest|serve|repair --seed N "
                 "--seconds S --trace 0|1 [--spans-out PATH]\n",
                 argv[0]);
    return 2;
  }
  const Config config = config_for(args.workload);
  Report report;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  if (args.trace == 0) {
    const RunResult r =
        run_workload(config, args.seed, args.seconds, false, kSetups);
    report = end_to_end(r);
    for (std::size_t s = 0; s < kNumSchemes; ++s) {
      const auto& xs = r.degraded_by_scheme[s];
      std::printf("# degraded reads %-15s n=%zu p50=%.0fus p99=%.0fus\n",
                  kSchemes[s], xs.size(), percentile(xs, 0.5).value,
                  percentile(xs, 0.99).value);
    }
    attempted = r.attempted;
    failed = r.failed;
    errors = r.errors;
  } else {
    const RunResult plain =
        run_workload(config, args.seed, args.seconds, false, 1);
    Tracer::set_enabled(true);
    const RunResult traced =
        run_workload(config, args.seed, args.seconds, true, 1);
    Tracer::set_enabled(false);
    const std::vector<Span> spans = Tracer::collect();
    const auto summary = summarize(spans);
    const LayerCosts costs = measure_layers(config, plain);
    report = per_layer(config, plain, traced, costs, summary, spans.size());
    attempted = plain.attempted + traced.attempted;
    failed = plain.failed + traced.failed;
    errors = plain.errors;
    errors.insert(errors.end(), traced.errors.begin(), traced.errors.end());
    std::printf("# spans (traced pass): name count mean_us self_us_total\n");
    for (const auto& s : summary) {
      std::printf("#   %-28s %8zu %12.2f %14.0f\n", s.name.c_str(), s.count,
                  s.mean_us(), s.self_us);
    }
    if (!args.spans_out.empty() && !write_spans(args.spans_out, spans)) {
      std::fprintf(stderr, "cannot write spans to %s\n",
                   args.spans_out.c_str());
    }
  }
  print_table(args, config, report, attempted, failed, errors);
  if (!report.percentiles_ok) {
    std::fprintf(stderr, "a percentile has fewer than %zu samples beyond it\n",
                 kMinBeyond);
    return 3;
  }
  for (const Metric& m : report.metrics) {
    if (!valid_metric_name(m.name)) {
      std::fprintf(stderr, "invalid metric name '%s'\n", m.name.c_str());
      return 3;
    }
  }
  const bool correct = failed == 0;
  std::printf("%s\n",
              result_json(correct, attempted, failed, report.metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
