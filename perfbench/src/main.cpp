// Benchmark binary: runs one workload for one seed and prints its result.
//
//   dacm_perfbench --workload rollout_durable|restart_replay|vehicle_sessions
//                  --seed N --seconds S --trace 0|1 [--trace-out PATH]
//
// Output: human-readable report lines, one "exact {...}" line with the
// seed-fixed counters, and as the last line one JSON object with keys
// correct / attempted / failed / metrics.  --trace 0 reports the
// end-to-end metrics; --trace 1 reports the per-layer metrics and, with
// --trace-out, writes the span records as Chrome-trace JSON.
#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <malloc.h>
#include <string>

#include "bench.hpp"

namespace perfbench {

namespace {
const Clock::time_point g_process_start = Clock::now();
}  // namespace

Clock::time_point ProcessStart() { return g_process_start; }

void RunResult::Check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

std::uint64_t LiveRssBytes() {
  malloc_trim(0);
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[128];
  std::uint64_t rss = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      rss = std::strtoull(line + 6, nullptr, 10) * 1024;  // kB
      break;
    }
  }
  std::fclose(status);
  return rss;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xD1B54A32D192ED03ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::string PercentileNote(const std::string& name, double value,
                           const std::string& unit, std::size_t samples) {
  char buffer[192];
  std::snprintf(buffer, sizeof buffer, "%s %.6g %s (n=%zu)", name.c_str(),
                value, unit.c_str(), samples);
  return buffer;
}

dacm::support::Status CountingSink::Append(
    std::span<const std::uint8_t> bytes) {
  Scope span(SpanKind::kSinkAppend);
  appends_.fetch_add(1, std::memory_order_relaxed);
  append_bytes_.fetch_add(bytes.size(), std::memory_order_relaxed);
  return inner_.Append(bytes);
}

dacm::support::Status CountingSink::Sync() {
  syncs_.fetch_add(1, std::memory_order_relaxed);
  return dacm::support::OkStatus();
}

dacm::support::Status CountingSink::Rotate(
    std::span<const std::uint8_t> image) {
  Scope span(SpanKind::kSinkRotate);
  rotations_.fetch_add(1, std::memory_order_relaxed);
  rotate_bytes_.fetch_add(image.size(), std::memory_order_relaxed);
  return inner_.Rotate(image);
}

CountingSink::Counts CountingSink::counts() const {
  return Counts{appends_.load(std::memory_order_relaxed),
                append_bytes_.load(std::memory_order_relaxed),
                syncs_.load(std::memory_order_relaxed),
                rotations_.load(std::memory_order_relaxed),
                rotate_bytes_.load(std::memory_order_relaxed)};
}

CountingSink::Counts operator-(const CountingSink::Counts& a,
                               const CountingSink::Counts& b) {
  return CountingSink::Counts{a.appends - b.appends,
                              a.append_bytes - b.append_bytes,
                              a.syncs - b.syncs, a.rotations - b.rotations,
                              a.rotate_bytes - b.rotate_bytes};
}

TracedUnit::TracedUnit(bool traced, std::uint64_t op, AllocCounts& allocs)
    : traced_(traced), allocs_(allocs) {
  spans::SetOp(op);
  if (traced_) {
    before_ = ReadAllocCounts();
    spans::Enable(true);
    SetAllocCounting(true);
  }
  span_.emplace(SpanKind::kOp);
}

TracedUnit::~TracedUnit() {
  span_.reset();
  if (!traced_) return;
  SetAllocCounting(false);
  spans::Enable(false);
  const AllocCounts after = ReadAllocCounts();
  allocs_.allocs += after.allocs - before_.allocs;
  allocs_.bytes += after.bytes - before_.bytes;
}

std::vector<Metric> EndToEndMetrics(const EndToEnd& e) {
  return {
      {"setup_s", e.setup_s, "s"},
      {"throughput_per_s", e.throughput_per_s, "1/s"},
      {"latency_p50_ms", e.latency_p50_ms, "ms"},
      {"rss_bytes_per_vehicle", e.rss_bytes_per_vehicle, "bytes"},
      {"pushes_per_vehicle", e.pushes_per_vehicle, "count"},
  };
}

std::vector<Metric> LayerMetricList(const LayerMetrics& l) {
  const double residual = l.sim_run_s - l.server_ack_flush_s -
                          l.support_sink_append_s - l.support_sink_rotate_s;
  return {
      {"sim.run_s", l.sim_run_s, "s"},
      {"sim.events_per_op", l.sim_events_per_op, "count"},
      {"sim.ns_per_event", l.sim_ns_per_event, "ns"},
      {"sim.barrier_stall_s", l.sim_barrier_stall_s, "s"},
      {"sim.messages_per_op", l.sim_messages_per_op, "count"},
      {"sim.can_frames_per_op", l.sim_can_frames_per_op, "count"},
      {"server.catalog_s", l.server_catalog_s, "s"},
      {"server.campaign_start_s", l.server_campaign_start_s, "s"},
      {"server.ack_flush_s", l.server_ack_flush_s, "s"},
      {"server.ack_flushes_per_op", l.server_ack_flushes_per_op, "count"},
      {"server.deploy_call_s", l.server_deploy_call_s, "s"},
      {"server.uninstall_call_s", l.server_uninstall_call_s, "s"},
      {"server.pushes_per_op", l.server_pushes_per_op, "count"},
      {"server.repush_share", l.server_repush_share, "ratio"},
      {"server.nacks_per_op", l.server_nacks_per_op, "count"},
      {"server.waves_per_campaign", l.server_waves_per_campaign, "count"},
      {"server.cache_entries", l.server_cache_entries, "count"},
      {"server.cache_live_payloads", l.server_cache_live_payloads, "count"},
      {"server.status_write_retries", l.server_status_write_retries, "count"},
      {"server.recover_s", l.server_recover_s, "s"},
      {"server.journal_recover_s", l.server_journal_recover_s, "s"},
      {"server.verify_s", l.server_verify_s, "s"},
      {"support.status_appends_per_op", l.support_status_appends_per_op, "count"},
      {"support.status_bytes_per_op", l.support_status_bytes_per_op, "bytes"},
      {"support.status_syncs_per_op", l.support_status_syncs_per_op, "count"},
      {"support.journal_appends_per_op", l.support_journal_appends_per_op, "count"},
      {"support.journal_bytes_per_op", l.support_journal_bytes_per_op, "bytes"},
      {"support.rotations", l.support_rotations, "count"},
      {"support.sink_append_s", l.support_sink_append_s, "s"},
      {"support.sink_rotate_s", l.support_sink_rotate_s, "s"},
      {"support.status_decode_s", l.support_status_decode_s, "s"},
      {"support.journal_decode_s", l.support_journal_decode_s, "s"},
      {"support.replay_mb_per_s", l.support_replay_mb_per_s, "MB/s"},
      {"support.log_to_live_ratio", l.support_log_to_live_ratio, "ratio"},
      {"support.allocs_per_op", l.support_allocs_per_op, "count"},
      {"support.alloc_bytes_per_op", l.support_alloc_bytes_per_op, "bytes"},
      {"fes.fleet_connect_s", l.fes_fleet_connect_s, "s"},
      {"fes.vehicle_build_s", l.fes_vehicle_build_s, "s"},
      {"pirte.installs_per_op", l.pirte_installs_per_op, "count"},
      {"pirte.messages_routed_per_op", l.pirte_messages_routed_per_op, "count"},
      {"pirte.type2_rx_per_op", l.pirte_type2_rx_per_op, "count"},
      {"pirte.type3_rx_per_op", l.pirte_type3_rx_per_op, "count"},
      {"pirte.ecm_routed_per_op", l.pirte_ecm_routed_per_op, "count"},
      {"pirte.guard_drop_share", l.pirte_guard_drop_share, "ratio"},
      {"vm.activations_per_op", l.vm_activations_per_op, "count"},
      {"vm.fuel_per_op", l.vm_fuel_per_op, "count"},
      {"rte.deliveries_per_op", l.rte_deliveries_per_op, "count"},
      {"os.activations_per_op", l.os_activations_per_op, "count"},
      {"bsw.com_pdus_per_op", l.bsw_com_pdus_per_op, "count"},
      {"bsw.canif_rx_frames_per_op", l.bsw_canif_rx_frames_per_op, "count"},
      {"residual_s", residual, "s"},
      {"trace.overhead", l.trace_overhead, "ratio"},
      {"fail_share", l.fail_share, "ratio"},
      {"wal_bytes_per_vehicle", l.wal_bytes_per_vehicle, "bytes"},
      {"sim_latency_p50_ms", l.sim_latency_p50_ms, "sim_ms"},
      {"sim_latency_p99_ms", l.sim_latency_p99_ms, "sim_ms"},
      {"latency_p90_ms", l.latency_p90_ms, "ms"},
      {"latency_p99_ms", l.latency_p99_ms, "ms"},
  };
}

namespace {

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
}

bool ParseU64(const char* text, std::uint64_t* out) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 0);
  if (errno != 0 || end == text || *end != '\0') return false;
  *out = value;
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: dacm_perfbench --workload rollout_durable|restart_replay|"
               "vehicle_sessions [--seed N] [--seconds S] [--trace 0|1] "
               "[--trace-out PATH]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    std::uint64_t number = 0;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      if (!ParseU64(value, &options.seed)) return Usage();
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
      if (!(options.seconds > 0 && options.seconds <= 3600)) return Usage();
    } else if (arg == "--trace") {
      if (!ParseU64(value, &number) || number > 1) return Usage();
      options.trace = number == 1;
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage();
    }
  }

  RunResult result;
  if (options.workload == "rollout_durable") {
    result = RunRollout(options);
  } else if (options.workload == "restart_replay") {
    result = RunRestart(options);
  } else if (options.workload == "vehicle_sessions") {
    result = RunVehicles(options);
  } else {
    return Usage();
  }

  if (options.trace && !options.trace_out.empty() &&
      !spans::WriteChromeTrace(options.trace_out)) {
    result.Check(false, "cannot write Chrome trace to " + options.trace_out);
  }

  if (options.trace) {
    for (std::size_t k = 0; k < static_cast<std::size_t>(SpanKind::kCount); ++k) {
      const auto kind = static_cast<SpanKind>(k);
      const SpanTotals t = spans::Totals(kind);
      if (t.count == 0) continue;
      char line[160];
      std::snprintf(line, sizeof line, "span %s: %" PRIu64 " spans, %.6f s total, %.6f s self",
                    SpanName(kind), t.count, static_cast<double>(t.total_ns) * 1e-9,
                    static_cast<double>(t.self_ns) * 1e-9);
      result.Note(line);
    }
  }
  for (const std::string& line : result.notes) std::printf("# %s\n", line.c_str());
  for (const std::string& line : result.failures) {
    std::printf("# FAILED: %s\n", line.c_str());
  }
  const double fail_share =
      result.attempted == 0 ? 1.0
                            : static_cast<double>(result.failed) /
                                  static_cast<double>(result.attempted);
  std::printf("# fail_share %.17g ratio (%" PRIu64 " of %" PRIu64 ")\n",
              fail_share, result.failed, result.attempted);
  std::printf("exact {");
  PrintMetrics(result.exact);
  std::printf("}\n");
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              result.failed == 0 && result.attempted > 0 ? "true" : "false",
              result.attempted, result.failed);
  PrintMetrics(options.trace ? result.per_layer : result.end_to_end);
  std::printf("}}\n");
  return 0;
}
