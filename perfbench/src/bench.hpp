// Shared plumbing of the benchmark binary: run options, the result every
// workload fills in, host-clock and RSS probes, quantiles, seed mixing,
// and the counting record sink the durable workloads write through.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "spans.hpp"
#include "support/storage.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // Chrome-trace path for --trace 1 ("" = none)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports.  `end_to_end` comes from untraced
/// work, `per_layer` from the traced half of a --trace 1 run; `exact`
/// holds the seed-fixed counters two same-seed runs must reproduce.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few failure descriptions
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> exact;
  std::vector<std::string> notes;  // human-readable report lines

  /// Counts one checked outcome; a false `ok` is a failure.
  void Check(bool ok, const std::string& what);
  void Note(const std::string& line) { notes.push_back(line); }
};

/// The end-to-end metrics, one value per name on every workload (the
/// README defines each one per workload).
struct EndToEnd {
  double setup_s = 0;
  double throughput_per_s = 0;
  double latency_p50_ms = 0;
  double rss_bytes_per_vehicle = 0;
  double pushes_per_vehicle = 0;
};
std::vector<Metric> EndToEndMetrics(const EndToEnd& e);

/// The per-layer metrics of a traced run; fields a workload does not
/// exercise stay 0.  `*_s` fields are seconds per op of the traced half
/// (set-up spans: seconds per set-up).
struct LayerMetrics {
  double sim_run_s = 0;
  double sim_events_per_op = 0;
  double sim_ns_per_event = 0;
  double sim_barrier_stall_s = 0;
  double sim_messages_per_op = 0;
  double sim_can_frames_per_op = 0;
  double server_catalog_s = 0;
  double server_campaign_start_s = 0;
  double server_ack_flush_s = 0;
  double server_ack_flushes_per_op = 0;
  double server_deploy_call_s = 0;
  double server_uninstall_call_s = 0;
  double server_pushes_per_op = 0;
  double server_repush_share = 0;
  double server_nacks_per_op = 0;
  double server_waves_per_campaign = 0;
  double server_cache_entries = 0;
  double server_cache_live_payloads = 0;
  double server_status_write_retries = 0;
  double server_recover_s = 0;
  double server_journal_recover_s = 0;
  double server_verify_s = 0;
  double support_status_appends_per_op = 0;
  double support_status_bytes_per_op = 0;
  double support_status_syncs_per_op = 0;
  double support_journal_appends_per_op = 0;
  double support_journal_bytes_per_op = 0;
  double support_rotations = 0;
  double support_sink_append_s = 0;
  double support_sink_rotate_s = 0;
  double support_status_decode_s = 0;
  double support_journal_decode_s = 0;
  double support_replay_mb_per_s = 0;
  double support_log_to_live_ratio = 0;
  double support_allocs_per_op = 0;
  double support_alloc_bytes_per_op = 0;
  double fes_fleet_connect_s = 0;
  double fes_vehicle_build_s = 0;
  double pirte_installs_per_op = 0;
  double pirte_messages_routed_per_op = 0;
  double pirte_type2_rx_per_op = 0;
  double pirte_type3_rx_per_op = 0;
  double pirte_ecm_routed_per_op = 0;
  double pirte_guard_drop_share = 0;
  double vm_activations_per_op = 0;
  double vm_fuel_per_op = 0;
  double rte_deliveries_per_op = 0;
  double os_activations_per_op = 0;
  double bsw_com_pdus_per_op = 0;
  double bsw_canif_rx_frames_per_op = 0;
  double trace_overhead = 0;
  double fail_share = 0;
  double wal_bytes_per_vehicle = 0;
  double sim_latency_p50_ms = 0;
  double sim_latency_p99_ms = 0;
  double latency_p90_ms = 0;
  double latency_p99_ms = 0;
};
/// Also derives residual_s from the sim/flush/sink spans.
std::vector<Metric> LayerMetricList(const LayerMetrics& l);

RunResult RunRollout(const Options& options);
RunResult RunRestart(const Options& options);
RunResult RunVehicles(const Options& options);

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Host time of the process entry (main), the origin of the first set-up.
Clock::time_point ProcessStart();

/// Resident set size from /proc/self/status, in bytes (0 if unreadable),
/// read after malloc_trim hands free heap pages back to the kernel, so it
/// follows live memory rather than what the allocator happens to cache.
std::uint64_t LiveRssBytes();

/// Linear-interpolated quantile (q in [0,1]) of `values`; sorts a copy.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Derives an independent 64-bit seed for stream `stream` of `seed`.
std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t stream);

/// "name value unit (n=count)" report line for a percentile.
std::string PercentileNote(const std::string& name, double value,
                           const std::string& unit, std::size_t samples);

/// Record sink of the durable workloads: forwards to a MemorySink and
/// counts appends, bytes, syncs and rotations.  A sync is counted and
/// acknowledged but reaches no device, so the flush policy's cadence is
/// visible without paying a real fsync.  Append and Rotate are wrapped
/// in benchmark spans when tracing.
class CountingSink : public dacm::support::RecordSink {
 public:
  dacm::support::Status Append(std::span<const std::uint8_t> bytes) override;
  dacm::support::Status Sync() override;
  dacm::support::Status Rotate(std::span<const std::uint8_t> image) override;

  const dacm::support::Bytes& bytes() const { return inner_.bytes(); }

  struct Counts {
    std::uint64_t appends = 0;
    std::uint64_t append_bytes = 0;
    std::uint64_t syncs = 0;
    std::uint64_t rotations = 0;
    std::uint64_t rotate_bytes = 0;
  };
  Counts counts() const;

 private:
  dacm::support::MemorySink inner_;
  std::atomic<std::uint64_t> appends_{0};
  std::atomic<std::uint64_t> append_bytes_{0};
  std::atomic<std::uint64_t> syncs_{0};
  std::atomic<std::uint64_t> rotations_{0};
  std::atomic<std::uint64_t> rotate_bytes_{0};
};

/// Difference of two sink snapshots (later minus earlier).
CountingSink::Counts operator-(const CountingSink::Counts& a,
                               const CountingSink::Counts& b);

/// Allocation counts of the benchmark binary's operator new hook.
struct AllocCounts {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
};
void SetAllocCounting(bool on);
AllocCounts ReadAllocCounts();

/// Brackets one measured unit of work (a round, a recovery, a sim slice)
/// as op `op`, under an `op` span.  A traced unit switches span recording
/// and the allocation counter on for its lifetime and adds its
/// allocations to `allocs`; an untraced one records nothing.
class TracedUnit {
 public:
  TracedUnit(bool traced, std::uint64_t op, AllocCounts& allocs);
  ~TracedUnit();

  TracedUnit(const TracedUnit&) = delete;
  TracedUnit& operator=(const TracedUnit&) = delete;

 private:
  bool traced_;
  AllocCounts& allocs_;
  AllocCounts before_;
  std::optional<Scope> span_;
};

/// Per-op share of a counter, 0 when there were no ops.
inline double PerOp(double total, double ops) {
  return ops > 0 ? total / ops : 0.0;
}

}  // namespace perfbench
