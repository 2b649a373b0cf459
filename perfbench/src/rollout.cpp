// rollout_durable: back-to-back rounds of a deploy campaign and a
// rollback campaign over a 20k-VIN scripted fleet in 8 models, with the
// write-ahead status DB and the campaign journal writing into counting
// sinks, 2 server shards and 2 simulator lanes (4 threads).  Every
// campaign gets a fresh seeded fault scenario.  An op is one campaign
// row reaching done; a round (deploy + rollback) is one host-latency
// sample.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "fleet_stack.hpp"
#include "support/metrics.hpp"

namespace perfbench {
namespace {

using namespace dacm;

constexpr FleetShape kShape{
    /*vehicles=*/20'000, /*lanes=*/2,
    // Low enough that the counted rounds alone rotate both logs.
    /*status_compact_bytes=*/8ull << 20, /*journal_compact_bytes=*/1ull << 20};
// Rounds whose counters and sim latencies are reported as exact; every
// run completes them, however short --seconds is.
constexpr std::size_t kCountedRounds = 8;
constexpr std::size_t kSetups = 7;

/// Counters summed over a set of rounds.
struct Tally {
  double ops = 0;   // rows done
  double rows = 0;  // rows attempted
  double events = 0;
  double messages = 0;
  double campaigns = 0;
  double waves = 0;
  double campaign_pushes = 0;
  double packages_pushed = 0;
  double repushes = 0;
  double nacks = 0;
  double ack_flushes = 0;
  double ack_flush_s = 0;
  double barrier_stall_s = 0;
  CountingSink::Counts status;
  CountingSink::Counts journal;
  std::vector<double> sim_latency_ms;

  void Add(const CampaignOutcome& c) {
    ops += static_cast<double>(c.snapshot.done);
    rows += static_cast<double>(c.snapshot.rows);
    events += static_cast<double>(c.events);
    campaigns += 1;
    waves += static_cast<double>(c.snapshot.waves_pushed);
    campaign_pushes += static_cast<double>(c.snapshot.total_pushes);
    sim_latency_ms.insert(sim_latency_ms.end(), c.sim_latency_ms.begin(),
                          c.sim_latency_ms.end());
  }
};

/// Cumulative counters sampled around a round.
struct Probe {
  double messages = 0;
  double packages_pushed = 0;
  double repushes = 0;
  double nacks = 0;
  double ack_flushes = 0;
  double ack_flush_ns = 0;
  double barrier_stall_ns = 0;
  CountingSink::Counts status;
  CountingSink::Counts journal;

  static Probe Take(const FleetStack& s) {
    auto& metrics = support::Metrics::Instance();
    const server::ServerStats stats = s.server.stats();
    Probe p;
    p.messages = static_cast<double>(s.network.messages_delivered());
    p.packages_pushed = static_cast<double>(stats.packages_pushed);
    p.repushes = static_cast<double>(stats.repushes);
    p.nacks = static_cast<double>(stats.nacks_received);
    p.ack_flushes = static_cast<double>(
        metrics.GetHistogram("dacm_ack_flush_nanos").Count());
    p.ack_flush_ns = static_cast<double>(s.server.ack_flush_nanos());
    p.barrier_stall_ns = static_cast<double>(
        metrics.GetHistogram("dacm_sim_barrier_stall_nanos").Sum());
    p.status = s.status_sink.counts();
    p.journal = s.journal_sink.counts();
    return p;
  }
};

void AddCounts(CountingSink::Counts& to, const CountingSink::Counts& d) {
  to.appends += d.appends;
  to.append_bytes += d.append_bytes;
  to.syncs += d.syncs;
  to.rotations += d.rotations;
  to.rotate_bytes += d.rotate_bytes;
}

void AddDelta(Tally& t, const Probe& a, const Probe& b) {
  t.messages += b.messages - a.messages;
  t.packages_pushed += b.packages_pushed - a.packages_pushed;
  t.repushes += b.repushes - a.repushes;
  t.nacks += b.nacks - a.nacks;
  t.ack_flushes += b.ack_flushes - a.ack_flushes;
  t.ack_flush_s += (b.ack_flush_ns - a.ack_flush_ns) * 1e-9;
  t.barrier_stall_s += (b.barrier_stall_ns - a.barrier_stall_ns) * 1e-9;
  AddCounts(t.status, b.status - a.status);
  AddCounts(t.journal, b.journal - a.journal);
}

void AddTally(Tally& to, const Tally& t) {
  to.ops += t.ops;
  to.rows += t.rows;
  to.events += t.events;
  to.messages += t.messages;
  to.campaigns += t.campaigns;
  to.waves += t.waves;
  to.campaign_pushes += t.campaign_pushes;
  to.packages_pushed += t.packages_pushed;
  to.repushes += t.repushes;
  to.nacks += t.nacks;
  to.ack_flushes += t.ack_flushes;
  to.ack_flush_s += t.ack_flush_s;
  to.barrier_stall_s += t.barrier_stall_s;
  AddCounts(to.status, t.status);
  AddCounts(to.journal, t.journal);
  to.sim_latency_ms.insert(to.sim_latency_ms.end(), t.sim_latency_ms.begin(),
                           t.sim_latency_ms.end());
}

}  // namespace

RunResult RunRollout(const Options& options) {
  RunResult result;
  const std::uint64_t rss_start = LiveRssBytes();
  std::vector<double> setup_s;
  spans::Enable(options.trace);
  const SpanWindow setup_spans;
  std::unique_ptr<FleetStack> stack = BuildFleetStack(kShape, result);
  setup_s.push_back(SecondsSince(ProcessStart()));
  spans::Enable(false);
  const double catalog_s = setup_spans.Seconds(SpanKind::kCatalog);
  const double fleet_connect_s = setup_spans.Seconds(SpanKind::kFleetConnect);
  FleetStack& s = *stack;
  const std::uint64_t empty_fingerprint = s.server.FleetFingerprint();

  Tally counted;  // the first kCountedRounds rounds (exact)
  Tally traced;   // traced rounds of a --trace 1 run
  std::vector<double> round_rates;   // untraced rounds: rows done / host s
  std::vector<double> round_ms;      // untraced rounds: host ms
  std::vector<double> traced_rates;  // traced rounds (overhead)
  std::size_t max_live_payloads = 0;
  AllocCounts traced_allocs;
  std::uint64_t rss_counted = 0;
  const SpanWindow measured_spans;

  const Clock::time_point window = Clock::now();
  for (std::size_t round = 0;
       round < kCountedRounds || SecondsSince(window) < options.seconds;
       ++round) {
    // A --trace 1 run alternates untraced and traced rounds, so the
    // overhead baseline sees the same machine conditions.
    const bool trace_round = options.trace && round % 2 == 1;
    Tally tally;
    const Probe before = Probe::Take(s);
    double host_s = 0;
    {
      const TracedUnit unit(trace_round, round + 1, traced_allocs);
      for (auto kind :
           {server::CampaignKind::kDeploy, server::CampaignKind::kRollback}) {
        const std::uint64_t seed =
            MixSeed(options.seed, 2 * round + static_cast<std::uint64_t>(kind));
        const CampaignOutcome c = RunFaultedCampaign(s, kind, seed, result);
        host_s += c.host_s;
        tally.Add(c);
        max_live_payloads = std::max(max_live_payloads, c.live_payloads);
        (void)s.engine.Forget(c.id);
      }
    }
    AddDelta(tally, before, Probe::Take(s));
    result.Check(s.server.FleetFingerprint() == empty_fingerprint,
                 "fleet fingerprint after rollback equals the one before deploy");

    const double rate = PerOp(tally.ops, host_s);
    if (trace_round) {
      traced_rates.push_back(rate);
      AddTally(traced, tally);
    } else {
      round_rates.push_back(rate);
      round_ms.push_back(host_s * 1e3);
    }
    if (round < kCountedRounds) AddTally(counted, tally);
    // Read at a fixed amount of work, so it does not depend on speed.
    if (round + 1 == kCountedRounds) rss_counted = LiveRssBytes();
  }
  const server::ServerStats final_stats = s.server.stats();
  const auto cache_entries = s.server.package_cache().entries();
  result.Check(cache_entries == kFleetModels, "one cached batch per model cohort");
  result.Check(!final_stats.durability_degraded &&
                   final_stats.status_writes_lost == 0,
               "no status write lost");
  result.Check(counted.status.rotations > 0 && counted.journal.rotations > 0,
               "both logs rotate within the counted rounds");
  stack.reset();

  for (std::size_t i = 1; i < kSetups; ++i) {
    const Clock::time_point start = Clock::now();
    auto extra = BuildFleetStack(kShape, result);
    setup_s.push_back(SecondsSince(start));
  }

  const double wal_bytes = static_cast<double>(counted.status.append_bytes +
                                               counted.journal.append_bytes);
  EndToEnd e;
  e.setup_s = Median(setup_s);
  e.throughput_per_s = Median(round_rates);
  e.latency_p50_ms = Quantile(round_ms, 0.50);
  const double p90 = Quantile(round_ms, 0.90);
  const double p99 = Quantile(round_ms, 0.99);
  const double sim_p50 = Quantile(counted.sim_latency_ms, 0.50);
  const double sim_p99 = Quantile(counted.sim_latency_ms, 0.99);
  e.rss_bytes_per_vehicle =
      static_cast<double>(rss_counted > rss_start ? rss_counted - rss_start : 0) /
      static_cast<double>(kShape.vehicles);
  e.pushes_per_vehicle = PerOp(counted.campaign_pushes, counted.rows);
  result.end_to_end = EndToEndMetrics(e);

  const double wal_frames =
      static_cast<double>(counted.status.appends + counted.journal.appends);
  result.exact = {
      {"rows", counted.rows, "count"},
      {"events_per_op", PerOp(counted.events, counted.ops), "count"},
      {"messages_per_op", PerOp(counted.messages, counted.ops), "count"},
      {"can_frames_per_op", 0, "count"},
      {"wal_frames_per_op", PerOp(wal_frames, counted.ops), "count"},
      {"wal_bytes_per_op", PerOp(wal_bytes, counted.ops), "bytes"},
      {"wal_syncs_per_op",
       PerOp(static_cast<double>(counted.status.syncs), counted.ops), "count"},
      {"rotations",
       static_cast<double>(counted.status.rotations + counted.journal.rotations),
       "count"},
      {"pushes_per_op", PerOp(counted.packages_pushed, counted.ops), "count"},
      {"vm_activations_per_op", 0, "count"},
      {"sim_latency_p50_ms", sim_p50, "sim_ms"},
      {"sim_latency_p99_ms", sim_p99, "sim_ms"},
      {"pushes_per_vehicle", e.pushes_per_vehicle, "count"},
      {"wal_bytes_per_vehicle", PerOp(wal_bytes, counted.rows), "bytes"},
  };

  result.Note("rollout_durable: " + std::to_string(kShape.vehicles) +
              " VINs, " + std::to_string(kFleetModels) + " models, shards " +
              std::to_string(kFleetShards) + ", lanes " +
              std::to_string(kShape.lanes) + ", " +
              std::to_string(round_rates.size() + traced_rates.size()) +
              " rounds, " + std::to_string(traced_rates.size()) + " traced");
  result.Note(PercentileNote("throughput_per_s (median of rounds)",
                             e.throughput_per_s, "1/s", round_rates.size()));
  result.Note(PercentileNote("latency_p50_ms (round)", e.latency_p50_ms, "ms",
                             round_ms.size()));
  result.Note(PercentileNote("latency_p90_ms (round)", p90, "ms",
                             round_ms.size()));
  result.Note(PercentileNote("latency_p99_ms (round)", p99, "ms",
                             round_ms.size()));
  result.Note(PercentileNote("sim_latency_p50_ms (row)", sim_p50,
                             "sim_ms", counted.sim_latency_ms.size()));
  result.Note(PercentileNote("sim_latency_p99_ms (row)", sim_p99,
                             "sim_ms", counted.sim_latency_ms.size()));

  if (options.trace) {
    const double ops = traced.ops;
    const double run_s = measured_spans.Seconds(SpanKind::kSimRun);
    LayerMetrics l;
    l.sim_latency_p50_ms = sim_p50;
    l.sim_latency_p99_ms = sim_p99;
    l.latency_p90_ms = p90;
    l.latency_p99_ms = p99;
    l.sim_run_s = PerOp(run_s, ops);
    l.sim_events_per_op = PerOp(counted.events, counted.ops);
    l.sim_ns_per_event = PerOp(run_s * 1e9, traced.events);
    l.sim_barrier_stall_s = PerOp(traced.barrier_stall_s, ops);
    l.sim_messages_per_op = PerOp(counted.messages, counted.ops);
    l.server_catalog_s = catalog_s;
    l.server_campaign_start_s =
        PerOp(measured_spans.Seconds(SpanKind::kCampaignStart), ops);
    l.server_ack_flush_s = PerOp(traced.ack_flush_s, ops);
    l.server_ack_flushes_per_op = PerOp(counted.ack_flushes, counted.ops);
    l.server_pushes_per_op = PerOp(counted.packages_pushed, counted.ops);
    l.server_repush_share = PerOp(counted.repushes, counted.packages_pushed);
    l.server_nacks_per_op = PerOp(counted.nacks, counted.ops);
    l.server_waves_per_campaign = PerOp(counted.waves, counted.campaigns);
    l.server_cache_entries = static_cast<double>(cache_entries);
    l.server_cache_live_payloads = static_cast<double>(max_live_payloads);
    l.server_status_write_retries = static_cast<double>(
        final_stats.status_write_retries + final_stats.status_writes_lost);
    l.support_status_appends_per_op =
        PerOp(static_cast<double>(counted.status.appends), counted.ops);
    l.support_status_bytes_per_op =
        PerOp(static_cast<double>(counted.status.append_bytes), counted.ops);
    l.support_status_syncs_per_op =
        PerOp(static_cast<double>(counted.status.syncs), counted.ops);
    l.support_journal_appends_per_op =
        PerOp(static_cast<double>(counted.journal.appends), counted.ops);
    l.support_journal_bytes_per_op =
        PerOp(static_cast<double>(counted.journal.append_bytes), counted.ops);
    l.support_rotations =
        static_cast<double>(counted.status.rotations + counted.journal.rotations);
    l.support_sink_append_s =
        PerOp(measured_spans.Seconds(SpanKind::kSinkAppend), ops);
    l.support_sink_rotate_s =
        PerOp(measured_spans.Seconds(SpanKind::kSinkRotate), ops);
    l.support_allocs_per_op =
        PerOp(static_cast<double>(traced_allocs.allocs), ops);
    l.support_alloc_bytes_per_op =
        PerOp(static_cast<double>(traced_allocs.bytes), ops);
    l.fes_fleet_connect_s = fleet_connect_s;
    l.trace_overhead = PerOp(Median(round_rates), Median(traced_rates)) - 1.0;
    l.fail_share = PerOp(static_cast<double>(result.failed),
                         static_cast<double>(result.attempted));
    l.wal_bytes_per_vehicle = PerOp(wal_bytes, counted.rows);
    result.per_layer = LayerMetricList(l);
  }
  return result;
}

}  // namespace perfbench
