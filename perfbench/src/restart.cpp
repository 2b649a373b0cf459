// restart_replay: repeated cold recoveries from fixed log images.
//
// Set-up writes a multi-campaign durable history (1k VINs, faulted
// deploy/rollback rounds, explicitly compacted halfway so each image is
// a checkpoint followed by a raw tail) and keeps the status-log and
// journal images plus the writer's fingerprints.  An op builds a fresh
// simulator, network, 2-shard server and engine, runs RecoverInstallDb
// and CampaignEngine::Recover on the images, and checks the recovered
// fleet and campaign fingerprints against the writer's.
#include <memory>
#include <string>
#include <vector>

#include "fleet_stack.hpp"
#include "server/journal.hpp"
#include "server/status_db.hpp"

namespace perfbench {
namespace {

using namespace dacm;

constexpr FleetShape kShape{/*vehicles=*/1'000, /*lanes=*/1,
                            /*status_compact_bytes=*/0,
                            /*journal_compact_bytes=*/0};
constexpr std::size_t kRounds = 6;
constexpr std::size_t kSetups = 5;
// Recoveries whose outputs feed the exact counters (and after which the
// RSS growth is read, so it does not depend on how many ops fit).
constexpr std::size_t kCountedOps = 2;
// Consecutive recoveries per throughput sample.
constexpr std::size_t kBatch = 10;

/// The log images and what the server that wrote them looked like.
struct History {
  support::Bytes status_image;
  support::Bytes journal_image;
  std::uint64_t fleet_fingerprint = 0;
  /// Campaigns still held by the writer's engine, with their fingerprints.
  std::vector<std::pair<server::CampaignId, std::uint64_t>> campaigns;
  CountingSink::Counts status;
  CountingSink::Counts journal;
  double rows = 0;  // campaign rows written
};

History WriteHistory(std::uint64_t seed, RunResult& result) {
  auto stack = BuildFleetStack(kShape, result);
  FleetStack& s = *stack;
  History h;
  std::uint64_t stream = 0;
  auto campaign = [&](server::CampaignKind kind, bool keep) {
    const CampaignOutcome c =
        RunFaultedCampaign(s, kind, MixSeed(seed, stream++), result);
    h.rows += static_cast<double>(c.snapshot.rows);
    if (keep) {
      h.campaigns.emplace_back(c.id, s.engine.Fingerprint(c.id));
    } else {
      (void)s.engine.Forget(c.id);
    }
  };
  for (std::size_t round = 0; round < kRounds; ++round) {
    const bool last = round + 1 == kRounds;
    campaign(server::CampaignKind::kDeploy, last);
    campaign(server::CampaignKind::kRollback, last);
    if (round + 1 == kRounds / 2) {
      result.Check(s.server.Compact().ok(), "status log compaction");
      result.Check(s.engine.CompactJournal().ok(), "journal compaction");
    }
  }
  campaign(server::CampaignKind::kDeploy, true);  // leaves the fleet installed
  h.status_image = s.status_sink.bytes();
  h.journal_image = s.journal_sink.bytes();
  h.fleet_fingerprint = s.server.FleetFingerprint();
  h.status = s.status_sink.counts();
  h.journal = s.journal_sink.counts();
  return h;
}

/// What one recovery produced.
struct Recovery {
  double host_s = 0;
  std::vector<double> sim_latency_ms;
  double pushes = 0;
  double rows = 0;
  double waves = 0;
};

Recovery Recover(const History& h, RunResult& result) {
  Recovery r;
  const Clock::time_point start = Clock::now();
  sim::Simulator simulator;
  sim::Network network{simulator, kFleetLatency};
  server::TrustedServer server(network, "fleet-server:443",
                               server::ServerOptions{kFleetShards});
  support::Status db;
  {
    Scope span(SpanKind::kRecover);
    db = server.RecoverInstallDb(h.status_image);
  }
  server::CampaignEngine engine(simulator, server);
  support::Status journal;
  {
    Scope span(SpanKind::kJournalRecover);
    journal = engine.Recover(h.journal_image);
  }
  bool fleet_matches = false;
  bool campaigns_match = true;
  {
    Scope span(SpanKind::kVerify);
    fleet_matches = server.FleetFingerprint() == h.fleet_fingerprint;
    for (const auto& [id, fingerprint] : h.campaigns) {
      campaigns_match = campaigns_match && engine.Fingerprint(id) == fingerprint;
    }
  }
  r.host_s = SecondsSince(start);
  result.Check(db.ok(), "RecoverInstallDb: " + db.ToString());
  result.Check(journal.ok(), "CampaignEngine::Recover: " + journal.ToString());
  result.Check(fleet_matches, "recovered fleet fingerprint matches the writer's");
  result.Check(campaigns_match,
               "recovered campaign fingerprints match the writer's");
  for (const auto& [id, fingerprint] : h.campaigns) {
    auto snapshot = engine.Snapshot(id);
    auto times = engine.TimesToDone(id);
    if (!snapshot.ok() || !times.ok()) continue;
    r.pushes += static_cast<double>(snapshot->total_pushes);
    r.rows += static_cast<double>(snapshot->rows);
    r.waves += static_cast<double>(snapshot->waves_pushed);
    for (sim::SimTime t : *times) {
      r.sim_latency_ms.push_back(static_cast<double>(t) / 1000.0);
    }
  }
  return r;
}

}  // namespace

RunResult RunRestart(const Options& options) {
  RunResult result;
  const std::uint64_t rss_start = LiveRssBytes();
  std::vector<double> setup_s;
  History history = WriteHistory(options.seed, result);
  setup_s.push_back(SecondsSince(ProcessStart()));
  const double image_bytes = static_cast<double>(history.status_image.size() +
                                                 history.journal_image.size());
  auto replayed = server::StatusDb::ReplayImage(history.status_image);
  result.Check(replayed.ok(), "status image replays");
  const double live_bytes =
      replayed.ok() ? static_cast<double>(replayed->live_bytes) : 0.0;

  std::vector<double> op_ms;         // untraced ops
  std::vector<double> traced_ms;     // traced ops
  std::uint64_t rss_counted = 0;
  double traced_ops = 0;
  double decode_status_s = 0;
  double decode_journal_s = 0;
  AllocCounts traced_allocs;
  Recovery counted;
  const SpanWindow measured_spans;

  const Clock::time_point window = Clock::now();
  for (std::size_t op = 0;
       op < kCountedOps || SecondsSince(window) < options.seconds; ++op) {
    const bool trace_op = options.trace && op % 2 == 1;
    Recovery r;
    {
      const TracedUnit unit(trace_op, op + 1, traced_allocs);
      r = Recover(history, result);
    }
    if (trace_op) {
      traced_ms.push_back(r.host_s * 1e3);
      traced_ops += 1;
      // Decode probes: the replay folds alone, outside the timed op and
      // the allocation count.
      spans::Enable(true);
      Clock::time_point t = Clock::now();
      {
        Scope span(SpanKind::kStatusDecode);
        result.Check(server::StatusDb::ReplayImage(history.status_image).ok(),
                     "status image decodes");
      }
      decode_status_s += SecondsSince(t);
      t = Clock::now();
      {
        Scope span(SpanKind::kJournalDecode);
        result.Check(server::ReplayCampaignJournal(history.journal_image).ok(),
                     "journal image decodes");
      }
      decode_journal_s += SecondsSince(t);
      spans::Enable(false);
    } else {
      op_ms.push_back(r.host_s * 1e3);
    }
    if (op < kCountedOps) counted = std::move(r);
    if (op + 1 == kCountedOps) rss_counted = LiveRssBytes();
  }
  std::vector<double> batch_rates;
  for (std::size_t i = 0; i + kBatch <= op_ms.size(); i += kBatch) {
    double batch_ms = 0;
    for (std::size_t j = i; j < i + kBatch; ++j) batch_ms += op_ms[j];
    batch_rates.push_back(static_cast<double>(kBatch) * 1e3 / batch_ms);
  }

  for (std::size_t i = 1; i < kSetups; ++i) {
    const Clock::time_point start = Clock::now();
    RunResult repeat;
    History again = WriteHistory(options.seed, repeat);
    setup_s.push_back(SecondsSince(start));
    // Shard workers append status paragraphs concurrently, so only the
    // image sizes and what they recover to are fixed by the seed.
    result.Check(repeat.failed == 0 &&
                     again.status_image.size() == history.status_image.size() &&
                     again.journal_image == history.journal_image &&
                     again.fleet_fingerprint == history.fleet_fingerprint &&
                     again.campaigns == history.campaigns,
                 "set-up rewrites equivalent images");
  }

  EndToEnd e;
  e.setup_s = Median(setup_s);
  e.throughput_per_s = Median(batch_rates);
  e.latency_p50_ms = Quantile(op_ms, 0.50);
  const double p90 = Quantile(op_ms, 0.90);
  const double p99 = Quantile(op_ms, 0.99);
  const double sim_p50 = Quantile(counted.sim_latency_ms, 0.50);
  const double sim_p99 = Quantile(counted.sim_latency_ms, 0.99);
  e.rss_bytes_per_vehicle =
      static_cast<double>(rss_counted > rss_start ? rss_counted - rss_start : 0) /
      static_cast<double>(kShape.vehicles);
  e.pushes_per_vehicle = PerOp(counted.pushes, counted.rows);
  result.end_to_end = EndToEndMetrics(e);

  const double wal_bytes = static_cast<double>(history.status.append_bytes +
                                               history.journal.append_bytes);
  result.exact = {
      {"history_rows", history.rows, "count"},
      {"status_image_bytes", static_cast<double>(history.status_image.size()),
       "bytes"},
      {"journal_image_bytes", static_cast<double>(history.journal_image.size()),
       "bytes"},
      {"events_per_op", 0, "count"},
      {"messages_per_op", 0, "count"},
      {"can_frames_per_op", 0, "count"},
      {"wal_frames_per_op",
       PerOp(static_cast<double>(history.status.appends + history.journal.appends),
             history.rows),
       "count"},
      {"wal_bytes_per_op", PerOp(wal_bytes, history.rows), "bytes"},
      {"wal_syncs_per_op",
       PerOp(static_cast<double>(history.status.syncs), history.rows), "count"},
      {"rotations",
       static_cast<double>(history.status.rotations + history.journal.rotations),
       "count"},
      {"pushes_per_op", 0, "count"},
      {"vm_activations_per_op", 0, "count"},
      {"sim_latency_p50_ms", sim_p50, "sim_ms"},
      {"sim_latency_p99_ms", sim_p99, "sim_ms"},
      {"pushes_per_vehicle", e.pushes_per_vehicle, "count"},
      {"wal_bytes_per_vehicle", PerOp(image_bytes, kShape.vehicles), "bytes"},
  };

  result.Note("restart_replay: " + std::to_string(kShape.vehicles) +
              " VINs, " + std::to_string(kRounds) + " rounds + final deploy, " +
              std::to_string(static_cast<std::size_t>(image_bytes)) +
              " image bytes, " +
              std::to_string(op_ms.size() + traced_ms.size()) +
              " recoveries, " + std::to_string(traced_ms.size()) + " traced");
  result.Note(PercentileNote("throughput_per_s (median of 10-op batches)",
                             e.throughput_per_s, "1/s", batch_rates.size()));
  result.Note(PercentileNote("latency_p50_ms (recovery)", e.latency_p50_ms, "ms",
                             op_ms.size()));
  result.Note(PercentileNote("latency_p90_ms (recovery)", p90, "ms",
                             op_ms.size()));
  result.Note(PercentileNote("latency_p99_ms (recovery)", p99, "ms",
                             op_ms.size()));
  result.Note(PercentileNote("sim_latency_p50_ms (recovered row)",
                             sim_p50, "sim_ms",
                             counted.sim_latency_ms.size()));
  result.Note(PercentileNote("sim_latency_p99_ms (recovered row)",
                             sim_p99, "sim_ms",
                             counted.sim_latency_ms.size()));

  if (options.trace) {
    LayerMetrics l;
    l.sim_latency_p50_ms = sim_p50;
    l.sim_latency_p99_ms = sim_p99;
    l.latency_p90_ms = p90;
    l.latency_p99_ms = p99;
    l.server_recover_s =
        PerOp(measured_spans.Seconds(SpanKind::kRecover), traced_ops);
    l.server_journal_recover_s =
        PerOp(measured_spans.Seconds(SpanKind::kJournalRecover), traced_ops);
    l.server_verify_s =
        PerOp(measured_spans.Seconds(SpanKind::kVerify), traced_ops);
    l.server_waves_per_campaign =
        PerOp(counted.waves, static_cast<double>(history.campaigns.size()));
    l.support_status_appends_per_op =
        PerOp(static_cast<double>(history.status.appends), history.rows);
    l.support_status_bytes_per_op =
        PerOp(static_cast<double>(history.status.append_bytes), history.rows);
    l.support_status_syncs_per_op =
        PerOp(static_cast<double>(history.status.syncs), history.rows);
    l.support_journal_appends_per_op =
        PerOp(static_cast<double>(history.journal.appends), history.rows);
    l.support_journal_bytes_per_op =
        PerOp(static_cast<double>(history.journal.append_bytes), history.rows);
    l.support_rotations =
        static_cast<double>(history.status.rotations + history.journal.rotations);
    l.support_status_decode_s = PerOp(decode_status_s, traced_ops);
    l.support_journal_decode_s = PerOp(decode_journal_s, traced_ops);
    l.support_replay_mb_per_s =
        PerOp(image_bytes * traced_ops / 1e6, decode_status_s + decode_journal_s);
    l.support_log_to_live_ratio =
        PerOp(static_cast<double>(history.status_image.size()), live_bytes);
    l.support_allocs_per_op =
        PerOp(static_cast<double>(traced_allocs.allocs), traced_ops);
    l.support_alloc_bytes_per_op =
        PerOp(static_cast<double>(traced_allocs.bytes), traced_ops);
    l.trace_overhead = PerOp(Median(traced_ms), Median(op_ms)) - 1.0;
    l.fail_share = PerOp(static_cast<double>(result.failed),
                         static_cast<double>(result.attempted));
    l.wal_bytes_per_vehicle = PerOp(image_bytes, kShape.vehicles);
    result.per_layer = LayerMetricList(l);
  }
  return result;
}

}  // namespace perfbench
