// The durable scripted-fleet stack shared by rollout_durable (which
// times campaigns on it) and restart_replay (which builds its log images
// with it): server with write-ahead status DB and campaign journal on
// counting sinks, a multi-model scripted fleet, the bench_fleet app
// shape, and seeded faulted campaigns.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "fes/fleet.hpp"
#include "server/campaign.hpp"
#include "server/journal.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

struct FleetShape {
  std::size_t vehicles = 0;
  std::size_t lanes = 1;
  /// Compaction watermarks; 0 leaves compaction to explicit calls.
  std::uint64_t status_compact_bytes = 0;
  std::uint64_t journal_compact_bytes = 0;
};

inline constexpr std::size_t kFleetModels = 8;
inline constexpr std::size_t kFleetShards = 2;
inline constexpr const char* kFleetApp = "fleet-app";
inline constexpr dacm::sim::SimTime kFleetLatency = dacm::sim::kMillisecond;

struct FleetStack {
  explicit FleetStack(const FleetShape& shape);

  FleetShape shape;
  CountingSink status_sink;
  CountingSink journal_sink;
  dacm::sim::Simulator simulator;
  dacm::sim::Network network{simulator, kFleetLatency};
  dacm::server::TrustedServer server;
  dacm::server::UserId user = dacm::server::UserId::Invalid();
  std::unique_ptr<dacm::fes::ScriptedFleet> fleet;
  dacm::server::CampaignJournal journal{journal_sink};
  dacm::server::CampaignEngine engine{simulator, server};
};

/// Starts the server, uploads 8 models, creates the operator, builds and
/// connects the fleet, uploads the app and attaches the journal.
/// Failures are counted into `result`.
std::unique_ptr<FleetStack> BuildFleetStack(const FleetShape& shape,
                                            RunResult& result);

struct CampaignOutcome {
  dacm::server::CampaignId id = dacm::server::CampaignId::Invalid();
  double host_s = 0;
  std::size_t events = 0;
  dacm::server::CampaignSnapshot snapshot;
  std::vector<double> sim_latency_ms;  // start -> row done, per done row
  std::size_t live_payloads = 0;       // cache payloads pinned afterwards
};

/// Runs one deploy or rollback campaign to quiescence under a fresh
/// seeded fault scenario and checks that it converged with 0 failed rows
/// and left no cache payload live.  Host time covers the Start call and
/// Simulator::Run.
CampaignOutcome RunFaultedCampaign(FleetStack& stack,
                                   dacm::server::CampaignKind kind,
                                   std::uint64_t seed, RunResult& result);

}  // namespace perfbench
