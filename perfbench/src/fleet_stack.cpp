#include "fleet_stack.hpp"

#include "fes/appgen.hpp"
#include "fes/testbed.hpp"
#include "sim/fault.hpp"

namespace perfbench {
namespace {

using namespace dacm;

// bench_fleet's app shape: ~50 KiB of context + code pushed per vehicle.
constexpr std::uint32_t kPlugins = 4;
constexpr std::uint32_t kPorts = 8;
constexpr std::uint32_t kBinaryPadding = 12'288;
constexpr std::size_t kSyncEvery = 64;
constexpr double kChurn = 0.10;
constexpr std::size_t kFlaps = 2;
constexpr double kNack = 0.05;

std::string ModelName(std::size_t m) { return "rpi-model-" + std::to_string(m); }

server::RetryPolicy Policy() {
  server::RetryPolicy policy;
  policy.max_waves = 10;
  policy.settle_delay = 50 * sim::kMillisecond;
  policy.initial_backoff = 250 * sim::kMillisecond;
  policy.max_backoff = 2 * sim::kSecond;
  policy.abort_nack_fraction = 2.0;  // transient nacks heal; never abort
  return policy;
}

}  // namespace

FleetStack::FleetStack(const FleetShape& s)
    : shape(s),
      server(network, "fleet-server:443",
             server::ServerOptions{kFleetShards, &status_sink, kSyncEvery,
                                   s.status_compact_bytes}) {}

std::unique_ptr<FleetStack> BuildFleetStack(const FleetShape& shape,
                                            RunResult& result) {
  auto stack = std::make_unique<FleetStack>(shape);
  if (shape.lanes > 1) {
    sim::LaneOptions lanes;
    lanes.lanes = shape.lanes;
    stack->simulator.ConfigureLanes(lanes);
  }
  result.Check(stack->server.Start().ok(), "server start");

  fes::ScriptedFleetOptions fleet_options;
  fleet_options.vehicle_count = shape.vehicles;
  {
    Scope span(SpanKind::kCatalog);
    for (std::size_t m = 0; m < kFleetModels; ++m) {
      server::VehicleModelConf conf = fes::MakeRpiTestbedConf();
      conf.model = ModelName(m);
      result.Check(stack->server.UploadVehicleModel(std::move(conf)).ok(),
                   "upload vehicle model");
      fleet_options.models.push_back(ModelName(m));
    }
    auto user = stack->server.CreateUser("operator");
    result.Check(user.ok(), "create user");
    if (user.ok()) stack->user = *user;
  }
  {
    Scope span(SpanKind::kFleetConnect);
    stack->fleet = std::make_unique<fes::ScriptedFleet>(
        stack->simulator, stack->network, stack->server, fleet_options);
    result.Check(stack->fleet->BindAndConnect(stack->user).ok(),
                 "fleet bind and connect");
  }
  fes::SyntheticAppParams params;
  params.name = kFleetApp;
  params.vehicle_model = ModelName(0);
  params.plugin_count = kPlugins;
  params.ports_per_plugin = kPorts;
  params.target_ecu = 1;
  params.binary_padding = kBinaryPadding;
  server::App app = fes::MakeSyntheticApp(params);
  for (std::size_t m = 1; m < kFleetModels; ++m) {
    server::SwConf conf = app.confs.front();
    conf.vehicle_model = ModelName(m);
    app.confs.push_back(std::move(conf));
  }
  {
    Scope span(SpanKind::kCatalog);
    result.Check(stack->server.UploadApp(std::move(app)).ok(), "upload app");
  }
  stack->engine.AttachJournal(&stack->journal);
  stack->engine.SetJournalCompactionWatermark(shape.journal_compact_bytes);
  return stack;
}

CampaignOutcome RunFaultedCampaign(FleetStack& s, server::CampaignKind kind,
                                   std::uint64_t seed, RunResult& result) {
  sim::FaultScenario faults(s.simulator, s.network, seed);
  // Horizon 0: the churned cohort is dark when wave 1 pushes and
  // trickles back during the retry waves.
  faults.AddOfflineChurn(*s.fleet, kChurn, /*horizon=*/0,
                         100 * sim::kMillisecond, 400 * sim::kMillisecond);
  faults.AddRandomLinkFlaps(kFlaps, 600 * sim::kMillisecond,
                            20 * sim::kMillisecond, 80 * sim::kMillisecond);
  faults.AddNackCohort(*s.fleet, kNack, 500 * sim::kMillisecond);

  CampaignOutcome out;
  const Clock::time_point start = Clock::now();
  support::Result<server::CampaignId> id = support::NotFound("not started");
  {
    Scope span(SpanKind::kCampaignStart);
    id = kind == server::CampaignKind::kDeploy
             ? s.engine.StartDeploy(s.user, kFleetApp, s.fleet->vins(), Policy())
             : s.engine.StartRollback(s.user, kFleetApp, s.fleet->vins(),
                                      Policy());
  }
  {
    Scope span(SpanKind::kSimRun);
    out.events = s.simulator.Run();
  }
  out.host_s = SecondsSince(start);

  const std::string name =
      kind == server::CampaignKind::kDeploy ? "deploy" : "rollback";
  result.Check(id.ok(), name + " campaign starts");
  if (!id.ok()) return out;
  out.id = *id;
  auto snapshot = s.engine.Snapshot(*id);
  result.Check(snapshot.ok() &&
                   snapshot->status == server::CampaignStatus::kConverged &&
                   snapshot->failed == 0 && snapshot->done == s.shape.vehicles,
               name + " campaign converges with 0 failed rows");
  if (snapshot.ok()) out.snapshot = *snapshot;
  out.live_payloads = s.server.package_cache().live_payloads();
  result.Check(out.live_payloads == 0,
               "no cache payload stays live after " + name + " convergence");
  auto times = s.engine.TimesToDone(*id);
  if (times.ok()) {
    out.sim_latency_ms.reserve(times->size());
    for (sim::SimTime t : *times) {
      out.sim_latency_ms.push_back(static_cast<double>(t) / 1000.0);
    }
  }
  return out;
}

}  // namespace perfbench
