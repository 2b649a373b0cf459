// vehicle_sessions: real vehicles in the Figure-3 layout, each with its
// own phone and its own remote-car app, sharing one memory-only server
// (1 shard, 1 lane).
//
// Every vehicle's user runs sessions back to back on a seeded sim-time
// schedule (an open loop: nothing waits on host time): an interactive
// Deploy, a wait for the install ack, phone commands at a fixed sim
// rate, then UninstallApp and a wait for the row to go.  Some command
// values fall outside the OEM guard ranges, so the clamp (wheels) and
// drop (speed) paths run; the benchmark predicts each outcome and checks
// what the motor control observes.  Ops are deploys + commands +
// uninstalls; the simulator runs in 1-s sim slices and each slice's ops
// per host second is one throughput sample.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "fes/device.hpp"
#include "fes/testbed.hpp"
#include "fes/vehicle.hpp"
#include "pirte/guard.hpp"
#include "server/server.hpp"
#include "sim/rng.hpp"

namespace perfbench {
namespace {

using namespace dacm;

constexpr std::size_t kVehicles = 3'000;
constexpr sim::SimTime kLatency = 20 * sim::kMillisecond;
constexpr sim::SimTime kCommandPeriod = 100 * sim::kMillisecond;
constexpr std::size_t kCommandsPerSession = 8;
constexpr sim::SimTime kPoll = 10 * sim::kMillisecond;
constexpr sim::SimTime kStepTimeout = 5 * sim::kSecond;
constexpr sim::SimTime kFirstStartSpread = 2 * sim::kSecond;
constexpr sim::SimTime kIdleMin = 200 * sim::kMillisecond;
constexpr sim::SimTime kIdleMax = 1000 * sim::kMillisecond;
constexpr sim::SimTime kSlice = sim::kSecond;
// Sim time whose counters and sim latencies are reported as exact;
// every run simulates at least this much.
constexpr sim::SimTime kCountedSim = 10 * sim::kSecond;
constexpr std::size_t kSetups = 7;
// Figure 3's guard policies: wheels clamped to [-45, 45], speed outside
// [0, 100] dropped.  Commands are drawn a little wider than both.
constexpr std::int32_t kWheelsLimit = 45;
constexpr std::int32_t kSpeedMax = 100;
const char* const kServerAddress = "10.0.0.1:443";
const char* const kModel = "rpi-testbed";

/// One vehicle with its phone, its app, its user and its session state.
struct Car {
  std::size_t index = 0;
  std::string vin;
  std::string app;
  server::UserId user = server::UserId::Invalid();
  std::unique_ptr<fes::ExternalDevice> phone;
  std::unique_ptr<fes::Vehicle> vehicle;
  std::shared_ptr<pirte::SignalGuard> wheels_guard;
  std::shared_ptr<pirte::SignalGuard> speed_guard;
  fes::Ecu* ecu1 = nullptr;
  fes::Ecu* ecu2 = nullptr;
  pirte::Pirte* pirte1 = nullptr;  // the ECM
  pirte::Pirte* pirte2 = nullptr;

  // What the built-in motor control observed.
  std::uint64_t wheels_seen = 0;
  std::uint64_t speed_seen = 0;
  std::int32_t last_wheels = 0;
  std::int32_t last_speed = 0;
  sim::SimTime wheels_at = 0;
  sim::SimTime speed_at = 0;

  // Session state.
  sim::Rng rng{0};
  std::size_t commands_sent = 0;
  sim::SimTime deadline = 0;
  double call_s = 0;  // host time of this session's Deploy + UninstallApp
  bool pending = false;  // a command awaits its check
  bool pending_wheels = false;
  bool pending_dropped = false;
  std::int32_t expected = 0;
  sim::SimTime due = 0;
  std::uint64_t seen_before = 0;
  std::uint64_t drops_before = 0;
};

/// Counters summed over every car (cumulative since set-up).
struct Census {
  double events = 0;  // filled by the caller (Run return values)
  double messages = 0;
  double can_frames = 0;
  double pushes = 0;
  double pirte_installs = 0;
  double pirte_routed = 0;
  double pirte_type2_rx = 0;
  double pirte_type3_rx = 0;
  double ecm_routed = 0;
  double guard_passed = 0;
  double guard_clamped = 0;
  double guard_dropped = 0;
  double vm_activations = 0;
  double rte_deliveries = 0;
  double os_activations = 0;
  double com_pdus = 0;
  double canif_rx_frames = 0;
};

class Sessions {
 public:
  Sessions(std::uint64_t seed, RunResult& result) : seed_(seed), result_(result) {}

  Sessions(const Sessions&) = delete;
  Sessions& operator=(const Sessions&) = delete;

  /// Server, catalog, vehicles, phones; runs until every ECM is online.
  void SetUp();
  /// Schedules every car's first session.
  void Start();

  sim::Simulator& simulator() { return simulator_; }
  Census Take() const;

  double ops() const { return static_cast<double>(deploys_ + commands_ + uninstalls_); }
  double deploys() const { return static_cast<double>(deploys_); }
  double vm_fuel() const { return vm_fuel_; }
  std::vector<double>& sim_latency_ms() { return sim_latency_ms_; }
  std::vector<double>& call_ms() { return call_ms_; }
  std::size_t cars() const { return cars_.size(); }

 private:
  void BuildCar(Car& car);
  void At(sim::SimTime at, std::size_t i, void (Sessions::*step)(Car&));
  void StartSession(Car& car);
  void PollInstall(Car& car);
  void SendCommand(Car& car);
  void CheckPending(Car& car);
  void Uninstall(Car& car);
  void PollUninstall(Car& car);

  std::uint64_t seed_;
  RunResult& result_;
  sim::Simulator simulator_;
  sim::Network network_{simulator_, kLatency};
  std::unique_ptr<server::TrustedServer> server_;
  std::vector<std::unique_ptr<Car>> cars_;

  std::uint64_t deploys_ = 0;
  std::uint64_t commands_ = 0;
  std::uint64_t uninstalls_ = 0;
  double vm_fuel_ = 0;
  std::vector<double> sim_latency_ms_;
  std::vector<double> call_ms_;
};

void Sessions::SetUp() {
  server_ = std::make_unique<server::TrustedServer>(network_, kServerAddress);
  result_.Check(server_->Start().ok(), "server start");
  {
    Scope span(SpanKind::kCatalog);
    result_.Check(server_->UploadVehicleModel(fes::MakeRpiTestbedConf()).ok(),
                  "upload vehicle model");
  }
  {
    Scope span(SpanKind::kVehicleBuild);
    cars_.reserve(kVehicles);
    for (std::size_t i = 0; i < kVehicles; ++i) {
      auto car = std::make_unique<Car>();
      car->index = i;
      car->vin = "VIN-" + std::to_string(i);
      car->rng = sim::Rng(MixSeed(seed_, i));
      BuildCar(*car);
      cars_.push_back(std::move(car));
    }
    // Let every ECM connect and say hello.
    for (int i = 0; i < 100; ++i) {
      const bool online = std::all_of(cars_.begin(), cars_.end(), [&](auto& c) {
        return server_->VehicleOnline(c->vin);
      });
      if (online) break;
      Scope run(SpanKind::kSimRun);
      simulator_.RunFor(10 * sim::kMillisecond);
    }
  }
  for (const auto& car : cars_) {
    result_.Check(server_->VehicleOnline(car->vin), "ECM reaches the server");
  }
}

void Sessions::BuildCar(Car& car) {
  const std::string phone_address = "phone-" + std::to_string(car.index) + ":7000";
  car.app = "remote-car-" + std::to_string(car.index);
  {
    Scope span(SpanKind::kCatalog);
    auto user = server_->CreateUser("user-" + std::to_string(car.index));
    result_.Check(user.ok(), "create user");
    if (user.ok()) car.user = *user;
    server::App app = fes::MakeRemoteCarApp(phone_address);
    app.name = car.app;
    result_.Check(server_->UploadApp(std::move(app)).ok(), "upload app");
    result_.Check(server_->BindVehicle(car.user, car.vin, kModel).ok(),
                  "bind vehicle");
  }
  car.phone = std::make_unique<fes::ExternalDevice>(network_, phone_address);
  result_.Check(car.phone->Start().ok(), "phone listens");

  // Figure 3: ECM + PIRTE1 on ECU1, PIRTE2 on ECU2 in front of the
  // built-in motor control, Type II channel over CAN between them.
  car.vehicle = std::make_unique<fes::Vehicle>(
      simulator_, network_, fes::VehicleParams{car.vin, kModel, 500'000});
  fes::Ecu& ecu1 = car.vehicle->AddEcu(1, "ECU1");
  fes::Ecu& ecu2 = car.vehicle->AddEcu(2, "ECU2");
  car.ecu1 = &ecu1;
  car.ecu2 = &ecu2;
  rte::Rte& rte2 = ecu2.ecu_rte();
  auto motor = rte2.AddSwc("MotorControl");
  auto add_port = [&](const char* name, rte::PortDirection direction) {
    rte::PortConfig config;
    config.name = name;
    config.direction = direction;
    config.max_len = 64;
    auto port = rte2.AddPort(*motor, std::move(config));
    result_.Check(port.ok(), std::string("motor control port ") + name);
    return port.ok() ? *port : rte::PortId::Invalid();
  };
  if (!motor.ok()) {
    result_.Check(false, "motor control SW-C");
    return;
  }
  const rte::PortId wheels_in = add_port("Wheels", rte::PortDirection::kRequired);
  const rte::PortId speed_in = add_port("Speed", rte::PortDirection::kRequired);
  const rte::PortId speed_value =
      add_port("SpeedValue", rte::PortDirection::kProvided);

  Car* c = &car;
  rte::Rte* r2 = &rte2;
  rte::RunnableConfig on_wheels;
  on_wheels.name = "OnWheels";
  on_wheels.priority = 10;
  on_wheels.body = [this, c, r2, wheels_in]() {
    auto value = r2->ReadClearing(wheels_in);
    if (!value.ok()) return;
    c->last_wheels = fes::DecodeControl(*value);
    c->wheels_at = simulator_.Now();
    ++c->wheels_seen;
  };
  auto wheels_rid = rte2.AddRunnable(*motor, on_wheels);
  result_.Check(wheels_rid.ok() && rte2.TriggerOnDataReceived(*wheels_rid, wheels_in).ok(),
                "wheels runnable");
  rte::RunnableConfig on_speed;
  on_speed.name = "OnSpeed";
  on_speed.priority = 10;
  on_speed.body = [this, c, r2, speed_in]() {
    auto value = r2->ReadClearing(speed_in);
    if (!value.ok()) return;
    c->last_speed = fes::DecodeControl(*value);
    c->speed_at = simulator_.Now();
    ++c->speed_seen;
  };
  auto speed_rid = rte2.AddRunnable(*motor, on_speed);
  result_.Check(speed_rid.ok() && rte2.TriggerOnDataReceived(*speed_rid, speed_in).ok(),
                "speed runnable");
  rte::RunnableConfig measure;
  measure.name = "MeasureSpeed";
  measure.priority = 5;
  measure.period = 100 * sim::kMillisecond;
  measure.body = [c, r2, speed_value]() {
    (void)r2->Write(speed_value, fes::EncodeControl(c->last_speed));
  };
  result_.Check(rte2.AddRunnable(*motor, measure).ok(), "measure runnable");

  auto p1 = car.vehicle->AddPluginSwc(ecu1, "PIRTE1");
  auto p2 = car.vehicle->AddPluginSwc(ecu2, "PIRTE2");
  if (!p1.ok() || !p2.ok()) {
    result_.Check(false, "plug-in SW-Cs");
    return;
  }
  (*p1)->SetStepPeriod(20 * sim::kMillisecond);
  (*p2)->SetStepPeriod(20 * sim::kMillisecond);

  pirte::GuardPolicy wheels_policy;
  wheels_policy.name = "WheelsReq";
  wheels_policy.check_value = true;
  wheels_policy.min_value = -kWheelsLimit;
  wheels_policy.max_value = kWheelsLimit;
  wheels_policy.on_range_violation = pirte::GuardAction::kClamp;
  auto wheels_event = ecu2.dem().DefineEvent("guard.WheelsReq");
  car.wheels_guard = pirte::SignalGuard::Create(
      simulator_, wheels_policy, &ecu2.dem(),
      wheels_event.ok() ? *wheels_event : bsw::DemEventId::Invalid());
  pirte::GuardPolicy speed_policy;
  speed_policy.name = "SpeedReq";
  speed_policy.check_value = true;
  speed_policy.min_value = 0;
  speed_policy.max_value = kSpeedMax;
  speed_policy.on_range_violation = pirte::GuardAction::kDrop;
  auto speed_event = ecu2.dem().DefineEvent("guard.SpeedReq");
  car.speed_guard = pirte::SignalGuard::Create(
      simulator_, speed_policy, &ecu2.dem(),
      speed_event.ok() ? *speed_event : bsw::DemEventId::Invalid());

  auto wheels_req = (*p2)->AddTypeIIIOut(4, "WheelsReq", 64,
                                         car.wheels_guard->MakeTranslator());
  auto speed_req = (*p2)->AddTypeIIIOut(5, "SpeedReq", 64,
                                        car.speed_guard->MakeTranslator());
  auto speed_prov = (*p2)->AddTypeIIIIn(6, "SpeedProv");
  const bool wired =
      wheels_req.ok() && speed_req.ok() && speed_prov.ok() &&
      rte2.ConnectLocal(*wheels_req, wheels_in).ok() &&
      rte2.ConnectLocal(*speed_req, speed_in).ok() &&
      rte2.ConnectLocal(speed_value, *speed_prov).ok() &&
      car.vehicle->ConnectPluginSwcs(**p1, **p2, 0, 3).ok() &&
      car.vehicle->DesignateEcm(**p1, kServerAddress).ok() &&
      car.vehicle->Finalize().ok();
  result_.Check(wired, "vehicle wiring and Finalize");
  car.pirte1 = car.vehicle->FindPirte("PIRTE1");
  car.pirte2 = car.vehicle->FindPirte("PIRTE2");
  result_.Check(car.pirte1 != nullptr && car.pirte2 != nullptr, "PIRTEs exist");
}

void Sessions::At(sim::SimTime at, std::size_t i, void (Sessions::*step)(Car&)) {
  simulator_.ScheduleAt(at, [this, i, step]() { (this->*step)(*cars_[i]); });
}

void Sessions::Start() {
  for (const auto& car : cars_) {
    At(simulator_.Now() + car->rng.NextBelow(kFirstStartSpread), car->index,
       &Sessions::StartSession);
  }
}

void Sessions::StartSession(Car& car) {
  const Clock::time_point start = Clock::now();
  support::Status status;
  {
    Scope span(SpanKind::kDeployCall);
    status = server_->Deploy(car.user, car.vin, car.app);
  }
  car.call_s = SecondsSince(start);
  auto state = server_->AppState(car.vin, car.app);
  result_.Check(status.ok() && state.ok() &&
                    *state == server::InstallState::kPending,
                car.vin + ": Deploy leaves the row pending");
  car.commands_sent = 0;
  car.deadline = simulator_.Now() + kStepTimeout;
  At(simulator_.Now() + kPoll, car.index, &Sessions::PollInstall);
}

void Sessions::PollInstall(Car& car) {
  auto state = server_->AppState(car.vin, car.app);
  if (state.ok() && *state == server::InstallState::kInstalled) {
    ++deploys_;
    At(simulator_.Now() + kCommandPeriod, car.index, &Sessions::SendCommand);
  } else if (simulator_.Now() >= car.deadline) {
    result_.Check(false, car.vin + ": install acknowledged in time");
    Uninstall(car);
  } else {
    At(simulator_.Now() + kPoll, car.index, &Sessions::PollInstall);
  }
}

void Sessions::CheckPending(Car& car) {
  if (!car.pending) return;
  car.pending = false;
  ++commands_;
  const std::uint64_t seen = car.pending_wheels ? car.wheels_seen : car.speed_seen;
  if (car.pending_dropped) {
    result_.Check(seen == car.seen_before &&
                      car.speed_guard->stats().dropped_range == car.drops_before + 1,
                  car.vin + ": out-of-range speed dropped by the guard");
    return;
  }
  const std::int32_t observed = car.pending_wheels ? car.last_wheels : car.last_speed;
  const sim::SimTime at = car.pending_wheels ? car.wheels_at : car.speed_at;
  const bool ok = seen == car.seen_before + 1 && observed == car.expected;
  result_.Check(ok, car.vin + ": motor control observes the guarded value");
  if (ok) sim_latency_ms_.push_back(static_cast<double>(at - car.due) / 1000.0);
}

void Sessions::SendCommand(Car& car) {
  CheckPending(car);
  if (car.commands_sent == kCommandsPerSession) {
    Uninstall(car);
    return;
  }
  ++car.commands_sent;
  car.pending = true;
  car.pending_wheels = car.rng.NextBelow(2) == 0;
  car.due = simulator_.Now();
  std::int32_t value = 0;
  if (car.pending_wheels) {
    value = static_cast<std::int32_t>(car.rng.NextBelow(121)) - 60;  // [-60, 60]
    car.expected = std::clamp(value, -kWheelsLimit, kWheelsLimit);
    car.pending_dropped = false;
    car.seen_before = car.wheels_seen;
  } else {
    value = static_cast<std::int32_t>(car.rng.NextBelow(141)) - 20;  // [-20, 120]
    car.expected = value;
    car.pending_dropped = value < 0 || value > kSpeedMax;
    car.seen_before = car.speed_seen;
    car.drops_before = car.speed_guard->stats().dropped_range;
  }
  const support::Status sent =
      car.phone->Send(car.pending_wheels ? "Wheels" : "Speed",
                      fes::EncodeControl(value));
  result_.Check(sent.ok(), car.vin + ": phone reaches the vehicle");
  At(simulator_.Now() + kCommandPeriod, car.index, &Sessions::SendCommand);
}

void Sessions::Uninstall(Car& car) {
  for (auto [pirte, plugin] : {std::pair{car.pirte1, "COM"}, std::pair{car.pirte2, "OP"}}) {
    if (const pirte::PluginInstance* p = pirte->FindPlugin(plugin)) {
      vm_fuel_ += static_cast<double>(p->vm().total_fuel_used());
    }
  }
  const Clock::time_point start = Clock::now();
  support::Status status;
  {
    Scope span(SpanKind::kUninstallCall);
    status = server_->UninstallApp(car.user, car.vin, car.app);
  }
  call_ms_.push_back((car.call_s + SecondsSince(start)) * 1e3);
  auto state = server_->AppState(car.vin, car.app);
  result_.Check(status.ok() && state.ok() &&
                    *state == server::InstallState::kUninstalling,
                car.vin + ": UninstallApp leaves the row uninstalling");
  car.deadline = simulator_.Now() + kStepTimeout;
  At(simulator_.Now() + kPoll, car.index, &Sessions::PollUninstall);
}

void Sessions::PollUninstall(Car& car) {
  auto state = server_->AppState(car.vin, car.app);
  if (!state.ok()) {
    ++uninstalls_;
    At(simulator_.Now() + car.rng.NextInRange(kIdleMin, kIdleMax), car.index,
       &Sessions::StartSession);
  } else if (simulator_.Now() >= car.deadline) {
    result_.Check(false, car.vin + ": uninstall acknowledged in time");
  } else {
    At(simulator_.Now() + kPoll, car.index, &Sessions::PollUninstall);
  }
}

Census Sessions::Take() const {
  Census c;
  c.messages = static_cast<double>(network_.messages_delivered());
  c.pushes = static_cast<double>(server_->stats().packages_pushed);
  for (const auto& car : cars_) {
    c.can_frames += static_cast<double>(car->vehicle->bus().frames_transmitted());
    for (const pirte::Pirte* p : {car->pirte1, car->pirte2}) {
      if (p == nullptr) continue;
      const pirte::PirteStats& s = p->stats();
      c.pirte_installs += static_cast<double>(s.installs);
      c.pirte_routed += static_cast<double>(s.messages_routed);
      c.pirte_type2_rx += static_cast<double>(s.type2_rx);
      c.pirte_type3_rx += static_cast<double>(s.type3_rx);
      c.vm_activations += static_cast<double>(s.vm_activations);
    }
    if (const auto* ecm = car->vehicle->ecm()) {
      c.ecm_routed += static_cast<double>(ecm->ecm_stats().packages_routed);
    }
    for (const auto* guard : {car->wheels_guard.get(), car->speed_guard.get()}) {
      if (guard == nullptr) continue;
      c.guard_passed += static_cast<double>(guard->stats().passed);
      c.guard_clamped += static_cast<double>(guard->stats().clamped);
      c.guard_dropped += static_cast<double>(guard->stats().dropped_range +
                                             guard->stats().dropped_len +
                                             guard->stats().dropped_rate);
    }
    for (fes::Ecu* ecu : {car->ecu1, car->ecu2}) {
      if (ecu == nullptr) continue;
      c.rte_deliveries += static_cast<double>(ecu->ecu_rte().deliveries());
      c.os_activations += static_cast<double>(ecu->ecu_os().activations_completed());
      c.com_pdus += static_cast<double>(ecu->com().pdus_sent() + ecu->com().pdus_received());
      c.canif_rx_frames += static_cast<double>(ecu->can_if().frames_received());
    }
  }
  return c;
}

Census operator-(const Census& a, const Census& b) {
  Census d;
  d.events = a.events - b.events;
  d.messages = a.messages - b.messages;
  d.can_frames = a.can_frames - b.can_frames;
  d.pushes = a.pushes - b.pushes;
  d.pirte_installs = a.pirte_installs - b.pirte_installs;
  d.pirte_routed = a.pirte_routed - b.pirte_routed;
  d.pirte_type2_rx = a.pirte_type2_rx - b.pirte_type2_rx;
  d.pirte_type3_rx = a.pirte_type3_rx - b.pirte_type3_rx;
  d.ecm_routed = a.ecm_routed - b.ecm_routed;
  d.guard_passed = a.guard_passed - b.guard_passed;
  d.guard_clamped = a.guard_clamped - b.guard_clamped;
  d.guard_dropped = a.guard_dropped - b.guard_dropped;
  d.vm_activations = a.vm_activations - b.vm_activations;
  d.rte_deliveries = a.rte_deliveries - b.rte_deliveries;
  d.os_activations = a.os_activations - b.os_activations;
  d.com_pdus = a.com_pdus - b.com_pdus;
  d.canif_rx_frames = a.canif_rx_frames - b.canif_rx_frames;
  return d;
}

}  // namespace

RunResult RunVehicles(const Options& options) {
  RunResult result;
  const std::uint64_t rss_start = LiveRssBytes();
  std::vector<double> setup_s;
  spans::Enable(options.trace);
  const SpanWindow setup_spans;
  auto sessions = std::make_unique<Sessions>(options.seed, result);
  sessions->SetUp();
  setup_s.push_back(SecondsSince(ProcessStart()));
  spans::Enable(false);
  const double catalog_s = setup_spans.Seconds(SpanKind::kCatalog);
  const double vehicle_build_s = setup_spans.Seconds(SpanKind::kVehicleBuild);
  Sessions& s = *sessions;
  s.Start();

  // Exact counters: the deltas over the first kCountedSim of sessions.
  const Census base = s.Take();
  const double fuel_base = s.vm_fuel();
  Census counted;
  double counted_ops = 0;
  double counted_deploys = 0;
  double counted_fuel = 0;
  std::vector<double> counted_latency_ms;
  bool counted_done = false;
  std::uint64_t rss_counted = 0;

  std::vector<double> slice_rates;   // untraced slices: ops / host s
  std::vector<double> traced_rates;  // traced slices (overhead)
  double traced_ops = 0;
  double traced_events = 0;
  double events = 0;
  AllocCounts traced_allocs;
  const SpanWindow measured_spans;
  const sim::SimTime sim_start = s.simulator().Now();
  const std::size_t calls_start = s.call_ms().size();

  const Clock::time_point window = Clock::now();
  for (std::size_t slice = 0;
       !counted_done || SecondsSince(window) < options.seconds; ++slice) {
    const bool trace_slice = options.trace && slice % 2 == 1;
    const double ops_before = s.ops();
    std::size_t fired = 0;
    double host_s = 0;
    {
      const TracedUnit unit(trace_slice, slice + 1, traced_allocs);
      const Clock::time_point start = Clock::now();
      {
        Scope run(SpanKind::kSimRun);
        fired = s.simulator().RunUntil(sim_start + (slice + 1) * kSlice);
      }
      host_s = SecondsSince(start);
    }
    events += static_cast<double>(fired);
    const double slice_ops = s.ops() - ops_before;
    if (trace_slice) {
      traced_rates.push_back(slice_ops / host_s);
      traced_ops += slice_ops;
      traced_events += static_cast<double>(fired);
    } else {
      slice_rates.push_back(slice_ops / host_s);
    }
    if (!counted_done && s.simulator().Now() - sim_start >= kCountedSim) {
      counted_done = true;
      Census now = s.Take();
      now.events = events;
      counted = now - base;
      counted_ops = s.ops();
      counted_deploys = s.deploys();
      counted_fuel = s.vm_fuel() - fuel_base;
      counted_latency_ms = s.sim_latency_ms();
      // Read at a fixed amount of work, so it does not depend on speed.
      rss_counted = LiveRssBytes();
    }
  }
  std::vector<double> call_ms(s.call_ms().begin() + static_cast<std::ptrdiff_t>(calls_start),
                              s.call_ms().end());
  const std::size_t cars = s.cars();
  const double all_ops = s.ops();
  sessions.reset();

  for (std::size_t i = 1; i < kSetups; ++i) {
    const Clock::time_point start = Clock::now();
    Sessions again(options.seed, result);
    again.SetUp();
    setup_s.push_back(SecondsSince(start));
  }

  EndToEnd e;
  e.setup_s = Median(setup_s);
  e.throughput_per_s = Median(slice_rates);
  e.latency_p50_ms = Quantile(call_ms, 0.50);
  const double p90 = Quantile(call_ms, 0.90);
  const double p99 = Quantile(call_ms, 0.99);
  const double sim_p50 = Quantile(counted_latency_ms, 0.50);
  const double sim_p99 = Quantile(counted_latency_ms, 0.99);
  e.rss_bytes_per_vehicle =
      static_cast<double>(rss_counted > rss_start ? rss_counted - rss_start : 0) /
      static_cast<double>(cars);
  e.pushes_per_vehicle = PerOp(counted.pushes, counted_deploys);
  result.end_to_end = EndToEndMetrics(e);

  result.exact = {
      {"ops", counted_ops, "count"},
      {"events_per_op", PerOp(counted.events, counted_ops), "count"},
      {"messages_per_op", PerOp(counted.messages, counted_ops), "count"},
      {"can_frames_per_op", PerOp(counted.can_frames, counted_ops), "count"},
      {"wal_frames_per_op", 0, "count"},
      {"wal_bytes_per_op", 0, "bytes"},
      {"wal_syncs_per_op", 0, "count"},
      {"rotations", 0, "count"},
      {"pushes_per_op", PerOp(counted.pushes, counted_ops), "count"},
      {"vm_activations_per_op", PerOp(counted.vm_activations, counted_ops), "count"},
      {"sim_latency_p50_ms", sim_p50, "sim_ms"},
      {"sim_latency_p99_ms", sim_p99, "sim_ms"},
      {"pushes_per_vehicle", e.pushes_per_vehicle, "count"},
      {"wal_bytes_per_vehicle", 0, "bytes"},
  };

  result.Note("vehicle_sessions: " + std::to_string(cars) + " vehicles, " +
              std::to_string(slice_rates.size() + traced_rates.size()) +
              " sim-second slices, " + std::to_string(traced_rates.size()) +
              " traced, " + std::to_string(static_cast<std::uint64_t>(all_ops)) +
              " ops");
  result.Note(PercentileNote("throughput_per_s (median of slices)",
                             e.throughput_per_s, "1/s", slice_rates.size()));
  result.Note(PercentileNote("latency_p50_ms (session Deploy+UninstallApp)",
                             e.latency_p50_ms, "ms", call_ms.size()));
  result.Note(PercentileNote("latency_p90_ms (session Deploy+UninstallApp)",
                             p90, "ms", call_ms.size()));
  result.Note(PercentileNote("latency_p99_ms (session Deploy+UninstallApp)",
                             p99, "ms", call_ms.size()));
  result.Note(PercentileNote("sim_latency_p50_ms (command due -> observed)",
                             sim_p50, "sim_ms",
                             counted_latency_ms.size()));
  result.Note(PercentileNote("sim_latency_p99_ms (command due -> observed)",
                             sim_p99, "sim_ms",
                             counted_latency_ms.size()));

  if (options.trace) {
    const double run_s = measured_spans.Seconds(SpanKind::kSimRun);
    const double guard_total =
        counted.guard_passed + counted.guard_clamped + counted.guard_dropped;
    LayerMetrics l;
    l.sim_latency_p50_ms = sim_p50;
    l.sim_latency_p99_ms = sim_p99;
    l.latency_p90_ms = p90;
    l.latency_p99_ms = p99;
    l.sim_run_s = PerOp(run_s, traced_ops);
    l.sim_events_per_op = PerOp(counted.events, counted_ops);
    l.sim_ns_per_event = PerOp(run_s * 1e9, traced_events);
    l.sim_messages_per_op = PerOp(counted.messages, counted_ops);
    l.sim_can_frames_per_op = PerOp(counted.can_frames, counted_ops);
    l.server_catalog_s = catalog_s;
    l.server_deploy_call_s =
        PerOp(measured_spans.Seconds(SpanKind::kDeployCall), traced_ops);
    l.server_uninstall_call_s =
        PerOp(measured_spans.Seconds(SpanKind::kUninstallCall), traced_ops);
    l.server_pushes_per_op = PerOp(counted.pushes, counted_ops);
    l.support_allocs_per_op =
        PerOp(static_cast<double>(traced_allocs.allocs), traced_ops);
    l.support_alloc_bytes_per_op =
        PerOp(static_cast<double>(traced_allocs.bytes), traced_ops);
    l.fes_vehicle_build_s = vehicle_build_s;
    l.pirte_installs_per_op = PerOp(counted.pirte_installs, counted_ops);
    l.pirte_messages_routed_per_op = PerOp(counted.pirte_routed, counted_ops);
    l.pirte_type2_rx_per_op = PerOp(counted.pirte_type2_rx, counted_ops);
    l.pirte_type3_rx_per_op = PerOp(counted.pirte_type3_rx, counted_ops);
    l.pirte_ecm_routed_per_op = PerOp(counted.ecm_routed, counted_ops);
    l.pirte_guard_drop_share = PerOp(counted.guard_dropped, guard_total);
    l.vm_activations_per_op = PerOp(counted.vm_activations, counted_ops);
    l.vm_fuel_per_op = PerOp(counted_fuel, counted_ops);
    l.rte_deliveries_per_op = PerOp(counted.rte_deliveries, counted_ops);
    l.os_activations_per_op = PerOp(counted.os_activations, counted_ops);
    l.bsw_com_pdus_per_op = PerOp(counted.com_pdus, counted_ops);
    l.bsw_canif_rx_frames_per_op = PerOp(counted.canif_rx_frames, counted_ops);
    l.trace_overhead = PerOp(Median(slice_rates), Median(traced_rates)) - 1.0;
    l.fail_share = PerOp(static_cast<double>(result.failed),
                         static_cast<double>(result.attempted));
    result.per_layer = LayerMetricList(l);
  }
  return result;
}

}  // namespace perfbench
