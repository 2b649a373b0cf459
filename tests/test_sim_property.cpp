// Property tests for the timer-wheel event kernel and the parallel lane
// engine.
//
// The EventQueue rewrite (PR 5) promises *exact* replay equivalence with
// the std::priority_queue core it replaced: strictly increasing
// (timestamp, schedule-sequence) firing order, FIFO for equal timestamps,
// monotone Now(), identical RunUntil clock semantics.  The lane engine
// (PR 10) generalizes the contract to (timestamp, lane, lane-local seq)
// and must collapse back to the serial behavior bit-for-bit at lanes=1.
// Three angles:
//
//  * a differential fuzz drives a Simulator at lanes {1, 2, 4, 8} and a
//    flat reference model (sorted by the exact ordering key) through
//    random ScheduleAt / ScheduleAtLane / Run(limit) / RunUntil
//    interleavings — same-timestamp storms, wheel-window boundary times,
//    callback-nested in-lane and cross-lane scheduling, far events
//    beyond the wheel horizon — and requires identical merged fired
//    sequences and clocks after every operation;
//
//  * an overflow-routing regression pins that a far-future event
//    scheduled from a *worker lane* mid-window waits in the owning
//    lane's overflow heap, never lane 0's;
//
//  * a determinism re-run deploys a sharded campaign (worker-recorded
//    pushes sent in fleet order, parallel ack inboxes) twice — honoring
//    DACM_SIM_LANES so the TSan job replays it on the parallel engine —
//    and requires fingerprint-identical outcomes, plus fingerprint
//    equality across every lane count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "fes/appgen.hpp"
#include "fes/fleet.hpp"
#include "fes/testbed.hpp"
#include "server/server.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "support/crc.hpp"
#include "test_util.hpp"

namespace dacm::sim {
namespace {

// --- differential model ------------------------------------------------------------

/// The behavioral spec of the lane engine: a flat list popped in
/// (timestamp, lane, lane-local sequence) order, sequences assigned at
/// schedule time in fire order.  With one lane this degenerates to the
/// (timestamp, sequence) ordering the old priority_queue core
/// implemented.
class ReferenceKernel {
 public:
  explicit ReferenceKernel(std::size_t lanes)
      : lane_now_(lanes, 0), next_seq_(lanes, 0) {}

  SimTime Now() const { return now_; }
  SimTime LaneNow(std::uint32_t lane) const { return lane_now_[lane]; }

  /// Control-plane schedule (between runs): clamps like the engine's
  /// control-thread push — never before the global clock.
  void ScheduleAt(std::uint32_t lane, SimTime at, int id) {
    if (at < now_) at = now_;
    if (at < lane_now_[lane]) at = lane_now_[lane];
    Push(lane, at, id);
  }

  /// Schedule issued from inside a fired event (the firing code computes
  /// `at` from the firing lane's clock, so no clamp can bite).
  void ScheduleFromEvent(std::uint32_t lane, SimTime at, int id) {
    Push(lane, at, id);
  }

  /// Pops the next due event (at <= limit), if any.
  bool PopDue(SimTime limit, SimTime* at, std::uint32_t* lane, int* id) {
    std::size_t best = pending_.size();
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (best == pending_.size() || Earlier(pending_[i], pending_[best])) {
        best = i;
      }
    }
    if (best == pending_.size() || pending_[best].at > limit) return false;
    *at = pending_[best].at;
    *lane = pending_[best].lane;
    *id = pending_[best].id;
    lane_now_[pending_[best].lane] = pending_[best].at;
    if (pending_[best].at > now_) now_ = pending_[best].at;
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(best));
    return true;
  }

  void SetNow(SimTime now) {
    if (now > now_) now_ = now;
    for (SimTime& lane_now : lane_now_) {
      if (lane_now < now) lane_now = now;
    }
  }
  std::size_t Pending() const { return pending_.size(); }

 private:
  struct Event {
    SimTime at;
    std::uint32_t lane;
    std::uint64_t seq;  // lane-local
    int id;
  };
  static bool Earlier(const Event& a, const Event& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.lane != b.lane) return a.lane < b.lane;
    return a.seq < b.seq;
  }

  void Push(std::uint32_t lane, SimTime at, int id) {
    pending_.push_back(Event{at, lane, next_seq_[lane]++, id});
  }

  SimTime now_ = 0;
  std::vector<SimTime> lane_now_;
  std::vector<std::uint64_t> next_seq_;
  std::vector<Event> pending_;
};

/// Drives the real Simulator (at a given lane count) and the reference
/// kernel through one shared randomized plan.  Every parent id has
/// pre-drawn follow-up decisions (in-lane child delay, cross-lane child
/// delay, or none) and child ids are pure functions of the parent id, so
/// callback-nested scheduling stays identical on both sides without any
/// shared mutable state — the real side's callbacks run concurrently on
/// worker lanes.
class DifferentialHarness {
 public:
  /// Window lookahead for lanes > 1.  Cross-lane children are scheduled
  /// at least this far ahead (the conservative-DES notice contract).
  static constexpr SimTime kLookahead = 64;
  /// Child ids: in-lane child = parent + kChildBias, cross-lane child =
  /// parent + 2 * kChildBias.  Parents stay below the bias, so children
  /// never nest.
  static constexpr int kChildBias = 1 << 20;

  DifferentialHarness(Rng& rng, std::size_t lanes)
      : rng_(rng), lanes_(lanes), model_(lanes), fired_lane_(lanes) {
    if (lanes > 1) {
      LaneOptions options;
      options.lanes = lanes;
      options.lookahead = kLookahead;
      // Force one real worker per lane (the default caps at the core
      // count): this harness is the race stressor the TSan job runs.
      options.threads = lanes - 1;
      simulator_.ConfigureLanes(options);
    }
  }

  /// Delays biased at wheel stress points: same-timestamp storms (0),
  /// slot-window boundaries (64/4096 multiples), typical latencies, and
  /// far-future events beyond the 2^36 us overflow horizon.
  SimTime RandomDelay() {
    switch (rng_.NextBelow(8)) {
      case 0: return 0;
      case 1: return rng_.NextBelow(4);
      case 2: return 63 + rng_.NextBelow(3);
      case 3: return 4095 + rng_.NextBelow(3);
      case 4: return rng_.NextBelow(1000);
      case 5: return rng_.NextBelow(100000);
      case 6: return 20 * kMillisecond;
      default: {
        // Overflow-heap region, pinned to the horizon boundary: exactly
        // 2^36, one below (last wheel slot), one above, and a random
        // point beyond — the off-by-one band where a routing bug would
        // drop an event into slot 0 of the current window.
        const SimTime horizon = SimTime{1} << 36;
        switch (rng_.NextBelow(4)) {
          case 0: return horizon;
          case 1: return horizon - 1;
          case 2: return horizon + 1;
          default: return horizon + rng_.NextBelow(1 << 20);
        }
      }
    }
  }

  std::uint32_t RandomLane() {
    return static_cast<std::uint32_t>(rng_.NextBelow(lanes_));
  }

  void ScheduleBoth(std::uint32_t lane, SimTime at) {
    const int id = next_id_++;
    ASSERT_LT(id, kChildBias);
    // ~1/3 of events schedule an in-lane follow-up from inside their
    // callback; ~1/4 schedule a cross-lane follow-up (beyond the
    // lookahead, as the conservative-window contract requires).
    child_delay_.push_back(rng_.NextBelow(3) == 0
                               ? static_cast<std::int64_t>(RandomDelay())
                               : -1);
    cross_delay_.push_back(rng_.NextBelow(4) == 0
                               ? static_cast<std::int64_t>(RandomDelay())
                               : -1);
    model_.ScheduleAt(lane, at, id);
    simulator_.ScheduleAtLane(lane, at, [this, lane, id] { OnFire(lane, id); });
  }

  void RunBoth(std::size_t limit) {
    ++epoch_;  // before Run: the pool handshake orders this for workers
    const std::size_t processed = simulator_.Run(limit);
    std::size_t model_processed = 0;
    SimTime at = 0;
    std::uint32_t lane = 0;
    int id = 0;
    while (model_processed < limit &&
           model_.PopDue(EventQueue::kMaxTime, &at, &lane, &id)) {
      ModelFire(at, lane, id);
      ++model_processed;
    }
    ASSERT_EQ(processed, model_processed);
    Compare();
  }

  void RunUntilBoth(SimTime until) {
    ++epoch_;
    simulator_.RunUntil(until);
    SimTime at = 0;
    std::uint32_t lane = 0;
    int id = 0;
    while (model_.PopDue(until, &at, &lane, &id)) {
      ModelFire(at, lane, id);
    }
    model_.SetNow(until);
    Compare();
  }

  Simulator& simulator() { return simulator_; }

  void Compare() {
    ASSERT_EQ(simulator_.Now(), model_.Now());
    ASSERT_EQ(simulator_.PendingEvents(), model_.Pending());
    // Per-lane clocks never run backwards.
    for (std::size_t lane = 0; lane < lanes_; ++lane) {
      const auto& fired = fired_lane_[lane];
      for (std::size_t i = 1; i < fired.size(); ++i) {
        ASSERT_LE(fired[i - 1].at, fired[i].at)
            << "lane " << lane << " clock ran backwards";
      }
    }
    // The real engine records per-lane logs (windowed execution
    // interleaves lanes arbitrarily in wall time); the deterministic
    // contract is their merge in (run epoch, at, lane, in-lane order) —
    // the lane tie-break only applies *within* one run, because a
    // late-clamped schedule can re-create a past timestamp in a later
    // run.  The merge must be byte-identical to the model's fire
    // sequence.
    merged_scratch_.clear();
    for (std::uint32_t lane = 0; lane < lanes_; ++lane) {
      const auto& fired = fired_lane_[lane];
      for (std::size_t i = 0; i < fired.size(); ++i) {
        merged_scratch_.push_back(MergedEvent{fired[i].epoch, fired[i].at,
                                              lane, fired[i].id});
      }
    }
    std::stable_sort(merged_scratch_.begin(), merged_scratch_.end(),
                     [](const MergedEvent& a, const MergedEvent& b) {
                       return std::tie(a.epoch, a.at, a.lane) <
                              std::tie(b.epoch, b.at, b.lane);
                     });
    ASSERT_EQ(merged_scratch_.size(), fired_model_.size());
    for (std::size_t i = 0; i < merged_scratch_.size(); ++i) {
      ASSERT_EQ(merged_scratch_[i].epoch, fired_model_[i].epoch)
          << "event " << i;
      ASSERT_EQ(merged_scratch_[i].at, fired_model_[i].at) << "event " << i;
      ASSERT_EQ(merged_scratch_[i].lane, fired_model_[i].lane) << "event " << i;
      ASSERT_EQ(merged_scratch_[i].id, fired_model_[i].id) << "event " << i;
    }
  }

 private:
  struct MergedEvent {
    int epoch;
    SimTime at;
    std::uint32_t lane;
    int id;
  };
  struct LaneEvent {
    int epoch;
    SimTime at;
    int id;
  };

  /// Runs on the firing lane's thread: records into the lane-exclusive
  /// log and schedules the pre-drawn children.  No gtest assertions here
  /// (worker-lane threads); Compare() checks everything afterwards.
  void OnFire(std::uint32_t lane, int id) {
    fired_lane_[lane].push_back(LaneEvent{epoch_, simulator_.Now(), id});
    if (id >= kChildBias) return;  // children do not nest further
    const auto index = static_cast<std::size_t>(id);
    if (child_delay_[index] >= 0) {
      const int child = id + kChildBias;
      simulator_.ScheduleAfter(
          static_cast<SimTime>(child_delay_[index]),
          [this, lane, child] { OnFire(lane, child); });
    }
    if (cross_delay_[index] >= 0) {
      const int child = id + 2 * kChildBias;
      const auto target =
          static_cast<std::uint32_t>((lane + 1) % lanes_);
      simulator_.ScheduleAtLane(
          target,
          simulator_.Now() + kLookahead +
              static_cast<SimTime>(cross_delay_[index]),
          [this, target, child] { OnFire(target, child); });
    }
  }

  void ModelFire(SimTime at, std::uint32_t lane, int id) {
    fired_model_.push_back(MergedEvent{epoch_, at, lane, id});
    if (id >= kChildBias) return;
    const auto index = static_cast<std::size_t>(id);
    if (child_delay_[index] >= 0) {
      model_.ScheduleFromEvent(
          lane, at + static_cast<SimTime>(child_delay_[index]),
          id + kChildBias);
    }
    if (cross_delay_[index] >= 0) {
      const auto target = static_cast<std::uint32_t>((lane + 1) % lanes_);
      model_.ScheduleFromEvent(
          target, at + kLookahead + static_cast<SimTime>(cross_delay_[index]),
          id + 2 * kChildBias);
    }
  }

  Rng& rng_;
  std::size_t lanes_;
  Simulator simulator_;
  ReferenceKernel model_;
  int next_id_ = 0;
  /// Monotone run counter: bumped (on the control thread, before the
  /// workers start) at every RunBoth / RunUntilBoth.  Disambiguates
  /// equal-timestamp events fired in different runs.
  int epoch_ = 0;
  std::vector<std::int64_t> child_delay_;
  std::vector<std::int64_t> cross_delay_;
  /// One log per lane, appended only by that lane's executing thread.
  std::vector<std::vector<LaneEvent>> fired_lane_;
  std::vector<MergedEvent> fired_model_;
  std::vector<MergedEvent> merged_scratch_;
};

TEST(EventQueueProperty, DifferentialFuzzAgainstPriorityQueueModel) {
  DACM_PROPERTY_RNG(rng);
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{2},
                                  std::size_t{4}, std::size_t{8}}) {
    for (int round = 0; round < 6; ++round) {
      DifferentialHarness harness(rng, lanes);
      const int ops = 120;
      for (int op = 0; op < ops; ++op) {
        switch (rng.NextBelow(5)) {
          case 0:
          case 1: {
            // A burst of schedules, sometimes at one shared timestamp
            // (storm) to stress FIFO tie-breaking — across lanes, the
            // (at, lane, seq) tie-breaking.
            const SimTime base =
                harness.simulator().Now() + harness.RandomDelay();
            const std::size_t burst = 1 + rng.NextBelow(8);
            const bool storm = rng.NextBelow(2) == 0;
            for (std::size_t i = 0; i < burst; ++i) {
              harness.ScheduleBoth(harness.RandomLane(),
                                   storm ? base
                                         : harness.simulator().Now() +
                                               harness.RandomDelay());
            }
            break;
          }
          case 2:
            harness.RunBoth(rng.NextBelow(6));
            break;
          case 3:
            harness.RunUntilBoth(harness.simulator().Now() +
                                 harness.RandomDelay());
            break;
          default: {
            // Late scheduling must clamp identically on both sides.
            const SimTime now = harness.simulator().Now();
            const SimTime back = 1 + rng.NextBelow(100);
            harness.ScheduleBoth(harness.RandomLane(),
                                 now > back ? now - back : 0);
            break;
          }
        }
        if (HasFatalFailure()) return;
      }
      harness.RunBoth(SIZE_MAX);  // drain everything, including far events
      if (HasFatalFailure()) return;
    }
  }
}

// --- overflow routing from worker lanes --------------------------------------------

// A worker-lane event that schedules past the 2^36 us wheel horizon
// mid-window must park the far event in its *own* lane's overflow heap.
// (A routing bug that sent lane-context schedules through the control
// queue would both misplace the overflow node and fire the event on the
// wrong thread.)  The near/far pair defeats the solo fast path, which
// would otherwise hold the single far event outside the overflow census.
TEST(EventQueueProperty, WorkerLaneOverflowLandsInOwningLane) {
  Simulator simulator;
  LaneOptions options;
  options.lanes = 4;
  options.lookahead = 64;
  options.threads = 3;  // real workers: the far event is scheduled mid-window
  simulator.ConfigureLanes(options);

  constexpr SimTime horizon = SimTime{1} << 36;
  // Lane 3, t=100: schedule a near follow-up and a far one just past the
  // horizon boundary as seen from the window the event fires in.
  simulator.ScheduleAtLane(3, 100, [&simulator] {
    simulator.ScheduleAfter(10 * kSecond, [] {});
    simulator.ScheduleAfter(horizon + 1, [] {});
  });
  // Keep lane 0 busy at the same timestamp so the window is genuinely
  // concurrent (control plane + worker lane in one window).
  simulator.ScheduleAtLane(0, 100, [] {});

  simulator.RunUntil(200);
  EXPECT_EQ(simulator.Now(), SimTime{200});
  EXPECT_EQ(simulator.OverflowEvents(3), 1u) << "far event left lane 3";
  EXPECT_EQ(simulator.OverflowEvents(0), 0u) << "far event leaked to lane 0";
  EXPECT_EQ(simulator.OverflowEvents(), 1u);
  EXPECT_EQ(simulator.PendingEvents(), 2u);

  // Both follow-ups still fire, on time, in (at, lane, seq) order.
  const std::size_t remaining = simulator.Run();
  EXPECT_EQ(remaining, 2u);
  EXPECT_EQ(simulator.Now(), SimTime{100} + horizon + 1);
  EXPECT_EQ(simulator.OverflowEvents(), 0u);
  EXPECT_TRUE(simulator.Empty());
}

// --- determinism fingerprint on the new core ---------------------------------------

/// One sharded campaign world at `lanes` simulator lanes; returns a
/// fingerprint over everything the determinism contract covers: delivery
/// counts, per-shard statistics and per-vehicle terminal states.
std::uint32_t ShardedCampaignFingerprint(std::size_t lanes) {
  Simulator simulator;
  if (lanes > 1) {
    LaneOptions options;
    options.lanes = lanes;
    options.threads = lanes - 1;  // real workers for the TSan replay
    simulator.ConfigureLanes(options);  // lookahead comes from the network
  }
  Network network(simulator, kMillisecond);
  server::TrustedServer server(network, "srv:443", server::ServerOptions{4});
  EXPECT_TRUE(server.Start().ok());
  EXPECT_TRUE(server.UploadVehicleModel(fes::MakeRpiTestbedConf()).ok());
  const server::UserId user = *server.CreateUser("prop");

  fes::ScriptedFleetOptions options;
  options.vehicle_count = 160;
  options.nack_every = 7;  // a healthy mix of acks and nacks
  fes::ScriptedFleet fleet(simulator, network, server, options);
  EXPECT_TRUE(fleet.BindAndConnect(user).ok());

  fes::SyntheticAppParams params;
  params.name = "prop-app";
  params.vehicle_model = "rpi-testbed";
  params.plugin_count = 3;
  params.ports_per_plugin = 4;
  params.target_ecu = 1;
  params.binary_padding = 512;
  EXPECT_TRUE(server.UploadApp(fes::MakeSyntheticApp(params)).ok());

  auto report = server.DeployCampaign(user, "prop-app", fleet.vins());
  EXPECT_TRUE(report.ok());
  simulator.Run();

  support::ByteWriter fp;
  fp.WriteU64(network.messages_delivered());
  fp.WriteU64(fleet.acks_sent());
  fp.WriteU64(fleet.nacks_sent());
  for (std::size_t shard = 0; shard < server.shard_count(); ++shard) {
    const server::ServerStats& stats = server.shard_stats(shard);
    fp.WriteU64(stats.packages_pushed);
    fp.WriteU64(stats.acks_received);
    fp.WriteU64(stats.nacks_received);
    fp.WriteU64(stats.deploys_ok);
    fp.WriteU64(stats.deploys_rejected);
  }
  for (const std::string& vin : fleet.vins()) {
    auto state = server.AppState(vin, "prop-app");
    fp.WriteU8(state.ok() ? static_cast<std::uint8_t>(*state) : 0xff);
  }
  return support::Crc32(fp.bytes());
}

TEST(EventQueueProperty, ShardedCampaignFingerprintIsStableOnNewCore) {
  // DACM_SIM_LANES (the TSan CI job exports 4) reruns the whole campaign
  // on the parallel engine.
  const std::size_t lanes = testutil::LanesFromEnvOr(1);
  const std::uint32_t first = ShardedCampaignFingerprint(lanes);
  const std::uint32_t second = ShardedCampaignFingerprint(lanes);
  EXPECT_EQ(first, second);
  EXPECT_NE(first, 0u);  // a degenerate all-zero world would also "match"
}

TEST(EventQueueProperty, ShardedCampaignFingerprintMatchesAcrossLaneCounts) {
  // Window grouping changes with the lane count (cross-lane sends commit
  // at merge barriers), but every count and terminal state the
  // fingerprint folds is structural — the parallel engine must converge
  // the same campaign to the same world.
  const std::uint32_t serial = ShardedCampaignFingerprint(1);
  for (const std::size_t lanes : {std::size_t{2}, std::size_t{4},
                                  std::size_t{8}}) {
    EXPECT_EQ(ShardedCampaignFingerprint(lanes), serial)
        << "lanes=" << lanes;
  }
}

}  // namespace
}  // namespace dacm::sim
