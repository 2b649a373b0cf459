// Deterministic discrete-event simulation kernel.
//
// Everything time-dependent in the repo (OS tick, CAN frame timing,
// server<->vehicle network latency) is driven by one Simulator instance, so
// whole-system runs are reproducible down to the event ordering.  Events
// scheduled for the same timestamp fire in scheduling order (FIFO), which
// keeps test expectations stable.
//
// The pending set lives in a hierarchical timer wheel with pooled event
// nodes and inline callback storage (sim/event_queue.hpp): steady-state
// scheduling and firing allocates nothing and performs no comparisons, yet
// replays byte-identically against the classic priority-queue core (the
// property suite checks exactly that).
//
// By default the kernel is single-threaded.  ConfigureLanes(N > 1) splits
// the pending set into N per-lane event wheels that execute concurrently
// inside conservative time windows (see the .cpp file comment for the
// window/barrier protocol and its determinism argument).  Lane 0 is the
// control plane — server, campaign engine, network bookkeeping — and runs
// first in every window on the calling thread; worker lanes run on a
// kernel-owned thread pool.  The replay contract generalizes from
// (timestamp, seq) to (timestamp, lane, lane-local seq); at lanes=1 the
// engine is bit-for-bit today's serial loop.
//
// The merge barrier is the kernel's only entry for work from another
// thread: a schedule made inside a lane event, on whatever thread ran
// the lane, is staged and committed there.  Every other call (setup, Run,
// schedules from outside an event) belongs to the simulation thread, the
// one that constructed the kernel; other threads with work to schedule
// hand it to that thread first.
#pragma once

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "sim/event_queue.hpp"

namespace dacm::support {
class ThreadPool;
}  // namespace dacm::support

namespace dacm::sim {

/// Tuning for the parallel lane engine (Simulator::ConfigureLanes).
struct LaneOptions {
  /// Number of event lanes.  1 (default) keeps the serial engine;
  /// values are clamped to [1, kMaxSimLanes].
  std::size_t lanes = 1;
  /// Upper bound on the conservative window width in microseconds: a
  /// window starting at t may fire events up to t + lookahead - 1.
  /// Cross-lane interaction channels must clamp this to their minimum
  /// notice (sim::Network calls ClampLookahead(latency) for you); direct
  /// users of ScheduleAtLane across lanes must set it themselves.
  SimTime lookahead = EventQueue::kMaxTime;
  /// Worker threads for lanes 1..N-1; SIZE_MAX means lanes - 1.
  std::size_t threads = SIZE_MAX;
};

/// Event-queue simulator.  Single-threaded unless ConfigureLanes(N > 1)
/// is called, in which case worker lanes run on a kernel-owned pool but
/// all public entry points remain control-thread-only.
class Simulator {
 public:
  /// Inline up to 48 bytes of captures; larger callables heap-allocate
  /// once (see support/inplace_function.hpp).  Move-only.
  using Callback = EventQueue::Callback;

  /// Lane count ceiling — keeps the tracer lane block (kSimTraceLaneBase
  /// + lane) inside support::Tracer::kMaxLanes alongside the server
  /// shard lanes.
  static constexpr std::size_t kMaxSimLanes = 16;

  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Switches the kernel to `options.lanes` parallel event lanes.  Must
  /// be called before anything is scheduled (Now() == 0, empty queues).
  /// lanes <= 1 is a no-op: the serial engine stays.
  void ConfigureLanes(LaneOptions options);

  /// Lowers the conservative-window width to at most `notice` (floored
  /// at 1).  Cross-lane channels call this with their minimum delivery
  /// latency; the clamp is monotone (it never widens) and is honored
  /// whether it happens before or after ConfigureLanes.
  void ClampLookahead(SimTime notice);

  std::size_t lane_count() const { return multi_ ? lanes_.size() : 1; }

  /// Deterministic lane for a pre-hashed key (vehicles hash their VIN).
  /// Worker keys map to all lanes including 0; callers that want the
  /// control plane undisturbed can add 1 and mod over lanes-1 themselves.
  std::uint32_t LaneForKey(std::uint64_t key) const {
    return multi_ ? static_cast<std::uint32_t>(key % lanes_.size()) : 0;
  }

  /// Current simulated time.  Inside a lane event this is the lane-local
  /// clock (the timestamp of the event being fired); on the control
  /// thread between windows it is the global clock (max over lanes).
  SimTime Now() const { return multi_ ? LaneLocalNow() : now_; }

  /// Schedules `fn` to run at absolute time `at` (>= Now()).  From inside
  /// a lane event the target is the executing lane; from the control
  /// thread it is lane 0.
  void ScheduleAt(SimTime at, Callback fn);

  /// Schedules `fn` to run `delay` after Now().
  void ScheduleAfter(SimTime delay, Callback fn) {
    ScheduleAt(Now() + delay, std::move(fn));
  }

  /// Schedules `fn` on a specific lane.  Intra-lane schedules inside the
  /// current window are direct; anything else (cross-lane, or beyond the
  /// window) is staged and committed at the next merge barrier in global
  /// (parent timestamp, parent lane, program) order — which is what keeps
  /// per-lane sequence assignment identical to a serial merged-order run.
  void ScheduleAtLane(std::uint32_t lane, SimTime at, Callback fn);

  void ScheduleAfterLane(std::uint32_t lane, SimTime delay, Callback fn) {
    ScheduleAtLane(lane, Now() + delay, std::move(fn));
  }

  /// True when the caller may touch control-plane state: always in serial
  /// mode, and on lane 0 / between windows in lane mode.  Components that
  /// must not be driven from worker lanes (Network::Connect) assert this.
  bool OnControlPlane() const;

  /// True on the simulation thread (the one that constructed this
  /// simulator) and inside any lane event — the two places a schedule is
  /// ordered deterministically.  Network::Send asserts this.
  bool OnSimulationThread() const;

  /// Runs events until the queues are empty or `limit` events have fired.
  /// Returns the number of events processed.  A bounded limit at lanes>1
  /// takes a serialized merged-order path (exact but not parallel);
  /// unbounded runs use the windowed parallel engine.
  std::size_t Run(std::size_t limit = SIZE_MAX);

  /// Runs events with timestamp <= `until` (inclusive); advances Now() to
  /// `until` even if the queues drain earlier.  Returns events processed.
  std::size_t RunUntil(SimTime until);

  /// Runs for `duration` of simulated time from Now().
  std::size_t RunFor(SimTime duration) { return RunUntil(Now() + duration); }

  bool Empty() const { return multi_ ? MultiPending() == 0 : queue_.Empty(); }
  std::size_t PendingEvents() const {
    return multi_ ? MultiPending() : queue_.size();
  }
  /// Event-node pool footprint (tests assert steady-state churn stops
  /// growing it; see EventQueue::allocated_nodes).
  std::size_t AllocatedEventNodes() const;
  /// Events beyond the wheel horizon, summed over lanes (see
  /// EventQueue::overflow_size).
  std::size_t OverflowEvents() const;
  /// Per-lane overflow census — the horizon regression tests pin that a
  /// far-future event scheduled from a worker lane waits in the *owning*
  /// lane's overflow heap, not lane 0's.
  std::size_t OverflowEvents(std::uint32_t lane) const;

 private:
  /// A schedule request made during lane execution that cannot be pushed
  /// directly (cross-lane target, or timestamp beyond the current
  /// window).  Committed at the merge barrier in (parent_at, parent lane,
  /// program) order.
  struct CrossRequest {
    SimTime parent_at;
    std::uint32_t target;
    SimTime at;
    Callback fn;
  };

  /// One event lane.  Cache-line aligned: during a window each lane is
  /// touched by exactly one thread, and false sharing between the hot
  /// `now`/queue headers of neighboring lanes would serialize them again.
  struct alignas(64) LaneState {
    EventQueue queue;
    SimTime now = 0;
    SimTime next = EventQueue::kMaxTime;  // per-window scratch
    std::vector<CrossRequest> staged;
    std::uint64_t window_fired = 0;
    std::uint64_t busy_ns = 0;
  };

  /// Folds locally-counted events into the process metrics registry —
  /// called once per Run/RunUntil return so the event loop itself never
  /// touches an atomic per event.
  void FoldMetrics(std::size_t processed);

  SimTime LaneLocalNow() const;
  std::size_t MultiPending() const;
  /// Fires lane `lane_index`'s due events up to `window_end` on the
  /// calling thread, then syncs its wheel cursor to the window end.
  void RunLaneWindow(std::uint32_t lane_index, SimTime window_end);
  /// Merge barrier: commits every lane's staged requests in global
  /// (parent_at, parent lane, program) order.  Returns requests committed.
  std::size_t CommitWindow();
  /// Commits one lane's staged requests in program order (the serialized
  /// path commits after every event, so no sort is needed).
  void CommitLane(LaneState& lane);
  /// The windowed parallel engine behind Run(∞)/RunUntil at lanes>1.
  std::size_t RunLanes(SimTime until, bool pin_until);
  /// Exact merged-order engine behind bounded Run(limit) at lanes>1.
  std::size_t RunLanesSerialized(std::size_t limit);

  SimTime now_ = 0;
  EventQueue queue_;

  bool multi_ = false;
  SimTime lookahead_ = EventQueue::kMaxTime;
  std::vector<std::unique_ptr<LaneState>> lanes_;
  std::unique_ptr<support::ThreadPool> pool_;
  std::vector<std::uint32_t> active_lanes_;  // per-window scratch
  std::thread::id control_thread_ = std::this_thread::get_id();
};

}  // namespace dacm::sim
