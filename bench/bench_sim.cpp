// SIM — the discrete-event kernel itself.
//
// The Simulator's pending-event store is a hierarchical timer wheel with
// pooled nodes and inline callback storage (sim/event_queue.hpp).  These
// benchmarks put numbers on it:
//
//   * BM_Wheel* — deterministic schedules driven through the production
//     kernel, in three shapes:
//       - ScheduleFire: mixed latencies/alarm periods, the fleet pattern;
//       - Storm: N events at one timestamp (ack storms);
//       - TimerChurn: a self-rescheduling alarm chain (OS tick pattern).
//     The ordering of the priority-queue core the wheel replaced lives on
//     as the reference kernel in test_sim_property; CHANGES.md records
//     the wheel's measured 2x over that core.
//   * BM_LaneWindowedFire — the parallel-lane engine (PR 10): a
//     self-rescheduling load spread over N lanes executed in conservative
//     time windows with merge barriers.  The lanes=1 row is the serial
//     engine; the delta against it is the pure lane-machinery overhead
//     (on a single-CPU runner, its upper bound).  `--lanes=1,2,4` replaces
//     the lane axis.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sim/simulator.hpp"

namespace dacm::bench {
namespace {

/// Deterministic delay stream: the near-monotonic mixture the fleet
/// pipeline produces (dominant short network latencies, alarm periods, an
/// occasional long backoff).
class DelayStream {
 public:
  sim::SimTime Next() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t draw = state_ >> 33;
    switch (draw & 7) {
      case 0: return 0;                                  // same-timestamp
      case 1: return 1 + (draw % 64);                    // sub-slot jitter
      case 2: return sim::kMillisecond;                  // OS tick
      case 3: return 100 * sim::kMillisecond;            // alarm period
      case 4: return sim::kSecond + (draw % 1024);       // backoff
      default: return 20 * sim::kMillisecond + (draw % 512);  // WAN latency
    }
  }

 private:
  std::uint64_t state_ = 0x51D0C0DE;
};

void BM_WheelScheduleFire(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  sim::Simulator kernel;
  DelayStream delays;
  std::uint64_t fired = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < batch; ++i) {
      kernel.ScheduleAfter(delays.Next(), [&fired]() { ++fired; });
    }
    kernel.Run();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch));
}

void BM_WheelStorm(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  sim::Simulator kernel;
  std::uint64_t fired = 0;
  for (auto _ : state) {
    const sim::SimTime at = kernel.Now() + sim::kMillisecond;
    for (std::size_t i = 0; i < batch; ++i) {
      kernel.ScheduleAt(at, [&fired]() { ++fired; });
    }
    kernel.Run();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch));
}

void BM_WheelTimerChurn(benchmark::State& state) {
  const auto chain = static_cast<std::size_t>(state.range(0));
  sim::Simulator kernel;
  std::size_t remaining = 0;
  // A periodic alarm rescheduling itself: one live event at a time, the
  // depth-1 pattern the OS tick and watchdog produce.  The ticker is a
  // plain 16-byte callable, stored inline in the event node.
  struct Ticker {
    sim::Simulator* kernel;
    std::size_t* remaining;
    void operator()() const {
      if (--*remaining > 0) kernel->ScheduleAfter(sim::kMillisecond, *this);
    }
  };
  const Ticker tick{&kernel, &remaining};
  for (auto _ : state) {
    remaining = chain;
    kernel.ScheduleAfter(sim::kMillisecond, tick);
    kernel.Run();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(chain));
}

BENCHMARK(BM_WheelScheduleFire)->Arg(1024)->Arg(16384);
BENCHMARK(BM_WheelStorm)->Arg(4096);
BENCHMARK(BM_WheelTimerChurn)->Arg(8192);

// The lane engine under a lane-local load: `batch` seed events spread
// round-robin over the lanes, each chaining three intra-lane
// reschedules.  A 1 ms lookahead bounds the conservative windows, so a
// run executes thousands of window/barrier cycles — the measured rate
// prices window composition, parallel lane execution and the merge
// barrier, on top of the same wheel operations the serial rows measure.
void BM_LaneWindowedFire(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const auto lanes = static_cast<std::size_t>(state.range(1));
  sim::Simulator simulator;
  if (lanes > 1) {
    sim::LaneOptions options;
    options.lanes = lanes;
    options.lookahead = sim::kMillisecond;
    simulator.ConfigureLanes(options);
  }
  DelayStream delays;
  std::atomic<std::uint64_t> fired{0};  // lanes fire concurrently
  struct Hop {
    sim::Simulator* simulator;
    std::atomic<std::uint64_t>* fired;
    int hops;
    void operator()() const {
      fired->fetch_add(1, std::memory_order_relaxed);
      if (hops > 0) {
        simulator->ScheduleAfter(sim::kMillisecond,
                                 Hop{simulator, fired, hops - 1});
      }
    }
  };
  for (auto _ : state) {
    for (std::size_t i = 0; i < batch; ++i) {
      simulator.ScheduleAtLane(static_cast<std::uint32_t>(i % lanes),
                               simulator.Now() + delays.Next(),
                               Hop{&simulator, &fired, 3});
    }
    simulator.Run();
  }
  benchmark::DoNotOptimize(fired.load());
  state.counters["lanes"] = static_cast<double>(lanes);
  // Every seed event fires itself plus three chained hops.
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch) * 4);
}

/// Parses a comma list of positive integers (empty on malformed input).
std::vector<std::int64_t> ParseLaneList(const std::string& csv) {
  std::vector<std::int64_t> values;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string token =
        csv.substr(start, comma == std::string::npos ? comma : comma - start);
    if (!token.empty()) {
      char* end = nullptr;
      const long long value = std::strtoll(token.c_str(), &end, 10);
      if (end != token.c_str() + token.size() || value <= 0 || value > 64) {
        return {};
      }
      values.push_back(value);
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return values;
}

}  // namespace
}  // namespace dacm::bench

int main(int argc, char** argv) {
  std::vector<std::int64_t> lanes = {1, 2, 4};
  std::vector<char*> passthrough;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--lanes=", 0) == 0) {
      lanes = dacm::bench::ParseLaneList(arg.substr(sizeof("--lanes=") - 1));
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (lanes.empty()) {
    std::fprintf(stderr, "--lanes= needs a comma list of positive integers\n");
    return 1;
  }
  auto* windowed = benchmark::RegisterBenchmark(
                       "BM_LaneWindowedFire", dacm::bench::BM_LaneWindowedFire)
                       ->ArgNames({"batch", "lanes"})
                       ->UseRealTime();  // worker lanes burn CPU off-thread
  for (std::int64_t lane_count : lanes) windowed->Args({8192, lane_count});
  return dacm::bench::BenchMain(static_cast<int>(passthrough.size()),
                                passthrough.data());
}
