// FIG1-B — VM sandboxing cost (paper Figure 1, §3.1.1).
//
// The paper runs plug-ins in a VM "under a best effort scheme, avoiding
// competition for resources with the built-in functionality".  This
// benchmark quantifies the three costs of that choice:
//
//   * interpretation overhead: PVM-executed arithmetic vs the same loop
//     native (who pays for portability);
//   * fuel-budget enforcement: activation cost when the budget is hit
//     (the isolation mechanism itself);
//   * plug-in count scaling inside one SW-C: N step-scheduled plug-ins
//     sharing one VM task.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "vm/assembler.hpp"

namespace dacm::bench {
namespace {

class NullEnv final : public vm::PortEnv {
 public:
  support::Result<support::Bytes> ReadPort(std::uint8_t) override {
    return support::Bytes{};
  }
  support::Status WritePort(std::uint8_t, std::span<const std::uint8_t>) override {
    return support::OkStatus();
  }
  bool PortAvailable(std::uint8_t) override { return false; }
  std::uint32_t ClockMs() override { return 0; }
};

// Native baseline: the spin loop the PVM kernel below encodes.
void BM_NativeSpinLoop(benchmark::State& state) {
  const std::int32_t iterations = static_cast<std::int32_t>(state.range(0));
  for (auto _ : state) {
    std::int32_t counter = iterations;
    while (counter != 0) counter = counter - 1;
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * iterations);
}
BENCHMARK(BM_NativeSpinLoop)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

// The same loop interpreted by the PVM (~6 instructions per turn).
void BM_VmSpinLoop(benchmark::State& state) {
  const std::uint32_t iterations = static_cast<std::uint32_t>(state.range(0));
  auto program = vm::Program::Deserialize(fes::MakeSpinPluginBinary(iterations));
  NullEnv env;
  vm::VmLimits limits;
  limits.fuel_per_activation = 10'000'000;  // never the limiter here
  vm::VmInstance instance(*program, env, limits);
  for (auto _ : state) {
    auto result = instance.Run("on_data");
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * iterations);
  state.counters["fuel_per_run"] =
      static_cast<double>(instance.total_fuel_used()) /
      static_cast<double>(instance.activations());
}
BENCHMARK(BM_VmSpinLoop)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

// Fuel exhaustion: an unbounded loop cut off by the budget.  The cost of
// one confined activation is the budget itself — this is what a hostile
// plug-in can extract per activation, no more.
void BM_VmFuelExhaustion(benchmark::State& state) {
  auto program = vm::Program::Deserialize(fes::AssembleOrDie(R"(
    .entry on_data spin
    spin:
    loop: JMP loop
  )"));
  NullEnv env;
  vm::VmLimits limits;
  limits.fuel_per_activation = static_cast<std::uint64_t>(state.range(0));
  vm::VmInstance instance(*program, env, limits);
  std::uint64_t exhausted = 0;
  for (auto _ : state) {
    auto result = instance.Run("on_data");
    if (result.ok() && result->outcome == vm::ExecOutcome::kFuelExhausted) {
      ++exhausted;
    }
  }
  state.counters["exhaustions"] =
      benchmark::Counter(static_cast<double>(exhausted));
  state.SetItemsProcessed(state.iterations() * state.range(0));  // fuel burned
}
BENCHMARK(BM_VmFuelExhaustion)->Arg(1000)->Arg(10000)->Arg(100000);

// N step-scheduled plug-ins inside one SW-C: simulated cost of one full
// step round (the periodic tick enqueues N activations on the VM task).
void BM_PluginCountStepRound(benchmark::State& state) {
  const int plugins = static_cast<int>(state.range(0));
  BenchStack stack(/*max_plugins=*/64);
  for (int i = 0; i < plugins; ++i) {
    // Appended: GCC 12 -O3 flags `"p" + std::to_string(i)` with a false
    // -Wrestrict (GCC bug 105651).
    std::string name = "p";
    name += std::to_string(i);
    stack.Install(MakePackage(
        name, fes::MakeSpinPluginBinary(10),
        {{0, "in", static_cast<std::uint8_t>(i),
          pirte::PluginPortDirection::kRequired}}));
  }
  // Drive rounds by hand: deliver one tick's worth of work per iteration.
  for (auto _ : state) {
    for (int i = 0; i < plugins; ++i) {
      (void)stack.pirte->DeliverToPluginPortByUnique(
          static_cast<std::uint8_t>(i), support::Bytes{1});
    }
    stack.simulator.Run();
  }
  state.SetItemsProcessed(state.iterations() * plugins);
  state.counters["vm_activations"] = benchmark::Counter(
      static_cast<double>(stack.pirte->stats().vm_activations));
}
BENCHMARK(BM_PluginCountStepRound)->Arg(1)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

}  // namespace
}  // namespace dacm::bench

DACM_BENCH_MAIN();
