// Scheduling and alarm properties of the OSEK-style kernel: drift-free
// periodicity across period sweeps, priority-order execution under every
// activation permutation, bounded pending activations, and the stopped
// callback alarm used by the PIRTE's lazily armed step scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "os/os.hpp"
#include "test_util.hpp"

namespace dacm::os {
namespace {

struct Kernel {
  sim::Simulator simulator;
  Os os{simulator, "ECU"};
};

// --- periodic alarms are drift-free ------------------------------------------------------

class PeriodSweep : public ::testing::TestWithParam<sim::SimTime> {};

TEST_P(PeriodSweep, FiringCountIsExactOverALongHorizon) {
  const sim::SimTime period = GetParam();
  Kernel kernel;
  std::vector<sim::SimTime> fire_times;
  ASSERT_TRUE(kernel.os
                  .CreateCallbackAlarm(
                      "tick",
                      [&]() { fire_times.push_back(kernel.simulator.Now()); },
                      period, period)
                  .ok());
  ASSERT_TRUE(kernel.os.StartOs().ok());
  const sim::SimTime horizon = 10 * sim::kSecond;
  kernel.simulator.RunUntil(horizon);
  // Fires at period, 2*period, ..., floor(horizon/period)*period: exact.
  ASSERT_EQ(fire_times.size(), static_cast<std::size_t>(horizon / period));
  for (std::size_t i = 0; i < fire_times.size(); ++i) {
    EXPECT_EQ(fire_times[i], (i + 1) * period) << "firing " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Periods, PeriodSweep,
                         ::testing::Values(sim::kMillisecond,
                                           7 * sim::kMillisecond,
                                           10 * sim::kMillisecond,
                                           333 * sim::kMillisecond,
                                           sim::kSecond));

// --- priority order under activation permutations -------------------------------------------

class PriorityPermutation
    : public ::testing::TestWithParam<std::vector<int>> {};

TEST_P(PriorityPermutation, ExecutionOrderFollowsPriorityNotActivationOrder) {
  const std::vector<int> activation_order = GetParam();
  Kernel kernel;
  std::vector<int> executed;
  std::vector<TaskId> tasks;
  for (int i = 0; i < static_cast<int>(activation_order.size()); ++i) {
    TaskConfig config;
    config.name = "t";
    config.name += std::to_string(i);
    config.priority = static_cast<std::uint8_t>(10 + i);  // t0 lowest
    config.body = [&executed, i](EventMask) { executed.push_back(i); };
    tasks.push_back(*kernel.os.CreateTask(std::move(config)));
  }
  ASSERT_TRUE(kernel.os.StartOs().ok());
  // Queue every activation before any dispatch happens (same timestamp).
  for (int index : activation_order) {
    ASSERT_TRUE(kernel.os.ActivateTask(tasks[static_cast<std::size_t>(index)]).ok());
  }
  kernel.simulator.Run();
  // Highest priority first, regardless of who was activated first.
  std::vector<int> expected(activation_order.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    expected[i] = static_cast<int>(expected.size()) - 1 - static_cast<int>(i);
  }
  EXPECT_EQ(executed, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Orders, PriorityPermutation,
    ::testing::Values(std::vector<int>{0, 1, 2, 3}, std::vector<int>{3, 2, 1, 0},
                      std::vector<int>{1, 3, 0, 2}, std::vector<int>{2, 0, 3, 1},
                      std::vector<int>{0, 2, 1}, std::vector<int>{1, 0}));

// --- bounded pending activations ----------------------------------------------------------------

class ActivationBound : public ::testing::TestWithParam<std::uint8_t> {};

TEST_P(ActivationBound, PendingActivationsNeverExceedTheDeclaredBound) {
  const std::uint8_t bound = GetParam();
  Kernel kernel;
  int runs = 0;
  TaskConfig config;
  config.name = "bounded";
  config.max_activations = bound;
  config.body = [&runs](EventMask) { ++runs; };
  auto task = *kernel.os.CreateTask(std::move(config));
  ASSERT_TRUE(kernel.os.StartOs().ok());
  int accepted = 0;
  for (int i = 0; i < 3 * bound; ++i) {
    if (kernel.os.ActivateTask(task).ok()) ++accepted;
  }
  EXPECT_EQ(accepted, bound);  // the rest hit E_OS_LIMIT
  kernel.simulator.Run();
  EXPECT_EQ(runs, bound);
  // After draining, the task accepts activations again.
  EXPECT_TRUE(kernel.os.ActivateTask(task).ok());
  kernel.simulator.Run();
  EXPECT_EQ(runs, bound + 1);
}

INSTANTIATE_TEST_SUITE_P(Bounds, ActivationBound,
                         ::testing::Values(1, 2, 5, 8));

// --- stopped callback alarms (the PIRTE step scheduler's primitive) ------------------------------

TEST(StoppedAlarm, NeverFiresUntilArmed) {
  Kernel kernel;
  int fired = 0;
  auto alarm = kernel.os.CreateStoppedCallbackAlarm("idle", [&]() { ++fired; });
  ASSERT_TRUE(alarm.ok());
  ASSERT_TRUE(kernel.os.StartOs().ok());
  kernel.simulator.RunUntil(5 * sim::kSecond);
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(kernel.simulator.Empty()) << "a stopped alarm must not occupy the queue";
}

TEST(StoppedAlarm, ArmedLaterFiresPeriodically) {
  Kernel kernel;
  int fired = 0;
  auto alarm = kernel.os.CreateStoppedCallbackAlarm("lazy", [&]() { ++fired; });
  ASSERT_TRUE(kernel.os.StartOs().ok());
  kernel.simulator.RunUntil(sim::kSecond);
  ASSERT_TRUE(kernel.os.SetRelAlarm(*alarm, 10 * sim::kMillisecond,
                                    10 * sim::kMillisecond)
                  .ok());
  kernel.simulator.RunUntil(kernel.simulator.Now() + 100 * sim::kMillisecond);
  EXPECT_EQ(fired, 10);
}

TEST(StoppedAlarm, SelfCancelInsideCallbackStopsTheSeries) {
  Kernel kernel;
  int fired = 0;
  AlarmId id = AlarmId::Invalid();
  auto alarm = kernel.os.CreateStoppedCallbackAlarm("self-stop", [&]() {
    if (++fired == 3) (void)kernel.os.CancelAlarm(id);
  });
  ASSERT_TRUE(alarm.ok());
  id = *alarm;
  ASSERT_TRUE(kernel.os.StartOs().ok());
  ASSERT_TRUE(
      kernel.os.SetRelAlarm(id, sim::kMillisecond, sim::kMillisecond).ok());
  kernel.simulator.Run();  // terminates because the alarm cancels itself
  EXPECT_EQ(fired, 3);
}

TEST(StoppedAlarm, CancelAndReArmCycles) {
  Kernel kernel;
  int fired = 0;
  auto alarm = kernel.os.CreateStoppedCallbackAlarm("cycle", [&]() { ++fired; });
  ASSERT_TRUE(kernel.os.StartOs().ok());
  for (int cycle = 0; cycle < 4; ++cycle) {
    ASSERT_TRUE(kernel.os
                    .SetRelAlarm(*alarm, 10 * sim::kMillisecond,
                                 10 * sim::kMillisecond)
                    .ok());
    kernel.simulator.RunUntil(kernel.simulator.Now() + 35 * sim::kMillisecond);
    ASSERT_TRUE(kernel.os.CancelAlarm(*alarm).ok());
    const int after_cancel = fired;
    kernel.simulator.RunUntil(kernel.simulator.Now() + 50 * sim::kMillisecond);
    EXPECT_EQ(fired, after_cancel) << "cancelled alarm fired in cycle " << cycle;
  }
  EXPECT_EQ(fired, 12);  // 3 firings per 35 ms window, 4 cycles
}

TEST(StoppedAlarm, ReArmWhileArmedIsRejected) {
  Kernel kernel;
  auto alarm = kernel.os.CreateStoppedCallbackAlarm("dup", []() {});
  ASSERT_TRUE(kernel.os.StartOs().ok());
  ASSERT_TRUE(kernel.os.SetRelAlarm(*alarm, sim::kSecond, sim::kSecond).ok());
  EXPECT_FALSE(kernel.os.SetRelAlarm(*alarm, sim::kSecond, sim::kSecond).ok());
}

// --- cross-cutting: alarms + tasks -----------------------------------------------------------------

TEST(AlarmTaskInterplay, PeriodicTaskKeepsCadenceWhileLowPriorityFloods) {
  Kernel kernel;
  int control_runs = 0;
  TaskConfig control;
  control.name = "control";
  control.priority = 10;
  control.execution_time = 100 * sim::kMicrosecond;
  control.body = [&](EventMask) { ++control_runs; };
  auto control_task = *kernel.os.CreateTask(std::move(control));

  TaskConfig noise;
  noise.name = "noise";
  noise.priority = 1;
  noise.max_activations = 8;
  noise.execution_time = 400 * sim::kMicrosecond;
  noise.body = [](EventMask) {};
  auto noise_task = *kernel.os.CreateTask(std::move(noise));

  ASSERT_TRUE(kernel.os
                  .CreateTaskAlarm("control.tick", control_task,
                                   10 * sim::kMillisecond, 10 * sim::kMillisecond)
                  .ok());
  ASSERT_TRUE(kernel.os
                  .CreateCallbackAlarm(
                      "noise.flood",
                      [&]() { (void)kernel.os.ActivateTask(noise_task); },
                      sim::kMillisecond, sim::kMillisecond)
                  .ok());
  ASSERT_TRUE(kernel.os.StartOs().ok());
  kernel.simulator.RunUntil(sim::kSecond);
  // 100 control periods in 1 s; allow one lost to end-of-horizon dispatch.
  EXPECT_GE(control_runs, 99);
}

// --- randomized scheduling fuzz ---------------------------------------------------------------

TEST(SchedulerFuzz, RandomPrioritiesAndActivationOrdersAlwaysDispatchByPriority) {
  DACM_PROPERTY_RNG(rng);
  for (int round = 0; round < 24; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    const int count = static_cast<int>(rng.NextInRange(2, 8));
    // A random permutation of distinct priorities 10..10+count-1.
    std::vector<std::uint8_t> priorities;
    for (int i = 0; i < count; ++i) {
      priorities.push_back(static_cast<std::uint8_t>(10 + i));
    }
    testutil::Shuffle(rng, priorities);
    Kernel kernel;
    std::vector<std::uint8_t> executed;
    std::vector<TaskId> tasks;
    for (int i = 0; i < count; ++i) {
      TaskConfig config;
      config.name = "t";
      config.name += std::to_string(i);
      config.priority = priorities[static_cast<std::size_t>(i)];
      config.body = [&executed, priority = priorities[static_cast<std::size_t>(i)]](
                        EventMask) { executed.push_back(priority); };
      tasks.push_back(*kernel.os.CreateTask(std::move(config)));
    }
    ASSERT_TRUE(kernel.os.StartOs().ok());
    // Activate everyone at the same timestamp, in a second random order.
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < tasks.size(); ++i) order.push_back(i);
    testutil::Shuffle(rng, order);
    for (std::size_t index : order) {
      ASSERT_TRUE(kernel.os.ActivateTask(tasks[index]).ok());
    }
    kernel.simulator.Run();
    std::vector<std::uint8_t> expected = executed;
    std::sort(expected.rbegin(), expected.rend());
    EXPECT_EQ(executed, expected);
    EXPECT_EQ(executed.size(), static_cast<std::size_t>(count));
  }
}

}  // namespace
}  // namespace dacm::os
