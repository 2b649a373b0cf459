// Plug-in population properties of one PIRTE: quota enforcement, id-space
// integrity, fault independence, lifecycle sweeps, and persistence of
// whole populations across ECU reboots.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "bsw/nvm.hpp"
#include "fes/appgen.hpp"
#include "fes/ecu.hpp"
#include "pirte/pirte.hpp"
#include "test_util.hpp"

namespace dacm::pirte {
namespace {

/// "p<index>", the swarm's plug-in names.  Appended rather than written
/// as `"p" + std::to_string(index)`, which GCC 12 at -O3 rejects with a
/// false -Werror=restrict (GCC bug 105651).
std::string PluginName(int index) {
  std::string name = "p";
  name += std::to_string(index);
  return name;
}

/// Minimal single-ECU stack: one plug-in SW-C with a Type III out port
/// (V4) facing a harness port; rebuildable over an external Nvm.
struct SwarmStack {
  sim::Simulator simulator;
  sim::CanBus bus{simulator, 500'000};
  fes::Ecu ecu{simulator, bus, 1, "ECU1"};
  std::unique_ptr<Pirte> pirte;
  rte::PortId mon_act = rte::PortId::Invalid();

  explicit SwarmStack(bsw::Nvm& nvm, std::size_t max_plugins = 16,
                      std::size_t max_binary = 64 * 1024) {
    rte::Rte& rte = ecu.ecu_rte();
    auto plug_swc = *rte.AddSwc("Plug");
    auto harness_swc = *rte.AddSwc("Harness");
    rte::PortConfig act_config;
    act_config.name = "ActReq";
    act_config.direction = rte::PortDirection::kProvided;
    act_config.max_len = 256;
    auto act_out = *rte.AddPort(plug_swc, std::move(act_config));
    rte::PortConfig mon_config;
    mon_config.name = "mon.act";
    mon_config.direction = rte::PortDirection::kRequired;
    mon_config.max_len = 256;
    mon_act = *rte.AddPort(harness_swc, std::move(mon_config));
    EXPECT_TRUE(rte.ConnectLocal(act_out, mon_act).ok());

    PirteConfig config;
    config.name = "P1";
    config.ecu_id = 1;
    config.swc = plug_swc;
    config.max_plugins = max_plugins;
    config.max_binary_size = max_binary;
    config.nv_block = [&nvm]() {
      auto existing = nvm.FindBlock("pirte.P1");
      if (existing.ok()) return *existing;
      return *nvm.DefineBlock("pirte.P1", 1 << 20);
    }();
    VirtualPortConfig v4;
    v4.id = 4;
    v4.name = "ActReq";
    v4.kind = VirtualPortKind::kTypeIII;
    v4.swc_out = act_out;
    config.virtual_ports.push_back(v4);

    pirte = std::make_unique<Pirte>(rte, &nvm, &ecu.dem(), std::move(config));
    EXPECT_TRUE(pirte->Init().ok());
    EXPECT_TRUE(ecu.Start().ok());
    simulator.Run();
  }

  InstallationPackage EchoPackage(int index) {
    return testutil::MakeEchoLoopbackPackage(
        PluginName(index), static_cast<std::uint8_t>(2 * index),
        static_cast<std::uint8_t>(2 * index + 1));
  }

  void Poke(int index) {
    (void)pirte->DeliverToPluginPortByUnique(static_cast<std::uint8_t>(2 * index),
                                             support::Bytes{std::uint8_t(index)});
    simulator.Run();
  }
};

class Swarm : public ::testing::TestWithParam<int> {};

TEST_P(Swarm, PopulationInstallsRunsAndDrainsCompletely) {
  const int count = GetParam();
  bsw::Nvm nvm;
  SwarmStack stack(nvm, /*max_plugins=*/64);
  for (int i = 0; i < count; ++i) {
    ASSERT_TRUE(stack.pirte->Install(stack.EchoPackage(i)).ok()) << i;
  }
  stack.simulator.Run();
  EXPECT_EQ(stack.pirte->InstalledPluginNames().size(),
            static_cast<std::size_t>(count));

  // Every member reacts independently.
  for (int i = 0; i < count; ++i) stack.Poke(i);
  EXPECT_EQ(stack.pirte->stats().vm_activations,
            static_cast<std::uint64_t>(count));

  for (int i = 0; i < count; ++i) {
    ASSERT_TRUE(stack.pirte->Uninstall(PluginName(i)).ok());
  }
  EXPECT_TRUE(stack.pirte->InstalledPluginNames().empty());
  EXPECT_EQ(stack.pirte->stats().uninstalls, static_cast<std::uint64_t>(count));
}

TEST_P(Swarm, WholePopulationSurvivesReboot) {
  const int count = GetParam();
  bsw::Nvm nvm;
  {
    SwarmStack stack(nvm, /*max_plugins=*/64);
    for (int i = 0; i < count; ++i) {
      ASSERT_TRUE(stack.pirte->Install(stack.EchoPackage(i)).ok());
    }
    stack.simulator.Run();
  }  // ECU power-off
  SwarmStack rebooted(nvm, /*max_plugins=*/64);
  EXPECT_EQ(rebooted.pirte->InstalledPluginNames().size(),
            static_cast<std::size_t>(count));
  // Revived plug-ins are functional, not just listed.
  for (int i = 0; i < count; ++i) rebooted.Poke(i);
  EXPECT_EQ(rebooted.pirte->stats().vm_activations,
            static_cast<std::uint64_t>(count));
}

TEST_P(Swarm, OneTrappingMemberLeavesTheRestUntouched) {
  const int count = GetParam();
  bsw::Nvm nvm;
  SwarmStack stack(nvm, /*max_plugins=*/64);
  for (int i = 0; i < count; ++i) {
    ASSERT_TRUE(stack.pirte->Install(stack.EchoPackage(i)).ok());
  }
  // Replace member 0's healthy binary with a trap bomb.
  ASSERT_TRUE(stack.pirte->Uninstall("p0").ok());
  auto bomb = stack.EchoPackage(0);
  bomb.binary = fes::MakeTrapPluginBinary();
  ASSERT_TRUE(stack.pirte->Install(bomb).ok());
  stack.simulator.Run();

  for (int i = 0; i < count; ++i) stack.Poke(i);
  EXPECT_EQ(stack.pirte->FindPlugin("p0")->state(), PluginState::kFaulted);
  for (int i = 1; i < count; ++i) {
    EXPECT_EQ(stack.pirte->FindPlugin(PluginName(i))->state(),
              PluginState::kRunning)
        << i;
  }
  EXPECT_EQ(stack.pirte->stats().vm_faults, 1u);
}

TEST_P(Swarm, StopStartSweepKeepsStatesIndependent) {
  const int count = GetParam();
  bsw::Nvm nvm;
  SwarmStack stack(nvm, /*max_plugins=*/64);
  for (int i = 0; i < count; ++i) {
    ASSERT_TRUE(stack.pirte->Install(stack.EchoPackage(i)).ok());
  }
  stack.simulator.Run();
  // Stop every second plug-in.
  for (int i = 0; i < count; i += 2) {
    ASSERT_TRUE(stack.pirte->Stop(PluginName(i)).ok());
  }
  for (int i = 0; i < count; ++i) stack.Poke(i);
  // Only running members reacted.
  EXPECT_EQ(stack.pirte->stats().vm_activations,
            static_cast<std::uint64_t>(count / 2));
  // Restart and poke again: everyone reacts now.
  for (int i = 0; i < count; i += 2) {
    ASSERT_TRUE(stack.pirte->Start(PluginName(i)).ok());
  }
  for (int i = 0; i < count; ++i) stack.Poke(i);
  EXPECT_EQ(stack.pirte->stats().vm_activations,
            static_cast<std::uint64_t>(count / 2 + count));
}

INSTANTIATE_TEST_SUITE_P(Sizes, Swarm, ::testing::Values(1, 2, 5, 12, 24));

// --- seeded mux fuzz ---------------------------------------------------------------
//
// Random interleavings of port deliveries (mapped and unmapped unique
// ids, both port directions) with lifecycle transitions, checked against
// an exact reference model of the PIRTE mux:
//   * a delivery succeeds iff some installed plug-in owns the unique id;
//   * it activates the VM iff that plug-in is running (stopped members
//     buffer the value silently);
//   * Stop/Start/Install/Uninstall succeed exactly per the lifecycle
//     rules, and the population never cross-talks.
// Set DACM_TEST_SEED to replay.
TEST(SwarmFuzz, RandomMuxAndLifecycleInterleavingsMatchReferenceModel) {
  DACM_PROPERTY_RNG(rng);
  constexpr int kPlugins = 10;
  bsw::Nvm nvm;
  SwarmStack stack(nvm, /*max_plugins=*/64);

  struct Model {
    bool installed = false;
    bool running = false;
  };
  std::vector<Model> model(kPlugins);
  std::uint64_t expected_activations = 0;
  std::uint64_t expected_installs = 0;
  std::uint64_t expected_uninstalls = 0;

  for (int i = 0; i < kPlugins; ++i) {
    ASSERT_TRUE(stack.pirte->Install(stack.EchoPackage(i)).ok());
    model[i] = {true, true};
    ++expected_installs;
  }
  stack.simulator.Run();

  for (int op = 0; op < 500; ++op) {
    SCOPED_TRACE(::testing::Message() << "op " << op);
    const int plugin = static_cast<int>(rng.NextBelow(kPlugins));
    const std::string name = PluginName(plugin);
    switch (rng.NextBelow(8)) {
      case 0:
      case 1:
      case 2:
      case 3: {
        // Deliver to a random unique id: mapped in-port (2i), mapped
        // out-port (2i+1), or unmapped ids beyond the population.
        const auto uid = static_cast<std::uint8_t>(rng.NextBelow(2 * kPlugins + 4));
        support::Bytes payload(rng.NextBelow(24));
        for (auto& byte : payload) byte = static_cast<std::uint8_t>(rng.NextU64());
        const int owner = uid / 2;
        const bool mapped = owner < kPlugins && model[owner].installed;
        auto status = stack.pirte->DeliverToPluginPortByUnique(uid, payload);
        EXPECT_EQ(status.ok(), mapped) << status.ToString();
        if (mapped && model[owner].running) ++expected_activations;
        break;
      }
      case 4: {
        auto status = stack.pirte->Stop(name);
        EXPECT_EQ(status.ok(), model[plugin].installed && model[plugin].running)
            << status.ToString();
        if (status.ok()) model[plugin].running = false;
        break;
      }
      case 5: {
        auto status = stack.pirte->Start(name);
        EXPECT_EQ(status.ok(), model[plugin].installed && !model[plugin].running)
            << status.ToString();
        if (status.ok()) model[plugin].running = true;
        break;
      }
      case 6: {
        auto status = stack.pirte->Uninstall(name);
        EXPECT_EQ(status.ok(), model[plugin].installed) << status.ToString();
        if (status.ok()) {
          model[plugin] = {false, false};
          ++expected_uninstalls;
        }
        break;
      }
      case 7: {
        auto status = stack.pirte->Install(stack.EchoPackage(plugin));
        // Reinstalling a live name must be rejected; a fresh install runs.
        EXPECT_EQ(status.ok(), !model[plugin].installed) << status.ToString();
        if (status.ok()) {
          model[plugin] = {true, true};
          ++expected_installs;
        }
        break;
      }
    }
    stack.simulator.Run();
  }

  // The storm must leave the mux fully consistent with the model.
  const auto& stats = stack.pirte->stats();
  EXPECT_EQ(stats.vm_activations, expected_activations);
  EXPECT_EQ(stats.installs, expected_installs);
  EXPECT_EQ(stats.uninstalls, expected_uninstalls);
  EXPECT_EQ(stats.vm_faults, 0u);
  std::size_t expected_population = 0;
  for (int i = 0; i < kPlugins; ++i) {
    if (model[i].installed) ++expected_population;
    auto* instance = stack.pirte->FindPlugin(PluginName(i));
    ASSERT_EQ(instance != nullptr, model[i].installed) << i;
    if (instance != nullptr) {
      EXPECT_EQ(instance->state() == PluginState::kRunning, model[i].running) << i;
    }
  }
  EXPECT_EQ(stack.pirte->InstalledPluginNames().size(), expected_population);

  // And still route: every running member reacts to one more poke.
  const std::uint64_t before = stack.pirte->stats().vm_activations;
  std::uint64_t still_running = 0;
  for (int i = 0; i < kPlugins; ++i) {
    if (model[i].installed) {
      stack.Poke(i);
      if (model[i].running) ++still_running;
    }
  }
  EXPECT_EQ(stack.pirte->stats().vm_activations, before + still_running);
}

// --- quotas ------------------------------------------------------------------------------

TEST(SwarmQuota, PluginCountQuotaIsExact) {
  bsw::Nvm nvm;
  SwarmStack stack(nvm, /*max_plugins=*/4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(stack.pirte->Install(stack.EchoPackage(i)).ok());
  }
  EXPECT_EQ(stack.pirte->Install(stack.EchoPackage(4)).code(),
            support::ErrorCode::kResourceExhausted);
  // Freeing one slot re-admits exactly one.
  ASSERT_TRUE(stack.pirte->Uninstall("p0").ok());
  EXPECT_TRUE(stack.pirte->Install(stack.EchoPackage(4)).ok());
  EXPECT_EQ(stack.pirte->Install(stack.EchoPackage(5)).code(),
            support::ErrorCode::kResourceExhausted);
}

TEST(SwarmQuota, BinarySizeQuotaEnforced) {
  bsw::Nvm nvm;
  SwarmStack stack(nvm, 16, /*max_binary=*/64);
  auto package = stack.EchoPackage(0);
  EXPECT_GT(package.binary.size(), 64u);  // echo binary exceeds tiny quota
  EXPECT_EQ(stack.pirte->Install(package).code(),
            support::ErrorCode::kCapacityExceeded);
}

TEST(SwarmQuota, UniqueIdClashAcrossPluginsRejected) {
  bsw::Nvm nvm;
  SwarmStack stack(nvm);
  ASSERT_TRUE(stack.pirte->Install(stack.EchoPackage(0)).ok());
  auto clash = stack.EchoPackage(1);
  clash.pic.entries[0].unique_id = 0;  // taken by p0's "in"
  EXPECT_EQ(stack.pirte->Install(clash).code(), support::ErrorCode::kIncompatible);
  // After removing the holder the id is installable again.
  ASSERT_TRUE(stack.pirte->Uninstall("p0").ok());
  EXPECT_TRUE(stack.pirte->Install(clash).ok());
}

TEST(SwarmQuota, ReinstallSameNameRequiresUninstall) {
  bsw::Nvm nvm;
  SwarmStack stack(nvm);
  ASSERT_TRUE(stack.pirte->Install(stack.EchoPackage(0)).ok());
  EXPECT_EQ(stack.pirte->Install(stack.EchoPackage(0)).code(),
            support::ErrorCode::kAlreadyExists);
}

}  // namespace
}  // namespace dacm::pirte
