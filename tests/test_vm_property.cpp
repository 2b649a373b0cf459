// Property tests on the PVM: algebraic identities of the ALU over an
// adversarial value grid, fuel monotonicity, serialization round-trips
// for generated programs, corruption rejection, and I/O window bounds.
#include <gtest/gtest.h>

#include <climits>

#include "support/crc.hpp"
#include "test_util.hpp"
#include "vm/assembler.hpp"
#include "vm/interpreter.hpp"

namespace dacm::vm {
namespace {

/// A default-constructed ScriptedVmEnv is exactly the null environment
/// these algebra tests need: no ports, clock pinned to zero.
using NullEnv = testutil::ScriptedVmEnv;

/// Runs an assembled `main` entry and returns register 1.
std::int32_t Eval(const std::string& body) {
  auto program = Assemble(".entry main m\nm:\n" + body + "\nSTORE 1\nHALT\n");
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  NullEnv env;
  VmInstance instance(*program, env, {});
  auto result = instance.Run("main");
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, ExecOutcome::kHalted);
  return instance.Register(1);
}

// The adversarial operand grid: zeros, ones, sign boundaries.
const std::int32_t kGrid[] = {0,       1,        -1,      2,
                              -2,      127,      -128,    32767,
                              INT_MAX, INT_MIN,  1000000, -999999};

struct PairCase {
  std::int32_t a;
  std::int32_t b;
};

std::vector<PairCase> GridPairs() {
  std::vector<PairCase> pairs;
  for (std::int32_t a : kGrid) {
    for (std::int32_t b : kGrid) pairs.push_back({a, b});
  }
  return pairs;
}

class AluIdentity : public ::testing::TestWithParam<PairCase> {};

TEST_P(AluIdentity, AddCommutes) {
  const auto [a, b] = GetParam();
  const std::string ab = "PUSH " + std::to_string(a) + "\nPUSH " +
                         std::to_string(b) + "\nADD\n";
  const std::string ba = "PUSH " + std::to_string(b) + "\nPUSH " +
                         std::to_string(a) + "\nADD\n";
  EXPECT_EQ(Eval(ab), Eval(ba));
}

TEST_P(AluIdentity, AddThenSubRestores) {
  const auto [a, b] = GetParam();
  // ((a + b) - b) == a under two's-complement wraparound, always.
  const std::string source = "PUSH " + std::to_string(a) + "\nPUSH " +
                             std::to_string(b) + "\nADD\nPUSH " +
                             std::to_string(b) + "\nSUB\n";
  EXPECT_EQ(Eval(source), a);
}

TEST_P(AluIdentity, XorTwiceRestores) {
  const auto [a, b] = GetParam();
  const std::string source = "PUSH " + std::to_string(a) + "\nPUSH " +
                             std::to_string(b) + "\nXOR\nPUSH " +
                             std::to_string(b) + "\nXOR\n";
  EXPECT_EQ(Eval(source), a);
}

TEST_P(AluIdentity, ComparisonsAreConsistent) {
  const auto [a, b] = GetParam();
  auto source = [&](const char* op) {
    return "PUSH " + std::to_string(a) + "\nPUSH " + std::to_string(b) + "\n" +
           op + "\n";
  };
  const std::int32_t eq = Eval(source("CMPEQ"));
  const std::int32_t lt = Eval(source("CMPLT"));
  const std::int32_t gt = Eval(source("CMPGT"));
  EXPECT_EQ(eq, a == b ? 1 : 0);
  EXPECT_EQ(lt, a < b ? 1 : 0);
  EXPECT_EQ(gt, a > b ? 1 : 0);
  EXPECT_EQ(eq + lt + gt, 1) << "exactly one of ==, <, > must hold";
}

TEST_P(AluIdentity, DivModReconstruct) {
  const auto [a, b] = GetParam();
  if (b == 0) return;                      // division traps, covered elsewhere
  if (a == INT_MIN && b == -1) return;     // overflow faults, covered elsewhere
  const std::string div = "PUSH " + std::to_string(a) + "\nPUSH " +
                          std::to_string(b) + "\nDIV\n";
  const std::string mod = "PUSH " + std::to_string(a) + "\nPUSH " +
                          std::to_string(b) + "\nMOD\n";
  const std::int32_t q = Eval(div);
  const std::int32_t r = Eval(mod);
  EXPECT_EQ(q * b + r, a);
}

INSTANTIATE_TEST_SUITE_P(Grid, AluIdentity, ::testing::ValuesIn(GridPairs()));

// Random operands beyond the grid: the same identities must hold for any
// 32-bit pair, under two's-complement wraparound.
TEST(AluFuzz, IdentitiesHoldForRandomOperands) {
  DACM_PROPERTY_RNG(rng);
  for (int i = 0; i < 48; ++i) {
    const auto a = static_cast<std::int32_t>(rng.NextU64());
    const auto b = static_cast<std::int32_t>(rng.NextU64());
    SCOPED_TRACE(::testing::Message() << "a=" << a << " b=" << b);
    const std::string push_ab = "PUSH " + std::to_string(a) + "\nPUSH " +
                                std::to_string(b) + "\n";
    const std::string push_ba = "PUSH " + std::to_string(b) + "\nPUSH " +
                                std::to_string(a) + "\n";
    EXPECT_EQ(Eval(push_ab + "ADD\n"), Eval(push_ba + "ADD\n"));
    EXPECT_EQ(Eval(push_ab + "XOR\nPUSH " + std::to_string(b) + "\nXOR\n"), a);
    EXPECT_EQ(Eval(push_ab + "ADD\nPUSH " + std::to_string(b) + "\nSUB\n"), a);
    const std::int32_t eq = Eval(push_ab + "CMPEQ\n");
    const std::int32_t lt = Eval(push_ab + "CMPLT\n");
    const std::int32_t gt = Eval(push_ab + "CMPGT\n");
    EXPECT_EQ(eq + lt + gt, 1) << "exactly one of ==, <, > must hold";
  }
}

// --- fuel ------------------------------------------------------------------------

class FuelMonotonic : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(FuelMonotonic, FuelGrowsWithWork) {
  const std::uint32_t turns = GetParam();
  auto loop = [&](std::uint32_t n) {
    auto program = Assemble(R"(
      .entry main m
      m:
        PUSH )" + std::to_string(n) + R"(
        STORE 1
      loop:
        LOAD 1
        JZ end
        LOAD 1
        PUSH 1
        SUB
        STORE 1
        JMP loop
      end:
        HALT
    )");
    EXPECT_TRUE(program.ok());
    NullEnv env;
    VmLimits limits;
    limits.fuel_per_activation = 10'000'000;
    VmInstance instance(*program, env, limits);
    auto result = instance.Run("main");
    EXPECT_TRUE(result.ok());
    return result->fuel_used;
  };
  EXPECT_GT(loop(turns + 1), loop(turns));
  // Fuel is linear in loop turns: per-turn cost is constant.
  const auto f1 = loop(turns);
  const auto f2 = loop(2 * turns);
  const auto per_turn = (f2 - f1) / turns;
  EXPECT_EQ(f2 - f1, per_turn * turns);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FuelMonotonic,
                         ::testing::Values(1, 5, 32, 100, 500));

// --- serialization robustness -----------------------------------------------------

class TruncationSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TruncationSweep, EveryPrefixOfAProgramIsRejected) {
  auto program = Assemble(R"(
    .entry on_data a
    .entry step b
    a: PUSH 1
       STORE 1
       HALT
    b: LOAD 1
       HALT
  )");
  ASSERT_TRUE(program.ok());
  const support::Bytes wire = program->Serialize();
  const std::size_t cut = GetParam();
  if (cut >= wire.size()) GTEST_SKIP() << "binary shorter than cut";
  const support::Bytes truncated(wire.begin(),
                                 wire.begin() + static_cast<std::ptrdiff_t>(cut));
  EXPECT_FALSE(Program::Deserialize(truncated).ok()) << "prefix length " << cut;
}

INSTANTIATE_TEST_SUITE_P(Cuts, TruncationSweep,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 7, 8, 11, 16, 23,
                                           31, 40, 47));

TEST(ProgramRoundTrip, ManyEntriesSurvive) {
  std::string source;
  for (int i = 0; i < 32; ++i) {
    source += ".entry e" + std::to_string(i) + " l" + std::to_string(i) + "\n";
  }
  for (int i = 0; i < 32; ++i) {
    source += "l";
    source += std::to_string(i);
    source += ": PUSH ";
    source += std::to_string(i);
    source += "\nSTORE 1\nHALT\n";
  }
  auto program = Assemble(source);
  ASSERT_TRUE(program.ok());
  auto round = Program::Deserialize(program->Serialize());
  ASSERT_TRUE(round.ok());
  ASSERT_EQ(round->entries.size(), 32u);
  NullEnv env;
  VmInstance instance(*round, env, {});
  for (int i = 0; i < 32; ++i) {
    auto result = instance.Run("e" + std::to_string(i));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(instance.Register(1), i);
  }
}

TEST(ProgramRoundTrip, RandomProgramsSurviveScatterFreeParse) {
  DACM_PROPERTY_RNG(rng);
  for (int iter = 0; iter < 64; ++iter) {
    Program program;
    program.register_count = 129 + static_cast<std::uint32_t>(rng.NextBelow(512));
    const std::size_t entry_count = rng.NextBelow(65);
    const std::size_t code_size = 1 + rng.NextBelow(4096);
    program.code.resize(code_size);
    for (auto& byte : program.code) byte = static_cast<std::uint8_t>(rng.NextU64());
    for (std::size_t i = 0; i < entry_count; ++i) {
      EntryPoint entry;
      // Name lengths straddle the SSO boundary so both the alloc-free and
      // the allocating name path are exercised.
      const std::size_t name_len = 1 + rng.NextBelow(40);
      for (std::size_t c = 0; c < name_len; ++c) {
        entry.name += static_cast<char>('a' + rng.NextBelow(26));
      }
      entry.pc = static_cast<std::uint32_t>(rng.NextBelow(code_size));
      program.entries.push_back(std::move(entry));
    }

    const auto wire = program.Serialize();
    auto round = Program::Deserialize(wire);
    ASSERT_TRUE(round.ok()) << round.status().ToString();
    EXPECT_EQ(round->register_count, program.register_count);
    EXPECT_EQ(round->code, program.code);
    ASSERT_EQ(round->entries.size(), program.entries.size());
    for (std::size_t i = 0; i < entry_count; ++i) {
      EXPECT_EQ(round->entries[i].name, program.entries[i].name);
      EXPECT_EQ(round->entries[i].pc, program.entries[i].pc);
    }

    // A random corruption or truncation must never crash the parser; an
    // out-of-code entry pc must be rejected.
    auto corrupted = wire;
    if (rng.NextBool(0.5) && !corrupted.empty()) {
      corrupted.resize(rng.NextBelow(corrupted.size()));
    } else {
      corrupted[rng.NextBelow(corrupted.size())] ^=
          static_cast<std::uint8_t>(1 + rng.NextBelow(255));
    }
    (void)Program::Deserialize(corrupted);  // must not crash / UB (ASan run)
    if (!program.entries.empty()) {
      Program bad = program;
      bad.entries[rng.NextBelow(entry_count)].pc =
          static_cast<std::uint32_t>(code_size + rng.NextBelow(100));
      EXPECT_FALSE(Program::Deserialize(bad.Serialize()).ok());
    }
  }
}

// --- I/O window bounds ---------------------------------------------------------------

class EchoEnv final : public PortEnv {
 public:
  support::Result<support::Bytes> ReadPort(std::uint8_t) override { return in; }
  support::Status WritePort(std::uint8_t, std::span<const std::uint8_t> data) override {
    out.assign(data.begin(), data.end());
    return support::OkStatus();
  }
  bool PortAvailable(std::uint8_t) override { return !in.empty(); }
  std::uint32_t ClockMs() override { return 0; }

  support::Bytes in;
  support::Bytes out;
};

class IoWindowSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(IoWindowSweep, ReadThenWritePreservesPayloadUpToWindow) {
  const std::size_t size = GetParam();
  auto program = Assemble(R"(
    .entry on_data m
    m:
      READP 0
      STORE 1      ; reported length
      WRITEP 1 )" + std::to_string(std::min<std::size_t>(size, kIoWindowSize)) + R"(
      HALT
  )");
  ASSERT_TRUE(program.ok());
  EchoEnv env;
  env.in.resize(size);
  for (std::size_t i = 0; i < size; ++i) {
    env.in[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  VmInstance instance(*program, env, {});
  auto result = instance.Run("on_data");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->outcome, ExecOutcome::kHalted);
  const std::size_t visible = std::min<std::size_t>(size, kIoWindowSize);
  // Reported length is clamped to the window.
  EXPECT_EQ(static_cast<std::size_t>(instance.Register(1)), visible);
  ASSERT_EQ(env.out.size(), visible);
  for (std::size_t i = 0; i < visible; ++i) {
    EXPECT_EQ(env.out[i], env.in[i]) << "byte " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, IoWindowSweep,
                         ::testing::Values(0, 1, 2, 7, 8, 64, 127, 128, 129,
                                           200));

// --- dispatch differential ----------------------------------------------------------
//
// The interpreter compiles its loop twice: computed-goto threaded dispatch
// and the portable switch loop.  Both must agree on every observable —
// outcome, fuel, trap code, fault text, final registers, port writes — for
// arbitrary (including invalid) programs.

/// A random instruction stream: mostly well-formed instructions with random
/// operands (wild jump targets included), salted with raw garbage bytes so
/// bad opcodes and truncated immediates are exercised too.
support::Bytes RandomProgramCode(sim::Rng& rng) {
  support::Bytes code;
  const std::size_t instructions = 1 + rng.NextBelow(48);
  for (std::size_t i = 0; i < instructions; ++i) {
    if (rng.NextBool(0.08)) {  // raw chaos
      code.push_back(static_cast<std::uint8_t>(rng.NextU64()));
      continue;
    }
    const auto op = static_cast<Op>(rng.NextBelow(static_cast<std::uint64_t>(Op::kTrap) + 1));
    code.push_back(static_cast<std::uint8_t>(op));
    auto emit = [&](std::size_t bytes) {
      // Occasionally drop immediate bytes to hit the truncation faults.
      if (rng.NextBool(0.05)) bytes = rng.NextBelow(bytes);
      for (std::size_t b = 0; b < bytes; ++b) {
        code.push_back(static_cast<std::uint8_t>(rng.NextU64()));
      }
    };
    switch (op) {
      case Op::kPush: emit(4); break;
      case Op::kJmp: case Op::kJz: case Op::kJnz: case Op::kCall: emit(2); break;
      case Op::kLoad: case Op::kStore: case Op::kReadP: case Op::kAvailP:
      case Op::kTrap: emit(1); break;
      case Op::kWriteP: emit(2); break;
      default: break;
    }
  }
  return code;
}

TEST(DispatchDifferential, ThreadedAndSwitchLoopsAgreeOnRandomPrograms) {
  if (!VmInstance::ThreadedDispatchAvailable()) {
    GTEST_SKIP() << "threaded dispatch not compiled in; differential is vacuous";
  }
  DACM_PROPERTY_RNG(rng);
  for (int iter = 0; iter < 300; ++iter) {
    Program program;
    program.register_count = 256;
    program.code = RandomProgramCode(rng);

    // A scripted environment with data on a few ports; both instances get
    // identical copies so READP/AVAILP/CLOCK observations line up.
    testutil::ScriptedVmEnv env_switch;
    env_switch.clock_ms = static_cast<std::uint32_t>(rng.NextU64());
    for (std::uint8_t port = 0; port < 4; ++port) {
      if (rng.NextBool(0.5)) {
        env_switch.port_data[port] =
            testutil::PatternBytes(rng.NextBelow(200));
        env_switch.available.insert(port);
      }
    }
    testutil::ScriptedVmEnv env_threaded = env_switch;

    VmLimits limits;
    limits.fuel_per_activation = 2048;  // bounds runaway loops
    VmInstance with_switch(program, env_switch, limits);
    VmInstance with_threaded(program, env_threaded, limits);

    const ExecResult a = with_switch.RunAt(0, DispatchKind::kSwitch);
    const ExecResult b = with_threaded.RunAt(0, DispatchKind::kThreaded);

    SCOPED_TRACE(::testing::Message() << "iter=" << iter << " code bytes="
                                      << program.code.size());
    EXPECT_EQ(static_cast<int>(a.outcome), static_cast<int>(b.outcome));
    EXPECT_EQ(a.fuel_used, b.fuel_used);
    EXPECT_EQ(a.trap_code, b.trap_code);
    EXPECT_EQ(a.fault, b.fault);
    for (std::uint32_t r = 0; r < program.register_count; ++r) {
      ASSERT_EQ(with_switch.Register(r), with_threaded.Register(r)) << "reg " << r;
    }
    ASSERT_EQ(env_switch.writes.size(), env_threaded.writes.size());
    for (std::size_t w = 0; w < env_switch.writes.size(); ++w) {
      EXPECT_EQ(env_switch.writes[w], env_threaded.writes[w]) << "write " << w;
    }
  }
}

TEST(DispatchDifferential, EntryPointRunsIdenticallyThroughBothLoops) {
  if (!VmInstance::ThreadedDispatchAvailable()) {
    GTEST_SKIP() << "threaded dispatch not compiled in; differential is vacuous";
  }
  auto program = Assemble(R"(
    .entry on_data m
    m:
      PUSH 7
      STORE 1
      PUSH 3
      LOAD 1
      MUL
      STORE 2
      HALT
  )");
  ASSERT_TRUE(program.ok());
  NullEnv env_a, env_b;
  VmInstance with_switch(*program, env_a, {});
  VmInstance with_threaded(*program, env_b, {});
  const ExecResult a = with_switch.RunAt(0, DispatchKind::kSwitch);
  const ExecResult b = with_threaded.RunAt(0, DispatchKind::kThreaded);
  EXPECT_EQ(static_cast<int>(a.outcome), static_cast<int>(b.outcome));
  EXPECT_EQ(a.fuel_used, b.fuel_used);
  EXPECT_EQ(with_switch.Register(2), 21);
  EXPECT_EQ(with_threaded.Register(2), 21);
}

TEST(IoWindowBounds, WritepBeyondWindowIsRejectedByAssembler) {
  auto program = Assemble(R"(
    .entry m m
    m: WRITEP 0 129
       HALT
  )");
  EXPECT_FALSE(program.ok());
}

}  // namespace
}  // namespace dacm::vm
