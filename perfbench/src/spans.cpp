#include "spans.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <vector>

namespace perfbench {
namespace {

constexpr std::size_t kKinds = static_cast<std::size_t>(SpanKind::kCount);
// Keeps the Chrome trace loadable; the per-kind totals cover every span.
constexpr std::size_t kMaxRecords = 100'000;
constexpr std::size_t kMaxDepth = 32;
// Each thread folds its spans into one of these slots (thread index
// modulo the slot count), so shard workers appending to the status log
// concurrently do not contend on one cache line.
constexpr std::size_t kSlots = 64;

struct Record {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root on its thread
  std::uint64_t op = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t tid = 0;
  SpanKind kind = SpanKind::kOp;
};

struct Frame {
  SpanKind kind = SpanKind::kOp;
  std::uint64_t id = 0;
  std::uint64_t op = 0;
  std::int64_t start_ns = 0;
  std::uint64_t child_ns = 0;
};

struct alignas(64) Slot {
  std::array<std::atomic<std::uint64_t>, kKinds> count{};
  std::array<std::atomic<std::uint64_t>, kKinds> total{};
  std::array<std::atomic<std::uint64_t>, kKinds> self{};
  std::atomic<std::uint64_t> dropped{0};
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_op{0};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_tid{0};
std::array<Slot, kSlots> g_slots;
// Records are written without a lock into indices claimed from
// g_next_record.  The vector is sized once, before the first recorded
// span, and read only after the recording threads have been joined or
// have passed a pool barrier.
std::atomic<std::size_t> g_next_record{0};
std::vector<Record> g_records;
std::once_flag g_records_sized;
const std::chrono::steady_clock::time_point g_epoch =
    std::chrono::steady_clock::now();

struct ThreadState {
  std::uint32_t tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  std::array<Frame, kMaxDepth> frames{};
  std::size_t depth = 0;
};

ThreadState& Thread() {
  thread_local ThreadState state;
  return state;
}

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - g_epoch)
      .count();
}

}  // namespace

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kOp: return "op";
    case SpanKind::kSimRun: return "sim.run";
    case SpanKind::kCatalog: return "server.catalog";
    case SpanKind::kCampaignStart: return "server.campaign_start";
    case SpanKind::kDeployCall: return "server.deploy_call";
    case SpanKind::kUninstallCall: return "server.uninstall_call";
    case SpanKind::kRecover: return "server.recover";
    case SpanKind::kJournalRecover: return "server.journal_recover";
    case SpanKind::kVerify: return "server.verify";
    case SpanKind::kSinkAppend: return "support.sink_append";
    case SpanKind::kSinkRotate: return "support.sink_rotate";
    case SpanKind::kStatusDecode: return "support.status_decode";
    case SpanKind::kJournalDecode: return "support.journal_decode";
    case SpanKind::kFleetConnect: return "fes.fleet_connect";
    case SpanKind::kVehicleBuild: return "fes.vehicle_build";
    case SpanKind::kCount: break;
  }
  return "unknown";
}

namespace spans {

void Enable(bool on) {
  // Sized before the first span so recording never allocates (the
  // allocation counter runs in the same traced window).
  if (on) std::call_once(g_records_sized, [] { g_records.resize(kMaxRecords); });
  g_enabled.store(on, std::memory_order_relaxed);
}

void SetOp(std::uint64_t op) { g_op.store(op, std::memory_order_relaxed); }

SpanTotals Totals(SpanKind kind) {
  const auto i = static_cast<std::size_t>(kind);
  SpanTotals t;
  for (const Slot& slot : g_slots) {
    t.count += slot.count[i].load(std::memory_order_relaxed);
    t.total_ns += slot.total[i].load(std::memory_order_relaxed);
    t.self_ns += slot.self[i].load(std::memory_order_relaxed);
  }
  return t;
}

bool WriteChromeTrace(const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr) return false;
  const std::size_t records =
      std::min(g_next_record.load(std::memory_order_relaxed), g_records.size());
  std::uint64_t dropped = 0;
  for (const Slot& slot : g_slots) {
    dropped += slot.dropped.load(std::memory_order_relaxed);
  }
  std::fprintf(out,
               "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":"
               "\"host steady_clock\",\"dropped_spans\":%llu},"
               "\"traceEvents\":[\n",
               static_cast<unsigned long long>(dropped));
  for (std::size_t i = 0; i < records; ++i) {
    const Record& r = g_records[i];
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                 "\"id\":%llu,\"parent\":%llu,\"op\":%llu}}\n",
                 i == 0 ? "" : ",", SpanName(r.kind), r.tid,
                 static_cast<double>(r.start_ns) / 1e3,
                 static_cast<double>(r.end_ns - r.start_ns) / 1e3,
                 static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent),
                 static_cast<unsigned long long>(r.op));
  }
  std::fputs("]}\n", out);
  return std::fclose(out) == 0;
}

}  // namespace spans

SpanWindow::SpanWindow() {
  for (std::size_t i = 0; i < kKinds; ++i) {
    base_ns_[i] = spans::Totals(static_cast<SpanKind>(i)).total_ns;
  }
}

double SpanWindow::Seconds(SpanKind kind) const {
  const auto i = static_cast<std::size_t>(kind);
  return static_cast<double>(spans::Totals(kind).total_ns - base_ns_[i]) * 1e-9;
}

Scope::Scope(SpanKind kind) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  ThreadState& thread = Thread();
  if (thread.depth == kMaxDepth) return;
  active_ = true;
  thread.frames[thread.depth++] =
      Frame{kind, g_next_id.fetch_add(1, std::memory_order_relaxed),
            g_op.load(std::memory_order_relaxed), NowNs(), 0};
}

Scope::~Scope() {
  if (!active_) return;
  const std::int64_t end = NowNs();
  ThreadState& thread = Thread();
  const Frame frame = thread.frames[--thread.depth];
  const auto duration = static_cast<std::uint64_t>(end - frame.start_ns);
  const std::uint64_t self =
      duration > frame.child_ns ? duration - frame.child_ns : 0;
  std::uint64_t parent = 0;
  if (thread.depth > 0) {
    Frame& enclosing = thread.frames[thread.depth - 1];
    enclosing.child_ns += duration;
    parent = enclosing.id;
  }
  const auto i = static_cast<std::size_t>(frame.kind);
  Slot& slot = g_slots[thread.tid % kSlots];
  slot.count[i].fetch_add(1, std::memory_order_relaxed);
  slot.total[i].fetch_add(duration, std::memory_order_relaxed);
  slot.self[i].fetch_add(self, std::memory_order_relaxed);
  if (g_next_record.load(std::memory_order_relaxed) < kMaxRecords) {
    const std::size_t index =
        g_next_record.fetch_add(1, std::memory_order_relaxed);
    if (index < kMaxRecords) {
      g_records[index] = Record{frame.id, parent, frame.op, frame.start_ns, end,
                                thread.tid, frame.kind};
      return;
    }
  }
  slot.dropped.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace perfbench
