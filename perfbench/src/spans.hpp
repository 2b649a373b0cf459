// Wall-clock spans recorded by the benchmark around its own calls into
// the program's public functions (never inside the program).
//
// A span has a kind, a start, an end, the span that encloses it on the
// same thread (its parent) and the op id current when it opened; spans
// of one op share that id.  Each closing span folds its duration and its
// self time (duration minus the time its same-thread children cover)
// into per-kind totals, so totals are exact however many spans occur.
// Individual span records are kept in memory up to a cap and written at
// exit as Chrome-trace JSON, apart from the program's sim-time tracer.
//
// Recording is off unless Enable(true); a disabled Scope costs one
// relaxed load.  Scopes may open on any thread (the status log is
// appended from shard workers).
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

enum class SpanKind : std::uint8_t {
  kOp,              // one timed op of the workload (the op root)
  kSimRun,          // Simulator::Run / RunFor / RunUntil
  kCatalog,         // CreateUser / UploadVehicleModel / UploadApp / BindVehicle
  kCampaignStart,   // CampaignEngine::StartDeploy / StartRollback
  kDeployCall,      // interactive TrustedServer::Deploy
  kUninstallCall,   // interactive TrustedServer::UninstallApp
  kRecover,         // TrustedServer::RecoverInstallDb
  kJournalRecover,  // CampaignEngine::Recover
  kVerify,          // TrustedServer::FleetFingerprint (+ campaign checks)
  kSinkAppend,      // CountingSink::Append
  kSinkRotate,      // CountingSink::Rotate
  kStatusDecode,    // StatusDb::ReplayImage probe
  kJournalDecode,   // ReplayCampaignJournal probe
  kFleetConnect,    // ScriptedFleet construction + BindAndConnect
  kVehicleBuild,    // fes::Vehicle assembly, Finalize, sim until online
  kCount
};

const char* SpanName(SpanKind kind);

struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

namespace spans {

void Enable(bool on);
/// Op id stamped on spans opened from now on (any thread).
void SetOp(std::uint64_t op);
SpanTotals Totals(SpanKind kind);
/// Writes the recorded spans as Chrome-trace JSON (with the number of
/// records dropped past the in-memory cap); false on I/O error.
bool WriteChromeTrace(const std::string& path);

}  // namespace spans

/// Span seconds accumulated from construction on (the totals are
/// process-wide; a window subtracts what came before it).
class SpanWindow {
 public:
  SpanWindow();
  double Seconds(SpanKind kind) const;

 private:
  std::uint64_t base_ns_[static_cast<std::size_t>(SpanKind::kCount)] = {};
};

/// RAII span; records only when recording was enabled at construction.
class Scope {
 public:
  explicit Scope(SpanKind kind);
  ~Scope();

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  bool active_ = false;
};

}  // namespace perfbench
