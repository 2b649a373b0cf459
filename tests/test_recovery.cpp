// Crash-consistent persistence and kill-and-restart recovery.
//
// Three layers under test, bottom up:
//
//  * storage framing (support/storage.hpp): CRC-framed record streams
//    must replay exactly the durable prefix — torn tails (crash
//    mid-append, fabricated by TruncateTo or a FaultingSink budget) and
//    corrupted frames truncate silently instead of failing recovery;
//
//  * the durable images (server/status_db.hpp, server/journal.hpp):
//    status paragraphs fold last-writer-wins with tombstone erasure, the
//    campaign journal folds per-id to the last committed tick;
//
//  * whole-server recovery: a TrustedServer + CampaignEngine killed
//    mid-campaign (inside one simulator event, via
//    FaultScenario::KillAndRestartServer) is rebuilt from the status DB
//    and journal, resumes the retry cadence without re-pushing converged
//    rows, rematerializes dropped package bytes from the re-uploaded
//    catalog, and — the acceptance bar — produces a Describe()
//    fingerprint byte-identical to an uninterrupted run.
//
// Labelled `recovery` in ctest; the TSan CI job runs this label too, to
// keep the status-DB writes from shard workers race-clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fes/appgen.hpp"
#include "fes/fleet.hpp"
#include "fes/testbed.hpp"
#include "server/campaign.hpp"
#include "server/catalog.hpp"
#include "server/journal.hpp"
#include "server/status_db.hpp"
#include "sim/fault.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "support/bytes.hpp"
#include "support/storage.hpp"
#include "test_util.hpp"

namespace dacm {
namespace {

using server::CampaignJournal;
using server::CampaignKind;
using server::CampaignStatus;
using server::DbState;
using server::InstallState;
using server::JournalRowEntry;
using server::StatusDb;
using server::StatusParagraph;
using server::Want;
using server::CatalogImage;
using server::StatusImage;
using support::CheckpointWriter;
using support::ErrorCode;
using support::FaultingSink;
using support::MemorySink;
using support::RecordWriter;
using support::ReplayRecords;
using support::ReplayStats;

// --- storage framing ---------------------------------------------------------------

support::Bytes Payload(std::string_view text) {
  return support::Bytes(text.begin(), text.end());
}

/// Replays `data` collecting every decoded payload as a string.
ReplayStats Replay(std::span<const std::uint8_t> data,
                   std::vector<std::string>* out) {
  auto stats = ReplayRecords(data, [&](std::span<const std::uint8_t> payload) {
    out->emplace_back(payload.begin(), payload.end());
    return support::OkStatus();
  });
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  return stats.ok() ? *stats : ReplayStats{};
}

TEST(RecordStorageTest, FramedRecordsRoundTrip) {
  MemorySink sink;
  RecordWriter writer(sink);
  ASSERT_TRUE(writer.Append(Payload("alpha")).ok());
  ASSERT_TRUE(writer.Append(Payload("")).ok());  // empty payloads are legal
  ASSERT_TRUE(writer.Append(Payload("gamma-gamma")).ok());

  std::vector<std::string> decoded;
  const ReplayStats stats = Replay(sink.bytes(), &decoded);
  EXPECT_EQ(stats.records, 3u);
  EXPECT_EQ(stats.valid_bytes, sink.bytes().size());
  EXPECT_FALSE(stats.truncated);
  EXPECT_EQ(decoded,
            (std::vector<std::string>{"alpha", "", "gamma-gamma"}));
}

TEST(RecordStorageTest, EmptyImageReplaysToNothing) {
  std::vector<std::string> decoded;
  const ReplayStats stats = Replay({}, &decoded);
  EXPECT_EQ(stats.records, 0u);
  EXPECT_FALSE(stats.truncated);
  EXPECT_TRUE(decoded.empty());
}

TEST(RecordStorageTest, TornTailTruncatesToLastDurableRecord) {
  MemorySink sink;
  RecordWriter writer(sink);
  ASSERT_TRUE(writer.Append(Payload("first")).ok());
  ASSERT_TRUE(writer.Append(Payload("second")).ok());
  const std::size_t durable = sink.bytes().size();
  ASSERT_TRUE(writer.Append(Payload("torn-away")).ok());

  // Crash lands mid-frame: only part of the third append survives.
  sink.TruncateTo(durable + 5);
  std::vector<std::string> decoded;
  const ReplayStats stats = Replay(sink.bytes(), &decoded);
  EXPECT_EQ(stats.records, 2u);
  EXPECT_EQ(stats.valid_bytes, durable);
  EXPECT_TRUE(stats.truncated);
  EXPECT_EQ(decoded, (std::vector<std::string>{"first", "second"}));
}

TEST(RecordStorageTest, CrcMismatchStopsReplayAtTheBadFrame) {
  MemorySink sink;
  RecordWriter writer(sink);
  ASSERT_TRUE(writer.Append(Payload("good")).ok());
  const std::size_t first_frame = sink.bytes().size();
  ASSERT_TRUE(writer.Append(Payload("flipped")).ok());
  ASSERT_TRUE(writer.Append(Payload("unreachable")).ok());

  support::Bytes image = sink.bytes();
  image[first_frame + 8] ^= 0x40;  // one bit inside the second payload

  std::vector<std::string> decoded;
  const ReplayStats stats = Replay(image, &decoded);
  EXPECT_EQ(stats.records, 1u);
  EXPECT_EQ(stats.valid_bytes, first_frame);
  EXPECT_TRUE(stats.truncated);
  EXPECT_EQ(decoded, (std::vector<std::string>{"good"}));
}

TEST(RecordStorageTest, FaultingSinkProducesExactlyATornTail) {
  MemorySink inner;
  FaultingSink faulty(inner, /*fail_after=*/8 + 5 + 3);  // mid second frame
  RecordWriter writer(faulty);
  ASSERT_TRUE(writer.Append(Payload("alpha")).ok());
  EXPECT_FALSE(faulty.torn());
  EXPECT_FALSE(writer.Append(Payload("beta")).ok());
  EXPECT_TRUE(faulty.torn());
  // Once torn, nothing further reaches the inner sink.
  const std::size_t torn_size = inner.bytes().size();
  EXPECT_FALSE(writer.Append(Payload("gamma")).ok());
  EXPECT_EQ(inner.bytes().size(), torn_size);

  std::vector<std::string> decoded;
  const ReplayStats stats = Replay(inner.bytes(), &decoded);
  EXPECT_EQ(stats.records, 1u);
  EXPECT_TRUE(stats.truncated);
  EXPECT_EQ(decoded, (std::vector<std::string>{"alpha"}));
}

TEST(RecordStorageTest, FileSinkAppendsAcrossReopen) {
  const std::string path = "dacm_test_recovery_filesink.log";
  {
    auto sink = support::FileSink::Open(path, /*truncate=*/true);
    ASSERT_TRUE(sink.ok()) << sink.status().ToString();
    RecordWriter writer(**sink);
    ASSERT_TRUE(writer.Append(Payload("one")).ok());
    ASSERT_TRUE(writer.Append(Payload("two")).ok());
    ASSERT_TRUE(writer.Flush().ok());
  }
  {
    // A restarted process appends to the surviving log.
    auto sink = support::FileSink::Open(path);
    ASSERT_TRUE(sink.ok());
    RecordWriter writer(**sink);
    ASSERT_TRUE(writer.Append(Payload("three")).ok());
    ASSERT_TRUE(writer.Flush().ok());
  }
  auto image = support::ReadFileBytes(path);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  std::vector<std::string> decoded;
  const ReplayStats stats = Replay(*image, &decoded);
  EXPECT_EQ(stats.records, 3u);
  EXPECT_FALSE(stats.truncated);
  EXPECT_EQ(decoded, (std::vector<std::string>{"one", "two", "three"}));

  EXPECT_EQ(support::ReadFileBytes("dacm_no_such_file.log").status().code(),
            ErrorCode::kNotFound);
  std::remove(path.c_str());
}

TEST(RecordStorageTest, RotateSwapsLogContentAndKeepsAppending) {
  MemorySink sink;
  RecordWriter writer(sink);
  ASSERT_TRUE(writer.Append(Payload("old-1")).ok());
  ASSERT_TRUE(writer.Append(Payload("old-2")).ok());

  CheckpointWriter checkpoint;
  ASSERT_TRUE(checkpoint.Append(Payload("folded")).ok());
  EXPECT_EQ(checkpoint.records(), 1u);
  ASSERT_TRUE(checkpoint.Commit(sink).ok());

  // The log now holds exactly the checkpoint image; appends continue
  // after it.
  EXPECT_EQ(sink.bytes().size(), checkpoint.image_bytes());
  ASSERT_TRUE(writer.Append(Payload("after")).ok());
  std::vector<std::string> decoded;
  const ReplayStats stats = Replay(sink.bytes(), &decoded);
  EXPECT_FALSE(stats.truncated);
  EXPECT_EQ(decoded, (std::vector<std::string>{"folded", "after"}));
}

TEST(RecordStorageTest, FileSinkRotateCommitsAtomicallyAcrossReopen) {
  const std::string path = "dacm_test_recovery_rotate.log";
  {
    auto sink = support::FileSink::Open(path, /*truncate=*/true);
    ASSERT_TRUE(sink.ok()) << sink.status().ToString();
    RecordWriter writer(**sink);
    ASSERT_TRUE(writer.Append(Payload("pre-rotate")).ok());

    CheckpointWriter checkpoint;
    ASSERT_TRUE(checkpoint.Append(Payload("image")).ok());
    ASSERT_TRUE(checkpoint.Commit(**sink).ok());
    // Rotation is write-temp + sync + rename: no temp file survives.
    EXPECT_EQ(support::ReadFileBytes(path + ".rotate").status().code(),
              ErrorCode::kNotFound);
    // The rotated sink reopened in append mode: the log keeps growing.
    ASSERT_TRUE(writer.Append(Payload("post-rotate")).ok());
    ASSERT_TRUE(writer.Flush().ok());
  }
  auto image = support::ReadFileBytes(path);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  std::vector<std::string> decoded;
  const ReplayStats stats = Replay(*image, &decoded);
  EXPECT_FALSE(stats.truncated);
  EXPECT_EQ(decoded, (std::vector<std::string>{"image", "post-rotate"}));
  std::remove(path.c_str());
}

TEST(RecordStorageTest, FaultedRotationLeavesTheOldLogUntouched) {
  MemorySink inner;
  RecordWriter writer(inner);
  ASSERT_TRUE(writer.Append(Payload("survivor")).ok());
  const support::Bytes before = inner.bytes();

  CheckpointWriter checkpoint;
  ASSERT_TRUE(checkpoint.Append(Payload("never-lands")).ok());
  FaultingSink faulty(inner, /*fail_after=*/4);  // image larger than budget
  EXPECT_FALSE(checkpoint.Commit(faulty).ok());
  EXPECT_TRUE(faulty.torn());
  // All-or-nothing: a failed rotation must not tear the old log — the
  // un-rotated records are still the durable truth.
  EXPECT_EQ(inner.bytes(), before);
  // The image survives the failure, so a retry against a healthy sink
  // commits.
  ASSERT_TRUE(checkpoint.Commit(inner).ok());
  std::vector<std::string> decoded;
  Replay(inner.bytes(), &decoded);
  EXPECT_EQ(decoded, (std::vector<std::string>{"never-lands"}));
}

/// MemorySink that counts Sync() calls — the observable side of the
/// RecordWriter durability knob (for FileSink a Sync is fflush + fsync).
struct CountingSyncSink : support::MemorySink {
  std::size_t syncs = 0;
  support::Status Sync() override {
    ++syncs;
    return support::MemorySink::Sync();
  }
};

TEST(RecordStorageTest, WriterSyncsEveryNthFrameWhenAsked) {
  CountingSyncSink sink;
  RecordWriter writer(sink, /*sync_every_n_frames=*/3);
  for (int i = 0; i < 7; ++i) {
    std::string record = "r";
    record += std::to_string(i);
    ASSERT_TRUE(writer.Append(Payload(record)).ok());
  }
  // 7 frames at N=3: syncs after frames 3 and 6, the 7th rides until the
  // next boundary — a power loss loses at most N-1 acknowledged frames.
  EXPECT_EQ(sink.syncs, 2u);
  ASSERT_TRUE(writer.Append(Payload("r7")).ok());
  ASSERT_TRUE(writer.Append(Payload("r8")).ok());
  EXPECT_EQ(sink.syncs, 3u);

  // Default (0) never syncs explicitly, matching the historic behavior.
  CountingSyncSink unsynced;
  RecordWriter lazy(unsynced);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(lazy.Append(Payload("x")).ok());
  }
  EXPECT_EQ(unsynced.syncs, 0u);

  // The synced stream replays like any other.
  std::vector<std::string> decoded;
  const ReplayStats stats = Replay(sink.bytes(), &decoded);
  EXPECT_EQ(stats.records, 9u);
  EXPECT_FALSE(stats.truncated);
}

// --- status DB ---------------------------------------------------------------------

StatusParagraph MakeParagraph(std::string vin, std::string app, Want want,
                              DbState state) {
  StatusParagraph paragraph;
  paragraph.vin = std::move(vin);
  paragraph.app = std::move(app);
  paragraph.version = "1.0.0";
  paragraph.want = want;
  paragraph.state = state;
  return paragraph;
}

TEST(StatusDbTest, LastParagraphWinsAndTombstonesErase) {
  MemorySink sink;
  StatusDb db(sink);
  // (V2, maps): half-installed, then fully acknowledged — with the
  // recorded per-ECU port-id claims the recovering server must rebuild.
  ASSERT_TRUE(
      db.Append(MakeParagraph("V2", "maps", Want::kInstall, DbState::kHalfInstalled))
          .ok());
  StatusParagraph final_maps =
      MakeParagraph("V2", "maps", Want::kInstall, DbState::kInstalled);
  StatusParagraph::PluginIds ids;
  ids.plugin = "maps.p0";
  ids.ecu_id = 1;
  ids.unique_ids = {3, 4};
  final_maps.plugins.push_back(ids);
  ASSERT_TRUE(db.Append(final_maps).ok());
  // (V1, nav): installed, then erased by a tombstone.
  ASSERT_TRUE(
      db.Append(MakeParagraph("V1", "nav", Want::kInstall, DbState::kInstalled)).ok());
  ASSERT_TRUE(
      db.Append(MakeParagraph("V1", "nav", Want::kDeinstall, DbState::kNotInstalled))
          .ok());
  // (V1, maps): an uninstall caught mid-flight.
  ASSERT_TRUE(
      db.Append(MakeParagraph("V1", "maps", Want::kDeinstall, DbState::kHalfRemoved))
          .ok());

  auto replayed = StatusDb::Replay(sink.bytes());
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  ASSERT_EQ(replayed->size(), 2u);  // sorted by (vin, app); tombstone gone
  EXPECT_EQ((*replayed)[0].vin, "V1");
  EXPECT_EQ((*replayed)[0].app, "maps");
  EXPECT_EQ((*replayed)[0].want, Want::kDeinstall);
  EXPECT_EQ((*replayed)[0].state, DbState::kHalfRemoved);
  EXPECT_EQ((*replayed)[1].vin, "V2");
  EXPECT_EQ((*replayed)[1].state, DbState::kInstalled);
  ASSERT_EQ((*replayed)[1].plugins.size(), 1u);
  EXPECT_EQ((*replayed)[1].plugins[0].plugin, "maps.p0");
  EXPECT_EQ((*replayed)[1].plugins[0].ecu_id, 1u);
  EXPECT_EQ((*replayed)[1].plugins[0].unique_ids, (std::vector<std::uint8_t>{3, 4}));
}

TEST(StatusDbTest, DecodableButInvalidParagraphIsCorrupted) {
  // A frame whose CRC is intact but whose payload violates the paragraph
  // schema (want = 7) must fail replay loudly — that is corruption, not
  // a torn tail.
  support::ByteWriter payload;
  payload.WriteU8(1);  // paragraph version
  payload.WriteString("VIN-X");
  payload.WriteString("maps");
  payload.WriteString("1.0.0");
  payload.WriteU8(7);  // want: out of range
  payload.WriteU8(2);
  payload.WriteVarU32(0);  // no plugins

  MemorySink sink;
  RecordWriter writer(sink);
  ASSERT_TRUE(writer.Append(payload.bytes()).ok());
  EXPECT_EQ(StatusDb::Replay(sink.bytes()).status().code(), ErrorCode::kCorrupted);
}

TEST(StatusDbTest, TornTailYieldsThePriorParagraph) {
  MemorySink sink;
  StatusDb db(sink);
  ASSERT_TRUE(
      db.Append(MakeParagraph("V1", "maps", Want::kInstall, DbState::kHalfInstalled))
          .ok());
  const std::size_t durable = sink.bytes().size();
  ASSERT_TRUE(
      db.Append(MakeParagraph("V1", "maps", Want::kInstall, DbState::kInstalled)).ok());
  sink.TruncateTo(durable + 6);

  auto replayed = StatusDb::Replay(sink.bytes());
  ASSERT_TRUE(replayed.ok());
  ASSERT_EQ(replayed->size(), 1u);
  // The crash forgot the acknowledgement: recovery re-arms the push.
  EXPECT_EQ((*replayed)[0].state, DbState::kHalfInstalled);
}

/// A minimal but realistic checkpoint image: one catalog kImage record
/// (as compaction writes first) followed by two live paragraphs.
support::Bytes MakeCheckpointImage() {
  CatalogImage catalog;
  catalog.users.push_back(server::User{"ops", {}});
  catalog.bindings.push_back(server::CatalogBinding{"V1", "m", 0});
  CheckpointWriter checkpoint;
  EXPECT_TRUE(checkpoint.Append(server::EncodeCatalogImage(catalog)).ok());
  EXPECT_TRUE(
      checkpoint
          .Append(StatusDb::EncodeParagraph(
              MakeParagraph("V1", "maps", Want::kInstall, DbState::kInstalled)))
          .ok());
  EXPECT_TRUE(
      checkpoint
          .Append(StatusDb::EncodeParagraph(MakeParagraph(
              "V2", "maps", Want::kInstall, DbState::kHalfInstalled)))
          .ok());
  return checkpoint.image();
}

TEST(StatusDbTest, CheckpointImageReplaysCatalogAndParagraphs) {
  const support::Bytes image = MakeCheckpointImage();
  auto replayed = StatusDb::ReplayImage(image);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(replayed->catalog.users.size(), 1u);
  EXPECT_EQ(replayed->catalog.bindings.size(), 1u);
  ASSERT_EQ(replayed->paragraphs.size(), 2u);
  EXPECT_FALSE(replayed->stats.truncated);
  // A checkpoint IS the minimal live image: replaying it reports exactly
  // its own size as the live bytes (the compaction guard's denominator).
  EXPECT_EQ(replayed->live_bytes, image.size());
}

TEST(StatusDbTest, TornCheckpointTailRecoversTheDurablePrefix) {
  support::Bytes image = MakeCheckpointImage();
  image.resize(image.size() - 5);  // crash mid-final-paragraph
  auto replayed = StatusDb::ReplayImage(image);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_TRUE(replayed->stats.truncated);
  EXPECT_EQ(replayed->catalog.users.size(), 1u);
  ASSERT_EQ(replayed->paragraphs.size(), 1u);
  EXPECT_EQ(replayed->paragraphs[0].vin, "V1");
}

TEST(StatusDbTest, BitFlippedCheckpointFrameStopsReplayThere) {
  support::Bytes image = MakeCheckpointImage();
  image[10] ^= 0x01;  // inside the catalog image record's payload
  auto replayed = StatusDb::ReplayImage(image);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  // The very first frame failed its CRC: nothing is durable.
  EXPECT_TRUE(replayed->stats.truncated);
  EXPECT_TRUE(replayed->catalog.empty());
  EXPECT_TRUE(replayed->paragraphs.empty());
}

TEST(StatusDbTest, EmptyLogReplaysToAnEmptyImage) {
  auto replayed = StatusDb::ReplayImage({});
  ASSERT_TRUE(replayed.ok());
  EXPECT_TRUE(replayed->catalog.empty());
  EXPECT_TRUE(replayed->paragraphs.empty());
  EXPECT_FALSE(replayed->stats.truncated);
}

// --- replay against hostile input and the decode-everything oracle ----------------

/// One CRC-valid paragraph that breaks exactly one schema rule.  The
/// counts claim 2^32-1 entries: replay must reject them, not reserve
/// storage for them.
enum class SchemaViolation {
  kWantOutOfRange,
  kTrailingByte,
  kTruncatedIdRun,
  kPluginCountPastEnd,
};

support::Bytes HostileParagraph(std::string_view vin, std::string_view app,
                                SchemaViolation violation) {
  support::ByteWriter payload;
  payload.WriteU8(1);  // paragraph version
  payload.WriteString(vin);
  payload.WriteString(app);
  payload.WriteString("1.0.0");
  payload.WriteU8(violation == SchemaViolation::kWantOutOfRange ? 7 : 0);
  payload.WriteU8(static_cast<std::uint8_t>(DbState::kInstalled));
  switch (violation) {
    case SchemaViolation::kWantOutOfRange:
      payload.WriteVarU32(0);
      break;
    case SchemaViolation::kTrailingByte:
      payload.WriteVarU32(0);
      payload.WriteU8(0);
      break;
    case SchemaViolation::kTruncatedIdRun:
      payload.WriteVarU32(1);
      payload.WriteString("maps.p0");
      payload.WriteU32(1);
      payload.WriteVarU32(0xFFFFFFFF);  // two ids follow
      payload.WriteU8(3);
      payload.WriteU8(4);
      break;
    case SchemaViolation::kPluginCountPastEnd:
      payload.WriteVarU32(0xFFFFFFFF);  // one plug-in follows
      payload.WriteString("maps.p0");
      payload.WriteU32(1);
      payload.WriteVarU32(0);
      break;
  }
  return payload.Take();
}

TEST(StatusDbTest, SchemaViolationsFailReplayEvenWhenSupersededOrErased) {
  // Last-writer-wins must not launder a corrupt paragraph: the fold
  // checks every frame, not just the (vin, app) pair's survivor.
  for (const SchemaViolation violation :
       {SchemaViolation::kWantOutOfRange, SchemaViolation::kTrailingByte,
        SchemaViolation::kTruncatedIdRun,
        SchemaViolation::kPluginCountPastEnd}) {
    for (const DbState later : {DbState::kInstalled, DbState::kNotInstalled}) {
      SCOPED_TRACE(::testing::Message()
                   << "violation " << static_cast<int>(violation)
                   << ", followed by " << server::DbStateName(later));
      MemorySink sink;
      RecordWriter writer(sink);
      ASSERT_TRUE(
          writer.Append(HostileParagraph("V1", "maps", violation)).ok());
      ASSERT_TRUE(writer
                      .Append(StatusDb::EncodeParagraph(MakeParagraph(
                          "V1", "maps", Want::kInstall, later)))
                      .ok());
      EXPECT_EQ(StatusDb::ReplayImage(sink.bytes()).status().code(),
                ErrorCode::kCorrupted);
    }
  }
}

/// The paragraph decoder ReplayImage used to run on every frame.
support::Result<StatusParagraph> OracleDecodeParagraph(
    std::span<const std::uint8_t> payload) {
  support::ByteReader reader(payload);
  DACM_ASSIGN_OR_RETURN(const std::uint8_t version, reader.ReadU8());
  if (version != 1) return support::Corrupted("unknown paragraph version");
  StatusParagraph paragraph;
  DACM_ASSIGN_OR_RETURN(paragraph.vin, reader.ReadString());
  DACM_ASSIGN_OR_RETURN(paragraph.app, reader.ReadString());
  DACM_ASSIGN_OR_RETURN(paragraph.version, reader.ReadString());
  DACM_ASSIGN_OR_RETURN(const std::uint8_t want, reader.ReadU8());
  DACM_ASSIGN_OR_RETURN(const std::uint8_t state, reader.ReadU8());
  if (want > 1 || state > 4) return support::Corrupted("enum out of range");
  paragraph.want = static_cast<Want>(want);
  paragraph.state = static_cast<DbState>(state);
  DACM_ASSIGN_OR_RETURN(const std::uint32_t plugin_count, reader.ReadVarU32());
  for (std::uint32_t i = 0; i < plugin_count; ++i) {
    StatusParagraph::PluginIds ids;
    DACM_ASSIGN_OR_RETURN(ids.plugin, reader.ReadString());
    DACM_ASSIGN_OR_RETURN(ids.ecu_id, reader.ReadU32());
    DACM_ASSIGN_OR_RETURN(const std::uint32_t id_count, reader.ReadVarU32());
    for (std::uint32_t j = 0; j < id_count; ++j) {
      DACM_ASSIGN_OR_RETURN(const std::uint8_t unique, reader.ReadU8());
      ids.unique_ids.push_back(unique);
    }
    paragraph.plugins.push_back(std::move(ids));
  }
  if (!reader.exhausted()) return support::Corrupted("trailing bytes");
  return paragraph;
}

/// Replace-by-key with a front-to-back scan: the catalog upsert the keyed
/// fold replaced.
template <typename T>
void OracleUpsert(std::vector<T>& items, T item, std::string T::*key) {
  for (T& existing : items) {
    if (existing.*key == item.*key) {
      existing = std::move(item);
      return;
    }
  }
  items.push_back(std::move(item));
}

support::Status OracleApplyCatalog(std::span<const std::uint8_t> payload,
                                   CatalogImage& image) {
  const auto kind = static_cast<server::CatalogRecordKind>(payload[0]);
  support::ByteReader reader(payload.subspan(1));
  if (kind == server::CatalogRecordKind::kUser) {
    DACM_ASSIGN_OR_RETURN(const std::uint32_t index, reader.ReadU32());
    DACM_ASSIGN_OR_RETURN(std::string name, reader.ReadString());
    if (!reader.exhausted()) return support::Corrupted("trailing bytes");
    if (index < image.users.size()) {
      return image.users[index].name == name
                 ? support::OkStatus()
                 : support::Corrupted("user index re-used");
    }
    if (index != image.users.size()) return support::Corrupted("user gap");
    image.users.push_back(server::User{std::move(name), {}});
    return support::OkStatus();
  }
  if (kind == server::CatalogRecordKind::kBinding) {
    server::CatalogBinding binding;
    DACM_ASSIGN_OR_RETURN(binding.vin, reader.ReadString());
    DACM_ASSIGN_OR_RETURN(binding.model, reader.ReadString());
    DACM_ASSIGN_OR_RETURN(binding.owner, reader.ReadU32());
    if (!reader.exhausted()) return support::Corrupted("trailing bytes");
    OracleUpsert(image.bindings, std::move(binding),
                 &server::CatalogBinding::vin);
    return support::OkStatus();
  }
  // Model, app and image bodies: a fresh one-record fold decodes them,
  // leaving exactly that record's content in its image.
  server::CatalogFold one;
  DACM_RETURN_IF_ERROR(one.Apply(payload));
  CatalogImage decoded = std::move(one).Take();
  if (kind == server::CatalogRecordKind::kImage) {
    image = std::move(decoded);
  } else if (kind == server::CatalogRecordKind::kModel) {
    OracleUpsert(image.models, std::move(decoded.models[0]),
                 &server::VehicleModelConf::model);
  } else {
    OracleUpsert(image.apps, std::move(decoded.apps[0]), &server::App::name);
  }
  return support::OkStatus();
}

/// The decode-everything fold ReplayImage replaced: every paragraph
/// decoded into owned storage, folded through an ordered map.
support::Result<StatusImage> OracleReplayImage(
    std::span<const std::uint8_t> data) {
  StatusImage image;
  std::map<std::pair<std::string, std::string>, StatusParagraph> latest;
  auto fold = [&](std::span<const std::uint8_t> payload) -> support::Status {
    if (server::IsCatalogRecord(payload)) {
      return OracleApplyCatalog(payload, image.catalog);
    }
    DACM_ASSIGN_OR_RETURN(StatusParagraph paragraph,
                          OracleDecodeParagraph(payload));
    auto key = std::make_pair(paragraph.vin, paragraph.app);
    if (paragraph.state == DbState::kNotInstalled) {
      latest.erase(key);
    } else {
      latest.insert_or_assign(std::move(key), std::move(paragraph));
    }
    return support::OkStatus();
  };
  DACM_ASSIGN_OR_RETURN(image.stats, ReplayRecords(data, fold));
  image.live_bytes = 8 + server::EncodeCatalogImage(image.catalog).size();
  for (auto& [key, paragraph] : latest) {
    image.live_bytes += 8 + StatusDb::EncodeParagraph(paragraph).size();
    image.paragraphs.push_back(std::move(paragraph));
  }
  return image;
}

/// `prefix` followed by `n`.  Appended, not `prefix + std::to_string(n)`,
/// which GCC 12 at -O3 rejects with a false -Werror=restrict.
std::string Numbered(std::string_view prefix, std::uint64_t n) {
  std::string name(prefix);
  name += std::to_string(n);
  return name;
}

/// A count as LEB128, sometimes with a redundant continuation byte: the
/// decoder accepts it, and live_bytes must still count the minimal form.
void WriteCount(support::ByteWriter& writer, std::uint32_t count, bool pad) {
  support::ByteWriter varint;
  varint.WriteVarU32(count);
  support::Bytes bytes = varint.Take();
  if (pad) {
    bytes.back() |= 0x80;
    bytes.push_back(0);
  }
  writer.WriteRaw(bytes);
}

support::Bytes RandomParagraph(sim::Rng& rng, std::size_t vins,
                               std::size_t apps) {
  support::ByteWriter payload;
  payload.WriteU8(1);  // paragraph version
  payload.WriteString(Numbered("VIN-", rng.NextBelow(vins)));
  payload.WriteString(Numbered("app-", rng.NextBelow(apps)));
  payload.WriteString(Numbered("1.", rng.NextBelow(3)));
  payload.WriteU8(static_cast<std::uint8_t>(rng.NextBelow(2)));  // want
  payload.WriteU8(static_cast<std::uint8_t>(rng.NextBelow(5)));  // state
  const auto plugins = static_cast<std::uint32_t>(rng.NextBelow(4));
  WriteCount(payload, plugins, rng.NextBool(0.1));
  for (std::uint32_t i = 0; i < plugins; ++i) {
    payload.WriteString(Numbered("p", i));
    payload.WriteU32(static_cast<std::uint32_t>(rng.NextInRange(1, 3)));
    // Now and then a run long enough to need a two-byte count.
    const auto ids = static_cast<std::uint32_t>(
        rng.NextBool(0.02) ? 130 : rng.NextBelow(5));
    WriteCount(payload, ids, rng.NextBool(0.1));
    for (std::uint32_t j = 0; j < ids; ++j) {
      payload.WriteU8(static_cast<std::uint8_t>(rng.NextBelow(256)));
    }
  }
  return payload.Take();
}

server::VehicleModelConf RandomModel(sim::Rng& rng) {
  server::VehicleModelConf conf;
  conf.model = Numbered("model-", rng.NextBelow(4));
  conf.sw.platform_version = Numbered("1.", rng.NextBelow(3));
  const auto ecus = static_cast<std::uint32_t>(rng.NextInRange(1, 2));
  for (std::uint32_t ecu = 1; ecu <= ecus; ++ecu) {
    conf.hw.ecus.push_back(
        server::EcuInfo{ecu, Numbered("ECU", ecu), true, ecu == 1, 8, 4096});
  }
  return conf;
}

server::App RandomApp(sim::Rng& rng) {
  server::App app;
  app.name = Numbered("app-", rng.NextBelow(4));
  app.version = Numbered("1.", rng.NextBelow(3));
  app.developer = "dev";
  const std::uint64_t plugins = rng.NextInRange(1, 2);
  for (std::uint64_t i = 0; i < plugins; ++i) {
    server::PluginDecl plugin;
    plugin.name = Numbered("p", i);
    // Few distinct binaries, so the kImage blob pool dedupes.
    plugin.binary.assign(8, static_cast<std::uint8_t>(rng.NextBelow(3)));
    app.plugins.push_back(std::move(plugin));
  }
  server::SwConf conf;
  conf.vehicle_model = Numbered("model-", rng.NextBelow(4));
  conf.placements.push_back(server::PlacementDecl{"p0", 1});
  app.confs.push_back(std::move(conf));
  return app;
}

server::CatalogBinding RandomBinding(sim::Rng& rng, std::size_t vins,
                                     std::size_t users) {
  return server::CatalogBinding{
      Numbered("VIN-", rng.NextBelow(vins)),
      Numbered("model-", rng.NextBelow(4)),
      static_cast<std::uint32_t>(rng.NextBelow(users))};
}

/// A random status log: paragraphs over `vins` x `apps` pairs in every
/// DbState (tombstones included) with catalog records interleaved, one
/// kImage checkpoint mid-log and, half the time, a torn tail.
support::Bytes RandomStatusLog(sim::Rng& rng) {
  const std::size_t vins = rng.NextInRange(1, 40);
  const std::size_t apps = rng.NextInRange(1, 5);
  const std::size_t records = rng.NextBelow(300);
  const std::size_t checkpoint_at = rng.NextBelow(records + 1);
  std::vector<std::string> users;  // the log's user table so far
  MemorySink sink;
  RecordWriter writer(sink);
  auto append = [&writer](const support::Bytes& payload) {
    EXPECT_TRUE(writer.Append(payload).ok());
  };
  for (std::size_t r = 0; r < records; ++r) {
    if (r == checkpoint_at) {
      CatalogImage image;
      image.users.resize(rng.NextInRange(1, 3));
      for (std::size_t u = 0; u < image.users.size(); ++u) {
        image.users[u].name = Numbered("user-", u);
      }
      image.models.resize(rng.NextBelow(3));
      for (auto& model : image.models) model = RandomModel(rng);
      image.apps.resize(rng.NextBelow(3));
      for (auto& app : image.apps) app = RandomApp(rng);
      image.bindings.resize(rng.NextBelow(vins + 1));
      for (auto& binding : image.bindings) {
        binding = RandomBinding(rng, vins, image.users.size());
      }
      users.clear();
      for (const server::User& user : image.users) users.push_back(user.name);
      append(server::EncodeCatalogImage(image));
    }
    const std::uint64_t kind = rng.NextBelow(20);
    if (kind < 13) {
      append(RandomParagraph(rng, vins, apps));
    } else if (kind < 14) {
      // A new user, or a repeat of a known one under its own index.
      const std::size_t index = rng.NextBelow(users.size() + 1);
      if (index == users.size()) users.push_back(Numbered("user-", index));
      append(server::EncodeCatalogUser(static_cast<std::uint32_t>(index),
                                       users[index]));
    } else if (kind < 15) {
      append(server::EncodeCatalogModel(RandomModel(rng)));
    } else if (kind < 16) {
      append(server::EncodeCatalogApp(RandomApp(rng)));
    } else if (!users.empty()) {
      const server::CatalogBinding binding =
          RandomBinding(rng, vins, users.size());
      append(server::EncodeCatalogBinding(binding.vin, binding.model,
                                          binding.owner));
    }
  }
  // One log in twenty carries a schema violation somewhere.
  if (records > 0 && rng.NextBool(0.05)) {
    append(HostileParagraph(
        "VIN-0", "app-0",
        static_cast<SchemaViolation>(rng.NextBelow(4))));
  }
  if (!sink.bytes().empty() && rng.NextBool(0.5)) {
    const std::size_t size = sink.bytes().size();
    sink.TruncateTo(size - rng.NextBelow(std::min<std::size_t>(size, 64) + 1));
  }
  return sink.bytes();
}

TEST(StatusDbTest, ReplayMatchesTheDecodeEverythingOracleOnRandomLogs) {
  DACM_PROPERTY_RNG(rng);
  std::size_t replayed_ok = 0;
  std::size_t survivors = 0;
  for (int round = 0; round < 300; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    const support::Bytes log = RandomStatusLog(rng);
    auto actual = StatusDb::ReplayImage(log);
    auto expected = OracleReplayImage(log);
    ASSERT_EQ(actual.ok(), expected.ok())
        << actual.status().ToString() << " vs " << expected.status().ToString();
    if (!actual.ok()) {
      EXPECT_EQ(actual.status().code(), expected.status().code());
      continue;
    }
    ++replayed_ok;
    survivors += actual->paragraphs.size();
    EXPECT_EQ(actual->paragraphs, expected->paragraphs);
    EXPECT_EQ(server::EncodeCatalogImage(actual->catalog),
              server::EncodeCatalogImage(expected->catalog));
    EXPECT_EQ(actual->stats.records, expected->stats.records);
    EXPECT_EQ(actual->stats.valid_bytes, expected->stats.valid_bytes);
    EXPECT_EQ(actual->stats.truncated, expected->stats.truncated);
    EXPECT_EQ(actual->live_bytes, expected->live_bytes);
  }
  // The generator must mostly produce replayable logs with live rows, or
  // the comparison above proves little.
  EXPECT_GT(replayed_ok, 200u);
  EXPECT_GT(survivors, 1000u);
}

TEST(StatusDbTest, RawLogOf20kBindingsKeepsFirstSeenOrderAndLastWriter) {
  // 16k VINs bound once, then 4k re-binds over the first 1k VINs (each
  // re-bound about four times).  A front-to-back scan per record made
  // this fold quadratic; the keyed fold must land on the same image.
  constexpr std::size_t kVins = 16'000;
  constexpr std::size_t kRebinds = 4'000;
  MemorySink sink;
  RecordWriter writer(sink);
  ASSERT_TRUE(writer.Append(server::EncodeCatalogUser(0, "ops")).ok());
  ASSERT_TRUE(writer.Append(server::EncodeCatalogUser(1, "fleet")).ok());
  std::vector<server::CatalogBinding> expected;
  for (std::size_t i = 0; i < kVins; ++i) {
    expected.push_back({Numbered("VIN-", i), "model-0", 0});
    ASSERT_TRUE(writer
                    .Append(server::EncodeCatalogBinding(
                        expected.back().vin, expected.back().model, 0))
                    .ok());
  }
  for (std::size_t i = 0; i < kRebinds; ++i) {
    server::CatalogBinding& rebound = expected[(i * 7919) % 1000];
    rebound.model = Numbered("model-", i % 3 + 1);
    rebound.owner = static_cast<std::uint32_t>(i % 2);
    ASSERT_TRUE(writer
                    .Append(server::EncodeCatalogBinding(
                        rebound.vin, rebound.model, rebound.owner))
                    .ok());
  }

  auto replayed = StatusDb::ReplayImage(sink.bytes());
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(replayed->stats.records, 2 + kVins + kRebinds);
  EXPECT_EQ(replayed->catalog.users.size(), 2u);
  const std::vector<server::CatalogBinding>& bindings =
      replayed->catalog.bindings;
  ASSERT_EQ(bindings.size(), kVins);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < kVins; ++i) {
    if (bindings[i].vin != expected[i].vin ||
        bindings[i].model != expected[i].model ||
        bindings[i].owner != expected[i].owner) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(StatusDbTest, RecordsAfterACheckpointUpsertIntoItsImage) {
  CatalogImage image;
  image.users.push_back(server::User{"ops", {}});
  image.bindings.push_back(server::CatalogBinding{"V1", "m0", 0});
  image.bindings.push_back(server::CatalogBinding{"V2", "m0", 0});
  MemorySink sink;
  RecordWriter writer(sink);
  // Bound before the checkpoint, so the kImage drops it.
  ASSERT_TRUE(writer.Append(server::EncodeCatalogBinding("V9", "m0", 0)).ok());
  ASSERT_TRUE(writer.Append(server::EncodeCatalogImage(image)).ok());
  ASSERT_TRUE(writer.Append(server::EncodeCatalogBinding("V2", "m1", 0)).ok());
  ASSERT_TRUE(writer.Append(server::EncodeCatalogBinding("V3", "m0", 0)).ok());
  ASSERT_TRUE(writer.Append(server::EncodeCatalogBinding("V1", "m2", 0)).ok());

  auto replayed = StatusDb::ReplayImage(sink.bytes());
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  const std::vector<server::CatalogBinding>& bindings =
      replayed->catalog.bindings;
  ASSERT_EQ(bindings.size(), 3u);
  EXPECT_EQ(bindings[0].vin, "V1");
  EXPECT_EQ(bindings[0].model, "m2");
  EXPECT_EQ(bindings[1].vin, "V2");
  EXPECT_EQ(bindings[1].model, "m1");
  EXPECT_EQ(bindings[2].vin, "V3");
}

// --- campaign journal --------------------------------------------------------------

TEST(CampaignJournalTest, FoldsToTheLastCommittedTick) {
  MemorySink sink;
  CampaignJournal journal(sink);
  std::vector<server::CampaignRow> rows(2);
  rows[0].vin = "VIN-A";
  rows[1].vin = "VIN-B";
  server::RetryPolicy policy;
  policy.max_waves = 3;
  ASSERT_TRUE(journal
                  .AppendStart(/*id=*/0, CampaignKind::kDeploy, /*user=*/7, "maps",
                               policy, /*started_at=*/1000, rows)
                  .ok());
  std::vector<JournalRowEntry> tick1(1);
  tick1[0].index = 1;
  tick1[0].state = server::CampaignRowState::kDone;
  tick1[0].attempts = 2;
  tick1[0].done_at = 5000;
  ASSERT_TRUE(journal.AppendRows(0, tick1).ok());
  ASSERT_TRUE(journal
                  .AppendWave(0, /*waves_pushed=*/1, /*total_pushes=*/2,
                              /*last_push_at=*/4000, /*next_tick_at=*/6000)
                  .ok());
  const std::size_t committed = sink.bytes().size();

  auto recovered = server::ReplayCampaignJournal(sink.bytes());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(recovered->size(), 1u);
  const server::RecoveredCampaign& campaign = (*recovered)[0];
  EXPECT_EQ(campaign.id, 0u);
  EXPECT_EQ(campaign.user, 7u);
  EXPECT_EQ(campaign.app_name, "maps");
  EXPECT_EQ(campaign.policy.max_waves, 3u);
  EXPECT_EQ(campaign.started_at, 1000u);
  ASSERT_EQ(campaign.rows.size(), 2u);
  EXPECT_EQ(campaign.rows[0].state, server::CampaignRowState::kPending);
  EXPECT_EQ(campaign.rows[1].state, server::CampaignRowState::kDone);
  EXPECT_EQ(campaign.rows[1].attempts, 2u);
  EXPECT_EQ(campaign.rows[1].done_at, 5000u);
  EXPECT_EQ(campaign.waves_pushed, 1u);
  EXPECT_EQ(campaign.total_pushes, 2u);
  EXPECT_EQ(campaign.next_tick_at, 6000u);
  EXPECT_EQ(campaign.status, CampaignStatus::kRunning);
  EXPECT_FALSE(campaign.forgotten);

  // A finish marker closes the fold...
  ASSERT_TRUE(journal.AppendFinish(0, CampaignStatus::kConverged, 9000).ok());
  recovered = server::ReplayCampaignJournal(sink.bytes());
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ((*recovered)[0].status, CampaignStatus::kConverged);
  EXPECT_EQ((*recovered)[0].finished_at, 9000u);

  // ...and a tail torn mid-record rewinds to the previous tick.
  sink.TruncateTo(committed + 3);
  recovered = server::ReplayCampaignJournal(sink.bytes());
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ((*recovered)[0].status, CampaignStatus::kRunning);
  EXPECT_EQ((*recovered)[0].next_tick_at, 6000u);
}

TEST(CampaignJournalTest, RowsWithoutAStartAreCorrupted) {
  MemorySink sink;
  CampaignJournal journal(sink);
  std::vector<JournalRowEntry> orphan(1);
  orphan[0].index = 0;
  ASSERT_TRUE(journal.AppendRows(/*id=*/5, orphan).ok());
  EXPECT_EQ(server::ReplayCampaignJournal(sink.bytes()).status().code(),
            ErrorCode::kCorrupted);
}

TEST(CampaignJournalTest, ForgetRecordTombstonesTheCampaign) {
  MemorySink sink;
  CampaignJournal journal(sink);
  std::vector<server::CampaignRow> rows(1);
  rows[0].vin = "VIN-A";
  ASSERT_TRUE(journal
                  .AppendStart(0, CampaignKind::kDeploy, 0, "maps",
                               server::RetryPolicy{}, 0, rows)
                  .ok());
  ASSERT_TRUE(journal.AppendFinish(0, CampaignStatus::kConverged, 100).ok());
  ASSERT_TRUE(journal.AppendForget(0).ok());
  auto recovered = server::ReplayCampaignJournal(sink.bytes());
  ASSERT_TRUE(recovered.ok());
  ASSERT_EQ(recovered->size(), 1u);
  EXPECT_TRUE((*recovered)[0].forgotten);
}

TEST(CampaignJournalTest, ForgetWithoutAStartBecomesAForgottenPlaceholder) {
  // A compacted journal drops retired campaigns' full record chains and
  // keeps only the bare Forget tombstone — replay must materialize the
  // hole (and any implied earlier holes), not fail.
  MemorySink sink;
  CampaignJournal journal(sink);
  ASSERT_TRUE(journal.AppendForget(2).ok());
  std::vector<server::CampaignRow> rows(1);
  rows[0].vin = "VIN-A";
  ASSERT_TRUE(journal
                  .AppendStart(3, CampaignKind::kDeploy, 0, "maps",
                               server::RetryPolicy{}, 0, rows)
                  .ok());
  auto recovered = server::ReplayCampaignJournal(sink.bytes());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(recovered->size(), 4u);
  for (std::uint32_t id = 0; id <= 2; ++id) {
    EXPECT_TRUE((*recovered)[id].forgotten) << id;
  }
  EXPECT_FALSE((*recovered)[3].forgotten);
  EXPECT_EQ((*recovered)[3].app_name, "maps");
}

// --- whole-server kill-and-restart -------------------------------------------------

/// Quick retry cadence (mirrors test_campaign.cpp): settle 50 ms,
/// backoff 200 ms doubling.
server::RetryPolicy FastPolicy(std::size_t max_waves = 6) {
  server::RetryPolicy policy;
  policy.max_waves = max_waves;
  policy.settle_delay = 50 * sim::kMillisecond;
  policy.initial_backoff = 200 * sim::kMillisecond;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff = 2 * sim::kSecond;
  return policy;
}

/// A campaign world whose server + engine can be killed and rebuilt from
/// the durable images mid-run.  The sinks, network, fleet and journal
/// outlive the kill — exactly the split a process crash produces (the
/// fleet is *other* machines; the logs are the disk).
struct RecoveryRig {
  sim::Simulator simulator;
  sim::Network network{simulator, sim::kMillisecond};
  support::MemorySink status_log;
  support::MemorySink journal_log;
  CampaignJournal journal{journal_log};
  std::unique_ptr<server::TrustedServer> server;
  std::unique_ptr<server::CampaignEngine> engine;
  server::UserId user = server::UserId::Invalid();
  std::unique_ptr<fes::ScriptedFleet> fleet;
  std::size_t shards;
  std::uint64_t compact_after_bytes;
  /// Everything uploaded, for the re-upload flavor of recovery (the
  /// catalog is also persisted in the log now — RestartFromLogOnly below
  /// recovers without touching this).
  std::vector<fes::SyntheticAppParams> catalog;

  explicit RecoveryRig(std::size_t vehicles, std::size_t shard_count = 4,
                       std::uint64_t compact_watermark = 0)
      : shards(shard_count), compact_after_bytes(compact_watermark) {
    NewServer();
    fes::ScriptedFleetOptions options;
    options.vehicle_count = vehicles;
    fleet = std::make_unique<fes::ScriptedFleet>(simulator, network, *server,
                                                 options);
    EXPECT_TRUE(fleet->BindAndConnect(user).ok());
    NewEngine();
  }

  /// A server with no catalog: what a restarted process has before
  /// recovery runs.
  void NewBareServer() {
    server::ServerOptions options;
    options.shard_count = shards;
    options.status_sink = &status_log;
    options.compact_after_bytes = compact_after_bytes;
    server = std::make_unique<server::TrustedServer>(network, "srv:443", options);
    EXPECT_TRUE(server->Start().ok());
  }

  void NewServer() {
    NewBareServer();
    EXPECT_TRUE(server->UploadVehicleModel(fes::MakeRpiTestbedConf()).ok());
    user = *server->CreateUser("ops");
  }

  void NewEngine() {
    engine = std::make_unique<server::CampaignEngine>(simulator, *server);
    engine->AttachJournal(&journal);
  }

  void UploadApp(const std::string& name, std::uint32_t plugins = 2) {
    fes::SyntheticAppParams params;
    params.name = name;
    params.vehicle_model = "rpi-testbed";
    params.plugin_count = plugins;
    params.target_ecu = 1;
    catalog.push_back(params);
    EXPECT_TRUE(server->UploadApp(fes::MakeSyntheticApp(params)).ok());
  }

  /// The crash: engine first (its timers go inert via the alive token),
  /// then the server (unlistens, closes every Pusher connection).
  void KillServer() {
    engine.reset();
    server.reset();
  }

  /// The documented recovery order (server.hpp): rebuild the catalog
  /// from uploads, re-bind the fleet, replay the status DB, reconnect,
  /// then resume campaigns from the journal.
  void RestartAndRecover() {
    NewServer();
    for (const fes::SyntheticAppParams& params : catalog) {
      EXPECT_TRUE(server->UploadApp(fes::MakeSyntheticApp(params)).ok());
    }
    for (const std::string& vin : fleet->vins()) {
      EXPECT_TRUE(server->BindVehicle(user, vin, "rpi-testbed").ok());
    }
    const support::Status recovered = server->RecoverInstallDb(status_log.bytes());
    EXPECT_TRUE(recovered.ok()) << recovered.ToString();
    fleet->RetargetServer(*server);
    fleet->RedialDead();
    NewEngine();
    const support::Status resumed = engine->Recover(journal_log.bytes());
    EXPECT_TRUE(resumed.ok()) << resumed.ToString();
  }

  /// A restarted process scans each log and truncates the torn tail, so
  /// post-restart appends land after the durable prefix instead of
  /// behind unreachable garbage.
  static void TruncateToDurable(support::MemorySink& sink) {
    auto stats = ReplayRecords(
        sink.bytes(), [](std::span<const std::uint8_t>) {
          return support::OkStatus();
        });
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    sink.TruncateTo(stats->valid_bytes);
  }

  /// Recovery with NOTHING re-uploaded: the status log's catalog records
  /// alone must make the restarted server serviceable.
  void RestartFromLogOnly() {
    TruncateToDurable(status_log);
    TruncateToDurable(journal_log);
    NewBareServer();
    const support::Status recovered = server->RecoverInstallDb(status_log.bytes());
    EXPECT_TRUE(recovered.ok()) << recovered.ToString();
    fleet->RetargetServer(*server);
    fleet->RedialDead();
    NewEngine();
    const support::Status resumed = engine->Recover(journal_log.bytes());
    EXPECT_TRUE(resumed.ok()) << resumed.ToString();
  }
};

TEST(RecoveryTest, KilledBeforeAnyAckRematerializesPackagesAndConverges) {
  RecoveryRig rig(/*vehicles=*/4, /*shards=*/2);
  rig.UploadApp("maps");
  sim::FaultScenario faults(rig.simulator, rig.network, /*seed=*/3);

  auto id = rig.engine->StartDeploy(rig.user, "maps", rig.fleet->vins(),
                                    FastPolicy());
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  // Wave 1 pushes at T0; deliveries land at T0 + 1 ms.  The WAN drops at
  // T0 + 0.25 ms — so the batches still reach the vehicles, but every
  // acknowledgement send fails — and the server dies at T0 + 0.5 ms.
  // What survives: four half-installed status paragraphs (written ahead
  // of the pushes) and the journal's committed wave-1 tick.  No package
  // bytes survive anywhere.
  faults.LinkFlapAfter(sim::kMillisecond / 4,
                       sim::kMillisecond + sim::kMillisecond / 2);
  faults.KillAndRestartServer(
      sim::kMillisecond / 2, [&rig] { rig.KillServer(); },
      [&rig] { rig.RestartAndRecover(); });
  rig.simulator.Run();

  ASSERT_TRUE(rig.engine->Finished(*id));
  auto snapshot = *rig.engine->Snapshot(*id);
  EXPECT_EQ(snapshot.status, CampaignStatus::kConverged);
  EXPECT_EQ(snapshot.done, 4u);
  EXPECT_EQ(snapshot.waves_pushed, 2u);
  EXPECT_EQ(snapshot.total_pushes, 8u);  // 4 original + 4 recovered repushes
  // The recovered rows carried no package bytes: the retry wave had to
  // regenerate them from the re-uploaded catalog before re-pushing.
  EXPECT_EQ(rig.server->stats().repushes, 4u);
  for (const std::string& vin : rig.fleet->vins()) {
    EXPECT_EQ(*rig.server->AppState(vin, "maps"), InstallState::kInstalled) << vin;
  }
}

TEST(RecoveryTest, ForgottenCampaignStaysForgottenAndConvergedRowsStayDone) {
  RecoveryRig rig(/*vehicles=*/2, /*shards=*/1);
  rig.UploadApp("maps");
  auto first = rig.engine->StartDeploy(rig.user, "maps", rig.fleet->vins(),
                                       FastPolicy());
  ASSERT_TRUE(first.ok());
  rig.simulator.Run();
  ASSERT_TRUE(rig.engine->Finished(*first));
  ASSERT_TRUE(rig.engine->Forget(*first).ok());

  rig.KillServer();
  rig.RestartAndRecover();

  // The forget tombstone survives recovery: the slot is a hole, not a
  // resurrected campaign.
  EXPECT_EQ(rig.engine->Snapshot(*first).status().code(), ErrorCode::kNotFound);

  // A fresh campaign over the recovered fleet: every row was already
  // installed per the status DB, so the wave converges with zero pushes —
  // the recovered server must not re-push converged rows.
  const std::uint64_t batches_before = rig.fleet->batches_received();
  auto second = rig.engine->StartDeploy(rig.user, "maps", rig.fleet->vins(),
                                        FastPolicy());
  ASSERT_TRUE(second.ok());
  rig.simulator.Run();
  ASSERT_TRUE(rig.engine->Finished(*second));
  auto snapshot = *rig.engine->Snapshot(*second);
  EXPECT_EQ(snapshot.status, CampaignStatus::kConverged);
  EXPECT_EQ(snapshot.total_pushes, 0u);
  EXPECT_EQ(rig.fleet->batches_received(), batches_before);
  EXPECT_EQ(rig.server->stats().repushes, 0u);
}

/// What one fleet campaign run looks like from the outside — everything
/// the byte-identical acceptance check compares.
struct CampaignOutcome {
  std::string describe;
  CampaignStatus status = CampaignStatus::kRunning;
  std::size_t done = 0;
  std::uint64_t batches_received = 0;
};

/// Runs a 1k-vehicle campaign over 20% offline churn; when
/// `kill_mid_campaign`, the server + engine die at T0 + 500 ms — the
/// quiet window between the committed wave-2 evaluation (T0 + 300 ms)
/// and wave 3 (T0 + 700 ms) — and are rebuilt from the durable images
/// inside the same simulator event.
CampaignOutcome RunChurnedFleetCampaign(bool kill_mid_campaign) {
  RecoveryRig rig(/*vehicles=*/1000, /*shards=*/4);
  rig.UploadApp("fleet-app");
  sim::FaultScenario faults(rig.simulator, rig.network, /*seed=*/1914);
  faults.AddOfflineChurn(*rig.fleet, /*fraction=*/0.20,
                         /*horizon=*/10 * sim::kMillisecond,
                         /*min_offline=*/100 * sim::kMillisecond,
                         /*max_offline=*/400 * sim::kMillisecond);

  auto id = rig.engine->StartDeploy(rig.user, "fleet-app", rig.fleet->vins(),
                                    FastPolicy());
  EXPECT_TRUE(id.ok()) << id.status().ToString();
  if (kill_mid_campaign) {
    faults.KillAndRestartServer(
        500 * sim::kMillisecond, [&rig] { rig.KillServer(); },
        [&rig] { rig.RestartAndRecover(); });
  }
  rig.simulator.Run();

  CampaignOutcome outcome;
  outcome.describe = rig.engine->Describe(*id);
  outcome.batches_received = rig.fleet->batches_received();
  auto snapshot = rig.engine->Snapshot(*id);
  EXPECT_TRUE(snapshot.ok());
  if (snapshot.ok()) {
    outcome.status = snapshot->status;
    outcome.done = snapshot->done;
  }
  for (const std::string& vin : rig.fleet->vins()) {
    EXPECT_EQ(*rig.server->AppState(vin, "fleet-app"), InstallState::kInstalled)
        << vin;
  }
  return outcome;
}

TEST(RecoveryTest, KilledMidCampaignServerResumesByteIdenticallyAtFleetScale) {
  const CampaignOutcome uninterrupted = RunChurnedFleetCampaign(false);
  const CampaignOutcome killed = RunChurnedFleetCampaign(true);

  EXPECT_EQ(uninterrupted.status, CampaignStatus::kConverged);
  EXPECT_EQ(killed.status, CampaignStatus::kConverged);
  EXPECT_EQ(killed.done, 1000u);
  // The acceptance bar: the recovered run's full campaign fingerprint —
  // per-row states, attempts, done times, wave and push totals — is
  // byte-identical to the run that never died, and the fleet saw exactly
  // the same batch pushes (nothing converged was re-pushed).
  EXPECT_EQ(killed.describe, uninterrupted.describe);
  EXPECT_EQ(killed.batches_received, uninterrupted.batches_received);
}

// --- persistent catalog ------------------------------------------------------------

TEST(RecoveryTest, RecoveredCatalogMakesServerServiceableWithoutReuploads) {
  RecoveryRig rig(/*vehicles=*/6, /*shards=*/2);
  rig.UploadApp("maps");
  sim::FaultScenario faults(rig.simulator, rig.network, /*seed=*/7);

  auto id = rig.engine->StartDeploy(rig.user, "maps", rig.fleet->vins(),
                                    FastPolicy());
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  // Same shape as the rematerialization test above, but the restart
  // replays the LOG ALONE: no model re-upload, no app re-upload, no user
  // re-creation, no re-binding.  The catalog records in the status log
  // must carry everything — including the app binaries the retry wave
  // regenerates packages from.
  faults.LinkFlapAfter(sim::kMillisecond / 4,
                       sim::kMillisecond + sim::kMillisecond / 2);
  faults.KillAndRestartServer(
      sim::kMillisecond / 2, [&rig] { rig.KillServer(); },
      [&rig] { rig.RestartFromLogOnly(); });
  rig.simulator.Run();

  ASSERT_TRUE(rig.engine->Finished(*id));
  auto snapshot = *rig.engine->Snapshot(*id);
  EXPECT_EQ(snapshot.status, CampaignStatus::kConverged);
  EXPECT_EQ(snapshot.done, 6u);
  EXPECT_TRUE(rig.server->HasApp("maps"));
  for (const std::string& vin : rig.fleet->vins()) {
    EXPECT_EQ(*rig.server->AppState(vin, "maps"), InstallState::kInstalled) << vin;
  }
  // The recovered rows had no package bytes; the pushes that converged
  // them were materialized from the *recovered* catalog.
  EXPECT_GT(rig.server->stats().repushes, 0u);
}

/// Recovers a fresh server from `image` and returns its fleet fingerprint
/// text.  Deliberately sharded differently from the rig: the fingerprint
/// must not depend on shard placement.
std::string RecoverDescribeFleet(RecoveryRig& rig, std::uint32_t shard_count,
                                 std::span<const std::uint8_t> image) {
  server::ServerOptions options;
  options.shard_count = shard_count;
  server::TrustedServer fresh(rig.network, "srv-recover:1", options);
  const support::Status recovered = fresh.RecoverInstallDb(image);
  EXPECT_TRUE(recovered.ok()) << recovered.ToString();
  return fresh.DescribeFleet();
}

TEST(RecoveryTest, RecoveredRowsShareOneManifestPerCohortAndKeepTheirIds) {
  // V1 and V3 hold maps 1.0.0 with the same port-id claims, V2 holds it
  // with other claims, and every VIN also holds nav.  Cohorts are found
  // by content, so V1 and V3 share one manifest although other rows sit
  // between them, and V2 keeps its own ids.
  server::VehicleModelConf model;
  model.model = "m";
  model.hw.ecus.push_back(server::EcuInfo{1, "ECU1", true, true, 8, 4096});
  MemorySink sink;
  RecordWriter writer(sink);
  ASSERT_TRUE(writer.Append(server::EncodeCatalogUser(0, "ops")).ok());
  ASSERT_TRUE(writer.Append(server::EncodeCatalogModel(model)).ok());
  for (const char* vin : {"V1", "V2", "V3"}) {
    ASSERT_TRUE(writer.Append(server::EncodeCatalogBinding(vin, "m", 0)).ok());
  }
  auto append = [&writer](const std::string& vin, const std::string& app,
                          std::vector<std::uint8_t> ids) {
    StatusParagraph paragraph =
        MakeParagraph(vin, app, Want::kInstall, DbState::kInstalled);
    paragraph.plugins.push_back({app + ".p0", 1, std::move(ids)});
    EXPECT_TRUE(writer.Append(StatusDb::EncodeParagraph(paragraph)).ok());
  };
  append("V1", "maps", {3, 4});
  append("V1", "nav", {5});
  append("V2", "maps", {6, 7});
  append("V2", "nav", {5});
  append("V3", "nav", {5});
  append("V3", "maps", {3, 4});

  sim::Simulator simulator;
  sim::Network network{simulator};
  server::TrustedServer server(network, "srv-cohort:1",
                               server::ServerOptions{/*shard_count=*/2});
  ASSERT_TRUE(server.RecoverInstallDb(sink.bytes()).ok());
  auto installed = [&server](const std::string& vin, const std::string& app) {
    auto vehicle = server.FindVehicle(vin);
    EXPECT_NE(vehicle, nullptr);
    const server::InstalledApp* row =
        vehicle == nullptr ? nullptr : vehicle->FindInstalled(app);
    EXPECT_NE(row, nullptr);
    return row == nullptr ? server::InstalledApp{} : *row;
  };
  auto ids = [](const server::InstalledApp& row) {
    std::vector<std::uint8_t> out;
    for (const pirte::PicEntry& entry : row.plugins.at(0).pic.entries) {
      out.push_back(entry.unique_id);
    }
    return out;
  };
  const server::InstalledApp v1_maps = installed("V1", "maps");
  const server::InstalledApp v2_maps = installed("V2", "maps");
  const server::InstalledApp v3_maps = installed("V3", "maps");
  EXPECT_EQ(ids(v1_maps), (std::vector<std::uint8_t>{3, 4}));
  EXPECT_EQ(ids(v2_maps), (std::vector<std::uint8_t>{6, 7}));
  EXPECT_EQ(ids(v3_maps), (std::vector<std::uint8_t>{3, 4}));
  // One manifest per cohort: its uninstall envelope is built once and
  // shared by refcount.
  EXPECT_EQ(v1_maps.uninstall_bytes.data(), v3_maps.uninstall_bytes.data());
  EXPECT_NE(v1_maps.uninstall_bytes.data(), v2_maps.uninstall_bytes.data());
  EXPECT_EQ(installed("V1", "nav").uninstall_bytes.data(),
            installed("V3", "nav").uninstall_bytes.data());
}

TEST(RecoveryTest, CompactedLogRecoversIdenticallyToTheRawLog) {
  RecoveryRig rig(/*vehicles=*/6, /*shards=*/2);
  rig.UploadApp("maps");
  rig.UploadApp("nav", /*plugins=*/3);
  for (const char* app : {"maps", "nav"}) {
    auto id = rig.engine->StartDeploy(rig.user, app, rig.fleet->vins(),
                                      FastPolicy());
    ASSERT_TRUE(id.ok());
    rig.simulator.Run();
    ASSERT_TRUE(rig.engine->Finished(*id));
  }

  const support::Bytes raw = rig.status_log.bytes();
  ASSERT_TRUE(rig.server->Compact().ok());
  EXPECT_EQ(rig.server->stats().compactions, 1u);
  const support::Bytes& compacted = rig.status_log.bytes();
  EXPECT_LT(compacted.size(), raw.size());

  // Post-compaction the log IS the live image: well under the 2x guard.
  auto replayed = StatusDb::ReplayImage(compacted);
  ASSERT_TRUE(replayed.ok());
  EXPECT_LE(compacted.size(), 2 * replayed->live_bytes);

  const std::string live = rig.server->DescribeFleet();
  EXPECT_EQ(RecoverDescribeFleet(rig, /*shard_count=*/3, raw), live);
  EXPECT_EQ(RecoverDescribeFleet(rig, /*shard_count=*/1, compacted), live);
}

TEST(RecoveryTest, WatermarkCompactionBoundsTheLogAcrossFiveCampaigns) {
  // Five back-to-back fleet campaigns with a small watermark: the status
  // log must stay bounded by the live state, not grow with history.
  RecoveryRig rig(/*vehicles=*/50, /*shards=*/1,
                  /*compact_watermark=*/16 * 1024);
  rig.engine->SetJournalCompactionWatermark(8 * 1024);
  for (int i = 1; i <= 5; ++i) {
    const std::string app = "app-" + std::to_string(i);
    rig.UploadApp(app);
    auto id = rig.engine->StartDeploy(rig.user, app, rig.fleet->vins(),
                                      FastPolicy());
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    rig.simulator.Run();
    ASSERT_TRUE(rig.engine->Finished(*id));
    EXPECT_EQ(rig.engine->Snapshot(*id)->status, CampaignStatus::kConverged);
  }
  // The watermark actually fired mid-run...
  EXPECT_GE(rig.server->stats().compactions, 1u);
  // ...and the clean-shutdown compaction folds the log to the live bytes.
  ASSERT_TRUE(rig.server->Compact().ok());
  ASSERT_TRUE(rig.engine->CompactJournal().ok());
  auto replayed = StatusDb::ReplayImage(rig.status_log.bytes());
  ASSERT_TRUE(replayed.ok());
  EXPECT_LE(rig.status_log.bytes().size(), 2 * replayed->live_bytes);
  EXPECT_EQ(replayed->paragraphs.size(), 50u * 5u);

  // The compacted pair of logs still recovers a serviceable world.
  rig.KillServer();
  rig.RestartFromLogOnly();
  for (int i = 1; i <= 5; ++i) {
    EXPECT_TRUE(rig.server->HasApp("app-" + std::to_string(i)));
  }
  for (const std::string& vin : rig.fleet->vins()) {
    EXPECT_EQ(*rig.server->AppState(vin, "app-5"), InstallState::kInstalled) << vin;
  }
}

TEST(RecoveryTest, JournalCompactionDropsRetiredCampaigns) {
  RecoveryRig rig(/*vehicles=*/4, /*shards=*/1);
  rig.UploadApp("maps");
  auto first = rig.engine->StartDeploy(rig.user, "maps", rig.fleet->vins(),
                                       FastPolicy());
  ASSERT_TRUE(first.ok());
  rig.simulator.Run();
  ASSERT_TRUE(rig.engine->Finished(*first));
  ASSERT_TRUE(rig.engine->Forget(*first).ok());

  rig.UploadApp("nav");
  auto second = rig.engine->StartDeploy(rig.user, "nav", rig.fleet->vins(),
                                        FastPolicy());
  ASSERT_TRUE(second.ok());
  rig.simulator.Run();
  ASSERT_TRUE(rig.engine->Finished(*second));
  const std::string describe_before = rig.engine->Describe(*second);

  const std::size_t size_before = rig.journal_log.bytes().size();
  ASSERT_TRUE(rig.engine->CompactJournal().ok());
  // The Forget-growth fix: the retired campaign's whole record chain is
  // gone, only its tombstone (and the live campaign's fold) remain.
  EXPECT_LT(rig.journal_log.bytes().size(), size_before);
  auto recovered = server::ReplayCampaignJournal(rig.journal_log.bytes());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(recovered->size(), 2u);
  EXPECT_TRUE((*recovered)[0].forgotten);
  EXPECT_EQ((*recovered)[1].status, CampaignStatus::kConverged);

  // A restart from the compacted journal reproduces the campaign
  // fingerprint byte-identically and keeps the retired slot a hole.
  rig.KillServer();
  rig.RestartFromLogOnly();
  EXPECT_EQ(rig.engine->Describe(*second), describe_before);
  EXPECT_EQ(rig.engine->Snapshot(*first).status().code(), ErrorCode::kNotFound);
}

// --- degraded durability -----------------------------------------------------------

TEST(RecoveryTest, SinkFailureDegradesDurabilityStickilyAfterBoundedRetries) {
  sim::Simulator simulator;
  sim::Network network{simulator, sim::kMillisecond};
  MemorySink inner;
  FaultingSink faulty(inner, /*fail_after=*/10);  // tears the first record
  server::ServerOptions options;
  options.status_sink = &faulty;
  server::TrustedServer server(network, "srv:443", options);
  EXPECT_FALSE(server.stats().durability_degraded);

  // The catalog record for the model upload exceeds the sink budget: the
  // append fails, is retried the bounded number of times, and the server
  // goes (stickily) degraded — but the mutation itself succeeds.
  EXPECT_TRUE(server.UploadVehicleModel(fes::MakeRpiTestbedConf()).ok());
  server::ServerStats stats = server.stats();
  EXPECT_TRUE(stats.durability_degraded);
  EXPECT_EQ(stats.status_write_retries, 3u);
  EXPECT_EQ(stats.status_writes_lost, 1u);

  // Once degraded: single-attempt writes (no retry storm against a dead
  // sink), losses keep counting, availability is unaffected.
  EXPECT_TRUE(server.CreateUser("ops").ok());
  stats = server.stats();
  EXPECT_TRUE(stats.durability_degraded);
  EXPECT_EQ(stats.status_write_retries, 3u);
  EXPECT_EQ(stats.status_writes_lost, 2u);
}

}  // namespace
}  // namespace dacm
