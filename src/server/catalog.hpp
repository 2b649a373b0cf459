// Durable catalog records: users, vehicle models, apps and VIN bindings.
//
// PR 6 persisted the *install* state (status paragraphs) but left the
// catalog — who the users are, which models exist, which apps were
// uploaded, which VIN is bound to which model — as derived data the
// operator had to re-upload before recovery.  These records close that
// gap: every catalog mutation appends one incremental record to the
// status log (interleaved with paragraphs; the leading kind byte keeps
// the two streams apart), and compaction folds the whole catalog into a
// single kImage record at the front of the checkpoint, so a recovering
// server is fully serviceable from the log alone.
//
// Record payloads (each CRC-framed by the status log's RecordWriter;
// paragraphs lead with their version byte 1, catalog records with a
// CatalogRecordKind >= 2):
//
//   kUser    index name                      (incremental: CreateUser)
//   kModel   <model body>                    (incremental: UploadVehicleModel)
//   kApp     <app body, binaries inline>     (incremental: UploadApp)
//   kBinding vin model owner                 (incremental: BindVehicle)
//   kImage   <blob pool> <users> <models> <apps> <bindings>   (checkpoint)
//
// The kImage blob pool dedupes plug-in binaries by FNV-1a content hash —
// the same content-addressing the PackageCache keys batches by — so an
// app uploaded for N models (or N apps sharing a binary) stores each
// binary once per image instead of once per reference.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "server/model.hpp"
#include "support/bytes.hpp"
#include "support/status.hpp"

namespace dacm::server {

/// Leading payload byte of a catalog record.  Status paragraphs use 1
/// (their version byte); 0 is reserved so an empty payload never aliases.
enum class CatalogRecordKind : std::uint8_t {
  kUser = 2,
  kModel = 3,
  kApp = 4,
  kBinding = 5,
  kImage = 6,
};

/// One VIN -> (model, owner) binding.
struct CatalogBinding {
  std::string vin;
  std::string model;
  std::uint32_t owner = 0;
};

/// The folded catalog a replay produces: everything TrustedServer needs
/// to rebuild its user table, model map, app map and fleet bindings.
struct CatalogImage {
  /// Index == UserId.  `vins` is NOT serialized; RestoreCatalog rebuilds
  /// it from `bindings` (the bindings are the truth, the per-user list a
  /// cache).
  std::vector<User> users;
  /// Upload order (the server's interner order), so recovered model ids
  /// match the pre-crash interning.
  std::vector<VehicleModelConf> models;
  std::vector<App> apps;
  std::vector<CatalogBinding> bindings;

  bool empty() const {
    return users.empty() && models.empty() && apps.empty() && bindings.empty();
  }
};

/// True when `payload` is a catalog record (vs a status paragraph).
bool IsCatalogRecord(std::span<const std::uint8_t> payload);

// Incremental-record encoders, appended to the status log as the
// mutation commits.
support::Bytes EncodeCatalogUser(std::uint32_t index, const std::string& name);
support::Bytes EncodeCatalogModel(const VehicleModelConf& conf);
support::Bytes EncodeCatalogApp(const App& app);
support::Bytes EncodeCatalogBinding(const std::string& vin,
                                    const std::string& model,
                                    std::uint32_t owner);

/// Whole-catalog image record for the checkpoint, binaries deduped into
/// a content-hashed blob pool.
support::Bytes EncodeCatalogImage(const CatalogImage& image);

/// Folds a stream of catalog records into a CatalogImage: incremental
/// kinds upsert (users by index, models/apps replace-by-name preserving
/// first-seen order, bindings upsert by VIN); kImage replaces the image
/// wholesale — records appended after a checkpoint land on top of its
/// image.  Upserts go through keyed indexes, so folding N incremental
/// records costs O(N), not O(N^2).
class CatalogFold {
 public:
  support::Status Apply(std::span<const std::uint8_t> payload);
  CatalogImage Take() && { return std::move(image_); }

 private:
  /// Key -> position in one of the image's vectors, covering its first
  /// `covered` entries.  An upsert indexes the rest first, so a kImage
  /// that no incremental record follows is never indexed at all.
  struct Index {
    std::unordered_map<std::string, std::size_t> positions;
    std::size_t covered = 0;
  };

  template <typename T, typename KeyOf>
  static void Upsert(std::vector<T>& items, Index& index, T item,
                     KeyOf key_of);

  CatalogImage image_;
  Index models_;
  Index apps_;
  Index bindings_;
};

}  // namespace dacm::server
