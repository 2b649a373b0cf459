#include "server/status_db.hpp"

#include <algorithm>
#include <functional>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "support/bytes.hpp"

namespace dacm::server {
namespace {

constexpr std::uint8_t kParagraphVersion = 1;
constexpr std::uint64_t kFrameHeaderBytes = 8;  // u32 len + u32 crc

/// One entry of a paragraph's plug-in run, viewed in place.
struct PluginView {
  std::string_view plugin;
  std::uint32_t ecu_id = 0;
  std::span<const std::uint8_t> unique_ids;
};

support::Result<PluginView> ReadPlugin(support::ByteReader& reader) {
  PluginView view;
  DACM_ASSIGN_OR_RETURN(view.plugin, reader.ReadStringView());
  DACM_ASSIGN_OR_RETURN(view.ecu_id, reader.ReadU32());
  DACM_ASSIGN_OR_RETURN(const std::uint32_t id_count, reader.ReadVarU32());
  DACM_ASSIGN_OR_RETURN(view.unique_ids, reader.ReadRawView(id_count));
  return view;
}

/// A paragraph validated where it lies in the log image: the views alias
/// the image, and `plugins` is the already-checked plug-in run.
struct ParagraphView {
  std::string_view vin;
  std::string_view app;
  std::string_view version;
  Want want = Want::kInstall;
  DbState state = DbState::kNotInstalled;
  std::uint32_t plugin_count = 0;
  std::span<const std::uint8_t> plugins;
};

/// Every schema check of the paragraph encoding, with no allocation.
support::Result<ParagraphView> ValidateParagraph(
    std::span<const std::uint8_t> payload) {
  support::ByteReader reader(payload);
  DACM_ASSIGN_OR_RETURN(const std::uint8_t version, reader.ReadU8());
  if (version != kParagraphVersion) {
    return support::Corrupted("unknown status paragraph version");
  }
  ParagraphView view;
  DACM_ASSIGN_OR_RETURN(view.vin, reader.ReadStringView());
  DACM_ASSIGN_OR_RETURN(view.app, reader.ReadStringView());
  DACM_ASSIGN_OR_RETURN(view.version, reader.ReadStringView());
  DACM_ASSIGN_OR_RETURN(const std::uint8_t want, reader.ReadU8());
  DACM_ASSIGN_OR_RETURN(const std::uint8_t state, reader.ReadU8());
  if (want > static_cast<std::uint8_t>(Want::kDeinstall) ||
      state > static_cast<std::uint8_t>(DbState::kErrorState)) {
    return support::Corrupted("status paragraph enum out of range");
  }
  view.want = static_cast<Want>(want);
  view.state = static_cast<DbState>(state);
  DACM_ASSIGN_OR_RETURN(view.plugin_count, reader.ReadVarU32());
  view.plugins = payload.subspan(payload.size() - reader.remaining());
  for (std::uint32_t i = 0; i < view.plugin_count; ++i) {
    DACM_RETURN_IF_ERROR(ReadPlugin(reader).status());
  }
  if (!reader.exhausted()) {
    return support::Corrupted("trailing bytes in status paragraph");
  }
  return view;
}

/// Decodes a validated paragraph into owned storage.
StatusParagraph Materialize(const ParagraphView& view) {
  StatusParagraph paragraph;
  paragraph.vin = view.vin;
  paragraph.app = view.app;
  paragraph.version = view.version;
  paragraph.want = view.want;
  paragraph.state = view.state;
  paragraph.plugins.reserve(view.plugin_count);
  support::ByteReader reader(view.plugins);
  for (std::uint32_t i = 0; i < view.plugin_count; ++i) {
    const PluginView plugin = *ReadPlugin(reader);  // ValidateParagraph passed
    paragraph.plugins.push_back(
        {std::string(plugin.plugin), plugin.ecu_id,
         std::vector<std::uint8_t>(plugin.unique_ids.begin(),
                                   plugin.unique_ids.end())});
  }
  return paragraph;
}

using ParagraphKey = std::pair<std::string_view, std::string_view>;

struct ParagraphKeyHash {
  std::size_t operator()(const ParagraphKey& key) const {
    const std::hash<std::string_view> hash;
    return hash(key.first) * 31 + hash(key.second);
  }
};

}  // namespace

std::string_view WantName(Want want) {
  switch (want) {
    case Want::kInstall: return "install";
    case Want::kDeinstall: return "deinstall";
  }
  return "?";
}

std::string_view DbStateName(DbState state) {
  switch (state) {
    case DbState::kNotInstalled: return "not-installed";
    case DbState::kHalfInstalled: return "half-installed";
    case DbState::kInstalled: return "installed";
    case DbState::kHalfRemoved: return "half-removed";
    case DbState::kErrorState: return "error";
  }
  return "?";
}

support::Bytes StatusDb::EncodeParagraph(const StatusParagraph& paragraph) {
  support::ByteWriter writer;
  writer.WriteU8(kParagraphVersion);
  writer.WriteString(paragraph.vin);
  writer.WriteString(paragraph.app);
  writer.WriteString(paragraph.version);
  writer.WriteU8(static_cast<std::uint8_t>(paragraph.want));
  writer.WriteU8(static_cast<std::uint8_t>(paragraph.state));
  writer.WriteVarU32(static_cast<std::uint32_t>(paragraph.plugins.size()));
  for (const StatusParagraph::PluginIds& ids : paragraph.plugins) {
    writer.WriteString(ids.plugin);
    writer.WriteU32(ids.ecu_id);
    writer.WriteVarU32(static_cast<std::uint32_t>(ids.unique_ids.size()));
    for (const std::uint8_t unique : ids.unique_ids) writer.WriteU8(unique);
  }
  return writer.Take();
}

support::Status StatusDb::Append(const StatusParagraph& paragraph) {
  return writer_.Append(EncodeParagraph(paragraph));
}

support::Status StatusDb::AppendRaw(std::span<const std::uint8_t> payload) {
  return writer_.Append(payload);
}

support::Result<std::vector<StatusParagraph>> StatusDb::Replay(
    std::span<const std::uint8_t> data) {
  DACM_ASSIGN_OR_RETURN(StatusImage image, ReplayImage(data));
  return std::move(image.paragraphs);
}

support::Result<StatusImage> StatusDb::ReplayImage(
    std::span<const std::uint8_t> data) {
  StatusImage image;
  CatalogFold catalog;
  // Last-writer-wins per (vin, app) over views into `data`; a tombstone
  // stays in the map as its own latest state and is skipped below.
  std::unordered_map<ParagraphKey, ParagraphView, ParagraphKeyHash> latest;
  auto fold = [&latest, &catalog](std::span<const std::uint8_t> payload) {
    if (IsCatalogRecord(payload)) return catalog.Apply(payload);
    auto view = ValidateParagraph(payload);
    DACM_RETURN_IF_ERROR(view.status());
    latest.insert_or_assign(ParagraphKey{view->vin, view->app}, *view);
    return support::OkStatus();
  };
  DACM_ASSIGN_OR_RETURN(image.stats, support::ReplayRecords(data, fold));
  image.catalog = std::move(catalog).Take();

  // Only the survivors are decoded, in (vin, app) order so recovery is
  // deterministic whatever the shards' append interleaving was.
  std::vector<const ParagraphView*> survivors;
  survivors.reserve(latest.size());
  for (const auto& [key, view] : latest) {
    if (view.state != DbState::kNotInstalled) survivors.push_back(&view);
  }
  std::sort(survivors.begin(), survivors.end(),
            [](const ParagraphView* a, const ParagraphView* b) {
              return std::tie(a->vin, a->app) < std::tie(b->vin, b->app);
            });
  image.paragraphs.reserve(survivors.size());
  image.live_bytes =
      kFrameHeaderBytes + EncodeCatalogImage(image.catalog).size();
  for (const ParagraphView* view : survivors) {
    image.paragraphs.push_back(Materialize(*view));
    image.live_bytes +=
        kFrameHeaderBytes + EncodeParagraph(image.paragraphs.back()).size();
  }
  return image;
}

}  // namespace dacm::server
