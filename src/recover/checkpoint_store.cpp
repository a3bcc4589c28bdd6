#include "recover/checkpoint_store.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <utility>

#include "instance/checkpoint_io.hpp"
#include "support/assert.hpp"
#include "support/atomic_file.hpp"
#include "support/parse.hpp"

namespace fs = std::filesystem;

namespace omflp {

namespace {

constexpr std::string_view kGenerationStem = "generation.g";
constexpr std::string_view kLegacyManifestStem = "MANIFEST.g";
constexpr std::string_view kExtension = ".ckpt";

// The trailer: the key, the index offset as exactly kOffsetDigits
// decimal digits, a newline. Fixed width, so a reader finds it at the
// end of the file without scanning anything else.
constexpr std::string_view kTrailerKey = "OMFLP-PACK ";
constexpr std::size_t kOffsetDigits = 20;  // every uint64_t fits
constexpr std::size_t kTrailerSize = kTrailerKey.size() + kOffsetDigits + 1;

std::string file_name(std::string_view stem, std::uint64_t generation) {
  std::string name(stem);
  name += std::to_string(generation);
  name += kExtension;
  return name;
}

/// The generation number of `name` when it is `<stem><digits>.ckpt`.
std::optional<std::uint64_t> generation_of(std::string_view name,
                                           std::string_view stem) {
  if (name.size() <= stem.size() + kExtension.size()) return std::nullopt;
  if (name.substr(0, stem.size()) != stem) return std::nullopt;
  if (name.substr(name.size() - kExtension.size()) != kExtension)
    return std::nullopt;
  return parse_u64_strict(name.substr(
      stem.size(), name.size() - stem.size() - kExtension.size()));
}

struct DirectoryScan {
  std::vector<std::uint64_t> all;     // either layout, ascending, unique
  std::vector<std::uint64_t> legacy;  // with an old-layout set, ascending
};

DirectoryScan scan(const std::string& dir) {
  DirectoryScan found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (const auto g = generation_of(name, kGenerationStem)) {
      found.all.push_back(*g);
    } else if (const auto legacy = generation_of(name, kLegacyManifestStem)) {
      found.all.push_back(*legacy);
      found.legacy.push_back(*legacy);
    }
  }
  std::sort(found.all.begin(), found.all.end());
  found.all.erase(std::unique(found.all.begin(), found.all.end()),
                  found.all.end());
  std::sort(found.legacy.begin(), found.legacy.end());
  return found;
}

/// The index: the manifest line, then one `tenant` line per tenant with
/// its section's byte count.
void write_index(std::ostream& os, const CheckpointManifest& manifest,
                 const std::vector<std::uint64_t>& section_bytes) {
  CkptWriter writer(os);
  writer.line("manifest")
      .u(manifest.generation)
      .u(manifest.round)
      .u(manifest.trace_seq)
      .u(manifest.tenants.size());
  for (std::size_t i = 0; i < manifest.tenants.size(); ++i)
    writer.line("tenant").bytes(manifest.tenants[i]).u(section_bytes[i]);
  writer.finish();
}

/// Reads an index into `section_bytes`, or, with nullptr, an old-layout
/// manifest file, whose tenant lines hold only the name.
CheckpointManifest read_index(std::istream& is,
                              std::vector<std::uint64_t>* section_bytes) {
  CkptReader reader(is);
  CheckpointManifest manifest;
  reader.expect("manifest");
  manifest.generation = reader.u();
  manifest.round = reader.u();
  manifest.trace_seq = reader.u();
  const std::uint64_t num_tenants = reader.u();
  manifest.tenants.reserve(capped_reserve(num_tenants));
  for (std::uint64_t i = 0; i < num_tenants; ++i) {
    reader.expect("tenant");
    manifest.tenants.push_back(reader.bytes());
    if (section_bytes != nullptr) section_bytes->push_back(reader.u());
  }
  reader.finish();
  return manifest;
}

std::string trailer(std::uint64_t index_offset) {
  std::string digits = std::to_string(index_offset);
  std::string line(kTrailerKey);
  line.append(kOffsetDigits - digits.size(), '0');
  line += digits;
  line += '\n';
  return line;
}

std::optional<std::uint64_t> parse_trailer(std::string_view line) {
  if (line.size() != kTrailerSize || line.back() != '\n' ||
      line.substr(0, kTrailerKey.size()) != kTrailerKey)
    return std::nullopt;
  const std::string_view digits =
      line.substr(kTrailerKey.size(), kOffsetDigits);
  if (!std::all_of(digits.begin(), digits.end(),
                   [](char c) { return c >= '0' && c <= '9'; }))
    return std::nullopt;
  return parse_u64_strict(digits);
}

/// `size` bytes of `in` from `offset`; throws when they are not there.
std::string read_range(std::istream& in, std::uint64_t offset,
                       std::uint64_t size, const std::string& path) {
  std::string bytes(size, '\0');
  in.seekg(static_cast<std::streamoff>(offset));
  if (!in.read(bytes.data(), static_cast<std::streamsize>(size)))
    throw std::runtime_error("CheckpointStore: cannot read " +
                             std::to_string(size) + " bytes at " +
                             std::to_string(offset) + " of " + path);
  return bytes;
}

/// A one-file generation: the trailer locates the index, the index's
/// byte counts must tile the file up to it, and every section must pass
/// its own checksum.
std::optional<CheckpointManifest> load_generation_file(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  in.seekg(0, std::ios::end);
  const std::streamoff file_size = in.tellg();
  if (file_size < static_cast<std::streamoff>(kTrailerSize))
    return std::nullopt;
  const std::uint64_t index_end =
      static_cast<std::uint64_t>(file_size) - kTrailerSize;
  const std::optional<std::uint64_t> index_offset =
      parse_trailer(read_range(in, index_end, kTrailerSize, path));
  if (!index_offset || *index_offset > index_end) return std::nullopt;

  std::istringstream index(
      read_range(in, *index_offset, index_end - *index_offset, path));
  std::vector<std::uint64_t> section_bytes;
  CheckpointManifest manifest = read_index(index, &section_bytes);
  manifest.section_offsets.reserve(capped_reserve(section_bytes.size() + 1));
  std::uint64_t offset = 0;
  for (const std::uint64_t bytes : section_bytes) {
    if (bytes > *index_offset - offset) return std::nullopt;
    manifest.section_offsets.push_back(offset);
    offset += bytes;
  }
  if (offset != *index_offset) return std::nullopt;
  manifest.section_offsets.push_back(offset);

  for (std::size_t i = 0; i < section_bytes.size(); ++i) {
    std::istringstream section(read_range(in, manifest.section_offsets[i],
                                          section_bytes[i], path));
    if (!checkpoint_payload_valid(section)) return std::nullopt;
  }
  return manifest;
}

}  // namespace

CheckpointStore::CheckpointStore(std::string dir) : dir_(std::move(dir)) {
  OMFLP_REQUIRE(!dir_.empty(), "CheckpointStore: empty directory");
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec)
    throw std::runtime_error("CheckpointStore: cannot create " + dir_ +
                             ": " + ec.message());
  DirectoryScan found = scan(dir_);
  generations_ = std::move(found.all);
  legacy_ = std::move(found.legacy);
}

std::string CheckpointStore::generation_path(std::uint64_t generation) const {
  return (fs::path(dir_) / file_name(kGenerationStem, generation)).string();
}

std::string CheckpointStore::legacy_manifest_path(
    std::uint64_t generation) const {
  return (fs::path(dir_) / file_name(kLegacyManifestStem, generation))
      .string();
}

std::string CheckpointStore::legacy_tenant_path(
    std::size_t tenant_index, std::uint64_t generation) const {
  std::string stem = "t";
  stem += std::to_string(tenant_index);
  stem += ".g";
  return (fs::path(dir_) / file_name(stem, generation)).string();
}

void CheckpointStore::publish(const CheckpointManifest& manifest,
                              const TenantWriter& write_tenant) {
  const std::string path = generation_path(manifest.generation);
  AtomicFileWriter file(path);
  std::ostream& os = file.stream();
  std::vector<std::uint64_t> section_bytes;
  std::uint64_t section_end = 0;
  for (std::size_t i = 0; i < manifest.tenants.size(); ++i) {
    write_tenant(i, os);
    const std::streamoff end = os.tellp();
    if (end < 0)
      throw std::runtime_error("CheckpointStore: failed writing " + path);
    section_bytes.push_back(static_cast<std::uint64_t>(end) - section_end);
    section_end = static_cast<std::uint64_t>(end);
  }
  write_index(os, manifest, section_bytes);
  os << trailer(section_end);
  // The commit point: until this rename the generation does not exist.
  file.commit();

  const auto at = std::lower_bound(generations_.begin(), generations_.end(),
                                   manifest.generation);
  if (at == generations_.end() || *at != manifest.generation)
    generations_.insert(at, manifest.generation);
  prune();
}

void CheckpointStore::prune() {
  constexpr std::size_t kKeep = 2;
  if (generations_.size() <= kKeep) return;
  const std::size_t drop = generations_.size() - kKeep;
  std::error_code ec;
  for (std::size_t k = 0; k < drop; ++k) {
    const std::uint64_t g = generations_[k];
    fs::remove(generation_path(g), ec);
    if (!std::binary_search(legacy_.begin(), legacy_.end(), g)) continue;
    // An old-layout set: manifest first, so a crash mid-prune leaves
    // stray tenant files that no generation claims, never a half set.
    // Its tenant files are t0, t1, ... up to the first one missing.
    fs::remove(legacy_manifest_path(g), ec);
    for (std::size_t i = 0;; ++i)
      if (!fs::remove(legacy_tenant_path(i, g), ec)) break;
  }
  generations_.erase(generations_.begin(),
                     generations_.begin() + static_cast<std::ptrdiff_t>(drop));
  legacy_.erase(legacy_.begin(),
                std::lower_bound(legacy_.begin(), legacy_.end(),
                                 generations_.front()));
}

std::optional<CheckpointManifest> CheckpointStore::load(
    std::uint64_t generation) const {
  try {
    std::optional<CheckpointManifest> manifest;
    const std::string path = generation_path(generation);
    std::error_code ec;
    if (fs::exists(path, ec)) {
      manifest = load_generation_file(path);
    } else {
      std::ifstream in(legacy_manifest_path(generation), std::ios::binary);
      if (!in) return std::nullopt;
      manifest = read_index(in, nullptr);
      for (std::size_t i = 0; i < manifest->tenants.size(); ++i) {
        std::ifstream tenant(legacy_tenant_path(i, generation),
                             std::ios::binary);
        if (!tenant || !checkpoint_payload_valid(tenant)) return std::nullopt;
      }
    }
    if (manifest && manifest->generation == generation) return manifest;
  } catch (const std::exception&) {
  }
  return std::nullopt;
}

std::optional<CheckpointManifest> CheckpointStore::latest_valid() const {
  try {
    const std::vector<std::uint64_t> generations = list_generations();
    for (auto it = generations.rbegin(); it != generations.rend(); ++it)
      if (auto manifest = load(*it)) return manifest;
  } catch (const std::exception&) {
  }
  return std::nullopt;
}

TenantSection CheckpointStore::tenant_section(
    const CheckpointManifest& manifest, std::size_t tenant_index) const {
  OMFLP_REQUIRE(tenant_index < manifest.tenants.size(),
                "CheckpointStore: tenant index out of range");
  if (manifest.section_offsets.empty()) {
    TenantSection section;
    section.path = legacy_tenant_path(tenant_index, manifest.generation);
    std::error_code ec;
    const std::uintmax_t size = fs::file_size(section.path, ec);
    if (ec)
      throw std::runtime_error("CheckpointStore: cannot read " +
                               section.path + ": " + ec.message());
    section.size = size;
    return section;
  }
  OMFLP_REQUIRE(manifest.section_offsets.size() == manifest.tenants.size() + 1,
                "CheckpointStore: manifest without section offsets");
  return {generation_path(manifest.generation),
          manifest.section_offsets[tenant_index],
          manifest.section_offsets[tenant_index + 1] -
              manifest.section_offsets[tenant_index]};
}

std::string CheckpointStore::read_tenant(const CheckpointManifest& manifest,
                                         std::size_t tenant_index) const {
  const TenantSection section = tenant_section(manifest, tenant_index);
  std::ifstream in(section.path, std::ios::binary);
  return read_range(in, section.offset, section.size, section.path);
}

std::vector<std::uint64_t> CheckpointStore::list_generations() const {
  return scan(dir_).all;
}

}  // namespace omflp
