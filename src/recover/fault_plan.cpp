#include "recover/fault_plan.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "recover/checkpoint_store.hpp"
#include "support/parse.hpp"
#include "support/rng.hpp"

namespace omflp {

namespace {

[[noreturn]] void bad_spec(const std::string& what) {
  throw std::invalid_argument("--fault-plan: " + what);
}

std::uint64_t spec_u64(const std::string& key, const std::string& value) {
  const auto parsed = parse_u64_strict(value);
  if (!parsed) bad_spec("malformed value for " + key + ": '" + value + "'");
  return *parsed;
}

// Fault injection simulates the damage a real crash or a failing disk
// leaves behind, so it changes the published file in place, deliberately
// bypassing the atomic writer.
void flip_bit(const std::string& path, std::uint64_t offset) {
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  char byte = 0;
  file.seekg(static_cast<std::streamoff>(offset));
  if (!file.get(byte)) return;
  file.seekp(static_cast<std::streamoff>(offset));
  file.put(static_cast<char>(byte ^ 0x01));
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& spec) {
  std::uint64_t crashes = 1;
  std::uint64_t seed = 1;
  std::uint64_t gap = 8;
  FaultPlan plan;

  std::istringstream fields(spec);
  std::string field;
  while (std::getline(fields, field, ',')) {
    if (field.empty()) continue;
    const std::size_t eq = field.find('=');
    if (eq == std::string::npos)
      bad_spec("expected key=value, got '" + field + "'");
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    if (key == "crashes") {
      crashes = spec_u64(key, value);
    } else if (key == "seed") {
      seed = spec_u64(key, value);
    } else if (key == "gap") {
      gap = spec_u64(key, value);
    } else if (key == "torn") {
      plan.torn_ = spec_u64(key, value) != 0;
    } else if (key == "bitflip") {
      plan.bitflip_ = spec_u64(key, value) != 0;
    } else {
      bad_spec("unknown key '" + key + "'");
    }
  }
  if (gap == 0) bad_spec("gap must be positive");

  Rng rng(seed);
  std::uint64_t round = 0;
  plan.crash_rounds_.reserve(crashes);
  for (std::uint64_t k = 0; k < crashes; ++k) {
    round += static_cast<std::uint64_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(gap)));
    plan.crash_rounds_.push_back(round);
  }
  return plan;
}

bool FaultPlan::should_crash(std::uint64_t round) {
  if (next_ >= crash_rounds_.size()) return false;
  if (crash_rounds_[next_] > round) return false;
  ++next_;
  return true;
}

void FaultPlan::corrupt_latest(CheckpointStore& store) const {
  if (!torn_ && !bitflip_) return;
  const auto manifest = store.latest_valid();
  if (!manifest || manifest->tenants.empty()) return;

  // The bit flip first: in a one-file generation, tearing tenant 0's
  // section truncates every later section with it.
  if (bitflip_) {
    const TenantSection last =
        store.tenant_section(*manifest, manifest->tenants.size() - 1);
    if (last.size > 0) flip_bit(last.path, last.offset + last.size / 2);
  }
  if (torn_) {
    // Cut tenant 0's payload in half: its checksum line is gone, so the
    // structural validator must classify the generation as torn.
    const TenantSection first = store.tenant_section(*manifest, 0);
    std::error_code ec;
    std::filesystem::resize_file(first.path, first.offset + first.size / 2,
                                 ec);
  }
}

}  // namespace omflp
