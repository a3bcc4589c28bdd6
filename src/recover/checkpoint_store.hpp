// CheckpointStore — generation-numbered checkpoints on disk, with
// atomic publication and validated recovery.
//
// A *generation* is one consistent snapshot of every tenant in a
// ShardedEngine run, held in one file, `generation.g<N>.ckpt`:
//
//   tenant 0's OMFLP-CKPT payload
//   ...
//   tenant n-1's OMFLP-CKPT payload
//   index    an OMFLP-CKPT container: `manifest <generation> <round>
//            <trace seq> <n>`, then `tenant <name> <section bytes>`
//            per tenant, in tenant order
//   trailer  `OMFLP-PACK <index offset, 20 digits>\n`, fixed width
//
// Each tenant section is exactly the payload that tenant would have as
// a file of its own, checksum line included. Section boundaries come
// only from the byte counts in the index, which its own checksum
// covers; no payload line is ever read as a boundary. Tenant names
// stay inside the index, so arbitrary names never meet the filesystem.
//
// The whole file is written through one AtomicFileWriter (tmp +
// rename), so the rename is the commit point: a crash mid-publication
// leaves only a `.tmp` staging file, never a visible generation, and
// the previous generation stays authoritative. A generation damaged
// after its rename — torn (truncated), or with a flipped bit anywhere —
// fails the trailer, the index checksum or a section checksum in
// latest_valid(), which then falls back to the previous generation.
//
// Two generations are kept (the freshly published one and its
// predecessor); publish() deletes older ones, one file each. The store
// learns what is on disk from one directory scan at construction and
// tracks its own publications from there.
//
// Tenant payloads are streamed: publish() hands the file's staging
// stream to a caller callback once per tenant, so a snapshot is
// serialized straight into the file and no generation is held in memory
// as a whole. Every generation is self-contained, with no references
// into another, so the fallback above can reject one without touching
// its predecessor.
//
// Older builds wrote one file per tenant (`t<i>.g<N>.ckpt`) plus a
// manifest (`MANIFEST.g<N>.ckpt`, committed last). Such generations are
// still found, validated and read, and pruned like any other; nothing
// writes them any more. Where both layouts hold a generation of the
// same number, the one-file generation is the one read.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace omflp {

struct CheckpointManifest {
  std::uint64_t generation = 0;
  /// Engine round the snapshot was taken after.
  std::uint64_t round = 0;
  /// Trace events emitted to the sink before the snapshot — the replay
  /// boundary a resumed run's tracelog is truncated to.
  std::uint64_t trace_seq = 0;
  /// Tenant names in spec order (a guard: a checkpoint set only
  /// restores into the same tenant roster).
  std::vector<std::string> tenants;
  /// Where each tenant's section starts in the generation file, then
  /// where the index starts (tenants.size() + 1 offsets). Filled by
  /// load() and latest_valid(); publish() ignores it. Empty for an
  /// old-layout generation, whose tenants have files of their own.
  std::vector<std::uint64_t> section_offsets;
};

/// The bytes of one tenant's payload on disk.
struct TenantSection {
  std::string path;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
};

class CheckpointStore {
 public:
  /// Creates `dir` (and parents) if missing and scans it once for the
  /// generations already there.
  explicit CheckpointStore(std::string dir);

  const std::string& dir() const noexcept { return dir_; }
  std::string generation_path(std::uint64_t generation) const;

  /// Writes tenant `tenant_index`'s complete OMFLP-CKPT payload into
  /// `os`, the generation file's staging stream.
  using TenantWriter =
      std::function<void(std::size_t tenant_index, std::ostream& os)>;

  /// Publishes one generation: every manifest tenant's section, in
  /// tenant order, filled by `write_tenant`; then the index and the
  /// trailer; then the rename. Afterwards deletes the generations older
  /// than the previous one. Throws std::runtime_error on IO failure and
  /// propagates whatever `write_tenant` throws — in both cases before
  /// the rename, so the previous generation stays authoritative.
  void publish(const CheckpointManifest& manifest,
               const TenantWriter& write_tenant);

  /// `generation`'s manifest, with section_offsets, when its trailer,
  /// index and every tenant payload's checksum validate; nullopt when it
  /// is missing, torn or corrupted. Never throws.
  std::optional<CheckpointManifest> load(std::uint64_t generation) const;

  /// The newest generation load() accepts — torn or corrupted
  /// generations are skipped in favour of older valid ones. nullopt
  /// when no valid generation exists (fresh start). Never throws.
  std::optional<CheckpointManifest> latest_valid() const;

  /// Where tenant `tenant_index`'s payload of a loaded `manifest` lies.
  TenantSection tenant_section(const CheckpointManifest& manifest,
                               std::size_t tenant_index) const;

  /// Tenant `tenant_index`'s OMFLP-CKPT payload of a loaded `manifest`.
  /// Throws std::runtime_error when it cannot be read.
  std::string read_tenant(const CheckpointManifest& manifest,
                          std::size_t tenant_index) const;

  /// Every generation present in the directory, in either layout,
  /// ascending. Scans the directory on each call.
  std::vector<std::uint64_t> list_generations() const;

 private:
  std::string legacy_manifest_path(std::uint64_t generation) const;
  std::string legacy_tenant_path(std::size_t tenant_index,
                                 std::uint64_t generation) const;
  void prune();

  std::string dir_;
  /// Generations on disk, ascending: the construction scan plus every
  /// publish() since.
  std::vector<std::uint64_t> generations_;
  /// Those of them that have an old-layout set, ascending.
  std::vector<std::uint64_t> legacy_;
};

}  // namespace omflp
