// CheckpointStore — generation-numbered checkpoint sets on disk, with
// atomic publication and validated recovery.
//
// A *generation* is one consistent snapshot of every tenant in a
// ShardedEngine run: one OMFLP-CKPT file per tenant
// (`t<i>.g<N>.ckpt`, index-based so arbitrary tenant names never meet
// the filesystem) plus a manifest (`MANIFEST.g<N>.ckpt`, same format)
// pinning the round, the trace sequence number and the tenant list.
//
// Publication order is the crash-safety argument: every tenant file is
// written atomically (tmp + rename, support/atomic_file.hpp) *before*
// the manifest, and the manifest write is itself atomic — so the
// manifest is the commit point. A crash mid-publication leaves either
// no manifest for the new generation (the previous generation stays
// authoritative) or a complete, valid set. Torn tenant files without a
// checksum line, or corrupted ones failing it, are caught by
// latest_valid()'s independent scan and the whole generation is
// rejected in favour of the previous one.
//
// Two generations are kept (the freshly published one and its
// predecessor); older sets are pruned after each successful publish.
//
// Tenant payloads are streamed: publish() hands each tenant file's
// staging stream to a caller callback, so a snapshot is serialized
// straight into its file and no generation is held in memory as a
// whole. Every generation is self-contained — its own complete files,
// no links to or references into another generation — so the fallback
// above can reject one without touching its predecessor.
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
};

class CheckpointStore {
 public:
  /// Creates `dir` (and parents) if missing.
  explicit CheckpointStore(std::string dir);

  const std::string& dir() const noexcept { return dir_; }
  std::string tenant_path(std::size_t tenant_index,
                          std::uint64_t generation) const;
  std::string manifest_path(std::uint64_t generation) const;

  /// Writes tenant `tenant_index`'s complete OMFLP-CKPT payload into
  /// `os`, the staging stream of that tenant's file.
  using TenantWriter =
      std::function<void(std::size_t tenant_index, std::ostream& os)>;

  /// Publishes one generation: one atomic file per manifest tenant, in
  /// tenant order, filled by `write_tenant`; the manifest last; then
  /// prunes generations older than the previous one. Throws
  /// std::runtime_error on IO failure and propagates whatever
  /// `write_tenant` throws — in both cases before the manifest exists,
  /// so the previous generation stays authoritative.
  void publish(const CheckpointManifest& manifest,
               const TenantWriter& write_tenant);

  /// The newest generation whose manifest parses *and* whose every
  /// tenant file passes the independent OMFLP-CKPT structural check —
  /// torn or corrupted generations are skipped in favour of older
  /// valid ones. nullopt when no valid generation exists (fresh
  /// start). Never throws.
  std::optional<CheckpointManifest> latest_valid() const;

  /// Removes every generation except the `keep` newest among
  /// `generations` (ascending). Missing files are ignored.
  void prune(const std::vector<std::uint64_t>& generations,
             std::size_t keep = 2);

  /// All generations with a manifest file present, ascending.
  std::vector<std::uint64_t> list_generations() const;

 private:
  std::string dir_;
};

}  // namespace omflp
