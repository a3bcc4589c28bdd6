// Atomic file publication: write-to-temp + rename, so a crash (or a
// thrown exception) mid-write never leaves a truncated or corrupt
// artifact at the destination path — readers observe either the old
// content or the complete new content, never a torn state.
//
// Two shapes:
//   * write_file_atomic — one-shot: hand over the full content;
//   * AtomicFileWriter  — streaming: expose an std::ostream for writers
//     that produce output incrementally (tracelogs, metrics, BENCH
//     json, checkpoint files); commit() publishes, destruction without commit() abandons
//     the temp file and leaves any previous destination intact.
//
// The temp file lives next to the destination (`<path>.tmp`) so the
// rename is within one directory — atomic on POSIX. Concurrent writers
// to the same path are not coordinated; the engine's checkpoint
// publication is single-threaded by design.
#pragma once

#include <fstream>
#include <string>

namespace omflp {

/// The temp path write_file_atomic / AtomicFileWriter stage into before
/// renaming (exposed so crash-recovery code can find an in-flight file).
std::string atomic_temp_path(const std::string& path);

/// Writes `content` to `path` atomically. Throws std::runtime_error when
/// the temp file cannot be created, written, flushed, or renamed; the
/// destination is untouched in every failure case.
void write_file_atomic(const std::string& path, const std::string& content);

/// Streaming variant: writes into `<path>.tmp`; commit() flushes and
/// renames over `path`. Destruction without commit() removes the temp
/// file (abandon semantics).
class AtomicFileWriter {
 public:
  explicit AtomicFileWriter(std::string path);
  ~AtomicFileWriter();

  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  /// The staging stream; valid until commit().
  std::ostream& stream() { return file_; }

  /// Flush, close and rename into place. Throws std::runtime_error on
  /// any IO failure (the destination stays untouched); idempotent no-op
  /// after a successful commit.
  void commit();

  bool committed() const noexcept { return committed_; }

 private:
  std::string path_;
  std::string temp_path_;
  std::ofstream file_;
  bool committed_ = false;
};

}  // namespace omflp
