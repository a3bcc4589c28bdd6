// OMFLP-CKPT v3 — the versioned, checksummed checkpoint container every
// fault-tolerance artifact uses (src/recover/): StreamSession snapshots,
// the per-generation manifest, and any state a roster algorithm
// serializes through its serialize_state/restore_state hooks.
//
// The format is line-oriented text:
//
//   OMFLP-CKPT 3
//   <key> <token> <token> ...
//   ...
//   checksum <16 hex digits>
//
// Tokens are single-space separated. Unsigned integers are decimal;
// doubles are the 16-hex-digit IEEE-754 bit pattern (bitwise exact round
// trip, including negative zero, infinities and NaN payloads — %.17g
// would round-trip values but support/parse.hpp rejects inf/nan, and
// recovery must reproduce state *bitwise*); arbitrary byte strings are
// "x" + lowercase hex; commodity sets are universe + word count + the
// raw bitset words. The trailing checksum line carries the FNV-1a 64
// hash of every preceding byte (newlines included), so truncation and
// bit flips are both detected: a torn file is missing its checksum line,
// a corrupted one fails the hash.
//
// The reader is strict in the stream_io/tracelog_io tradition: wrong
// keys, malformed tokens, trailing tokens, a missing or mismatched
// checksum, and trailing content all raise std::invalid_argument with
// the line number. It is bounded-memory against hostile counts: callers
// reserve via capped_reserve() and grow per *line actually present*, so
// a tampered "count 10^18" costs its text length, never an allocation.
//
// Canonical form: serialize → restore → serialize is byte-identical
// (tests/test_recover.cpp pins this down per roster algorithm).
//
// Versions: the writer emits version 3; the reader accepts 1, 2 and 3
// and reports which through version(). From version 2 on, a ledger
// "request" line starts with the request's id, because released records
// leave holes in the id range, while v1 records take consecutive ids from
// the ledger's first record id (solution/solution.hpp). Version 3 changes
// the PD-OMFLP section (core/pd_omflp.hpp): it holds only the archive's
// entries, each with its id, where v1 and v2 held every arrival with a
// departed flag plus a second copy of the duals.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "support/commodity_set.hpp"
#include "support/parse.hpp"  // capped_reserve — every reader's bounded
                              // first reservation for declared counts
#include "support/types.hpp"

namespace omflp {

/// Streaming OMFLP-CKPT v3 writer. The header is written on
/// construction; line(key) starts a record, the typed appenders add
/// tokens, finish() seals the file with the checksum line.
class CkptWriter {
 public:
  explicit CkptWriter(std::ostream& os);
  ~CkptWriter();

  CkptWriter(const CkptWriter&) = delete;
  CkptWriter& operator=(const CkptWriter&) = delete;

  /// Flush the pending line and start a new one keyed `key`.
  CkptWriter& line(std::string_view key);
  CkptWriter& u(std::uint64_t value);
  CkptWriter& b(bool value) { return u(value ? 1 : 0); }
  /// IEEE-754 bit pattern, 16 hex digits.
  CkptWriter& d(double value);
  /// A whitespace-free token (algorithm names, enum tags). Throws
  /// std::invalid_argument on embedded whitespace or an empty token.
  CkptWriter& tok(std::string_view token);
  /// Arbitrary bytes as "x" + lowercase hex.
  CkptWriter& bytes(std::string_view raw);
  CkptWriter& set(const CommoditySet& s);

  /// Flush and write the checksum line. Idempotent; required before the
  /// stream is used (the destructor does NOT finish — an abandoned
  /// writer leaves a detectably torn file, which is the point for
  /// torn-write fault injection).
  void finish();

 private:
  void flush_line();
  void emit(std::string_view text);

  std::ostream& os_;
  std::string line_;
  bool line_open_ = false;
  std::uint64_t fnv_;
  bool finished_ = false;
};

/// Strict bounded-memory OMFLP-CKPT reader (versions 1 to 3). The
/// header is validated on construction; next_key() or expect(key) loads
/// the next line and the typed accessors consume its tokens; finish()
/// validates the checksum line and end of input.
class CkptReader {
 public:
  explicit CkptReader(std::istream& is);

  CkptReader(const CkptReader&) = delete;
  CkptReader& operator=(const CkptReader&) = delete;

  /// Load the next line and return its key (valid until the next line
  /// is loaded). The previous line must have been fully consumed.
  std::string_view next_key();
  /// next_key(), which must equal `key`.
  void expect(std::string_view key);
  std::uint64_t u();
  bool b();
  double d();
  std::string tok();
  std::string bytes();
  /// A commodity set over `universe`; a line declaring another universe
  /// fails with "<what> universe mismatch" before anything is allocated.
  CommoditySet set(CommodityId universe, std::string_view what);
  /// A point of a metric with `num_points` points; a larger one fails.
  PointId point(std::size_t num_points);

  /// Validate the checksum line and the absence of trailing content.
  void finish();

  [[noreturn]] void fail(const std::string& msg) const;
  std::size_t line_number() const noexcept { return line_number_; }
  /// Container version from the header: 1, 2 or 3.
  unsigned version() const noexcept { return version_; }

 private:
  std::string next_token(const char* what);
  bool next_raw_line();

  std::istream& is_;
  std::string line_;
  std::size_t pos_ = 0;
  std::size_t line_number_ = 0;
  std::uint64_t fnv_;
  unsigned version_ = 0;
  bool finished_ = false;
};

/// One opened facility as the baselines index it: its point and its
/// ledger id.
struct OpenRecord {
  PointId point = 0;
  FacilityId id = kInvalidFacility;
};

/// A facility list as one line, `key count point id point id ...`: the
/// shape every baseline uses for its facility index. The reader refuses
/// a point outside the metric, so a restored list never indexes past a
/// distance row.
void serialize_open_records(CkptWriter& writer, std::string_view key,
                            const std::vector<OpenRecord>& records);
std::vector<OpenRecord> restore_open_records(CkptReader& reader,
                                             std::string_view key,
                                             std::size_t num_points);

class Rng;

/// Rng state as one "rng" line: the four xoshiro words plus the
/// Marsaglia normal cache. Shared by every randomized algorithm's
/// serialize_state/restore_state (RAND-OMFLP, Meyerson, stream
/// generators), so the restored draw sequence continues bitwise.
void serialize_rng(CkptWriter& writer, const Rng& rng);
void restore_rng(CkptReader& reader, Rng& rng);

/// Structural validation pass used before trusting a checkpoint file:
/// header present, checksum line present and matching, nothing after
/// it. Returns false (never throws) on any malformation, IO failure or
/// truncation — the independent check recovery uses to reject torn or
/// corrupted snapshots and fall back to the previous generation.
bool checkpoint_payload_valid(std::istream& is);

}  // namespace omflp
