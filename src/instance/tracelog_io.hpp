// OMFLP-TRACELOG v1 — the serialized form of a decision trace
// (src/obs/trace_sink.hpp), one JSON object per line:
//
//   {"format":"OMFLP-TRACELOG","version":1}
//   {"seq":0,"kind":"dual_raise","request":0,"commodity":1,...}
//   {"seq":1,"kind":"facility_open","request":0,"facility":0,...}
//   ...
//   {"end":true,"events":2}
//
// Every event line starts with its sequence number and the reader
// enforces seq == line index, so a dropped, duplicated or reordered line
// is detected immediately; the trailing end line pins the total count, so
// truncation is detected too. One field list per kind (fixed order,
// %.17g doubles) drives both the writer and the reader, so read → rewrite
// reproduces the input byte for byte — tracelogs double as golden-trace
// differential artifacts (CI diffs OMFLP_THREADS=1 vs 4 outputs).
//
// The reader re-encodes every parsed event and rejects the line unless
// the bytes match: the canonical spelling is the only one accepted.
// Unknown kinds, out-of-order fields, out-of-range ids, seq gaps, a
// missing end line and trailing content are all rejected with
// std::invalid_argument; it holds one event in memory at a time
// (contributor lists are capped at kMaxTraceContributors), so absurd or
// hostile inputs cannot drive allocation.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace_sink.hpp"

namespace omflp {

/// Serialize one event as its canonical single-line JSON (no newline).
std::string tracelog_event_to_json(const TraceEvent& event,
                                   std::uint64_t seq);

/// A TraceSink that streams events straight to `os` in OMFLP-TRACELOG v1.
/// The header is written on construction; call finish() (or let the
/// destructor do it) to append the end line. The ostream must outlive the
/// writer.
class TraceLogWriter final : public TraceSink {
 public:
  explicit TraceLogWriter(std::ostream& os);
  ~TraceLogWriter() override;

  TraceLogWriter(const TraceLogWriter&) = delete;
  TraceLogWriter& operator=(const TraceLogWriter&) = delete;

  void on_event(const TraceEvent& event) override;

  /// Write the end line and flush. Idempotent; further on_event calls
  /// throw std::logic_error.
  void finish();

  std::uint64_t events_written() const noexcept { return seq_; }

 private:
  std::ostream& os_;
  std::string line_;  // reused per event
  std::uint64_t seq_ = 0;
  bool finished_ = false;
};

/// Reader behavior on a damaged log (crash mid-write, torn tail).
enum class TraceLogReadMode {
  /// Reject everything: seq gaps, malformed lines, a missing end line
  /// and trailing content all throw. The default, and the only mode
  /// golden-trace diffing may use.
  kStrict,
  /// Crash recovery: yield the longest valid seq-contiguous prefix and
  /// stop at the first damaged line (or at an unterminated tail), never
  /// throwing past the header. truncated() reports whether anything was
  /// dropped. The header must still be valid — a file that is not a
  /// tracelog at all has no prefix to recover.
  kRecoverPrefix,
};

/// Bounded-memory streaming reader for OMFLP-TRACELOG v1. The header is
/// parsed on construction; next() yields events one at a time and returns
/// false only after validating the end line and the absence of trailing
/// content (strict mode) or at the first sign of damage (recover mode).
class TraceLogReader {
 public:
  explicit TraceLogReader(std::istream& is,
                          TraceLogReadMode mode = TraceLogReadMode::kStrict);
  ~TraceLogReader();

  TraceLogReader(const TraceLogReader&) = delete;
  TraceLogReader& operator=(const TraceLogReader&) = delete;

  /// Parse the next event into `out`. Returns false at the (validated)
  /// end of the log; throws std::invalid_argument on any malformation
  /// (strict mode only).
  bool next(TraceEvent& out);

  std::uint64_t events_read() const noexcept;

  /// True when recover mode stopped before a valid end line — the log
  /// was torn or corrupted and events_read() is the surviving prefix.
  /// Always false in strict mode (damage throws instead).
  bool truncated() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Materializing convenience wrappers (tests, `omflp explain`).
std::vector<TraceEvent> read_tracelog(
    std::istream& is, TraceLogReadMode mode = TraceLogReadMode::kStrict);
std::vector<TraceEvent> tracelog_from_string(const std::string& text);
void write_tracelog(std::ostream& os, const std::vector<TraceEvent>& events);
std::string tracelog_to_string(const std::vector<TraceEvent>& events);

}  // namespace omflp
