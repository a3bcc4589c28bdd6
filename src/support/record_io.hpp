// RecordReader — the one strict reader behind the whitespace text formats
// (OMFLP-INSTANCE, OMFLP-STREAM, OMFLP-CERT) and the line framing of
// OMFLP-TRACELOG.
//
// Two layers over one input:
//   * line framing: blank lines (only " \t\r") and lines whose first
//     non-blank character is '#' are skipped, and every failure reads
//     "<reader>: <msg> (line N)";
//   * a token cursor over the current line, split on exactly the C-locale
//     whitespace set (space, \t, \n, \v, \f, \r), so token boundaries
//     match `istream >> std::string` without the stream, its locale
//     lookups or a string per token.
//
// The strictness rule of the formats lives here: numbers go through
// parse_u64_strict / parse_double_strict, and a reader calls end() once a
// line's last field is read, so a token left over is an error. Only the
// free-text fields (rest()) take the remainder of a line verbatim.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>

#include "support/parse.hpp"

namespace omflp {

class RecordReader {
 public:
  /// `name` prefixes every error message (e.g. "read_instance"). The
  /// istream must outlive the reader.
  RecordReader(std::istream& is, std::string name)
      : is_(is), name_(std::move(name)) {}

  /// Loads the next content line and points the cursor at its start;
  /// throws "unexpected end of input while reading <what>" at the end.
  void line(const char* what);
  /// line() that returns false at the end of input instead.
  bool try_line();
  /// Fails with "trailing content after <what>" unless the input ends.
  void expect_eof(const char* what);

  /// The current line, verbatim; valid until the next line() call.
  std::string_view text() const noexcept { return line_; }

  /// The next token of the current line, or an empty view once the line
  /// is exhausted.
  std::string_view next() noexcept {
    std::size_t begin = 0;
    while (begin < rest_.size() && is_space(rest_[begin])) ++begin;
    std::size_t end = begin;
    while (end < rest_.size() && !is_space(rest_[end])) ++end;
    const std::string_view token = rest_.substr(begin, end - begin);
    rest_.remove_prefix(end);
    return token;
  }

  /// Consumes `token` if it is next on the line (an optional field).
  bool accept(std::string_view token) noexcept;
  /// Requires `token` next; otherwise fails with `expected`.
  void keyword(std::string_view token, const char* expected);
  /// The next token; fails with "missing <what>" at the end of the line.
  std::string_view word(const char* what);
  /// The next token as parse_u64_strict reads it; fails with
  /// "missing <what>" or "bad <what> '<token>'".
  std::uint64_t u64(const char* what) {
    const std::string_view token = next();
    if (token.empty()) fail_missing(what);
    const auto value = parse_u64_strict(token);
    if (!value) fail_bad(what, token);
    return *value;
  }
  /// The next token as parse_double_strict reads it; same failures.
  double real(const char* what);
  /// The rest of the line after one separating space, verbatim (free
  /// text such as a name). Consumes the line.
  std::string_view rest() noexcept;
  /// Fails with "trailing garbage '<token>' on <where>" if a token is
  /// left on the line.
  void end(const char* where);

  [[noreturn]] void fail(const std::string& msg) const;

 private:
  static constexpr bool is_space(char c) noexcept {
    return c == ' ' || (c >= '\t' && c <= '\r');  // \t \n \v \f \r
  }
  [[noreturn]] void fail_missing(const char* what) const;
  [[noreturn]] void fail_bad(const char* what, std::string_view token) const;

  std::istream& is_;
  std::string name_;
  std::string line_;
  std::string_view rest_;
  std::size_t line_number_ = 0;
};

}  // namespace omflp
