// The one JSON codec behind every document the repo writes and reads
// back: OMFLP-TRACELOG lines, BENCH_*.json, sweep JSON and omflp-lint
// reports. json_quoted is the escaper; JsonCursor the strict reader,
// walked in the order the writer emits the document (no DOM). The
// omflp-lint core, which must not link libomflp, compiles this file and
// support/parse.cpp itself.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace omflp {

/// `text` as a quoted JSON string: \" \\ \n \r \t, lowercase \u00xx for
/// the other control bytes, every other byte (UTF-8 included) verbatim.
std::string json_quoted(std::string_view text);

/// Throws the reader's exception type carrying `message`; never returns.
using JsonFailFn = void (*)(const std::string& message);

/// A JsonFailFn throwing `Error` (e.g. json_throw<std::runtime_error>).
template <class Error>
[[noreturn]] void json_throw(const std::string& message) {
  throw Error(message);
}

/// Whitespace between tokens is skipped. string() accepts only what
/// json_quoted writes, u64() plain digits (no sign, leading zero or
/// overflow), number() what parse_double_strict accepts.
class JsonCursor {
 public:
  /// `text` must outlive the cursor. Failures throw through `on_fail` with
  /// the message "<prefix><what> at offset <n>".
  JsonCursor(std::string_view text, std::string_view prefix,
             JsonFailFn on_fail) noexcept
      : text_(text), prefix_(prefix), fail_(on_fail) {}

  /// Consume `literal` (after whitespace) or fail.
  void expect(std::string_view literal);
  /// Consume `literal` (after whitespace) if it is next.
  bool try_consume(std::string_view literal);
  /// Consume the object member key `"name":`, and before it the ','
  /// unless the member opens its object (or the caller consumed it).
  void member(std::string_view name);

  std::string string();
  std::uint64_t u64();
  double number();
  /// Only whitespace may remain.
  void done();

  [[noreturn]] void fail(const std::string& what) const;

 private:
  void skip_whitespace() noexcept;
  static bool is_whitespace(char c) noexcept {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
  }

  std::string_view text_;
  std::string_view prefix_;
  JsonFailFn fail_;
  std::size_t pos_ = 0;
};

}  // namespace omflp
