// Strict numeric parsing — the one implementation behind every
// command-line argument, environment variable and text-format number
// the library reads.
//
// The std::strtoull/strtod conventions are a bug farm for user input:
// strtoull silently wraps negative text ("-5" becomes 2^64−5), both accept
// trailing garbage unless the caller checks the end pointer, and overflow
// is only reported through errno. The helpers here are strict instead:
// the whole string must parse, sign wrap and out-of-range magnitudes are
// rejected, and non-finite doubles never come back.
//
// Two layers:
//   * parse_u64_strict / parse_double_strict — pure, allocation-light,
//     return std::nullopt on any violation (the testable core);
//   * parse_u64_arg / parse_double_arg — CLI wrappers that throw
//     std::invalid_argument with a "--flag: ..." message;
//   * env_u64 — environment wrapper that warns on stderr and falls back
//     (a malformed environment variable must never crash startup).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace omflp {

/// Bounded first reservation for a count declared by untrusted input
/// (trace headers, checkpoint manifests, CLI-supplied files): trust the
/// declared count only up to `cap`; growth beyond the cap is paid for by
/// input actually present. Every parse-path `.reserve()` must route its
/// declared count through this helper — a tampered "count 10^18" costs
/// its text length, never an allocation (enforced by omflp-lint's
/// raw-reserve rule; two real heap overflows rode in on trusted counts,
/// see tests/test_fuzz_parsers.cpp).
inline std::size_t capped_reserve(std::uint64_t declared,
                                  std::size_t cap = 4096) noexcept {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(declared, static_cast<std::uint64_t>(cap)));
}

/// Non-negative integer: an optional leading '+', then decimal digits
/// only. Rejects empty text, any other character (including leading
/// whitespace, '-', and trailing garbage like "123abc"), and values that
/// overflow std::uint64_t.
std::optional<std::uint64_t> parse_u64_strict(std::string_view text) noexcept;

/// Finite double: one optional sign, then a digit or '.'; the whole string
/// must be consumed (no leading whitespace of any kind, no trailing
/// garbage), hex-float literals are rejected, and the value must be
/// finite and inside double range ("1e999", "1e-400" and "nan"/"inf" are
/// rejected; subnormals such as "4.9406564584124654e-324" are values).
std::optional<double> parse_double_strict(std::string_view text) noexcept;

/// CLI wrappers: like the _strict functions but throwing
/// std::invalid_argument naming `what` (e.g. "--batch") on bad input.
std::uint64_t parse_u64_arg(const std::string& text, const std::string& what);
double parse_double_arg(const std::string& text, const std::string& what);

/// Reads the environment variable `name` through parse_u64_strict.
/// Unset -> nullopt. Malformed or overflowing values print one warning to
/// stderr and also return nullopt, so callers fall back to their default
/// (an environment variable must never abort the process).
std::optional<std::uint64_t> env_u64(const char* name) noexcept;

}  // namespace omflp
