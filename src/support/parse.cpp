#include "support/parse.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace omflp {

std::optional<std::uint64_t> parse_u64_strict(
    std::string_view text) noexcept {
  std::size_t i = 0;
  if (!text.empty() && text[0] == '+') i = 1;
  if (i == text.size()) return std::nullopt;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t value = 0;
  for (; i < text.size(); ++i) {
    const char c = text[i];
    if (c < '0' || c > '9') return std::nullopt;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (kMax - digit) / 10) return std::nullopt;  // would overflow
    value = value * 10 + digit;
  }
  return value;
}

std::optional<double> parse_double_strict(std::string_view text) noexcept {
  // from_chars follows strtod's decimal pattern minus leading whitespace
  // and hex floats, and returns subnormals where strtod reports ERANGE.
  // It takes no '+', so one is stripped here.
  const bool plus = !text.empty() && text.front() == '+';
  if (plus) text.remove_prefix(1);
  const std::size_t sign =
      !plus && !text.empty() && text.front() == '-' ? 1 : 0;
  // One sign at most, then a digit or '.': no "inf" or "nan".
  if (text.size() <= sign) return std::nullopt;
  const char first = text[sign];
  if (!(first == '.' || (first >= '0' && first <= '9'))) return std::nullopt;
  const char* const end = text.data() + text.size();
  double value = 0.0;
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end || !std::isfinite(value))
    return std::nullopt;
  return value;
}

std::uint64_t parse_u64_arg(const std::string& text,
                            const std::string& what) {
  if (const auto value = parse_u64_strict(text)) return *value;
  throw std::invalid_argument(what + ": '" + text +
                              "' is not a non-negative integer in the "
                              "64-bit range");
}

double parse_double_arg(const std::string& text, const std::string& what) {
  if (const auto value = parse_double_strict(text)) return *value;
  throw std::invalid_argument(what + ": '" + text +
                              "' is not a finite number");
}

std::optional<std::uint64_t> env_u64(const char* name) noexcept {
  const char* text = std::getenv(name);
  if (text == nullptr) return std::nullopt;
  const auto value = parse_u64_strict(text);
  if (!value)
    std::fprintf(stderr,
                 "omflp: ignoring malformed %s='%s' (expected a "
                 "non-negative integer)\n",
                 name, text);
  return value;
}

}  // namespace omflp
