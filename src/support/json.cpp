#include "support/json.hpp"

#include <exception>
#include <optional>

#include "support/parse.hpp"

namespace omflp {

namespace {

// The bytes with a two-character escape, and their escape letters, in
// matching positions: the one table behind both directions.
constexpr std::string_view kEscapedBytes = "\"\\\n\r\t";
constexpr std::string_view kEscapeLetters = "\"\\nrt";

constexpr std::string_view kHexDigits = "0123456789abcdef";

}  // namespace

std::string json_quoted(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    const std::size_t escape = kEscapedBytes.find(c);
    if (escape != std::string_view::npos) {
      out += '\\';
      out += kEscapeLetters[escape];
    } else if (const auto byte = static_cast<unsigned char>(c); byte < 0x20) {
      out += "\\u00";
      out += kHexDigits[byte >> 4];
      out += kHexDigits[byte & 0xf];
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

void JsonCursor::skip_whitespace() noexcept {
  while (pos_ < text_.size() && is_whitespace(text_[pos_])) ++pos_;
}

bool JsonCursor::try_consume(std::string_view literal) {
  skip_whitespace();
  if (!text_.substr(pos_).starts_with(literal)) return false;
  pos_ += literal.size();
  return true;
}

void JsonCursor::expect(std::string_view literal) {
  if (!try_consume(literal))
    fail("expected '" + std::string(literal) + "'");
}

void JsonCursor::member(std::string_view name) {
  std::size_t last = pos_;
  while (last > 0 && is_whitespace(text_[last - 1])) --last;
  if (last == 0 || (text_[last - 1] != '{' && text_[last - 1] != ','))
    expect(",");
  skip_whitespace();
  const std::string_view rest = text_.substr(pos_);
  if (rest.size() < name.size() + 2 || rest.front() != '"' ||
      rest.substr(1, name.size()) != name || rest[name.size() + 1] != '"')
    fail("expected key \"" + std::string(name) + "\"");
  pos_ += name.size() + 2;
  expect(":");
}

std::string JsonCursor::string() {
  expect("\"");
  const std::size_t start = pos_ - 1;
  std::string out;
  while (pos_ < text_.size() && text_[pos_] != '"') {
    const char c = text_[pos_++];
    if (c != '\\') {
      out += c;
      continue;
    }
    const std::string_view rest = text_.substr(pos_);
    const std::size_t escape =
        rest.empty() ? std::string_view::npos : kEscapeLetters.find(rest[0]);
    if (escape != std::string_view::npos) {
      out += kEscapedBytes[escape];
      pos_ += 1;
    } else if (rest.size() >= 5 && rest.starts_with("u00") &&
               kHexDigits.find(rest[3]) != std::string_view::npos &&
               kHexDigits.find(rest[4]) != std::string_view::npos) {
      out += static_cast<char>(kHexDigits.find(rest[3]) * 16 +
                               kHexDigits.find(rest[4]));
      pos_ += 5;
    } else {
      fail("bad escape in string");
    }
  }
  if (pos_ == text_.size()) fail("unterminated string");
  ++pos_;
  // json_quoted's spelling is the only one accepted: a raw control byte,
  // or a \u escape of a byte with a shorter form, re-encodes differently.
  if (json_quoted(out) != text_.substr(start, pos_ - start))
    fail("string is not in canonical form");
  return out;
}

std::uint64_t JsonCursor::u64() {
  skip_whitespace();
  std::size_t end = pos_;
  while (end < text_.size() && text_[end] >= '0' && text_[end] <= '9') ++end;
  const std::string_view digits = text_.substr(pos_, end - pos_);
  // JSON integers have no sign and no leading zeros; parse_u64_strict
  // rejects empty text and values beyond 2^64 - 1.
  const std::optional<std::uint64_t> value =
      digits.size() > 1 && digits.front() == '0' ? std::nullopt
                                                 : parse_u64_strict(digits);
  if (!value) fail("expected an unsigned 64-bit integer");
  pos_ = end;
  return *value;
}

double JsonCursor::number() {
  skip_whitespace();
  std::size_t end = pos_;
  while (end < text_.size() &&
         std::string_view("+-.0123456789eE").find(text_[end]) !=
             std::string_view::npos)
    ++end;
  const std::optional<double> value =
      parse_double_strict(text_.substr(pos_, end - pos_));
  if (!value) fail("expected a finite number");
  pos_ = end;
  return *value;
}

void JsonCursor::done() {
  skip_whitespace();
  if (pos_ != text_.size()) fail("trailing content");
}

void JsonCursor::fail(const std::string& what) const {
  fail_(std::string(prefix_) + what + " at offset " + std::to_string(pos_));
  std::terminate();  // a JsonFailFn must throw
}

}  // namespace omflp
