#include "support/record_io.hpp"

#include <istream>
#include <stdexcept>

namespace omflp {

bool RecordReader::try_line() {
  while (std::getline(is_, line_)) {
    ++line_number_;
    const auto first = line_.find_first_not_of(" \t\r");
    if (first == std::string::npos || line_[first] == '#') continue;
    rest_ = line_;
    return true;
  }
  rest_ = {};
  return false;
}

void RecordReader::line(const char* what) {
  if (!try_line())
    throw std::invalid_argument(
        name_ + ": unexpected end of input while reading " + what);
}

void RecordReader::expect_eof(const char* what) {
  if (try_line()) fail(std::string("trailing content after ") + what);
}

bool RecordReader::accept(std::string_view token) noexcept {
  const std::string_view before = rest_;
  if (next() == token) return true;
  rest_ = before;
  return false;
}

void RecordReader::keyword(std::string_view token, const char* expected) {
  if (next() != token) fail(expected);
}

std::string_view RecordReader::word(const char* what) {
  const std::string_view token = next();
  if (token.empty()) fail_missing(what);
  return token;
}

double RecordReader::real(const char* what) {
  const std::string_view token = next();
  if (token.empty()) fail_missing(what);
  const auto value = parse_double_strict(token);
  if (!value) fail_bad(what, token);
  return *value;
}

std::string_view RecordReader::rest() noexcept {
  std::string_view text = rest_;
  if (!text.empty() && text.front() == ' ') text.remove_prefix(1);
  rest_ = {};
  return text;
}

void RecordReader::end(const char* where) {
  const std::string_view extra = next();
  if (!extra.empty())
    fail("trailing garbage '" + std::string(extra) + "' on " + where);
}

void RecordReader::fail(const std::string& msg) const {
  throw std::invalid_argument(name_ + ": " + msg + " (line " +
                              std::to_string(line_number_) + ")");
}

void RecordReader::fail_missing(const char* what) const {
  fail(std::string("missing ") + what);
}

void RecordReader::fail_bad(const char* what, std::string_view token) const {
  fail(std::string("bad ") + what + " '" + std::string(token) + "'");
}

}  // namespace omflp
