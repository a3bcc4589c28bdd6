#include "instance/checkpoint_io.hpp"

#include <bit>
#include <cctype>
#include <charconv>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "support/parse.hpp"
#include "support/rng.hpp"

namespace omflp {

namespace {

// Written by CkptWriter. The reader also accepts versions 1 and 2, which
// differ in the ledger section (SolutionLedger::restore) and the PD-OMFLP
// archive (PdOmflp::restore_state).
constexpr const char* kHeader = "OMFLP-CKPT 3";
constexpr const char* kHeaderV2 = "OMFLP-CKPT 2";
constexpr const char* kHeaderV1 = "OMFLP-CKPT 1";

/// Container version of a header line; 0 if it is not one we read.
unsigned header_version(std::string_view line) {
  if (line == kHeader) return 3;
  if (line == kHeaderV2) return 2;
  if (line == kHeaderV1) return 1;
  return 0;
}

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv_fold(std::uint64_t h, std::string_view text) {
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fnv_fold_newline(std::uint64_t h) {
  h ^= static_cast<unsigned char>('\n');
  h *= kFnvPrime;
  return h;
}

char hex_digit(unsigned v) {
  return static_cast<char>(v < 10 ? '0' + v : 'a' + (v - 10));
}

void append_hex16(std::string& out, std::uint64_t bits) {
  char digits[16];
  for (int i = 15; i >= 0; --i, bits >>= 4)
    digits[i] = hex_digit(static_cast<unsigned>(bits & 0xf));
  out.append(digits, sizeof digits);
}

/// -1 on a non-hex character.
int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

bool parse_hex64(std::string_view text, std::uint64_t& out) {
  if (text.size() != 16) return false;
  std::uint64_t bits = 0;
  for (const char c : text) {
    const int v = hex_value(c);
    if (v < 0) return false;
    bits = (bits << 4) | static_cast<std::uint64_t>(v);
  }
  out = bits;
  return true;
}

}  // namespace

// --------------------------------------------------------------- writer ---

CkptWriter::CkptWriter(std::ostream& os) : os_(os), fnv_(kFnvOffset) {
  emit(kHeader);
  os_ << kHeader << '\n';
  fnv_ = fnv_fold_newline(fnv_);
}

CkptWriter::~CkptWriter() = default;

void CkptWriter::emit(std::string_view text) {
  fnv_ = fnv_fold(fnv_, text);
}

void CkptWriter::flush_line() {
  if (!line_open_) return;
  line_ += '\n';
  emit(line_);
  os_.write(line_.data(), static_cast<std::streamsize>(line_.size()));
  line_.clear();
  line_open_ = false;
}

CkptWriter& CkptWriter::line(std::string_view key) {
  if (finished_)
    throw std::logic_error("CkptWriter: line() after finish()");
  if (key.empty())
    throw std::invalid_argument("CkptWriter: empty key");
  for (const char c : key)
    if (std::isspace(static_cast<unsigned char>(c)))
      throw std::invalid_argument("CkptWriter: whitespace in key '" +
                                  std::string(key) + "'");
  flush_line();
  line_.assign(key);
  line_open_ = true;
  return *this;
}

CkptWriter& CkptWriter::tok(std::string_view token) {
  if (finished_)
    throw std::logic_error("CkptWriter: tok() after finish()");
  if (token.empty())
    throw std::invalid_argument("CkptWriter: empty token");
  for (const char c : token)
    if (std::isspace(static_cast<unsigned char>(c)) || c == '\n')
      throw std::invalid_argument("CkptWriter: whitespace in token '" +
                                  std::string(token) + "'");
  if (!line_open_)
    throw std::logic_error("CkptWriter: token before line()");
  line_ += ' ';
  line_ += token;
  return *this;
}

CkptWriter& CkptWriter::u(std::uint64_t value) {
  if (!line_open_)
    throw std::logic_error("CkptWriter: token before line()");
  char digits[20];  // UINT64_MAX has 20 decimal digits
  const auto end = std::to_chars(digits, digits + sizeof digits, value).ptr;
  line_ += ' ';
  line_.append(digits, end);
  return *this;
}

CkptWriter& CkptWriter::d(double value) {
  if (!line_open_)
    throw std::logic_error("CkptWriter: token before line()");
  line_ += ' ';
  append_hex16(line_, std::bit_cast<std::uint64_t>(value));
  return *this;
}

CkptWriter& CkptWriter::bytes(std::string_view raw) {
  if (!line_open_)
    throw std::logic_error("CkptWriter: token before line()");
  line_ += ' ';
  line_ += 'x';
  for (const char c : raw) {
    const auto byte = static_cast<unsigned char>(c);
    line_ += hex_digit(byte >> 4);
    line_ += hex_digit(byte & 0xf);
  }
  return *this;
}

CkptWriter& CkptWriter::set(const CommoditySet& s) {
  u(s.universe_size());
  u(s.words().size());
  for (const std::uint64_t w : s.words()) {
    line_ += ' ';
    append_hex16(line_, w);
  }
  return *this;
}

void CkptWriter::finish() {
  if (finished_) return;
  flush_line();
  std::string check = "checksum ";
  append_hex16(check, fnv_);
  os_ << check << '\n';
  os_.flush();
  finished_ = true;
}

// --------------------------------------------------------------- reader ---

CkptReader::CkptReader(std::istream& is) : is_(is), fnv_(kFnvOffset) {
  if (!next_raw_line()) fail("missing header");
  version_ = header_version(line_);
  if (version_ == 0)
    fail(std::string("bad header, expected '") + kHeader + "', '" +
         kHeaderV2 + "' or '" + kHeaderV1 + "'");
  fnv_ = fnv_fold(fnv_, line_);
  fnv_ = fnv_fold_newline(fnv_);
  pos_ = line_.size();  // header fully consumed
}

void CkptReader::fail(const std::string& msg) const {
  throw std::invalid_argument("read_checkpoint: line " +
                              std::to_string(line_number_) + ": " + msg);
}

bool CkptReader::next_raw_line() {
  if (!std::getline(is_, line_)) return false;
  ++line_number_;
  pos_ = 0;
  return true;
}

std::string CkptReader::next_token(const char* what) {
  if (pos_ >= line_.size())
    fail(std::string("missing ") + what);
  if (line_[pos_] != ' ')
    fail(std::string("malformed separator before ") + what);
  ++pos_;
  std::size_t end = pos_;
  while (end < line_.size() && line_[end] != ' ') ++end;
  if (end == pos_) fail(std::string("empty ") + what);
  std::string token = line_.substr(pos_, end - pos_);
  pos_ = end;
  return token;
}

std::string_view CkptReader::next_key() {
  if (finished_) throw std::logic_error("CkptReader: read after finish");
  if (pos_ != line_.size()) fail("trailing tokens on line");
  if (!next_raw_line()) fail("unexpected end of input");
  fnv_ = fnv_fold(fnv_, line_);
  fnv_ = fnv_fold_newline(fnv_);
  std::size_t end = 0;
  while (end < line_.size() && line_[end] != ' ') ++end;
  pos_ = end;
  return std::string_view(line_.data(), end);
}

void CkptReader::expect(std::string_view key) {
  const std::string_view got = next_key();
  if (got != key)
    fail("expected '" + std::string(key) + "', got '" + std::string(got) +
         "'");
}

std::uint64_t CkptReader::u() {
  const std::string token = next_token("unsigned integer");
  const auto value = parse_u64_strict(token);
  if (!value) fail("bad unsigned integer '" + token + "'");
  return *value;
}

bool CkptReader::b() {
  const std::uint64_t value = u();
  if (value > 1) fail("bad boolean");
  return value == 1;
}

double CkptReader::d() {
  const std::string token = next_token("double");
  std::uint64_t bits = 0;
  if (!parse_hex64(token, bits))
    fail("bad double bit pattern '" + token + "'");
  return std::bit_cast<double>(bits);
}

std::string CkptReader::tok() { return next_token("token"); }

std::string CkptReader::bytes() {
  const std::string token = next_token("byte string");
  if (token.empty() || token[0] != 'x' || token.size() % 2 != 1)
    fail("bad byte string '" + token + "'");
  std::string out;
  // omflp-lint: allow(raw-reserve) sized by bytes actually present in the token
  out.reserve((token.size() - 1) / 2);
  for (std::size_t i = 1; i + 1 < token.size(); i += 2) {
    const int hi = hex_value(token[i]);
    const int lo = hex_value(token[i + 1]);
    if (hi < 0 || lo < 0) fail("bad byte string '" + token + "'");
    out += static_cast<char>((hi << 4) | lo);
  }
  return out;
}

CommoditySet CkptReader::set(CommodityId universe, std::string_view what) {
  // The universe is checked before the set is built: a hostile line
  // declaring |S| = 2^32 - 1 must not cost a 512 MB bitset.
  if (u() != universe) fail(std::string(what) + " universe mismatch");
  const std::uint64_t declared_words = u();
  const std::size_t expected_words =
      (static_cast<std::size_t>(universe) + 63) / 64;
  if (declared_words != expected_words)
    fail("commodity set word count mismatch");
  CommoditySet s(universe);
  for (std::size_t wi = 0; wi < expected_words; ++wi) {
    const std::string token = next_token("commodity word");
    std::uint64_t word = 0;
    if (!parse_hex64(token, word))
      fail("bad commodity word '" + token + "'");
    const std::size_t base = wi * 64;
    while (word) {
      const int bit = __builtin_ctzll(word);
      const std::size_t e = base + static_cast<std::size_t>(bit);
      if (e >= universe) fail("commodity word has bits past the universe");
      s.add(static_cast<CommodityId>(e));
      word &= word - 1;
    }
  }
  return s;
}

PointId CkptReader::point(std::size_t num_points) {
  const std::uint64_t p = u();
  if (p >= num_points)
    fail("point " + std::to_string(p) + " outside the metric");
  return static_cast<PointId>(p);
}

void CkptReader::finish() {
  if (finished_) return;
  if (pos_ != line_.size()) fail("trailing tokens before checksum line");
  if (!next_raw_line()) fail("missing checksum line (truncated file)");
  std::size_t end = 0;
  while (end < line_.size() && line_[end] != ' ') ++end;
  if (std::string_view(line_.data(), end) != "checksum")
    fail("expected checksum line, got '" + line_.substr(0, end) + "'");
  pos_ = end;
  const std::string token = next_token("checksum");
  std::uint64_t declared = 0;
  if (!parse_hex64(token, declared)) fail("bad checksum '" + token + "'");
  if (pos_ != line_.size()) fail("trailing tokens on checksum line");
  if (declared != fnv_)
    fail("checksum mismatch: file is corrupt");
  if (std::getline(is_, line_)) {
    ++line_number_;
    fail("trailing content after the checksum line");
  }
  finished_ = true;
}

// ------------------------------------------------------------------ rng ---

void serialize_rng(CkptWriter& writer, const Rng& rng) {
  const Rng::State state = rng.state();
  writer.line("rng");
  for (const std::uint64_t w : state.gen) writer.u(w);
  writer.d(state.cached_normal).b(state.has_cached_normal);
}

void restore_rng(CkptReader& reader, Rng& rng) {
  reader.expect("rng");
  Rng::State state;
  for (std::uint64_t& w : state.gen) w = reader.u();
  state.cached_normal = reader.d();
  state.has_cached_normal = reader.b();
  rng.set_state(state);
}

// ----------------------------------------------------- facility lists ---

void serialize_open_records(CkptWriter& writer, std::string_view key,
                            const std::vector<OpenRecord>& records) {
  writer.line(key).u(records.size());
  for (const OpenRecord& f : records) writer.u(f.point).u(f.id);
}

std::vector<OpenRecord> restore_open_records(CkptReader& reader,
                                             std::string_view key,
                                             std::size_t num_points) {
  reader.expect(key);
  const std::uint64_t n = reader.u();
  std::vector<OpenRecord> records;
  records.reserve(capped_reserve(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    OpenRecord f;
    f.point = reader.point(num_points);
    f.id = static_cast<FacilityId>(reader.u());
    records.push_back(f);
  }
  return records;
}

// ----------------------------------------------------------- validation ---

bool checkpoint_payload_valid(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) || header_version(line) == 0) return false;
  std::uint64_t fnv = fnv_fold(kFnvOffset, line);
  fnv = fnv_fold_newline(fnv);
  while (std::getline(is, line)) {
    if (line.rfind("checksum ", 0) == 0) {
      std::uint64_t declared = 0;
      if (!parse_hex64(std::string_view(line).substr(9), declared))
        return false;
      if (declared != fnv) return false;
      // Nothing may follow the checksum line.
      return !std::getline(is, line);
    }
    fnv = fnv_fold(fnv, line);
    fnv = fnv_fold_newline(fnv);
  }
  return false;  // truncated: no checksum line
}

}  // namespace omflp
