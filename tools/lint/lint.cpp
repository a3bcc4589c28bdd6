#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "support/json.hpp"

namespace omflp::lint {

namespace {

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Splits raw content into lines (both \n and \r\n).
std::vector<std::string> split_lines(std::string_view content) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start <= content.size()) {
    const std::size_t nl = content.find('\n', start);
    std::string line(content.substr(
        start, nl == std::string_view::npos ? content.size() - start
                                            : nl - start));
    if (!line.empty() && line.back() == '\r') line.pop_back();
    lines.push_back(std::move(line));
    if (nl == std::string_view::npos) break;
    start = nl + 1;
  }
  // A trailing newline yields one empty phantom line; drop it so line
  // counts match what editors show.
  if (!lines.empty() && lines.back().empty()) lines.pop_back();
  return lines;
}

// The comment/string stripper. Replaces comment text and the *contents*
// of string/char literals with spaces so token searches cannot match
// prose, while keeping every line the same length. Tracks state across
// lines (block comments, raw strings). Comment text is appended to
// per-line `comment_text` so suppression markers survive the blanking.
struct Stripper {
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar,
                     kRawString };
  State state = State::kCode;
  std::string raw_delim;  // for R"delim( ... )delim"

  void strip_line(const std::string& in, std::string* code,
                  std::string* comment_text) {
    code->assign(in.size(), ' ');
    if (state == State::kLineComment) state = State::kCode;
    std::size_t i = 0;
    while (i < in.size()) {
      switch (state) {
        case State::kCode: {
          const char c = in[i];
          if (c == '/' && i + 1 < in.size() && in[i + 1] == '/') {
            comment_text->append(in, i, std::string::npos);
            state = State::kLineComment;
            i = in.size();
            break;
          }
          if (c == '/' && i + 1 < in.size() && in[i + 1] == '*') {
            state = State::kBlockComment;
            i += 2;
            break;
          }
          if (c == 'R' && i + 1 < in.size() && in[i + 1] == '"' &&
              (i == 0 || !is_ident_char(in[i - 1]))) {
            const std::size_t open = in.find('(', i + 2);
            if (open != std::string::npos) {
              raw_delim.assign(1, ')');
              raw_delim.append(in, i + 2, open - i - 2);
              raw_delim.push_back('"');
              (*code)[i] = 'R';
              (*code)[i + 1] = '"';
              state = State::kRawString;
              i = open + 1;
              break;
            }
          }
          if (c == '"') {
            (*code)[i] = '"';
            state = State::kString;
            ++i;
            break;
          }
          if (c == '\'') {
            // Heuristic: digit separators (1'000'000) are not char
            // literals.
            if (i > 0 && std::isdigit(static_cast<unsigned char>(in[i - 1]))
                && i + 1 < in.size() &&
                std::isalnum(static_cast<unsigned char>(in[i + 1]))) {
              (*code)[i] = '\'';
              ++i;
              break;
            }
            (*code)[i] = '\'';
            state = State::kChar;
            ++i;
            break;
          }
          (*code)[i] = c;
          ++i;
          break;
        }
        case State::kBlockComment: {
          const std::size_t close = in.find("*/", i);
          if (close == std::string::npos) {
            comment_text->append(in, i, std::string::npos);
            i = in.size();
          } else {
            comment_text->append(in, i, close - i);
            state = State::kCode;
            i = close + 2;
          }
          break;
        }
        case State::kString:
        case State::kChar: {
          const char quote = state == State::kString ? '"' : '\'';
          if (in[i] == '\\') {
            i += 2;
          } else if (in[i] == quote) {
            (*code)[i] = quote;
            state = State::kCode;
            ++i;
          } else {
            ++i;
          }
          break;
        }
        case State::kRawString: {
          const std::size_t close = in.find(raw_delim, i);
          if (close == std::string::npos) {
            i = in.size();
          } else {
            (*code)[close + raw_delim.size() - 1] = '"';
            state = State::kCode;
            i = close + raw_delim.size();
          }
          break;
        }
        case State::kLineComment:
          i = in.size();  // unreachable: reset at line start
          break;
      }
    }
  }
};

// Parses "omflp-lint: allow(a, b)" out of a line's comment text.
// Returns the listed rule names; empty when no marker is present.
std::vector<std::string> parse_allow(const std::string& comment) {
  static constexpr std::string_view kMarker = "omflp-lint:";
  const std::size_t at = comment.find(kMarker);
  if (at == std::string::npos) return {};
  std::size_t i = at + kMarker.size();
  while (i < comment.size() &&
         std::isspace(static_cast<unsigned char>(comment[i])))
    ++i;
  static constexpr std::string_view kAllow = "allow(";
  if (comment.compare(i, kAllow.size(), kAllow) != 0) return {};
  i += kAllow.size();
  const std::size_t close = comment.find(')', i);
  if (close == std::string::npos) return {};
  std::vector<std::string> rules;
  std::string current;
  for (std::size_t j = i; j <= close; ++j) {
    const char c = comment[j];
    if (c == ',' || c == ')') {
      if (!current.empty()) rules.push_back(current);
      current.clear();
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      current.push_back(c);
    }
  }
  return rules;
}

bool line_has_code(const std::string& code_line) {
  return std::any_of(code_line.begin(), code_line.end(), [](char c) {
    return !std::isspace(static_cast<unsigned char>(c));
  });
}

const std::string kEmptyLine;

std::size_t count_suppressed(const std::vector<Diagnostic>& diags) {
  return static_cast<std::size_t>(
      std::count_if(diags.begin(), diags.end(),
                    [](const Diagnostic& d) { return d.suppressed; }));
}

}  // namespace

SourceFile::SourceFile(std::string path, std::string_view content)
    : path_(std::move(path)), raw_(split_lines(content)) {
  code_.resize(raw_.size());
  allow_.resize(raw_.size());
  Stripper stripper;
  std::vector<std::vector<std::string>> pending;  // suppression-only lines
  std::vector<std::size_t> pending_lines;
  for (std::size_t i = 0; i < raw_.size(); ++i) {
    std::string comment;
    stripper.strip_line(raw_[i], &code_[i], &comment);
    auto rules = parse_allow(comment);
    if (rules.empty()) {
      if (line_has_code(code_[i]) && !pending.empty()) {
        // Standalone suppressions cover the next code line.
        for (auto& p : pending)
          allow_[i].insert(allow_[i].end(), p.begin(), p.end());
        pending.clear();
      }
      continue;
    }
    if (line_has_code(code_[i])) {
      allow_[i].insert(allow_[i].end(), rules.begin(), rules.end());
    } else {
      pending.push_back(std::move(rules));
    }
  }
}

const std::string& SourceFile::raw_line(std::size_t line_no) const {
  return line_no >= 1 && line_no <= raw_.size() ? raw_[line_no - 1]
                                                : kEmptyLine;
}

const std::string& SourceFile::code_line(std::size_t line_no) const {
  return line_no >= 1 && line_no <= code_.size() ? code_[line_no - 1]
                                                 : kEmptyLine;
}

bool SourceFile::allows(std::size_t line_no, std::string_view rule) const {
  if (line_no < 1 || line_no > allow_.size()) return false;
  for (const auto& name : allow_[line_no - 1])
    if (name == rule || name == "all") return true;
  return false;
}

std::string SourceFile::call_arguments(std::size_t line_no,
                                       std::size_t open_col,
                                       std::size_t max_lines) const {
  std::string args;
  int depth = 0;
  for (std::size_t l = line_no; l < line_no + max_lines && l <= num_lines();
       ++l) {
    const std::string& line = code_line(l);
    std::size_t c = l == line_no ? open_col : 0;
    for (; c < line.size(); ++c) {
      if (line[c] == '(') {
        ++depth;
        if (depth == 1) continue;  // the opening paren itself
      } else if (line[c] == ')') {
        --depth;
        if (depth == 0) return args;
      }
      if (depth >= 1) args.push_back(line[c]);
    }
    args.push_back(' ');
  }
  return std::string();  // unbalanced within the window
}

Linter::Linter() { register_builtin_rules(*this); }

void Linter::register_rule(RuleInfo info, RuleCheck check) {
  infos_.push_back(std::move(info));
  checks_.push_back(std::move(check));
}

std::vector<Diagnostic> Linter::lint_source(const std::string& path,
                                            std::string_view content) const {
  const SourceFile file(path, content);
  std::vector<Diagnostic> diags;
  for (const auto& check : checks_) check(file, diags);
  for (auto& d : diags) d.suppressed = file.allows(d.line, d.rule);
  std::sort(diags.begin(), diags.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return diags;
}

std::vector<Diagnostic> Linter::lint_file(const std::string& path) const {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("omflp-lint: cannot read " + path);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return lint_source(path, buffer.str());
}

bool path_in_dir(std::string_view path, std::string_view component) {
  std::size_t start = 0;
  while (start <= path.size()) {
    const std::size_t slash = path.find('/', start);
    const std::size_t end =
        slash == std::string_view::npos ? path.size() : slash;
    if (path.substr(start, end - start) == component &&
        end != path.size())  // a directory component, not the basename
      return true;
    if (slash == std::string_view::npos) break;
    start = slash + 1;
  }
  return false;
}

bool is_parse_path(std::string_view path) {
  const std::size_t slash = path.rfind('/');
  std::string_view base =
      slash == std::string_view::npos ? path : path.substr(slash + 1);
  // Tokenize the basename on non-alphanumeric characters.
  std::vector<std::string> tokens;
  std::string current;
  for (char c : base) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      current.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else if (!current.empty()) {
      tokens.push_back(current);
      current.clear();
    }
  }
  if (!current.empty()) tokens.push_back(current);
  for (const auto& t : tokens) {
    if (t == "io") return true;
    if (t.find("parse") != std::string::npos) return true;
    if (t.find("reader") != std::string::npos) return true;
    if (t.find("checkpoint") != std::string::npos) return true;
    if (t.find("ckpt") != std::string::npos) return true;
  }
  return false;
}

bool has_unsuppressed(const std::vector<Diagnostic>& diags) {
  return count_suppressed(diags) < diags.size();
}

std::string to_text(const std::vector<Diagnostic>& diags) {
  std::ostringstream os;
  for (const auto& d : diags) {
    os << d.path << ':' << d.line << ": [" << d.rule << "] " << d.message;
    if (d.suppressed) os << "  (suppressed)";
    os << '\n';
  }
  const std::size_t suppressed = count_suppressed(diags);
  os << diags.size() << " finding" << (diags.size() == 1 ? "" : "s") << " ("
     << suppressed << " suppressed, " << (diags.size() - suppressed)
     << " failing)\n";
  return os.str();
}

std::string to_json(const std::vector<Diagnostic>& diags) {
  const std::size_t suppressed = count_suppressed(diags);
  std::string out = "{\"format\":\"omflp-lint\",\"version\":1,\"findings\":[";
  for (std::size_t i = 0; i < diags.size(); ++i) {
    const auto& d = diags[i];
    if (i) out += ',';
    out += "\n  {\"rule\":" + json_quoted(d.rule) +
           ",\"path\":" + json_quoted(d.path) +
           ",\"line\":" + std::to_string(d.line) +
           ",\"message\":" + json_quoted(d.message) +
           ",\"suppressed\":" + (d.suppressed ? "true}" : "false}");
  }
  if (!diags.empty()) out += '\n';
  out += "],\"suppressed\":" + std::to_string(suppressed) +
         ",\"failing\":" + std::to_string(diags.size() - suppressed) +
         "}\n";
  return out;
}

}  // namespace omflp::lint
