// omflp-lint — the project contract linter.
//
// The reproduction's correctness rests on contracts that used to be
// checked only at runtime (or found only by a long fuzz run): bitwise
// determinism across threads and shards, strict parsing with capped
// reservations, atomic artifact writes, pure hot-loop kernels, and
// decorrelated workload/algorithm seeds. Each rule here encodes one of
// those contracts as a static check so a violation surfaces at review
// time, file:line, before it ships.
//
// Deliberately dependency-free (std only) and independent of libomflp:
// the linter must build and run even when the library it polices does
// not. Checks are token-level over comment- and string-stripped source —
// a heuristic, not a compiler: precise enough to catch every historical
// bug class, cheap enough to run on every push, and overridable where a
// violation is deliberate:
//
//   do_risky_thing();  // omflp-lint: allow(rule-name) why it is fine
//
// A suppression on its own line covers the next code line; listing
// `all` covers every rule. Suppressed findings are still reported (and
// counted) but do not fail the run.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace omflp::lint {

struct Diagnostic {
  std::string rule;
  std::string path;
  std::size_t line = 0;  // 1-based
  std::string message;
  bool suppressed = false;

  friend bool operator==(const Diagnostic&, const Diagnostic&) = default;
};

struct RuleInfo {
  std::string name;
  std::string summary;
};

/// One source file, preprocessed for rule checks. `code_line` is the
/// raw line with comments and string/char-literal *contents* blanked to
/// spaces (delimiters kept), so token searches never match prose or
/// message text; columns line up with the raw line. Suppressions are
/// parsed from the raw text before blanking.
class SourceFile {
 public:
  SourceFile(std::string path, std::string_view content);

  const std::string& path() const noexcept { return path_; }
  std::size_t num_lines() const noexcept { return raw_.size(); }
  /// 1-based; out-of-range returns an empty line.
  const std::string& raw_line(std::size_t line_no) const;
  const std::string& code_line(std::size_t line_no) const;

  /// True when `rule` (or `all`) is allowed on `line_no` — by a trailing
  /// comment on the line itself or by a suppression-only line covering
  /// the next code line.
  bool allows(std::size_t line_no, std::string_view rule) const;

  /// Concatenated code text of a balanced-parenthesis argument list
  /// starting at `open_col` (the '(' itself) on `line_no`; empty when
  /// the parens do not balance within `max_lines`.
  std::string call_arguments(std::size_t line_no, std::size_t open_col,
                             std::size_t max_lines = 20) const;

 private:
  std::string path_;
  std::vector<std::string> raw_;
  std::vector<std::string> code_;
  // allow_[i] lists the rule names allowed on line i+1 ("all" = every).
  std::vector<std::vector<std::string>> allow_;
};

using RuleCheck =
    std::function<void(const SourceFile&, std::vector<Diagnostic>&)>;

/// The rule registry plus the driver. Construction registers the
/// built-in rules (rules.cpp); tests may add their own.
class Linter {
 public:
  Linter();

  const std::vector<RuleInfo>& rules() const noexcept { return infos_; }
  void register_rule(RuleInfo info, RuleCheck check);

  /// Lint in-memory content as if it lived at `path` (rules scope
  /// themselves by path). Findings come back sorted by line, with
  /// `suppressed` already resolved.
  std::vector<Diagnostic> lint_source(const std::string& path,
                                      std::string_view content) const;
  /// Reads and lints a file; throws std::runtime_error when unreadable.
  std::vector<Diagnostic> lint_file(const std::string& path) const;

 private:
  std::vector<RuleInfo> infos_;
  std::vector<RuleCheck> checks_;
};

void register_builtin_rules(Linter& linter);

/// Path predicates shared by the built-in rules (exposed for tests).
/// Components are '/'-separated; `in_dir` matches a whole component.
bool path_in_dir(std::string_view path, std::string_view component);
/// A "parse path": a basename token equal to "io" or containing
/// "parse", "reader", "checkpoint" or "ckpt" (io.cpp, io_detail.cpp,
/// stream_io.cpp, tracelog_io.cpp, checkpoint_io.cpp, certificate_io.cpp,
/// record_io.cpp, parse.cpp, ...). A reader belongs in such a file, so
/// the raw-reserve rule sees its reservations.
bool is_parse_path(std::string_view path);

bool has_unsuppressed(const std::vector<Diagnostic>& diags);

/// Text report: one "path:line: [rule] message" per finding
/// (suppressed findings tagged), then a one-line summary.
std::string to_text(const std::vector<Diagnostic>& diags);

/// JSON report (schema-versioned; its bytes are pinned by
/// tests/test_lint.cpp).
std::string to_json(const std::vector<Diagnostic>& diags);

}  // namespace omflp::lint
