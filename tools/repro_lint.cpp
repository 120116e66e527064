// repro_lint — the project's determinism and locking-discipline linter.
//
// A deliberately dependency-free, token-level checker (no libclang; the
// container toolchain has none) that walks the source tree and enforces
// the invariants the reproducibility contract rests on:
//
//   banned-call         std::random_device, rand()/srand(), time(),
//                       std::chrono::system_clock and getenv() anywhere
//                       outside src/stats/rng.* (the one seeded RNG) and
//                       src/core/version.* (build provenance). Every
//                       simulated nanosecond must derive from the seed.
//   hot-path            no heap allocation, locks, or iostream between
//                       `// LINT:hot-path begin` and `// LINT:hot-path end`
//                       fences (des::Engine dispatch, net::Network packet
//                       forwarding, the PEVPM Vm and its scoreboard).
//   unannotated-mutex   every mutex member declared in a header must have
//                       a GUARDED_BY partner in the same file, and bare
//                       std::mutex members are rejected in favour of the
//                       annotation-friendly pevpm::Mutex (see
//                       core/thread_annotations.h).
//   using-namespace     no `using namespace` at header scope.
//   unbalanced-fence    a hot-path begin without end (or vice versa).
//   raw-time-param      no raw `double` / `int64_t` parameters or members
//                       with time-quantity names (`*_ns`, `*_us`, `*_ms`,
//                       `*timeout*`, `*deadline*`, ...) in headers outside
//                       the declared conversion boundary (core/units.h,
//                       des/time.h, the double-seconds cost-model domain).
//                       Times are units::SimTime / units::Duration; the
//                       float boundary is the tagged from_/to_ converters.
//
// Diagnostics are `file:line: [rule] message`. Findings can be suppressed
// via a checked-in suppression file (`rule path[:line]` per line, `#`
// comments); suppressions that match nothing are reported as stale and, in
// --check mode, fail the run — suppressions must die with the code they
// excused. --json emits the machine-readable form. Exit codes follow the
// project convention: 0 clean, 2 usage/I-O error, 3 findings.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Finding {
  std::string file;  ///< path with '/' separators, relative to the scan root
  int line = 0;
  std::string rule;
  std::string message;
  bool suppressed = false;
};

struct Suppression {
  std::string rule;
  std::string path;  ///< suffix-matched against the finding's file path
  int line = 0;      ///< 0 = any line
  int source_line = 0;
  bool used = false;
};

struct Options {
  std::vector<std::string> roots;
  std::string suppression_file;
  bool json = false;
  bool check = false;
};

/// Files allowed to use the banned nondeterminism sources.
constexpr std::string_view kBannedCallExempt[] = {
    "src/stats/rng.h",
    "src/stats/rng.cpp",
    "src/core/version.h",
    "src/core/version.cpp",
};

/// Identifiers that poison determinism wherever they appear.
constexpr std::string_view kBannedTypes[] = {"random_device", "system_clock"};

/// Banned when called as a free (or std::) function: `name(`.
constexpr std::string_view kBannedFunctions[] = {"rand", "srand", "time",
                                                 "getenv"};

/// The declared raw-time conversion boundary: files that may spell times
/// as raw doubles / int64_t nanoseconds. units.h and time.h *are* the
/// converters; stats/ carries the empirical distributions whose domain is
/// calibrated double seconds; scoreboard/vm/sampler are the prediction
/// VM's cost-model core, which computes in those same double seconds.
constexpr std::string_view kRawTimeExempt[] = {
    // The unit types themselves and their converter boundary.
    "src/core/units.h", "src/des/time.h",
    // Continuous cost-model domain: seconds-valued statistics, fitted
    // model parameters and scaling observations are double by design
    // (they carry fractional seconds through regression and summaries).
    "src/stats", "src/scaling", "src/core/predict.h",
    "src/core/theoretical.h", "src/core/scoreboard.h", "src/core/vm.h",
    "src/core/sampler.h",
};

/// Name suffixes that mark a value as a time quantity in some fixed unit.
constexpr std::string_view kTimeSuffixes[] = {
    "_ns", "_us", "_ms", "_sec", "_secs", "_seconds",
    "_micros", "_millis", "_nanos",
};

/// Substrings that mark a name as time-valued whatever the unit.
constexpr std::string_view kTimeWords[] = {
    "timeout", "deadline", "latency", "duration",
    "lookahead", "overhead", "_time", "time_",
};

/// Tokens that mean allocation, locking or iostream inside a hot-path fence.
// clang-format off
constexpr std::string_view kHotPathBanned[] = {
    // allocation
    "new", "delete", "malloc", "calloc", "realloc", "free", "strdup",
    "make_unique", "make_shared",
    // locking
    "mutex", "shared_mutex", "lock_guard", "unique_lock", "scoped_lock",
    "shared_lock", "condition_variable", "MutexLock", "CondVar",
    // iostream / formatting
    "cout", "cerr", "clog", "endl", "printf", "fprintf", "sprintf",
    "snprintf", "ostringstream", "istringstream", "stringstream"};
// clang-format on

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool is_header(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".hh";
}

bool is_source_file(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".hh" || ext == ".cpp" ||
         ext == ".cc" || ext == ".cxx";
}

std::string generic_path(const fs::path& path) {
  return path.generic_string();
}

/// True when `entry` names `path` itself (trailing components) or a
/// directory it lives in (component-aligned substring, e.g. "src/stats"
/// matches "../src/stats/rng.h").
bool path_matches_file_or_dir(std::string_view path, std::string_view entry) {
  const std::string needle = "/" + std::string{entry} + "/";
  const std::string haystack = "/" + std::string{path};
  return (haystack + "/").find(needle) != std::string::npos;
}

/// True when `suffix` matches whole trailing path components of `path`.
bool path_suffix_match(std::string_view path, std::string_view suffix) {
  if (suffix.size() > path.size()) return false;
  if (path.size() == suffix.size()) return path == suffix;
  if (path.compare(path.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  return path[path.size() - suffix.size() - 1] == '/';
}

/// One line of a file with comments/strings blanked out (kept the same
/// length so columns survive) plus the raw text for marker scanning.
struct CodeLine {
  std::string code;
  std::string raw;
};

/// Strips // and /* */ comments, string and char literals. Tracks block
/// comments and raw strings across lines. Comment text is preserved in
/// `raw` so `// LINT:` markers stay visible.
class Scrubber {
 public:
  CodeLine scrub(const std::string& line) {
    std::string code;
    code.reserve(line.size());
    std::size_t i = 0;
    while (i < line.size()) {
      if (in_block_comment_) {
        const std::size_t end = line.find("*/", i);
        if (end == std::string::npos) {
          code.append(line.size() - i, ' ');
          i = line.size();
        } else {
          code.append(end + 2 - i, ' ');
          i = end + 2;
          in_block_comment_ = false;
        }
        continue;
      }
      if (in_raw_string_) {
        const std::size_t end = line.find(raw_terminator_, i);
        if (end == std::string::npos) {
          code.append(line.size() - i, ' ');
          i = line.size();
        } else {
          code.append(end + raw_terminator_.size() - i, ' ');
          i = end + raw_terminator_.size();
          in_raw_string_ = false;
        }
        continue;
      }
      const char c = line[i];
      if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') {
        code.append(line.size() - i, ' ');
        break;
      }
      if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
        in_block_comment_ = true;
        code.append(2, ' ');
        i += 2;
        continue;
      }
      if (c == 'R' && i + 1 < line.size() && line[i + 1] == '"' &&
          (i == 0 || !is_ident_char(line[i - 1]))) {
        const std::size_t paren = line.find('(', i + 2);
        if (paren != std::string::npos) {
          raw_terminator_ =
              ")" + line.substr(i + 2, paren - i - 2) + "\"";
          in_raw_string_ = true;
          code.append(paren + 1 - i, ' ');
          i = paren + 1;
          continue;
        }
      }
      if (c == '"' || c == '\'') {
        const char quote = c;
        code.push_back(' ');
        ++i;
        while (i < line.size()) {
          if (line[i] == '\\' && i + 1 < line.size()) {
            code.append(2, ' ');
            i += 2;
            continue;
          }
          const bool closing = line[i] == quote;
          code.push_back(' ');
          ++i;
          if (closing) break;
        }
        continue;
      }
      code.push_back(c);
      ++i;
    }
    return CodeLine{std::move(code), line};
  }

 private:
  bool in_block_comment_ = false;
  bool in_raw_string_ = false;
  std::string raw_terminator_;
};

struct Token {
  std::string text;
  std::size_t column = 0;
};

std::vector<Token> tokenize_identifiers(const std::string& code) {
  std::vector<Token> tokens;
  std::size_t i = 0;
  while (i < code.size()) {
    if (is_ident_char(code[i]) &&
        std::isdigit(static_cast<unsigned char>(code[i])) == 0) {
      const std::size_t start = i;
      while (i < code.size() && is_ident_char(code[i])) ++i;
      tokens.push_back(Token{code.substr(start, i - start), start});
    } else {
      ++i;
    }
  }
  return tokens;
}

char next_nonspace(const std::string& code, std::size_t from) {
  for (std::size_t i = from; i < code.size(); ++i) {
    if (code[i] != ' ' && code[i] != '\t') return code[i];
  }
  return '\0';
}

/// The two non-space characters before `column`, most recent first.
std::string prev_nonspace2(const std::string& code, std::size_t column) {
  std::string out;
  for (std::size_t i = column; i > 0 && out.size() < 2;) {
    --i;
    if (code[i] != ' ' && code[i] != '\t') out.push_back(code[i]);
  }
  return out;
}

/// The identifier immediately preceding `::` before `column`, if any.
std::string qualifier_before(const std::string& code, std::size_t column) {
  std::size_t i = column;
  while (i >= 2 && code[i - 1] == ':' && code[i - 2] == ':') {
    i -= 2;
    const std::size_t end = i;
    while (i > 0 && is_ident_char(code[i - 1])) --i;
    return code.substr(i, end - i);
  }
  return {};
}

class Linter {
 public:
  explicit Linter(std::vector<Finding>& findings) : findings_{findings} {}

  void lint_file(const fs::path& path, const std::string& display) {
    std::ifstream in{path};
    if (!in) {
      report(display, 0, "io-error", "cannot open file");
      return;
    }
    const bool header = is_header(path);
    const bool banned_exempt = std::any_of(
        std::begin(kBannedCallExempt), std::end(kBannedCallExempt),
        [&](std::string_view exempt) {
          return path_suffix_match(display, exempt);
        });
    const bool raw_time_exempt = std::any_of(
        std::begin(kRawTimeExempt), std::end(kRawTimeExempt),
        [&](std::string_view exempt) {
          return path_matches_file_or_dir(display, exempt);
        });
    Scrubber scrubber;
    bool in_hot_path = false;
    int hot_path_open_line = 0;
    std::string line;
    int line_no = 0;
    std::vector<std::pair<int, std::string>> mutex_members;
    // Scrubbed code for the whole file: GUARDED_BY partners must appear in
    // code, not in a comment that merely talks about the annotation.
    std::string code_text;
    std::string text;
    {
      std::ostringstream whole;
      whole << in.rdbuf();
      text = whole.str();
    }
    std::istringstream stream{text};
    while (std::getline(stream, line)) {
      ++line_no;
      const CodeLine scrubbed = scrubber.scrub(line);
      const std::string& code = scrubbed.code;
      if (header) {
        code_text += code;
        code_text += '\n';
      }

      // Fence markers live in comments, so look at the raw line.
      const std::size_t marker = scrubbed.raw.find("LINT:hot-path");
      if (marker != std::string::npos) {
        const std::string_view rest =
            std::string_view{scrubbed.raw}.substr(marker);
        if (rest.find("begin") != std::string_view::npos) {
          if (in_hot_path) {
            report(display, line_no, "unbalanced-fence",
                   "nested LINT:hot-path begin (previous begin at line " +
                       std::to_string(hot_path_open_line) + ")");
          }
          in_hot_path = true;
          hot_path_open_line = line_no;
          continue;
        }
        if (rest.find("end") != std::string_view::npos) {
          if (!in_hot_path) {
            report(display, line_no, "unbalanced-fence",
                   "LINT:hot-path end without begin");
          }
          in_hot_path = false;
          continue;
        }
      }

      const std::vector<Token> tokens = tokenize_identifiers(code);

      if (header) {
        for (std::size_t t = 0; t + 1 < tokens.size(); ++t) {
          if (tokens[t].text == "using" && tokens[t + 1].text == "namespace") {
            report(display, line_no, "using-namespace",
                   "`using namespace` in a header leaks into every includer");
          }
        }
      }

      for (const Token& token : tokens) {
        if (!banned_exempt) check_banned(display, line_no, code, token);
        if (in_hot_path) check_hot_path(display, line_no, token);
      }

      if (header) {
        collect_mutex_member(code, tokens, line_no, mutex_members);
        if (!raw_time_exempt) {
          check_raw_time(display, line_no, code, tokens);
        }
      }
    }
    if (in_hot_path) {
      report(display, hot_path_open_line, "unbalanced-fence",
             "LINT:hot-path begin without end");
    }
    for (const auto& [decl_line, name] : mutex_members) {
      if (code_text.find("GUARDED_BY(" + name + ")") == std::string::npos) {
        report(display, decl_line, "unannotated-mutex",
               "mutex member `" + name +
                   "` has no GUARDED_BY partner in this header");
      }
    }
  }

 private:
  void report(const std::string& file, int line, std::string rule,
              std::string message) {
    findings_.push_back(
        Finding{file, line, std::move(rule), std::move(message)});
  }

  void check_banned(const std::string& file, int line_no,
                    const std::string& code, const Token& token) {
    for (const std::string_view banned : kBannedTypes) {
      if (token.text == banned) {
        report(file, line_no, "banned-call",
               "std::" + token.text +
                   " is nondeterministic; derive randomness and clocks from "
                   "the seed (stats/rng.h)");
        return;
      }
    }
    for (const std::string_view banned : kBannedFunctions) {
      if (token.text != banned) continue;
      // A call looks like `name(`; skip members (`x.time(...)`,
      // `x->free(...)`) and qualified names other than std::.
      if (next_nonspace(code, token.column + token.text.size()) != '(') {
        continue;
      }
      const std::string prev = prev_nonspace2(code, token.column);
      if (!prev.empty() && (prev[0] == '.' || prev == ">-")) continue;
      if (!prev.empty() && prev[0] == ':') {
        const std::string qualifier = qualifier_before(code, token.column);
        if (qualifier != "std") continue;
      }
      report(file, line_no, "banned-call",
             token.text +
                 "() is nondeterministic (or environment-dependent); only "
                 "src/stats/rng.* and src/core/version.* may use it");
      return;
    }
  }

  /// Flags `double name` / `int64_t name` declarations (parameters and
  /// members alike) in headers when `name` reads as a time quantity. The
  /// declaration shape is `type name` followed by one of `, ) ; =` — which
  /// excludes `double seconds()` (function names are followed by `(`).
  void check_raw_time(const std::string& file, int line_no,
                      const std::string& code,
                      const std::vector<Token>& tokens) {
    for (std::size_t t = 0; t + 1 < tokens.size(); ++t) {
      const std::string& type = tokens[t].text;
      if (type != "double" && type != "int64_t") continue;
      const Token& name = tokens[t + 1];
      if (next_nonspace(code, tokens[t].column + type.size()) !=
          name.text[0]) {
        continue;
      }
      const char after =
          next_nonspace(code, name.column + name.text.size());
      if (after != ',' && after != ')' && after != ';' && after != '=') {
        continue;
      }
      if (!is_time_named(name.text)) continue;
      report(file, line_no, "raw-time-param",
             "raw " + type + " time quantity `" + name.text +
                 "` in a header; use units::SimTime / units::Duration "
                 "(core/units.h) and convert at the declared boundary");
    }
  }

  [[nodiscard]] static bool is_time_named(std::string_view name) {
    for (const std::string_view suffix : kTimeSuffixes) {
      if (name.size() >= suffix.size() &&
          name.substr(name.size() - suffix.size()) == suffix) {
        return true;
      }
    }
    for (const std::string_view word : kTimeWords) {
      if (name.find(word) != std::string_view::npos) return true;
    }
    for (const std::string_view exact :
         {std::string_view{"ns"}, std::string_view{"us"},
          std::string_view{"ms"}, std::string_view{"seconds"},
          std::string_view{"micros"}, std::string_view{"millis"},
          std::string_view{"nanos"}}) {
      if (name == exact) return true;
    }
    return false;
  }

  void check_hot_path(const std::string& file, int line_no,
                      const Token& token) {
    for (const std::string_view banned : kHotPathBanned) {
      if (token.text == banned) {
        report(file, line_no, "hot-path",
               "`" + token.text +
                   "` inside a LINT:hot-path fence (no allocation, locks, or "
                   "iostream on the dispatch/forwarding paths)");
        return;
      }
    }
  }

  /// Detects `std::mutex name_;`-style member declarations in headers.
  /// Recognised mutex spellings: std::mutex, std::shared_mutex,
  /// pevpm::Mutex / Mutex, SharedMutex. Bare std::mutex members are
  /// additionally rejected: the annotated wrapper is mandatory so the
  /// thread-safety analysis can see the lock.
  void collect_mutex_member(
      const std::string& code, const std::vector<Token>& tokens, int line_no,
      std::vector<std::pair<int, std::string>>& mutex_members) {
    for (std::size_t t = 0; t < tokens.size(); ++t) {
      const std::string& text = tokens[t].text;
      const bool std_mutex = text == "mutex" || text == "shared_mutex";
      const bool wrapper = text == "Mutex" || text == "SharedMutex";
      if (!std_mutex && !wrapper) continue;
      if (std_mutex && qualifier_before(code, tokens[t].column) != "std") {
        continue;
      }
      if (t + 1 >= tokens.size()) continue;
      const Token& name = tokens[t + 1];
      // Member declaration: `type name;` with nothing but whitespace
      // between, terminated by ';' (no parens — rules out functions,
      // locals are caught too but project style keeps members in headers).
      if (next_nonspace(code, tokens[t].column + text.size()) !=
          name.text[0]) {
        continue;
      }
      if (next_nonspace(code, name.column + name.text.size()) != ';') {
        continue;
      }
      mutex_members.emplace_back(line_no, name.text);
    }
  }

  std::vector<Finding>& findings_;
};

std::vector<Suppression> load_suppressions(const std::string& path,
                                           std::string& error) {
  std::vector<Suppression> out;
  std::ifstream in{path};
  if (!in) {
    error = "cannot open suppression file " + path;
    return out;
  }
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields{line};
    std::string rule;
    std::string where;
    if (!(fields >> rule)) continue;  // blank / comment-only line
    if (!(fields >> where)) {
      error = path + ":" + std::to_string(line_no) +
              ": suppression needs `rule path[:line]`";
      return out;
    }
    Suppression s;
    s.rule = rule;
    s.source_line = line_no;
    const std::size_t colon = where.rfind(':');
    if (colon != std::string::npos &&
        where.find_first_not_of("0123456789", colon + 1) ==
            std::string::npos &&
        colon + 1 < where.size()) {
      s.path = where.substr(0, colon);
      s.line = std::stoi(where.substr(colon + 1));
    } else {
      s.path = where;
    }
    out.push_back(std::move(s));
  }
  return out;
}

void apply_suppressions(std::vector<Finding>& findings,
                        std::vector<Suppression>& suppressions) {
  for (Finding& finding : findings) {
    for (Suppression& s : suppressions) {
      if (s.rule != finding.rule && s.rule != "*") continue;
      if (!path_suffix_match(finding.file, s.path)) continue;
      if (s.line != 0 && s.line != finding.line) continue;
      s.used = true;
      finding.suppressed = true;
      break;
    }
  }
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned char>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

void print_json(const std::vector<Finding>& findings,
                const std::vector<Suppression>& stale, int files_checked) {
  std::string out = "{\"findings\":[";
  bool first = true;
  for (const Finding& f : findings) {
    if (f.suppressed) continue;
    if (!first) out += ',';
    first = false;
    out += "{\"file\":\"" + json_escape(f.file) + "\",\"line\":" +
           std::to_string(f.line) + ",\"rule\":\"" + json_escape(f.rule) +
           "\",\"message\":\"" + json_escape(f.message) + "\"}";
  }
  out += "],\"stale_suppressions\":[";
  first = true;
  for (const Suppression& s : stale) {
    if (!first) out += ',';
    first = false;
    out += "{\"rule\":\"" + json_escape(s.rule) + "\",\"path\":\"" +
           json_escape(s.path) + "\",\"line\":" + std::to_string(s.line) +
           ",\"source_line\":" + std::to_string(s.source_line) + "}";
  }
  out += "],\"files_checked\":" + std::to_string(files_checked) + "}";
  std::cout << out << "\n";
}

void usage(std::ostream& os) {
  os << "usage: repro_lint [--check] [--json] [--suppressions FILE] "
        "[PATH...]\n"
        "Lints C++ sources for determinism and locking-discipline "
        "violations.\n"
        "PATH defaults to src/. Directories are walked recursively; "
        "explicit\n"
        "files are linted regardless of extension.\n"
        "  --check          fail (exit 3) on stale suppressions too\n"
        "  --json           machine-readable output\n"
        "  --suppressions   checked-in allowlist (rule path[:line] per "
        "line)\n"
        "Exit codes: 0 clean, 2 usage/IO error, 3 findings.\n";
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json") {
      options.json = true;
    } else if (arg == "--check") {
      options.check = true;
    } else if (arg == "--suppressions") {
      if (i + 1 >= argc) {
        std::cerr << "repro_lint: --suppressions needs a file\n";
        return 2;
      }
      options.suppression_file = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "repro_lint: unknown flag " << arg << "\n";
      usage(std::cerr);
      return 2;
    } else {
      options.roots.emplace_back(arg);
    }
  }
  if (options.roots.empty()) options.roots.emplace_back("src");

  std::vector<Suppression> suppressions;
  if (!options.suppression_file.empty()) {
    std::string error;
    suppressions = load_suppressions(options.suppression_file, error);
    if (!error.empty()) {
      std::cerr << "repro_lint: " << error << "\n";
      return 2;
    }
  }

  std::vector<Finding> findings;
  Linter linter{findings};
  int files_checked = 0;
  for (const std::string& root : options.roots) {
    const fs::path path{root};
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
      std::vector<fs::path> files;
      for (const auto& entry :
           fs::recursive_directory_iterator{path, ec}) {
        if (entry.is_regular_file() && is_source_file(entry.path())) {
          files.push_back(entry.path());
        }
      }
      std::sort(files.begin(), files.end());  // deterministic report order
      for (const fs::path& file : files) {
        linter.lint_file(file, generic_path(file));
        ++files_checked;
      }
    } else if (fs::is_regular_file(path, ec)) {
      linter.lint_file(path, generic_path(path));
      ++files_checked;
    } else {
      std::cerr << "repro_lint: no such file or directory: " << root << "\n";
      return 2;
    }
  }

  apply_suppressions(findings, suppressions);
  std::vector<Suppression> stale;
  for (const Suppression& s : suppressions) {
    if (!s.used) stale.push_back(s);
  }

  if (options.json) {
    print_json(findings, stale, files_checked);
  } else {
    for (const Finding& f : findings) {
      if (f.suppressed) continue;
      std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
                << f.message << "\n";
    }
    for (const Suppression& s : stale) {
      std::cout << options.suppression_file << ":" << s.source_line
                << ": [stale-suppression] `" << s.rule << " " << s.path
                << "` matched nothing"
                << (options.check ? "" : " (ignored without --check)")
                << "\n";
    }
  }

  const bool has_findings =
      std::any_of(findings.begin(), findings.end(),
                  [](const Finding& f) { return !f.suppressed; });
  const bool stale_fail = options.check && !stale.empty();
  if (has_findings || stale_fail) return 3;
  if (!options.json) {
    std::cout << "repro_lint: clean (" << files_checked << " files)\n";
  }
  return 0;
}
