// End-to-end tests for tools/repro_lint against the checked-in fixture
// tree (tests/lint_fixtures/): each rule fires where it must and stays
// quiet on the look-alikes, exit codes follow the 0/2/3 convention, the
// JSON output has the documented shape, and suppressions — live and
// stale — behave as the CI gate relies on.
//
// The linter binary and fixture directory are injected at compile time
// (REPRO_LINT_BIN, LINT_FIXTURE_DIR) by tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "serve/json.h"

namespace {

using serve::Json;

struct RunResult {
  int exit_code = -1;
  std::string output;
};

/// Runs the linter with `args` appended, capturing stdout+stderr.
RunResult run_lint(const std::string& args) {
  const std::string command =
      std::string{REPRO_LINT_BIN} + " " + args + " 2>&1";
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return RunResult{};
  RunResult result;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    result.output.append(buffer, n);
  }
  const int status = ::pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string fixture(const std::string& name) {
  return std::string{LINT_FIXTURE_DIR} + "/" + name;
}

/// Counts findings for `rule` at `file:line` in --json output.
int count_findings(const Json& doc, const std::string& rule,
                   const std::string& file_suffix, int line) {
  int count = 0;
  for (const Json& f : doc.find("findings")->as_array()) {
    if (f.find("rule")->as_string() != rule) continue;
    const std::string& file = f.find("file")->as_string();
    if (file.size() < file_suffix.size() ||
        file.compare(file.size() - file_suffix.size(), file_suffix.size(),
                     file_suffix) != 0) {
      continue;
    }
    if (line != 0 && f.find("line")->as_int64() != line) continue;
    ++count;
  }
  return count;
}

TEST(ReproLint, CleanFileExitsZero) {
  const RunResult result = run_lint(fixture("clean.cpp"));
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("repro_lint: clean (1 files)"),
            std::string::npos)
      << result.output;
}

TEST(ReproLint, BannedCallsAreFoundAndLookalikesAreNot) {
  const RunResult result = run_lint("--json " + fixture("banned_call.cpp"));
  EXPECT_EQ(result.exit_code, 3);
  const Json doc = Json::parse(result.output);
  // One finding per banned construct, at the exact line.
  EXPECT_EQ(count_findings(doc, "banned-call", "banned_call.cpp", 16), 1)
      << "random_device";
  EXPECT_EQ(count_findings(doc, "banned-call", "banned_call.cpp", 17), 1)
      << "srand";
  EXPECT_EQ(count_findings(doc, "banned-call", "banned_call.cpp", 18), 1)
      << "rand";
  EXPECT_EQ(count_findings(doc, "banned-call", "banned_call.cpp", 19), 1)
      << "time";
  EXPECT_EQ(count_findings(doc, "banned-call", "banned_call.cpp", 20), 1)
      << "system_clock";
  EXPECT_EQ(count_findings(doc, "banned-call", "banned_call.cpp", 21), 1)
      << "getenv";
  // Nothing from the look-alike section (member calls, fields, comments,
  // strings): exactly the six findings above, no other rules.
  EXPECT_EQ(doc.find("findings")->as_array().size(), 6u) << result.output;
}

TEST(ReproLint, HotPathFenceCatchesAllocationAndLocks) {
  const RunResult result = run_lint("--json " + fixture("hot_alloc.cpp"));
  EXPECT_EQ(result.exit_code, 3);
  const Json doc = Json::parse(result.output);
  EXPECT_EQ(count_findings(doc, "hot-path", "hot_alloc.cpp", 17), 1)
      << "new";
  EXPECT_EQ(count_findings(doc, "hot-path", "hot_alloc.cpp", 18), 1)
      << "mutex decl";
  EXPECT_EQ(count_findings(doc, "hot-path", "hot_alloc.cpp", 19), 2)
      << "lock_guard + mutex template arg";
  EXPECT_EQ(count_findings(doc, "hot-path", "hot_alloc.cpp", 21), 1)
      << "delete";
  // make_unique/make_shared outside the fence stay quiet.
  EXPECT_EQ(count_findings(doc, "hot-path", "hot_alloc.cpp", 0), 5)
      << result.output;
}

TEST(ReproLint, MailboxDrainFenceFlagsBlockingNotOverflowPath) {
  // A fenced mailbox drain with a lock-and-grow overflow path after the
  // fence. Blocking primitives and allocation inside the drain are
  // findings; the slow path outside the fence must stay quiet.
  const RunResult result = run_lint("--json " + fixture("hot_mailbox.cpp"));
  EXPECT_EQ(result.exit_code, 3);
  const Json doc = Json::parse(result.output);
  EXPECT_EQ(count_findings(doc, "hot-path", "hot_mailbox.cpp", 19), 2)
      << "unique_lock + mutex template arg";
  EXPECT_EQ(count_findings(doc, "hot-path", "hot_mailbox.cpp", 20), 1)
      << "new";
  EXPECT_EQ(count_findings(doc, "hot-path", "hot_mailbox.cpp", 21), 1)
      << "condition_variable";
  EXPECT_EQ(count_findings(doc, "hot-path", "hot_mailbox.cpp", 27), 1)
      << "delete";
  EXPECT_EQ(doc.find("findings")->as_array().size(), 5u) << result.output;
}

TEST(ReproLint, UnannotatedMutexNeedsCodePartnerNotComment) {
  const RunResult result =
      run_lint("--json " + fixture("unannotated_mutex.h"));
  EXPECT_EQ(result.exit_code, 3);
  const Json doc = Json::parse(result.output);
  // naked_ and shared_ are findings; annotated_ has a real partner, and
  // the GUARDED_BY(naked_) in the doc comment must not have counted.
  EXPECT_EQ(count_findings(doc, "unannotated-mutex", "unannotated_mutex.h",
                           19),
            1);
  EXPECT_EQ(count_findings(doc, "unannotated-mutex", "unannotated_mutex.h",
                           20),
            1);
  EXPECT_EQ(doc.find("findings")->as_array().size(), 2u) << result.output;
}

TEST(ReproLint, RawTimeParamFlagsMembersAndParametersNotAccessors) {
  const RunResult result =
      run_lint("--json " + fixture("raw_time_param.h"));
  EXPECT_EQ(result.exit_code, 3);
  const Json doc = Json::parse(result.output);
  EXPECT_EQ(count_findings(doc, "raw-time-param", "raw_time_param.h", 11), 1)
      << "double member with = initialiser";
  EXPECT_EQ(count_findings(doc, "raw-time-param", "raw_time_param.h", 12), 1)
      << "std::int64_t member, _ns suffix";
  EXPECT_EQ(count_findings(doc, "raw-time-param", "raw_time_param.h", 17), 1)
      << "double parameter, _ms suffix";
  // Accessors named seconds()/ns(), non-time names, the comment and the
  // string literal all stay quiet: exactly the three findings above.
  EXPECT_EQ(doc.find("findings")->as_array().size(), 3u) << result.output;
}

TEST(ReproLint, RawTimeParamWhitelistedBoundaryStaysQuiet) {
  // Same declarations as the flagged fixture, but under a src/stats/
  // path component — the statistics domain is a whitelisted conversion
  // boundary, so the rule must not fire.
  const RunResult result = run_lint(fixture("src/stats/raw_time_ok.h"));
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("repro_lint: clean (1 files)"),
            std::string::npos)
      << result.output;
}

TEST(ReproLint, UsingNamespaceInHeader) {
  const RunResult result =
      run_lint("--json " + fixture("using_namespace.h"));
  EXPECT_EQ(result.exit_code, 3);
  const Json doc = Json::parse(result.output);
  EXPECT_EQ(count_findings(doc, "using-namespace", "using_namespace.h", 7),
            1);
  // The comment, the string literal, and the using-declaration are quiet.
  EXPECT_EQ(doc.find("findings")->as_array().size(), 1u) << result.output;
}

TEST(ReproLint, JsonShape) {
  const RunResult result = run_lint("--json " + fixture("clean.cpp"));
  EXPECT_EQ(result.exit_code, 0);
  const Json doc = Json::parse(result.output);
  ASSERT_TRUE(doc.is_object());
  ASSERT_NE(doc.find("findings"), nullptr);
  EXPECT_TRUE(doc.find("findings")->is_array());
  ASSERT_NE(doc.find("stale_suppressions"), nullptr);
  EXPECT_TRUE(doc.find("stale_suppressions")->is_array());
  ASSERT_NE(doc.find("files_checked"), nullptr);
  EXPECT_EQ(doc.find("files_checked")->as_int64(), 1);
}

TEST(ReproLint, SuppressionsSilenceMatchingFindings) {
  const RunResult result =
      run_lint("--check --suppressions " + fixture("good.supp") + " " +
               std::string{LINT_FIXTURE_DIR});
  // Every fixture finding is suppressed and every suppression is live.
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("repro_lint: clean"), std::string::npos);
}

TEST(ReproLint, StaleSuppressionFailsOnlyInCheckMode) {
  const std::string args = "--suppressions " + fixture("stale.supp") + " " +
                           fixture("clean.cpp") + " " +
                           fixture("hot_alloc.cpp");
  // Without --check the stale entry is reported but tolerated.
  const RunResult lenient = run_lint(args);
  EXPECT_EQ(lenient.exit_code, 0) << lenient.output;
  EXPECT_NE(lenient.output.find("stale-suppression"), std::string::npos);
  // With --check (the CI mode) it is a failure.
  const RunResult strict = run_lint("--check " + args);
  EXPECT_EQ(strict.exit_code, 3) << strict.output;
  // And the JSON form names the stale entry.
  const RunResult json = run_lint("--check --json " + args);
  const Json doc = Json::parse(json.output);
  ASSERT_EQ(doc.find("stale_suppressions")->as_array().size(), 1u);
  const Json& stale = doc.find("stale_suppressions")->as_array()[0];
  EXPECT_EQ(stale.find("rule")->as_string(), "banned-call");
  EXPECT_EQ(stale.find("path")->as_string(),
            "tests/lint_fixtures/clean.cpp");
}

TEST(ReproLint, UsageErrorsExitTwo) {
  EXPECT_EQ(run_lint("--bogus-flag").exit_code, 2);
  EXPECT_EQ(run_lint("--suppressions").exit_code, 2);
  EXPECT_EQ(run_lint("/no/such/path-anywhere").exit_code, 2);
  EXPECT_EQ(run_lint("--suppressions /no/such/file " + fixture("clean.cpp"))
                .exit_code,
            2);
}

}  // namespace
