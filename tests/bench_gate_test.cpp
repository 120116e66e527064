// The bench result-and-gate module (bench/gate.h): each rule flags exactly
// the key that breaks it, holds on equal values, and treats a key missing
// from either document as a miss; emit() writes what it prints.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gate.h"

namespace {

using serve::Json;
using Keys = std::vector<std::string>;

Json doc(std::initializer_list<std::pair<const char*, double>> values) {
  Json out{Json::Object{}};
  for (const auto& [key, value] : values) out.set(key, value);
  return out;
}

TEST(BenchGate, AtLeastFractionFlagsOnlyTheFallenKey) {
  const Json baseline = doc({{"a", 100.0}, {"b", 100.0}});
  const Json result = doc({{"a", 80.0}, {"b", 79.9}});
  gate::Checker check{result, baseline};
  check.at_least_fraction("a", 0.8);
  check.at_least_fraction("b", 0.8);
  EXPECT_EQ(check.failed(), Keys{"b"});
  EXPECT_EQ(check.finish("baseline.json"), 1);
}

TEST(BenchGate, AtMostFactorFlagsOnlyTheRisenKey) {
  const Json baseline = doc({{"a", 10.0}, {"b", 10.0}});
  const Json result = doc({{"a", 12.0}, {"b", 12.1}});
  gate::Checker check{result, baseline};
  check.at_most_factor("a", 1.2);
  check.at_most_factor("b", 1.2);
  EXPECT_EQ(check.failed(), Keys{"b"});
}

TEST(BenchGate, AtMostPlusFlagsOnlyTheRisenKey) {
  const Json baseline = doc({{"a", 4.0}, {"b", 4.0}});
  const Json result = doc({{"a", 9.0}, {"b", 9.5}});
  gate::Checker check{result, baseline};
  check.at_most_plus("a", 5.0);
  check.at_most_plus("b", 5.0);
  EXPECT_EQ(check.failed(), Keys{"b"});
}

TEST(BenchGate, RequireFlagsOnlyTheKeyOutsideItsRange) {
  const Json result = doc({{"zero", 0.0}, {"one", 1.0}, {"low", 2.9}});
  const Json baseline{Json::Object{}};
  gate::Checker check{result, baseline};
  check.require("zero", 0.0, 0.0, "must be zero");
  check.require("one", 1.0, gate::Checker::kUnbounded, "at least one");
  check.require("low", 3.0, gate::Checker::kUnbounded, "at least three");
  EXPECT_EQ(check.failed(), Keys{"low"});
}

TEST(BenchGate, EveryRuleHoldsOnEqualValues) {
  const Json same = doc({{"x", 7.0}, {"zero", 0.0}});
  gate::Checker check{same, same};
  check.at_least_fraction("x", 1.0);
  check.at_most_factor("x", 1.0);
  check.at_most_plus("x", 0.0);
  check.at_most_plus("zero", 0.0);
  check.require("x", 7.0, 7.0, "exactly seven");
  EXPECT_TRUE(check.failed().empty());
  testing::internal::CaptureStdout();
  EXPECT_EQ(check.finish("b.json"), 0);
  EXPECT_EQ(testing::internal::GetCapturedStdout(),
            "check: all gates passed against b.json\n");
}

TEST(BenchGate, KeyMissingFromEitherDocumentIsAMiss) {
  const Json full = doc({{"a", 1.0}, {"b", 1.0}, {"c", 1.0}, {"d", 1.0}});
  const Json partial = doc({{"b", 1.0}});
  {
    // Missing from the result.
    gate::Checker check{partial, full};
    check.at_least_fraction("a", 0.8);
    check.at_most_factor("b", 1.2);
    check.at_most_plus("c", 0.05);
    check.require("d", 0.0, 1.0, "in range");
    EXPECT_EQ(check.failed(), (Keys{"a", "c", "d"}));
  }
  {
    // Missing from the baseline.
    gate::Checker check{full, partial};
    check.at_least_fraction("a", 0.8);
    check.at_most_factor("b", 1.2);
    check.at_most_plus("c", 0.05);
    EXPECT_EQ(check.failed(), (Keys{"a", "c"}));
  }
}

TEST(BenchGate, NonNumberCountsAsMissing) {
  Json baseline{Json::Object{}};
  baseline.set("a", "fast");
  const Json result = doc({{"a", 1.0}});
  gate::Checker check{result, baseline};
  testing::internal::CaptureStderr();
  check.at_least_fraction("a", 0.8);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "check: a: baseline is missing it\n");
  EXPECT_EQ(check.failed(), Keys{"a"});
}

TEST(BenchGate, EachMissPrintsOneCheckLine) {
  const Json baseline = doc({{"a", 100.0}, {"b", 0.0}});
  const Json result = doc({{"a", 1.0}, {"b", 1.0}});
  gate::Checker check{result, baseline};
  testing::internal::CaptureStderr();
  check.at_least_fraction("a", 0.8);
  check.at_most_plus("b", 0.05);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(err,
            "check: a: 1 < 0.8 x baseline 100\n"
            "check: b: 1 > baseline 0 + 0.05\n");
}

/// Sets PEVPM_BENCH_JSON for one scope.
class ScopedJsonPath {
 public:
  explicit ScopedJsonPath(const std::string& path) {
    ::setenv("PEVPM_BENCH_JSON", path.c_str(), 1);
  }
  ~ScopedJsonPath() { ::unsetenv("PEVPM_BENCH_JSON"); }
  ScopedJsonPath(const ScopedJsonPath&) = delete;
  ScopedJsonPath& operator=(const ScopedJsonPath&) = delete;
};

std::string temp_path(const char* stem) {
  const char* dir = std::getenv("TMPDIR");
  return std::string{dir != nullptr ? dir : "/tmp"} + "/" + stem + "." +
         std::to_string(::getpid()) + ".json";
}

TEST(BenchGate, EmitWritesWhatItPrints) {
  Json result = doc({{"events_per_sec", 1.25e7}, {"allocs", 0.0}});
  result.set("schema", "pevpm-test-v1");
  result.set("count", std::uint64_t{18446744073709551615ULL});
  Json rows{Json::Array{}};
  rows.as_array().push_back(doc({{"threads", 2.0}}));
  result.set("rows", std::move(rows));

  const std::string path = temp_path("bench_gate_emit");
  std::string printed;
  {
    const ScopedJsonPath env{path};
    ASSERT_STREQ(gate::json_path(), path.c_str());
    testing::internal::CaptureStdout();
    ASSERT_TRUE(gate::emit(result));
    printed = testing::internal::GetCapturedStdout();
  }
  EXPECT_EQ(gate::json_path(), nullptr);
  std::ifstream in{path};
  ASSERT_TRUE(in);
  std::stringstream text;
  text << in.rdbuf();
  std::remove(path.c_str());

  EXPECT_EQ(text.str(), printed);
  const Json parsed = Json::parse(text.str());
  EXPECT_EQ(parsed.dump(), result.dump());
  EXPECT_EQ(parsed.find("count")->as_uint64(), 18446744073709551615ULL);
}

TEST(BenchGate, EmitReportsAnUnwritablePath) {
  const ScopedJsonPath env{"/nonexistent-dir/out.json"};
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  EXPECT_FALSE(gate::emit(doc({{"a", 1.0}})));
  (void)testing::internal::GetCapturedStdout();
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "cannot write /nonexistent-dir/out.json\n");
}

TEST(BenchGate, LoadBaselineReportsMissingAndMalformedFiles) {
  testing::internal::CaptureStderr();
  EXPECT_FALSE(gate::load_baseline("/nonexistent.json").has_value());
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "cannot open baseline /nonexistent.json\n");

  const std::string path = temp_path("bench_gate_bad");
  {
    std::ofstream out{path};
    out << "{\"a\": 1,";
  }
  testing::internal::CaptureStderr();
  EXPECT_FALSE(gate::load_baseline(path).has_value());
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(err.rfind("cannot parse baseline: ", 0), 0u) << err;

  {
    std::ofstream out{path};
    out << "{\"a\": 1.5}\n";
  }
  const std::optional<Json> good = gate::load_baseline(path);
  std::remove(path.c_str());
  ASSERT_TRUE(good.has_value());
  EXPECT_DOUBLE_EQ(good->find("a")->as_double(), 1.5);
}

}  // namespace
