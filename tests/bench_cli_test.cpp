// The shared bench command line must *reject* bad input — unknown flags,
// missing values, malformed numbers — with a diagnostic instead of silently
// ignoring it (parse_cli prints the diagnostic plus usage and exits 2).
// parse_cli_args is the pure, env-free core under test here.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/common.hpp"

namespace olive::bench {
namespace {

struct ParseResult {
  bool ok = false;
  CliArgs args;
  std::string error;
};

ParseResult parse(const std::vector<std::string>& argv) {
  ParseResult r;
  r.ok = parse_cli_args(argv, r.args, r.error);
  return r;
}

TEST(BenchCli, ParsesEveryKnownFlag) {
  const auto r = parse({"--scale", "full", "--reps", "7", "--topology",
                        "Iris", "--algo", "OLIVE", "--json", "/tmp/x.json",
                        "--threads", "4", "--duration-s", "2.5",
                        "--target-rps", "20000"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.args.scale_choice, "full");
  EXPECT_EQ(r.args.reps, 7);
  EXPECT_EQ(r.args.topology, "Iris");
  EXPECT_EQ(r.args.algo, "OLIVE");
  EXPECT_EQ(r.args.json, "/tmp/x.json");
  EXPECT_EQ(r.args.threads, 4);
  EXPECT_DOUBLE_EQ(r.args.duration_s, 2.5);
  EXPECT_EQ(r.args.target_rps, 20000);
  EXPECT_FALSE(r.args.help);
}

TEST(BenchCli, OpenLoopFlagsDefaultToAbsent) {
  const auto r = parse({});
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.args.duration_s, 0);
  EXPECT_EQ(r.args.target_rps, 0);
}

TEST(BenchCli, DurationAcceptsIntegerAndFractionalSeconds) {
  EXPECT_DOUBLE_EQ(parse({"--duration-s", "3"}).args.duration_s, 3.0);
  EXPECT_DOUBLE_EQ(parse({"--duration-s", "0.25"}).args.duration_s, 0.25);
}

TEST(BenchCli, RejectsMalformedOpenLoopValues) {
  for (const std::string bad : {"abc", "0", "-1", "2x", ""}) {
    const auto r = parse({"--duration-s", bad});
    ASSERT_FALSE(r.ok) << bad;
    EXPECT_NE(r.error.find("positive number"), std::string::npos) << bad;
  }
  for (const std::string bad : {"abc", "0", "-5", "1.5", ""}) {
    const auto r = parse({"--target-rps", bad});
    ASSERT_FALSE(r.ok) << bad;
    EXPECT_NE(r.error.find("positive integer"), std::string::npos) << bad;
  }
}

TEST(BenchCli, EmptyCommandLineIsFine) {
  const auto r = parse({});
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.args.reps, 0);
  EXPECT_EQ(r.args.threads, 0);
  EXPECT_TRUE(r.args.scale_choice.empty());
}

TEST(BenchCli, HelpFlagIsRecognized) {
  EXPECT_TRUE(parse({"--help"}).args.help);
  EXPECT_TRUE(parse({"-h"}).args.help);
}

TEST(BenchCli, RejectsUnknownFlags) {
  const auto r = parse({"--scale", "quick", "--bogus"});
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.error.find("unknown flag"), std::string::npos);
  EXPECT_NE(r.error.find("--bogus"), std::string::npos);
  // Positional garbage is just as unknown.
  EXPECT_FALSE(parse({"Iris"}).ok);
}

TEST(BenchCli, RejectsMissingValues) {
  for (const std::string flag :
       {"--scale", "--reps", "--topology", "--algo", "--json", "--threads",
        "--duration-s", "--target-rps", "--case"}) {
    const auto r = parse({flag});
    ASSERT_FALSE(r.ok) << flag;
    EXPECT_NE(r.error.find("expects a value"), std::string::npos) << flag;
  }
}

TEST(BenchCli, RejectsMalformedScale) {
  const auto r = parse({"--scale", "medium"});
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.error.find("quick|full"), std::string::npos);
}

TEST(BenchCli, CaseFlagIsRepeatableAndDefaultsToEveryCase) {
  EXPECT_TRUE(parse({}).args.cases.empty());
  const auto r = parse({"--case", "replan_window", "--reps", "2", "--case",
                        "slotoff_window"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.args.cases,
            (std::vector<std::string>{"replan_window", "slotoff_window"}));
  const auto missing = parse({"--case"});
  ASSERT_FALSE(missing.ok);
  EXPECT_NE(missing.error.find("expects a value"), std::string::npos);
}

TEST(BenchCli, CaseNamesAreCheckedAgainstTheBench) {
  const std::vector<std::string> known = {"replan_window", "slotoff_window"};
  std::string error;
  EXPECT_TRUE(check_case_names({}, known, error));
  EXPECT_TRUE(check_case_names({"slotoff_window"}, known, error));
  EXPECT_TRUE(check_case_names({}, {}, error));
  // Exact names only: a prefix or a typo is refused with the known list.
  for (const std::string bad : {"replan", "replan_windows", ""}) {
    error.clear();
    EXPECT_FALSE(check_case_names({"replan_window", bad}, known, error)) << bad;
    EXPECT_NE(error.find("unknown case '" + bad + "'"), std::string::npos)
        << error;
    EXPECT_NE(error.find("slotoff_window"), std::string::npos) << error;
  }
  // A bench without named cases refuses --case instead of ignoring it.
  error.clear();
  EXPECT_FALSE(check_case_names({"replan_window"}, {}, error));
  EXPECT_NE(error.find("no named cases"), std::string::npos) << error;
}

TEST(BenchCli, RejectsMalformedNumbers) {
  for (const std::string flag : {"--reps", "--threads"}) {
    for (const std::string bad : {"abc", "0", "-3", "4x", ""}) {
      const auto r = parse({flag, bad});
      ASSERT_FALSE(r.ok) << flag << " " << bad;
      EXPECT_NE(r.error.find("positive integer"), std::string::npos)
          << flag << " " << bad;
    }
  }
}

}  // namespace
}  // namespace olive::bench
