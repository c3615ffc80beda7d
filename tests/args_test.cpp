#include <gtest/gtest.h>

#include "util/args.h"

namespace gapsp {
namespace {

const Flag kInput{"input", FlagKind::kText, "", "graph file"};
const Flag kDevice{"device", FlagKind::kOneOf, "v100|k80", "device preset"};
const Flag kStats{"stats", FlagKind::kSwitch, "", "print stats"};
const Flag kKeep{"keep-store", FlagKind::kSwitch, "", "keep the store"};
const Flag kStore{"store", FlagKind::kOneOf, "ram|file", "store kind"};
const Flag kOffset{"offset", FlagKind::kInteger, "0", "offset", -10, 10};
const Flag kN{"n", FlagKind::kInteger, "42", "count", 1, 1000};
const Flag kRatio{"ratio", FlagKind::kNumber, "2.5", "ratio", 0, 1};
const Command kCmd{"demo", "a test command",
                   {kInput, kDevice, kStats, kKeep, kStore, kOffset, kN,
                    kRatio}};

Args parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return Args(kCmd, static_cast<int>(argv.size()), argv.data());
}

TEST(Args, FlagWithSeparateValue) {
  const auto a = parse({"--input", "graph.mtx"});
  EXPECT_EQ(a.text("input"), "graph.mtx");
}

TEST(Args, FlagWithEqualsValue) {
  const auto a = parse({"--device=k80"});
  EXPECT_EQ(a.text("device"), "k80");
  EXPECT_EQ(a.choice("device"), 1u);
}

TEST(Args, SwitchFollowedByFlagTakesNoValue) {
  const auto a = parse({"--keep-store", "--store", "file"});
  EXPECT_TRUE(a.has("keep-store"));
  EXPECT_FALSE(a.has("stats"));
  EXPECT_EQ(a.text("store"), "file");
}

TEST(Args, SwitchGivenAValueThrows) {
  EXPECT_THROW(parse({"--keep-store=yes"}), Error);
}

TEST(Args, SwitchNeverTakesTheNextToken) {
  // "query" after a switch is a stray positional, not the switch's value.
  EXPECT_THROW(parse({"--stats", "query"}), UsageError);
}

TEST(Args, UnknownFlagIsAUsageError) {
  EXPECT_THROW(parse({"--n", "1", "--typo", "2"}), UsageError);
}

TEST(Args, ReadReturnsTheTableDefault) {
  const auto a = parse({});
  EXPECT_FALSE(a.has("n"));
  EXPECT_EQ(a.integer("n"), 42);
  EXPECT_DOUBLE_EQ(a.number("ratio"), 2.5);
  EXPECT_EQ(a.text("input"), "");
  EXPECT_EQ(a.text("device"), "v100");  // a one-of defaults to its first
  EXPECT_EQ(a.choice("device"), 0u);
}

TEST(Args, IntAndDoubleParsing) {
  const auto a = parse({"--n", "128", "--ratio", "0.25"});
  EXPECT_EQ(a.integer("n"), 128);
  EXPECT_DOUBLE_EQ(a.number("ratio"), 0.25);
}

TEST(Args, NumberWithTrailingJunkThrows) {
  EXPECT_THROW(parse({"--n", "12abc"}), Error);
  EXPECT_THROW(parse({"--ratio", "0.5x"}), Error);
  EXPECT_THROW(parse({"--n", " 12"}), Error);
  EXPECT_THROW(parse({"--n", "abc"}), Error);
}

TEST(Args, OutOfBoundsValueThrows) {
  EXPECT_THROW(parse({"--n", "0"}), Error);
  EXPECT_THROW(parse({"--n", "1001"}), Error);
  EXPECT_THROW(parse({"--ratio", "1.5"}), Error);
  EXPECT_THROW(parse({"--ratio", "nan"}), Error);
  EXPECT_EQ(parse({"--n", "1000"}).integer("n"), 1000);
}

TEST(Args, OneOfRejectsOtherValues) {
  EXPECT_THROW(parse({"--store", "File"}), Error);
}

TEST(Args, ValuedFlagWithoutValueThrows) {
  EXPECT_THROW(parse({"--input"}), Error);
  EXPECT_THROW(parse({"--n", "--stats"}), Error);
}

TEST(Args, RepeatedFlagThrows) {
  EXPECT_THROW(parse({"--n", "1", "--n", "2"}), Error);
}

TEST(Args, EmptyFlagNameThrows) { EXPECT_THROW(parse({"--", "v"}), Error); }

TEST(Args, NegativeNumberAsValue) {
  // A negative number does not start with "--", so it binds as a value.
  const auto a = parse({"--offset", "-5"});
  EXPECT_EQ(a.integer("offset"), -5);
}

TEST(Args, UsageListsEveryFlagWithItsDefault) {
  const std::string u = usage("prog", kCmd);
  EXPECT_NE(u.find("usage: prog demo"), std::string::npos) << u;
  for (const Flag& f : kCmd.flags) {
    EXPECT_NE(u.find("--" + std::string(f.name)), std::string::npos) << u;
  }
  EXPECT_NE(u.find("default 42; 1..1000"), std::string::npos) << u;
  EXPECT_NE(u.find("--device v100|k80"), std::string::npos) << u;
}

}  // namespace
}  // namespace gapsp
