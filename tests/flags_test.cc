#include "common/flags.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace gepc {
namespace {

/// Owns argv storage for one parse: Parse(table, {"--a", "1"}) parses as
/// if the tool had been run with those arguments.
Status Parse(FlagTable* table, std::vector<std::string> args) {
  args.insert(args.begin(), "tool");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return table->Parse(static_cast<int>(argv.size()), argv.data());
}

bool MentionsFlag(const Status& status, const std::string& flag) {
  return status.message().find(flag) != std::string::npos;
}

TEST(FlagsTest, BothValueSyntaxesAreAccepted) {
  std::string in;
  int threads = 1;
  FlagTable table = {Flag::String("in", &in),
                     Flag::Int("threads", &threads, 1, 64)};
  ASSERT_TRUE(Parse(&table, {"--in", "a.gepc", "--threads=8"}).ok());
  EXPECT_EQ(in, "a.gepc");
  EXPECT_EQ(threads, 8);
  ASSERT_TRUE(Parse(&table, {"--in=b=c.gepc", "--threads", "3"}).ok());
  EXPECT_EQ(in, "b=c.gepc");  // only the first '=' splits
  EXPECT_EQ(threads, 3);
}

TEST(FlagsTest, UnsetFlagsKeepTheirDefaults) {
  int threads = 7;
  std::string in = "default";
  FlagTable table = {Flag::String("in", &in),
                     Flag::Int("threads", &threads, 1, 64)};
  ASSERT_TRUE(Parse(&table, {}).ok());
  EXPECT_EQ(threads, 7);
  EXPECT_EQ(in, "default");
}

TEST(FlagsTest, MissingValueIsAnError) {
  std::string in;
  FlagTable table = {Flag::String("in", &in)};
  const Status status = Parse(&table, {"--in"});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(MentionsFlag(status, "--in")) << status;
}

TEST(FlagsTest, BoolTakesNoValue) {
  bool reorder = false;
  FlagTable table = {Flag::Bool("reorder", &reorder)};
  const Status status = Parse(&table, {"--reorder=1"});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(MentionsFlag(status, "--reorder")) << status;
  EXPECT_FALSE(reorder);
  ASSERT_TRUE(Parse(&table, {"--reorder"}).ok());
  EXPECT_TRUE(reorder);
}

TEST(FlagsTest, BoolDoesNotSwallowTheNextArgument) {
  bool quick = false;
  FlagTable table = {Flag::Bool("quick", &quick)};
  EXPECT_FALSE(Parse(&table, {"--quick", "true"}).ok());
}

TEST(FlagsTest, UnknownFlagIsNamed) {
  std::string in;
  FlagTable table = {Flag::String("in", &in)};
  const Status status = Parse(&table, {"--frobnicate", "3"});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(MentionsFlag(status, "--frobnicate")) << status;
  // A prefix of a known flag is not that flag.
  EXPECT_FALSE(Parse(&table, {"--i", "x"}).ok());
}

TEST(FlagsTest, StrayPositionalIsAnError) {
  std::string in;
  FlagTable table = {Flag::String("in", &in)};
  const Status status = Parse(&table, {"--in", "a", "extra"});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(MentionsFlag(status, "extra")) << status;
  EXPECT_FALSE(Parse(&table, {"-in", "a"}).ok());
  EXPECT_FALSE(Parse(&table, {"--"}).ok());
}

TEST(FlagsTest, IntRejectsGarbageAndOutOfRange) {
  int value = 5;
  FlagTable table = {Flag::Int("n", &value, 1, 100)};
  for (const char* bad : {"", "abc", "12x", "4.5", " 4", "0", "101", "-3",
                          "99999999999999999999"}) {
    const Status status = Parse(&table, {"--n", bad});
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_TRUE(MentionsFlag(status, "--n")) << status;
  }
  EXPECT_EQ(value, 5);  // no failed parse stored anything
  ASSERT_TRUE(Parse(&table, {"--n", "1"}).ok());
  EXPECT_EQ(value, 1);
  ASSERT_TRUE(Parse(&table, {"--n=100"}).ok());
  EXPECT_EQ(value, 100);
}

TEST(FlagsTest, NegativeIntsParseAsValues) {
  int value = 0;
  FlagTable table = {Flag::Int("n", &value, -10, 10)};
  ASSERT_TRUE(Parse(&table, {"--n", "-3"}).ok());
  EXPECT_EQ(value, -3);
}

TEST(FlagsTest, Uint64RejectsSignsAndGarbage) {
  uint64_t seed = 42;
  FlagTable table = {Flag::Uint64("seed", &seed)};
  for (const char* bad : {"-1", "7x", "", "+7", "18446744073709551616"}) {
    EXPECT_FALSE(Parse(&table, {"--seed", bad}).ok()) << bad;
  }
  EXPECT_EQ(seed, 42u);
  ASSERT_TRUE(Parse(&table, {"--seed", "18446744073709551615"}).ok());
  EXPECT_EQ(seed, 18446744073709551615ull);
}

TEST(FlagsTest, DoubleHonoursItsBounds) {
  double skew = 2.0;
  double scale = 1.0;
  FlagTable table = {
      Flag::Double("skew", &skew, 0.0),
      Flag::Double("scale", &scale, 0.0, 1.0, /*min_exclusive=*/true)};
  for (const char* bad : {"-0.5", "nope", "1.5x", "nan", "inf", ""}) {
    EXPECT_FALSE(Parse(&table, {"--skew", bad}).ok()) << bad;
  }
  EXPECT_FALSE(Parse(&table, {"--scale", "0"}).ok());
  EXPECT_FALSE(Parse(&table, {"--scale", "1.01"}).ok());
  EXPECT_EQ(skew, 2.0);
  EXPECT_EQ(scale, 1.0);
  ASSERT_TRUE(Parse(&table, {"--skew=0", "--scale", "0.25"}).ok());
  EXPECT_EQ(skew, 0.0);
  EXPECT_EQ(scale, 0.25);
  ASSERT_TRUE(Parse(&table, {"--scale=1", "--skew", "1e1"}).ok());
  EXPECT_EQ(scale, 1.0);
  EXPECT_EQ(skew, 10.0);
}

TEST(FlagsTest, EnumAcceptsOnlyItsChoices) {
  std::string algorithm = "greedy";
  FlagTable table = {
      Flag::Enum("algorithm", &algorithm, {"greedy", "gap", "regret"})};
  const Status status = Parse(&table, {"--algorithm", "GAP"});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(MentionsFlag(status, "greedy|gap|regret")) << status;
  EXPECT_EQ(algorithm, "greedy");
  ASSERT_TRUE(Parse(&table, {"--algorithm=regret"}).ok());
  EXPECT_EQ(algorithm, "regret");
}

TEST(FlagsTest, CustomErrorsAreAttributedToTheFlag) {
  std::string host = "127.0.0.1";
  int port = 0;
  FlagTable table = {Flag::Custom("listen", [&](const std::string& spec) {
    return ParseHostPort(spec, 0, &host, &port);
  })};
  ASSERT_TRUE(Parse(&table, {"--listen", "9000"}).ok());
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 9000);
  ASSERT_TRUE(Parse(&table, {"--listen=0.0.0.0:0"}).ok());
  EXPECT_EQ(host, "0.0.0.0");
  EXPECT_EQ(port, 0);
  for (const char* bad : {":80", "host:", "host:80x", "65536", "-1"}) {
    const Status status = Parse(&table, {"--listen", bad});
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_TRUE(MentionsFlag(status, "--listen")) << status;
  }
}

TEST(FlagsTest, RepeatableFlagCollectsEveryValue) {
  std::vector<std::string> ops;
  FlagTable table = {Flag::Repeated("op", &ops)};
  ASSERT_TRUE(Parse(&table, {"--op", "eta:0:1", "--op=xi:1:3"}).ok());
  EXPECT_EQ(ops, (std::vector<std::string>{"eta:0:1", "xi:1:3"}));
}

TEST(FlagsTest, OptionalValueTakesOnlyTheEqualsForm) {
  std::string metrics = "untouched";
  FlagTable table = {Flag::OptionalValue("metrics", &metrics)};
  ASSERT_TRUE(Parse(&table, {"--metrics"}).ok());
  EXPECT_EQ(metrics, "");
  EXPECT_TRUE(table.IsSet("metrics"));
  ASSERT_TRUE(Parse(&table, {"--metrics=out.prom"}).ok());
  EXPECT_EQ(metrics, "out.prom");
  // The separate token is a stray positional, not the flag's value.
  EXPECT_FALSE(Parse(&table, {"--metrics", "out.prom"}).ok());
}

TEST(FlagsTest, LastScalarWins) {
  int threads = 1;
  std::string in;
  FlagTable table = {Flag::Int("threads", &threads, 1, 64),
                     Flag::String("in", &in)};
  ASSERT_TRUE(
      Parse(&table, {"--threads", "2", "--in=a", "--threads=4", "--in", "b"})
          .ok());
  EXPECT_EQ(threads, 4);
  EXPECT_EQ(in, "b");
}

TEST(FlagsTest, IsSetReportsOnlyGivenFlags) {
  int days = 0;
  bool resolve = false;
  FlagTable table = {Flag::Int("days", &days, 1, 10),
                     Flag::Bool("resolve", &resolve)};
  ASSERT_TRUE(Parse(&table, {"--days", "3"}).ok());
  EXPECT_TRUE(table.IsSet("days"));
  EXPECT_FALSE(table.IsSet("resolve"));
  EXPECT_FALSE(table.IsSet("unknown"));
}

TEST(FlagsTest, ParseCanStartAfterACommandWord) {
  std::vector<std::string> args = {"tool", "stats", "--in", "a.gepc"};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  const int argc = static_cast<int>(argv.size());
  auto command = CommandWord(argc, argv.data());
  ASSERT_TRUE(command.ok());
  EXPECT_EQ(*command, "stats");
  std::string in;
  FlagTable table = {Flag::String("in", &in)};
  ASSERT_TRUE(table.Parse(argc, argv.data(), /*first=*/2).ok());
  EXPECT_EQ(in, "a.gepc");
  EXPECT_FALSE(CommandWord(1, argv.data()).ok());
}

}  // namespace
}  // namespace gepc
